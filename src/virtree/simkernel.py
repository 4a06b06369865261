"""Deterministic discrete-event simulation kernel.

Events are totally ordered by (fire_time, seq): fire times are rounded to a
fixed 1e-9 quantum when scheduled and seq is the enqueue order, so two runs of
the same scenario replay the exact same event sequence and emit byte-identical
traces.  Randomness comes from named sub-streams derived from the scenario
seed via sha256, one per (purpose, scope), consumed in event order.

Events targeting workers that died in flight are tombstoned at fire time
rather than removed from the queue, and every message copy ends the run in
exactly one of: completed, dropped (dead target / jammed link), parked,
cancelled, suppressed, or in flight at the horizon.  The run raises
ConservationError when that accounting does not balance.

Given a sink, the kernel hands the trace over in batches of about
TRACE_BATCH records, cut between events, and folds each batch into the
metrics report before dropping it, so a run holds one batch at a time.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left
from collections import defaultdict
from collections.abc import Callable

from . import adjacent as adj
from . import hierarchical as hier
from .coordinators import CoordinatorSet, monitor_round, region_live
from .errors import ConservationError, NoCandidate, RegionDead
from .messages import Message, goals_left, msg_id_str, new_command
from .metrics import MetricsReport, TraceRecord, build_report
from .scenario import DEFAULT_LATENCIES, FailureSpec, Scenario
from .topology import (
    LAYER_LEADER,
    LAYER_REGIONAL_HUB,
    build_topology,
    derive_seed,
    goal_clusters_for_scope,
    reelect_role,
)

EV_DELIVERY = "MessageDelivery"
EV_BROADCAST = "ScheduledBroadcast"
EV_MAINTENANCE = "MaintenanceRound"
EV_FAILURE = "FailureInjection"
EV_RECOVERY = "RecoveryInjection"

MAX_PARK_RETRIES = 3

# Records per batch handed to a trace sink.
TRACE_BATCH = 4096


def quantize(t: float) -> float:
    """Fixed-precision event time: everything scheduled lands on 1e-9 ticks."""
    return round(t, 9)


class _Kernel:
    def __init__(self, sc: Scenario,
                 sink: Callable[[list[TraceRecord]], object] | None = None):
        self.sc = sc
        self.sink = sink
        self.topo = build_topology(sc.config, sc.seed, adjacency=sc.adjacency_override)
        self.now = 0.0
        self.heap: list = []
        self.event_seq = 0
        self.rec_seq = 0
        self.trace: list[TraceRecord] = []  # records not yet handed to the sink
        self.report: MetricsReport | None = None
        self.leader_states = {c: adj.LeaderState(cluster_id=c) for c in self.topo.clusters}
        self.coords = {r: CoordinatorSet.initial(self.topo, r) for r in self.topo.regions}
        self.links = hier.TreeLinks.build(self.topo)
        self.wexec: set[tuple[int, tuple]] = set()
        self.relayed: set[tuple[int, tuple]] = set()
        self.parked: list[dict] = []
        self.jam: dict[str, float] = {}
        # link class -> latency: the scenario's values over the defaults
        self.latency = {**DEFAULT_LATENCIES, **sc.link_latencies}
        # never index a missing key: that would add it to the conservation output
        self.counters: defaultdict[str, int] = defaultdict(int)
        # region -> sorted alive workers of it and its adjacent regions; emptied
        # whenever a worker dies or revives or the adjacency changes
        self.reach: dict[int, list[int]] = {}
        self._rngs: dict[tuple, random.Random] = {}

    # -- plumbing ---------------------------------------------------------

    def rng(self, *labels) -> random.Random:
        key = tuple(labels)
        r = self._rngs.get(key)
        if r is None:
            r = self._rngs[key] = random.Random(derive_seed(self.sc.seed, *labels))
        return r

    def bump(self, key: str, n: int = 1):
        self.counters[key] += n

    def emit(self, comp: str, event: str, **data):
        self.trace.append(TraceRecord(self.now, self.rec_seq, comp, event, data))
        self.rec_seq += 1

    def flush(self):
        """Fold the pending records into the report and hand them to the sink."""
        self.report = build_report(self.trace, self.sc.strategy, self.report)
        self.sink(self.trace)
        self.trace = []

    def push(self, fire: float, kind: str, payload):
        heapq.heappush(self.heap, (quantize(fire), self.event_seq, kind, payload))
        self.event_seq += 1

    def _worker_class(self, w_from: int, w_to: int) -> str:
        if self.topo.cluster_of[w_from] == self.topo.cluster_of[w_to]:
            return "cluster"
        if self.topo.region_of_worker(w_from) == self.topo.region_of_worker(w_to):
            return "region"
        return "adjacent"

    def send(self, dest: tuple, m: Message, sender: dict, cls: str):
        """Enqueue one delivery; jammed link classes may eat it at send time."""
        if self.jam.get(cls, 0.0) > 0.0:
            if self.rng("jam", cls).random() < self.jam[cls]:
                self.bump("deliveries_dropped_jam")
                self.emit("kernel", "drop_jam", link_class=cls,
                          msg_id=msg_id_str(m.msg_id), dest=str(dest))
                return
        self.bump("deliveries_enqueued")
        self.push(self.now + self.latency[cls], EV_DELIVERY, (dest, m, sender, False))

    # -- failure / recovery -----------------------------------------------

    def kill_worker(self, w: int):
        if not self.topo.is_alive(w):
            return
        self.topo.mark_dead(w)
        self.reach.clear()
        self.emit("kernel", "failure", worker=w, cluster=self.topo.cluster_of[w],
                  region=self.topo.region_of_worker(w))
        c = self.topo.cluster_of[w]
        if self.topo.roles[LAYER_LEADER].get(c) == w:
            # queued broadcast events discover the cleared map and cancel
            self.leader_states[c].pending_broadcasts.clear()
        held = self.topo.roles_held_by(w)
        for layer, scope in held:
            try:
                reelect_role(self.topo, layer, scope)
                self.emit("kernel", "role_reelect", layer=layer, scope=scope,
                          old=w, new=self.topo.roles[layer][scope])
            except NoCandidate:
                self.emit("kernel", "role_vacant", layer=layer, scope=scope, old=w)
        if held:
            self.retry_parked()

    def revive_worker(self, w: int):
        if self.topo.is_alive(w):
            return
        self.topo.mark_alive(w)
        self.reach.clear()
        self.emit("kernel", "recovery", worker=w)
        # fill any vacancy in the scopes this worker belongs to
        c = self.topo.cluster_of[w]
        changed = False
        for layer, holders in self.topo.roles.items():
            scope = self.topo.scope_of(c, layer)
            if scope not in holders:
                try:
                    reelect_role(self.topo, layer, scope)
                    self.emit("kernel", "role_reelect", layer=layer, scope=scope,
                              old=None, new=holders[scope])
                    changed = True
                except NoCandidate:
                    pass
        if changed:
            self.retry_parked()

    def retry_parked(self):
        """One retry pass over parked copies after a role-map change."""
        still = []
        for entry in self.parked:
            holder = self.links.holder(entry["node"])
            if holder is not None and self.topo.is_alive(holder):
                self.bump("parked_retried_ok")
                self.emit("alg3", "noroute_retry", node=str(entry["node"]),
                          msg_id=msg_id_str(entry["msg"].msg_id), ok=True)
                self.send(("node", entry["node"]), entry["msg"],
                          {"node": entry["from"]}, "tree")
            else:
                entry["retries"] += 1
                if entry["retries"] >= MAX_PARK_RETRIES:
                    self.bump("parked_failed")
                    self.bump("delivery_failures")
                    self.emit("alg3", "delivery_failed", node=str(entry["node"]),
                              msg_id=msg_id_str(entry["msg"].msg_id))
                else:
                    still.append(entry)
        self.parked = still

    def park(self, m: Message, node, from_node):
        self.bump("parked_total")
        self.emit("alg3", "noroute_parked", node=str(node),
                  msg_id=msg_id_str(m.msg_id))
        self.parked.append({"msg": m, "node": node, "from": from_node, "retries": 0})

    # -- handlers -----------------------------------------------------------

    def handle_delivery(self, payload: tuple):
        dest, m, sender, command = payload
        if command:
            self.emit("kernel", "command_injected", msg_id=msg_id_str(m.msg_id),
                      origin=m.original_source, goals_total=len(m.goal_cluster_ids),
                      targets_total=len(m.target_worker_ids))
        kind = dest[0]
        if kind == "worker":
            self.deliver_worker(dest[1], m, sender)
        elif kind == "leader":
            self.deliver_leader(dest[1], m)
        else:
            self.deliver_node(dest[1], m, sender)

    def deliver_worker(self, w: int, m: Message, sender: dict):
        if not self.topo.is_alive(w):
            self.bump("deliveries_dropped_dead")
            self.emit("kernel", "drop_dead", worker=w, msg_id=msg_id_str(m.msg_id))
            return
        self.bump("deliveries_completed")
        mid = msg_id_str(m.msg_id)
        region = self.topo.region_of_worker(w)
        self.emit("alg1", "receive", worker=w, cluster=self.topo.cluster_of[w], region=region,
                  from_worker=sender.get("worker"), from_region=sender.get("region"),
                  msg_id=mid, hop=m.hop_count)
        me = {"worker": w, "region": region}  # sender of every copy w sends here
        for action in adj.worker_on_receive(w, m, self.topo):
            if isinstance(action, adj.ExecuteLocally):
                self.apply_execution(w, m, comp="alg1")
            elif isinstance(action, adj.ReportToLeader):
                self.bump("reports_sent")
                self.send(("leader", action.cluster), m, me, "cluster")
            else:  # BroadcastToReachable
                key = (w, m.msg_id)
                if key in self.relayed:
                    self.bump("relay_suppressed")
                    continue
                self.relayed.add(key)
                peers = self.reachable(w)
                self.emit("alg1", "relay", worker=w, msg_id=mid,
                          fanout=len(peers), hop=m.hop_count)
                for peer in peers:
                    self.send(("worker", peer), m, me, self._worker_class(w, peer))

    def reachable(self, w: int) -> list[int]:
        """``adj.reachable_workers(w)`` for an alive w, from the region cache."""
        r = self.topo.region_of_worker(w)
        reach = self.reach.get(r)
        if reach is None:
            reach = self.reach[r] = sorted([w, *adj.reachable_workers(w, self.topo)])
        i = bisect_left(reach, w)
        return reach[:i] + reach[i + 1:]

    def apply_execution(self, w: int, m: Message, comp: str):
        """Idempotent per (worker, msg): duplicates count but do not re-run."""
        key = (w, m.msg_id)
        if key in self.wexec:
            self.bump("duplicate_exec_suppressed")
            return
        self.wexec.add(key)
        self.emit(comp, "execute_worker", worker=w, msg_id=msg_id_str(m.msg_id),
                  targeted=w in m.target_worker_ids, hop=m.hop_count)

    def deliver_leader(self, c: int, m: Message):
        leader = self.topo.roles[LAYER_LEADER].get(c)
        if leader is None or not self.topo.is_alive(leader):
            self.bump("deliveries_dropped_dead")
            self.emit("kernel", "drop_dead", cluster=c, msg_id=msg_id_str(m.msg_id))
            return
        self.bump("deliveries_completed")
        state = self.leader_states[c]
        region = self.topo.scope_of(c, LAYER_REGIONAL_HUB)
        mid = msg_id_str(m.msg_id)
        decision = adj.leader_on_receive_deferred(state, m, self.topo, self.sc.delay,
                                                  self.rng("alg2", region))
        self.emit_visit("alg2", c, mid, decision)
        if decision.outcome == "scheduled":
            m2 = decision.message
            fire = quantize(self.now + decision.delay)
            state.pending_broadcasts.add(m2.msg_id)
            self.bump("broadcasts_scheduled")
            self.emit("alg2", "schedule", cluster=c, msg_id=mid,
                      distance=decision.distance, delay=decision.delay, fire=fire)
            self.push(fire, EV_BROADCAST, {"cluster": c, "leader": leader, "msg": m2})

    def emit_visit(self, comp: str, c: int, mid: str, decision):
        """The records of a leader receive, either strategy: a drop, or a
        process record, the cluster's executions and, when it ends there, stop."""
        if decision.outcome == "drop":
            self.bump(f"{comp}_drops")
            self.emit(comp, "drop", cluster=c, msg_id=mid, reason=decision.reason)
            return
        m2 = decision.message
        self.emit(comp, "process", cluster=c, msg_id=mid, hop=m2.hop_count,
                  visited=sorted(m2.visited_cluster_ids),
                  executed_here=decision.executed_here)
        if decision.executed_here:
            self.emit(comp, "execute_cluster", cluster=c, msg_id=mid, hop=m2.hop_count)
            for w in decision.delivered_workers:
                self.apply_execution(w, m2, comp=comp)
        if decision.outcome == "stop":
            self.emit(comp, "stop", cluster=c, msg_id=mid)

    def handle_broadcast(self, payload: dict):
        c = payload["cluster"]
        m: Message = payload["msg"]
        state = self.leader_states[c]
        mid = msg_id_str(m.msg_id)
        if not self.topo.is_alive(payload["leader"]):
            self.bump("broadcasts_cancelled")
            self.emit("alg2", "broadcast_cancelled", cluster=c, msg_id=mid)
            return
        state.pending_broadcasts.discard(m.msg_id)
        if not goals_left(m):
            self.bump("broadcasts_suppressed")
            self.emit("alg2", "broadcast_suppressed", cluster=c, msg_id=mid)
            return
        mb = adj.worker_broadcast(state, m)
        self.bump("broadcasts_fired")
        self.emit("alg2", "broadcast", cluster=c, msg_id=mid, hop=mb.hop_count)
        leader_region = self.topo.scope_of(c, LAYER_REGIONAL_HUB)
        for w in self.topo.workers_in_cluster[c]:
            if self.topo.is_alive(w):
                self.send(("worker", w), mb,
                          {"worker": payload["leader"], "region": leader_region},
                          "cluster")

    def deliver_node(self, node: tuple, m: Message, sender: dict):
        node = tuple(node)
        holder = self.links.holder(node)
        if holder is None or not self.topo.is_alive(holder):
            self.bump("deliveries_parked")
            self.park(m, node, sender.get("node"))
            return
        self.bump("deliveries_completed")
        mid = msg_id_str(m.msg_id)
        from_node = sender.get("node")
        if node[0] == LAYER_LEADER:  # leaf: full cluster-leader processing
            # records keep the kernel's own id object: node[1] is computed per
            # copy, and every such int would stay alive in the trace
            state = self.leader_states[node[1]]
            c = state.cluster_id
            decision = hier.leader_on_receive_immediate(state, m, self.topo, self.links,
                                                        injected=from_node is None)
            self.emit_visit("alg3", c, mid, decision)
            for tnode, fm in decision.forwards:
                self.forward_tree(node, tnode, fm)
        else:
            fwds = hier.route_interior(node, m, from_node, self.topo, self.links,
                                       self.sc.route_mode)
            self.emit("alg3", "route", node=str(node), msg_id=mid,
                      n_out=len(fwds), hop=m.hop_count)
            for tnode, fm in fwds:
                self.forward_tree(node, tnode, fm)

    def forward_tree(self, src, dst, m: Message):
        holder = self.links.holder(dst)
        if holder is None or not self.topo.is_alive(holder):
            self.park(m, dst, src)
            return
        self.emit("alg3", "forward", src=str(src), dst=str(dst),
                  msg_id=msg_id_str(m.msg_id), hop=m.hop_count)
        self.send(("node", dst), m, {"node": src}, "tree")

    def handle_maintenance(self, payload: dict):
        rnd = payload["round"]
        for r in sorted(self.coords):
            cs = self.coords[r]
            try:
                out = monitor_round(cs, self.topo, load_of=self._load_of,
                                    eager_refill=self.sc.eager_refill,
                                    single_promotion=self.sc.single_promotion)
            except RegionDead:
                self.emit("alg4", "region_dead", region=r, src_region=r,
                          dst_region=r, round=rnd, t_min=cs.t_min)
                continue
            self.emit("alg4", "round", region=r, src_region=r, dst_region=r,
                      round=rnd, removed=out.removed, promoted=out.promoted,
                      size_before=out.size_before, size_after=out.size_after,
                      alive_before=out.alive_before, degraded=out.degraded,
                      t_min=cs.t_min)

    def _load_of(self, w: int) -> int:
        c = self.topo.cluster_of[w]
        if self.topo.roles[LAYER_LEADER].get(c) == w:
            return self.leader_states[c].local_load
        return 0

    def handle_failure(self, payload: dict):
        spec: FailureSpec = payload["spec"]
        if spec.kind == "worker":
            self.kill_worker(spec.worker)
        elif spec.kind == "region":
            for w in sorted(self.topo.workers_in_region(spec.region)):
                self.kill_worker(w)
        elif spec.kind == "link":
            if spec.action == "jam":
                self.jam[spec.link_class] = spec.drop
                self.emit("kernel", "link_jam", link_class=spec.link_class, drop=spec.drop)
            else:
                self.jam.pop(spec.link_class, None)
                self.emit("kernel", "link_clear", link_class=spec.link_class)
        else:  # adjacency
            a, b = spec.edge
            adj_map = {r: set(ns) for r, ns in self.topo.region_adjacency.items()}
            if spec.action == "add":
                adj_map[a].add(b)
                adj_map[b].add(a)
            else:
                adj_map[a].discard(b)
                adj_map[b].discard(a)
            self.topo.region_adjacency = {r: tuple(sorted(ns)) for r, ns in adj_map.items()}
            self.reach.clear()
            self.emit("kernel", "link_change", action=spec.action, edge=list(spec.edge))

    # -- main loop ----------------------------------------------------------

    def schedule_initial(self):
        sc = self.sc
        seq_per_origin: dict[int, int] = {}
        for cmd in sc.commands:
            seq = seq_per_origin.get(cmd.origin, 0)
            seq_per_origin[cmd.origin] = seq + 1
            goals = goal_clusters_for_scope(self.topo, cmd.scope)
            m = new_command(cmd.origin, seq, goals, set(cmd.targets), cmd.payload)
            dest = ("leader", cmd.origin) if sc.strategy == "adjacent" \
                else ("node", (2, cmd.origin))
            self.bump("deliveries_enqueued")
            self.push(cmd.time, EV_DELIVERY, (dest, m, {}, True))
        for spec in sc.failures:
            kind = EV_RECOVERY if (spec.kind == "worker" and spec.action == "revive") \
                else EV_FAILURE
            self.push(spec.time, kind, {"spec": spec})
        n_rounds = int(sc.horizon / sc.round_period + 1e-9)
        for i in range(1, n_rounds + 1):
            self.push(quantize(i * sc.round_period), EV_MAINTENANCE, {"round": i})

    def run(self) -> tuple[list[TraceRecord], MetricsReport]:
        sc = self.sc
        self.emit("kernel", "run_start", strategy=sc.strategy, seed=sc.seed,
                  horizon=sc.horizon, workers=sc.config.n_workers,
                  clusters=sc.config.n_clusters, regions=sc.config.n_regions,
                  route_mode=sc.route_mode)
        if sc.route_mode == hier.MODE_ROOT:
            # literal-root routing deviates from the default pruning behaviour
            self.emit("kernel", "route_mode_root", enabled=True)
        self.schedule_initial()
        while self.heap:
            fire, _seq, kind, payload = self.heap[0]
            if fire > sc.horizon:
                break
            heapq.heappop(self.heap)
            self.now = fire
            if kind == EV_DELIVERY:
                self.handle_delivery(payload)
            elif kind == EV_BROADCAST:
                self.handle_broadcast(payload)
            elif kind == EV_MAINTENANCE:
                self.handle_maintenance(payload)
            elif kind == EV_FAILURE:
                self.handle_failure(payload)
            else:  # EV_RECOVERY
                self.revive_worker(payload["spec"].worker)
            if self.sink is not None and len(self.trace) >= TRACE_BATCH:
                self.flush()

        for _fire, _seq, kind, _payload in self.heap:
            if kind == EV_DELIVERY:
                self.bump("deliveries_inflight")
            elif kind == EV_BROADCAST:
                self.bump("broadcasts_pending")
        self.bump("parked_pending", len(self.parked))

        g = self.counters.get
        conserved = (
            g("deliveries_enqueued", 0) == g("deliveries_completed", 0)
            + g("deliveries_dropped_dead", 0) + g("deliveries_parked", 0)
            + g("deliveries_inflight", 0)
            and g("broadcasts_scheduled", 0) == g("broadcasts_fired", 0)
            + g("broadcasts_cancelled", 0) + g("broadcasts_suppressed", 0)
            + g("broadcasts_pending", 0)
            and g("parked_total", 0) == g("parked_retried_ok", 0)
            + g("parked_failed", 0) + g("parked_pending", 0)
        )
        live = sum(1 for r, cs in self.coords.items() if region_live(cs, self.topo))
        self.emit("kernel", "run_end",
                  live_region_fraction=live / len(self.coords),
                  conservation=dict(sorted(self.counters.items())),
                  conserved=conserved)
        if self.sink is not None:
            self.flush()  # the sink gets run_end even when the run then raises
        if not conserved:
            raise ConservationError(self.counters)
        if self.report is None:  # no sink: the whole trace is still here
            self.report = build_report(self.trace, sc.strategy)
        return self.trace, self.report


def run(scenario: Scenario,
        sink: Callable[[list[TraceRecord]], object] | None = None,
        ) -> tuple[list[TraceRecord], MetricsReport]:
    """Execute one scenario; returns (trace, metrics report).

    Without a sink the returned trace is every record of the run.  With one,
    ``sink(batch)`` receives the records in order, a batch of about
    TRACE_BATCH at a time, the last one after the ``run_end`` record; nothing
    is kept and the returned trace is empty.

    The scenario is trusted: ``scenario.build_scenario`` and
    ``scenario.validate_scenario`` are where input is checked.
    """
    return _Kernel(scenario, sink).run()
