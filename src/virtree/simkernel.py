"""Deterministic discrete-event simulation kernel.

Events are totally ordered by (fire_time, seq): fire times are rounded to a
fixed 1e-9 quantum when scheduled and seq is the enqueue order, so two runs of
the same scenario replay the exact same event sequence and emit byte-identical
traces.  Randomness comes from named sub-streams derived from the scenario
seed via sha256, one per (purpose, scope), consumed in event order.

Events targeting workers that died in flight are tombstoned at fire time
rather than removed from the queue.  Every delivery ends the run completed,
dropped at a dead target, parked or in flight at the horizon (a jammed link
eats a copy before it is enqueued); every scheduled broadcast fired,
cancelled by its leader's death or pending at the horizon; every parked copy
retried, failed or still parked.  The run raises ConservationError when that
accounting does not balance.

Every event is one heap entry ``(fire_time, seq, handler, args)`` and the
loop runs ``handler(*args)``: a delivery, a leader's scheduled broadcast, a
maintenance round, or an initial event, a command's injection or a failure
or revive.  A copy's sender is the sending worker id, the sending tree node,
or None for an injected command.

Initial events and maintenance rounds are queued one at a time: each queues
the next when it fires, under the key it would have had if all of them were
queued before the first event (``schedule_initial``), so the heap holds at
most two of them.  A round that finds no region unsettled counts itself and
every later round before the heap's next entry as quiet at once
(``handle_maintenance``).

A worker delivery entry carries every copy of one send loop that fires at
one time: its dest is ``("workers", ws)``, ws ascending, and its sender list
names the loop's senders in order.  A leader's broadcast is one loop with the
leader as its one sender.  A send loop is built from id-range segments, one
link class each (``adjacent.reachable_workers``), and each segment extends its
fire time's entry at once.  A cluster run that relays for the first time
relays in one call (``_Kernel.relay``): its relay records in order, then one
send loop with the run as its sender list, unless a link class the relay
uses is jammed, when each worker pushes its own entries.  A later sender's
copies are the first's, with its own copy traded for one to the first
sender (``copies_of``).  Per-copy entries would have taken consecutive seqs,
one sender after another, with nothing pushed between them, so the events
run in the same order.  A relay made worker by worker pushes its own entries.

An entry's copies are delivered one sender at a time, each sender's in one
pass over its cluster runs: ids are row-major, so each cluster's workers in it
are one slice, and a run lies in one region.  The pass counts every alive
copy of a run as received, and as crossing when the run lies outside the
sender's region, with one bump per counter a pass
(``_Kernel.deliver_pass``).  Alive untargeted workers on an unjammed cluster
link act alike, so one ``worker_on_receive`` call decides for the run: its
suppressed relays are counted, and its reports are sent or its first relays
made at once.  Every other run is acted on worker by worker, keeping jam
draws, ``drop_dead`` records, targeted executions and relays in order, and
its unjammed reports then go in one call: a run never both reports and
relays (``ReportToLeader`` needs the copy's last sending cluster other than
the run's, ``BroadcastToReachable`` that one), and a report run pushes
nothing while acted on, so per-report calls would have queued entries of
consecutive seqs at one fire time.  ``send_reports`` alone decides a call's
n reports: one leader entry ``("leader", c)`` that carries the count n,
delivered as n reports in a row (``_Kernel.deliver_leader``), or, when each
can only end as a silent repeat drop (``_Kernel.first_receive``), none, all
n accounted when sent (``_Kernel.report_dropped``).

When nothing can tell an entry's senders apart (``_Kernel.told_apart``), only
the first sender's pass runs, and it counts each of its receives, crossings
and suppressed relays once per sender, and sends each of its reports once
per sender in one ``send_reports`` call.  An entry that fires writes no
record then.

A tree delivery entry carries every copy of one fan-down: those one
``route_interior`` call sends down its branches and up, or an injected
leaf's one climbing copy.  Its dest is ``("nodes", nodes)`` in
``forward_tree``'s order, less the copies parked at a vacant node or eaten by
a tree jam, which draws once per copy; its sender is the sending node.  An
injection and a parked copy's retry are entries of one node.  Per-copy
entries would have taken consecutive seqs at one fire time, so nothing could
run between them and whatever one copy pushes fires after the rest: the
copies are delivered in one pass, in order (``_Kernel.deliver_nodes``), and
at the horizon each is one copy in flight.

A kill re-elects or vacates every role the dead worker held, so a role's
holder is alive and a delivery checks only for a vacancy.

Trace format 4 writes each fact once.  ``run_end`` counts worker receives
instead: every alive worker delivery in ``alg1_receives``, those whose sender
sits in another region in ``alg1_cross_region_receives``.  A copy's hop is on
the relay or broadcast record that sent it; a worker's relay and targeted
execution name the copy's sender, ``from_worker``.

The kernel hands the trace over in batches of about TRACE_BATCH records, cut
between events, and folds each batch into the metrics report before handing
it to the sink.  A run given a sink holds one batch at a time; a run without
one keeps every batch as its returned trace.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from collections.abc import Callable
from math import inf

from . import adjacent as adj
from . import hierarchical as hier
from .coordinators import initial_roster, monitor_round, region_live
from .errors import ConservationError
from .messages import Message, msg_id_str, new_command
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

MAX_PARK_RETRIES = 3

# Records per batch handed to a trace sink.
TRACE_BATCH = 1024


def quantize(t: float) -> float:
    """Fixed-precision event time: everything scheduled lands on 1e-9 ticks."""
    return round(t, 9)


def copies_of(ws: list[int], first: int, s: int) -> list[int]:
    """The workers that sender s's copies of a relay entry go to: ws, the
    first sender's, with the copy to s traded for one to first when ws holds
    their cluster."""
    i = bisect_left(ws, s)
    if i == len(ws) or ws[i] != s:
        return ws
    ws = ws[:i] + ws[i + 1:]
    insort(ws, first)
    return ws


class _Kernel:
    def __init__(self, sc: Scenario,
                 sink: Callable[[list[TraceRecord]], object] | None = None):
        self.sc = sc
        self.topo = build_topology(sc.config, sc.seed, adjacency=sc.adjacency_override)
        self.now = 0.0
        self.heap: list = []
        self.event_seq = 0
        self.rec_seq = 0
        self.batch: list[TraceRecord] = []  # records not yet handed to the sink
        self.trace: list[TraceRecord] = []  # every record, when no sink is given
        self.sink = sink or self.trace.extend
        self.report: MetricsReport | None = None
        # cluster -> ids of the messages its leader processed, made at the
        # cluster's first leader receive (``first_receive``)
        self.processed: defaultdict[int, set[tuple]] = defaultdict(set)
        # leader -> ids of the broadcasts it scheduled that have not fired:
        # only the adjacent strategy schedules, and the leader's death pops
        # them, cancelling them.  A leader loses its role only by dying, so
        # every worker named here still leads its cluster
        self.pending: defaultdict[int, set[tuple]] = defaultdict(set)
        self.rosters = [initial_roster(self.topo, r) for r in self.topo.regions]
        self.links = hier.TreeLinks.build(self.topo)
        # (worker, msg_id) of every targeted execution; a cluster-level one
        # runs once, since a cluster's leader processes a message once
        self.wexec: set[tuple[int, tuple]] = set()
        # regions whose last maintenance round found no alive coordinator
        self.dead_regions: set[int] = set()
        # regions the next maintenance round visits (handle_maintenance): none until a kill
        self.unsettled: set[int] = set()
        # msg_id -> the workers that relayed it
        self.relayed: defaultdict[tuple, set[int]] = defaultdict(set)
        # (cluster, msg_id) -> fire time of the last report queued to it
        self.report_due: dict[tuple[int, tuple], float] = {}
        # fire time of the last report accounted as a drop without being
        # queued: when it is the run's last event, run_end takes its time
        self.dropped_until = 0.0
        # fire time of every scheduled worker or region kill, ascending; only
        # reports read it, and only the adjacent strategy sends them
        self.kill_times = sorted(
            quantize(f.time) for f in sc.failures
            if f.kind == "region" or (f.kind, f.action) == ("worker", "kill")
        ) if sc.strategy == "adjacent" else []
        self.parked: list[dict] = []
        self.jam: dict[str, float] = {}
        # link class -> latency: the scenario's values over the defaults
        self.latency = {**DEFAULT_LATENCIES, **sc.link_latencies}
        # never index a missing key: that would add it to the conservation output
        self.counters: defaultdict[str, int] = defaultdict(int)
        self._rngs: dict[tuple, random.Random] = {}
        # set by schedule_initial: each command's seq at its origin, each
        # initial event's fire time, their seqs in firing order, the round count
        self.cmd_seqs: list[int] = []
        self.fires: list[float] = []
        self.order: list[int] = []
        self.rounds = 0

    # -- plumbing ---------------------------------------------------------

    def rng(self, *labels) -> random.Random:
        r = self._rngs.get(labels)
        if r is None:
            r = self._rngs[labels] = random.Random(derive_seed(self.sc.seed, *labels))
        return r

    def bump(self, key: str, n: int = 1):
        self.counters[key] += n

    def emit(self, comp: str, event: str, **data):
        self.batch.append(TraceRecord(self.now, self.rec_seq, comp, event, data))
        self.rec_seq += 1

    def flush(self):
        """Fold the pending records into the report and hand them to the sink."""
        self.report = build_report(self.batch, self.sc.strategy, self.report)
        self.sink(self.batch)
        self.batch = []

    def push(self, fire: float, handler: Callable, args: tuple):
        heapq.heappush(self.heap, (quantize(fire), self.event_seq, handler, args))
        self.event_seq += 1

    def jammed(self, cls: str, m: Message, dest: tuple) -> bool:
        """Whether a jammed link class eats this copy at send time."""
        drop = self.jam.get(cls)
        if not drop or self.rng("jam", cls).random() >= drop:
            return False
        self.bump("deliveries_dropped_jam")
        self.emit("kernel", "drop_jam", link_class=cls,
                  msg_id=msg_id_str(m.msg_id), dest=str(dest))
        return True

    def send(self, nodes: list, m: Message, sender):
        """Enqueue copies of m to tree nodes, those no jam ate, in order, as
        one delivery entry ``("nodes", nodes)``."""
        if nodes:
            self.bump("deliveries_enqueued", len(nodes))
            self.push(self.now + self.latency["tree"], self.handle_delivery,
                      (("nodes", nodes), m, sender, False))

    def send_reports(self, c: int, m: Message, n: int):
        """Send n reports of m to c's leader, due a cluster latency from now:
        one entry that carries the count n (``deliver_leader``), or none
        when each can only be a silent repeat drop (``first_receive``), all
        n then accounted when sent (``report_dropped``).

        The reporters are alive workers of the cluster, so the cluster's
        leader is alive now: a kill re-elects the lowest alive worker and a
        revive fills a vacancy.  With no kill scheduled in [now, fire], that
        leader keeps its role and stays alive until fire.  The reports are
        then repeats if the cluster has processed the message, or if an
        earlier queued report to it, due by fire and so before them, will
        make it do so.  n per-report entries would take consecutive seqs at
        one fire time, with nothing run between them."""
        now, key = self.now, (c, m.msg_id)
        fire = quantize(now + self.latency["cluster"])
        self.bump("deliveries_enqueued", n)
        if not self.kill_due(fire) and (m.msg_id in self.processed.get(c, ())
                                        or self.report_due.get(key, now) > now):
            self.report_dropped(fire, n)
            return
        self.report_due[key] = fire
        self.push(fire, self.handle_delivery, (("leader", c), m, n, False))

    def kill_due(self, fire: float) -> bool:
        """Whether a worker or region kill is scheduled in [now, fire]."""
        kills = self.kill_times
        return bool(kills) and bisect_left(kills, self.now) < bisect_right(kills, fire)

    def report_dropped(self, fire: float, n: int):
        """Account n unqueued reports due at fire: dropped, or in flight past the horizon."""
        if fire > self.sc.horizon:
            self.bump("deliveries_inflight", n)
        else:
            self.bump("deliveries_completed", n)
            self.bump("alg2_drops", n)
            self.dropped_until = max(self.dropped_until, fire)

    def fan_out(self, segments, m: Message, senders: list[int]):
        """Enqueue a copy of m to each worker of segments, (link class,
        ascending ids) pairs in ascending id order: one delivery entry per
        fire time, made when a copy first lands in it, so its workers are
        ascending, with the sender list senders.  A jammed class draws once
        per copy, in that order."""
        groups: dict[float, list[int]] = {}
        for cls, ws in segments:
            if self.jam.get(cls):
                ws = [w for w in ws if not self.jammed(cls, m, ("worker", w))]
            if ws:
                groups.setdefault(quantize(self.now + self.latency[cls]), []).extend(ws)
        for fire, ws in groups.items():
            self.bump("deliveries_enqueued", len(ws) * len(senders))
            self.push(fire, self.handle_delivery, (("workers", ws), m, senders, False))

    def relay(self, run: list[int], m: Message, sender: int):
        """Each worker of run, a cluster run, relays m: the relay records in
        order, then a copy from each to every worker it reaches, sent as one
        loop with run as its sender list (see the module docstring).  When a
        link class the relay uses is jammed, each worker relays in turn, its
        record and then its own entries, so the jam draws stay in order."""
        segments = adj.reachable_workers(run[0], self.topo)
        if len(run) > 1 and any(self.jam.get(cls) for cls, _ in segments):
            for w in run:
                self.relay([w], m, sender)
            return
        fanout, mid = sum(len(ws) for _, ws in segments), msg_id_str(m.msg_id)
        for w in run:
            self.emit("alg1", "relay", worker=w, from_worker=sender, msg_id=mid,
                      fanout=fanout, hop=m.hop_count)
        self.fan_out(segments, m, run)

    # -- failure / recovery -----------------------------------------------

    def kill_worker(self, w: int):
        if not self.topo.is_alive(w):
            return
        self.topo.mark_dead(w)
        self.unsettled.add(self.topo.region_of_worker(w))
        self.emit("kernel", "failure", worker=w)
        self.pending.pop(w, None)  # its queued broadcasts find none and cancel
        self.reelect(self.topo.roles_held_by(w), w)

    def revive_worker(self, w: int):
        if self.topo.is_alive(w):
            return
        self.topo.mark_alive(w)
        self.emit("kernel", "recovery", worker=w)
        # fill every vacancy in the scopes this worker belongs to: the worker
        # is a candidate at layer 2 and each filled layer's holder at the next
        c = self.topo.cluster_of(w)
        scopes = [(layer, self.topo.scope_of(c, layer)) for layer in self.topo.roles]
        self.reelect([(layer, s) for layer, s in scopes
                      if s not in self.topo.roles[layer]], None)

    def reelect(self, scopes: list[tuple[int, int]], old: int | None):
        """Re-elect each (layer, scope) in order, then retry parked copies."""
        for layer, scope in scopes:
            new = reelect_role(self.topo, layer, scope)
            if new is None:
                self.emit("kernel", "role_vacant", layer=layer, scope=scope, old=old)
            else:
                self.emit("kernel", "role_reelect", layer=layer, scope=scope, old=old, new=new)
        if scopes:
            self.retry_parked()

    def retry_parked(self):
        """One retry pass over parked copies after a role-map change."""
        still = []
        for entry in self.parked:
            if self.links.holder(entry["node"]) is not None:
                self.bump("parked_retried_ok")
                self.emit("alg3", "noroute_retry", node=str(entry["node"]),
                          msg_id=msg_id_str(entry["msg"].msg_id), ok=True)
                if not self.jammed("tree", entry["msg"], ("node", entry["node"])):
                    self.send([entry["node"]], entry["msg"], entry["from"])
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

    def handle_delivery(self, dest: tuple, m: Message, sender, command: bool):
        if command:
            self.emit("kernel", "command_injected", msg_id=msg_id_str(m.msg_id),
                      origin=m.msg_id[0], goals_total=len(m.goal_cluster_ids),
                      targets_total=len(m.target_worker_ids))
        kind = dest[0]
        if kind == "workers":
            self.deliver_workers(dest[1], m, sender)  # sender: the entry's sender list
        elif kind == "leader":
            self.deliver_leader(dest[1], m, sender)  # sender: the entry's report count
        else:
            self.deliver_nodes(dest[1], m, sender)

    def deliver_workers(self, ws: list[int], m: Message, senders: list[int]):
        """Deliver an entry: each sender's copies in turn, or only the
        first sender's, counted for every sender, when nothing tells them
        apart (see the module docstring)."""
        first = senders[0]
        if len(senders) > 1 and self.told_apart(ws, m, first):
            for s in senders:
                self.deliver_pass(copies_of(ws, first, s), m, s, 1)
        else:
            self.deliver_pass(ws, m, first, len(senders))

    def told_apart(self, ws: list[int], m: Message, first: int) -> bool:
        """Whether the copies of a relay entry's senders, an alive
        untargeted run of first's cluster, could act apart: on a jammed
        cluster link, at a dead or targeted receiver, at a worker of that
        cluster yet to relay (it relays on the first copy only), or with a
        kill scheduled before their reports land, whose ``drop_dead`` and
        ``process`` records at different clusters then interleave sender by
        sender.  When ws holds their cluster, a later sender's copies go to
        first as well, which may have died since."""
        topo = self.topo
        fire = quantize(self.now + self.latency["cluster"])
        members = topo.workers_in_cluster(topo.cluster_of(first))
        lo = bisect_left(ws, members.start)
        own = ws[lo:bisect_left(ws, members.stop, lo)]
        if own:
            own.append(first)
        return bool(self.jam.get("cluster") or self.kill_due(fire)
                    or not m.target_worker_ids.isdisjoint(ws)
                    or not (topo.dead.isdisjoint(ws) and topo.dead.isdisjoint(own))
                    or not self.relayed[m.msg_id].issuperset(own))

    def deliver_pass(self, ws: list[int], m: Message, sender: int, n: int):
        """Deliver m to ws, ascending, from sender in one pass over its
        cluster runs, and count it n times, each report sent n times: for
        the n - 1 later senders of an entry that nothing tells apart.
        ``worker_on_receive`` reads a worker only through its cluster and the
        targets, so on an unjammed cluster link one call decides for a run of
        alive untargeted workers, and such a run relays in one call when
        none of its workers relayed yet.

        Every other run, only ever in a pass counted once, is acted on
        worker by worker (see the module docstring)."""
        topo = self.topo
        wpc, dead = topo.config.workers_per_cluster, topo.dead
        targets, alike = m.target_worker_ids, not self.jam.get("cluster")
        whole = dead.isdisjoint(ws)
        relayed = self.relayed[m.msg_id]
        home = topo.workers_in_region(topo.region_of_worker(sender))
        received = crossed = reported = suppressed = 0
        i = 0
        while i < len(ws):
            c = ws[i] // wpc
            j = bisect_left(ws, (c + 1) * wpc, i)
            run = ws[i:j]
            i = j
            live = len(run) if whole else len(run) - len(dead.intersection(run))
            received += live
            if run[0] not in home:
                crossed += live
            if alike and live == len(run) and targets.isdisjoint(run):
                actions = adj.worker_on_receive(run[0], m, topo)
                if not actions:
                    continue
                if isinstance(actions[0], adj.ReportToLeader):  # untargeted: the only one
                    reported += len(run)
                    self.send_reports(c, m, len(run) * n)
                    continue
                if relayed.issuperset(run):  # a relay each worker made already
                    suppressed += len(run)
                    continue
                if relayed.isdisjoint(run):  # each worker's first relay
                    relayed.update(run)
                    self.relay(run, m, sender)
                    continue
            k = 0  # the run's reports no jam ate
            for w in run:
                if w in dead:
                    self.bump("deliveries_dropped_dead")
                    self.emit("kernel", "drop_dead", worker=w, msg_id=msg_id_str(m.msg_id))
                    continue
                for action in adj.worker_on_receive(w, m, topo):
                    if isinstance(action, adj.ExecuteLocally):
                        self.apply_execution(w, m, comp="alg1", from_worker=sender)
                    elif isinstance(action, adj.ReportToLeader):
                        reported += 1
                        k += alike or not self.jammed("cluster", m, ("leader", c))
                    elif w in relayed:
                        suppressed += 1
                    else:
                        relayed.add(w)
                        self.relay([w], m, sender)
            if k:
                self.send_reports(c, m, k)
        if received:
            self.bump("deliveries_completed", received * n)
            self.bump("alg1_receives", received * n)
            self.bump("alg1_cross_region_receives", crossed * n)
        if suppressed:
            self.bump("relay_suppressed", suppressed * n)
        if reported:
            self.bump("reports_sent", reported * n)

    def apply_execution(self, w: int, m: Message, comp: str, **sender):
        """A targeted execution, idempotent per (worker, msg): duplicates
        count but do not re-run.  alg1's record also names the worker that
        handed w the copy, ``from_worker``."""
        key = (w, m.msg_id)
        if key in self.wexec:
            self.bump("duplicate_exec_suppressed")
            return
        self.wexec.add(key)
        self.emit(comp, "execute_worker", worker=w, msg_id=msg_id_str(m.msg_id),
                  hop=m.hop_count, **sender)

    def deliver_leader(self, c: int, m: Message, n: int):
        """Deliver n reports of m in a row, or an injection (n = 1), to c's
        leader: at a vacant cluster each is dropped dead."""
        leader = self.topo.roles[LAYER_LEADER].get(c)
        if leader is None:
            self.bump("deliveries_dropped_dead", n)
            for _ in range(n):
                self.emit("kernel", "drop_dead", cluster=c, msg_id=msg_id_str(m.msg_id))
            return
        self.bump("deliveries_completed", n)
        if not self.first_receive("alg2", c, m, n):
            return
        region = self.topo.scope_of(c, LAYER_REGIONAL_HUB)
        mid = msg_id_str(m.msg_id)
        decision = adj.leader_on_receive_deferred(c, m, self.topo, self.sc.delay,
                                                  len(self.pending.get(leader, ())),
                                                  self.rng("alg2", region))
        self.emit_visit("alg2", c, mid, m, decision)
        if decision.outcome == "scheduled":
            m2 = decision.message
            self.pending[leader].add(m2.msg_id)
            self.bump("broadcasts_scheduled")
            self.emit("alg2", "schedule", cluster=c, msg_id=mid,
                      distance=decision.distance, delay=decision.delay)
            self.push(self.now + decision.delay, self.handle_broadcast, (c, leader, m2))

    def first_receive(self, comp: str, c: int, m: Message, n: int = 1) -> bool:
        """Whether the first of n copies of m that cluster c's leader receives
        in a row is its first receive of m, marking m processed there; each
        repeat is counted as a drop of comp.  Keyed by cluster, not by
        holder, so a re-elected leader drops m as well."""
        seen = self.processed[c]
        first = m.msg_id not in seen
        seen.add(m.msg_id)
        if n > first:  # a bump of 0 would add the key to the conservation output
            self.bump(f"{comp}_drops", n - first)
        return first

    def emit_visit(self, comp: str, c: int, mid: str, m: Message, decision):
        """The records of cluster c's leader receiving m for the first time,
        either strategy: a process record, its visited set m's with c, then
        the cluster's execution with its targeted workers.  A ``stop``
        outcome writes nothing more: no schedule or forward record follows,
        which says it.  A ``drop`` never comes here: c joins a copy's visited
        set only once c processed m, so ``first_receive`` stops it first."""
        self.emit(comp, "process", cluster=c, msg_id=mid, hop=m.hop_count,
                  visited=sorted(m.visited_cluster_ids | {c}))
        if decision.executed_here:
            self.emit(comp, "execute_cluster", cluster=c, msg_id=mid,
                      missed=list(decision.missed_workers))
            if m.target_worker_ids:
                for w in decision.delivered_workers:
                    self.apply_execution(w, m, comp=comp)

    def handle_broadcast(self, c: int, leader: int, m: Message):
        pending = self.pending.get(leader, ())
        mid = msg_id_str(m.msg_id)
        if m.msg_id not in pending:  # popped by the leader's death
            self.bump("broadcasts_cancelled")
            self.emit("alg2", "broadcast_cancelled", cluster=c, msg_id=mid)
            return
        pending.remove(m.msg_id)
        if not pending:
            del self.pending[leader]
        mb = adj.worker_broadcast(c, m)
        self.bump("broadcasts_fired")
        self.emit("alg2", "broadcast", cluster=c, msg_id=mid, hop=mb.hop_count)
        members, dead = self.topo.workers_in_cluster(c), self.topo.dead
        self.fan_out([("cluster", [w for w in members if w not in dead])], mb, (leader,))

    def deliver_nodes(self, nodes: list, m: Message, from_node: tuple | None):
        """Deliver a tree entry's copies in order, in one pass (see the
        module docstring): a copy to a vacant node is parked, a leaf runs
        full cluster-leader processing, climbing when from_node is None (an
        injection, first sent or retried), and an interior node routes."""
        topo, links = self.topo, self.links
        leaders = topo.roles[LAYER_LEADER]
        mid = msg_id_str(m.msg_id)
        injected = from_node is None
        completed = 0
        for node in nodes:
            layer, scope = node
            vacant = (leaders.get(scope) is None if layer == LAYER_LEADER
                      else links.holder(node) is None)
            if vacant:
                self.bump("deliveries_parked")
                self.park(m, node, from_node)
                continue
            completed += 1
            if layer == LAYER_LEADER:
                if not self.first_receive("alg3", scope, m):
                    continue
                decision = hier.leader_on_receive_immediate(scope, m, topo, links, injected)
                self.emit_visit("alg3", scope, mid, m, decision)
                if decision.forwards:
                    self.forward_tree(node, decision.forwards)
            else:
                fwds = hier.route_interior(node, m, from_node, topo, links, self.sc.route_mode)
                self.emit("alg3", "route", node=str(node), msg_id=mid,
                          n_out=len(fwds), hop=m.hop_count)
                self.forward_tree(node, fwds)
        if completed:
            self.bump("deliveries_completed", completed)

    def forward_tree(self, src: tuple, fwds):
        """Send the (node, copy) pairs of one ``route_interior`` call or one
        leaf's climb, all one copy, on from src: each to a vacant node is
        parked, each other one written as a forward and drawn on a tree jam,
        and the rest go as one entry (``send``)."""
        if not fwds:
            return
        m = fwds[0][1]
        holder, jam = self.links.holder, self.jam.get("tree")
        mid, at = msg_id_str(m.msg_id), str(src)
        nodes = []
        for dst, _ in fwds:
            if holder(dst) is None:
                self.park(m, dst, src)
                continue
            self.emit("alg3", "forward", src=at, dst=str(dst), msg_id=mid, hop=m.hop_count)
            if not (jam and self.jammed("tree", m, ("node", dst))):
                nodes.append(dst)
        self.send(nodes, m, src)

    def handle_maintenance(self, rnd: int):
        """One maintenance round in every region.  ``monitor_round`` returns a
        region's new roster, stored in ``rosters``, or None when it is dead.
        A round is written when it changed the roster or left it degraded, and
        when it is the region's first since it went dead, which may close a
        breach though it changes nothing; ``region_dead`` is written once a
        region goes dead.  Every other round is counted only, in
        ``alg4_rounds_skipped``.

        Only the unsettled regions are visited, in ascending order: those
        where a worker died since their last round, those whose roster is
        below T_min, and those that are dead.  Any other region's roster is
        alive coordinators at or above T_min, and ``monitor_round`` on it
        would only return an equal roster, so its round is quiet and is
        counted without a visit.  A revive needs no visit of its own: it
        matters only to a region that is dead or below T_min, which stays
        unsettled until a round finds it settled.

        With no region unsettled, every round is quiet until the next event:
        this round and every later one up to ``last_quiet_round`` are
        counted at once.  The next round to run is queued last."""
        dead, unsettled, t_min = self.dead_regions, self.unsettled, self.topo.config.t_min
        last = rnd if unsettled else self.last_quiet_round(rnd)
        skipped = len(self.rosters) * (last - rnd + 1) - len(unsettled)
        for r in sorted(unsettled):
            out = monitor_round(self.rosters[r], r, self.topo, load_of=self._load_of,
                                eager_refill=self.sc.eager_refill,
                                single_promotion=self.sc.single_promotion)
            if out is None:
                if r in dead:
                    skipped += 1
                else:
                    dead.add(r)
                    self.emit("alg4", "region_dead", region=r, round=rnd, t_min=t_min)
                continue
            self.rosters[r] = out.active
            if out.size_after >= t_min:
                unsettled.discard(r)
            if r in dead:
                dead.remove(r)
            elif not (out.removed or out.promoted or out.size_after < t_min):
                skipped += 1
                continue
            self.emit("alg4", "round", region=r, round=rnd, removed=out.removed,
                      promoted=out.promoted, size_after=out.size_after,
                      alive_before=out.alive_before, t_min=t_min)
        if skipped:  # a bump of 0 would add the key to the conservation output
            self.bump("alg4_rounds_skipped", skipped)
        if last < self.rounds:
            self.queue_round(last + 1)

    def last_quiet_round(self, rnd: int) -> int:
        """The last round from rnd on that fires by the horizon and before
        the heap's next entry; now moves to its time, which ``run_end`` reads
        when nothing fires after it.  Round keys grow with the round."""
        bound = (self.sc.horizon, inf)
        if self.heap:
            bound = min(bound, self.heap[0][:2])
        if rnd == self.rounds or self.round_key(rnd + 1) > bound:  # the common case
            return rnd
        last = rnd + bisect_left(range(rnd + 1, self.rounds + 1), bound, key=self.round_key)
        self.now = quantize(last * self.sc.round_period)
        return last

    def round_key(self, k: int) -> tuple[float, int]:
        """Round k's heap key: its fire time and seq N + k - 1, after the N
        initial events and before every entry the run pushes."""
        return quantize(k * self.sc.round_period), len(self.order) + k - 1

    def queue_round(self, k: int):
        heapq.heappush(self.heap, (*self.round_key(k), self.handle_maintenance, (k,)))

    def _load_of(self, w: int) -> int:
        return len(self.pending.get(w, ()))

    def handle_failure(self, spec: FailureSpec):
        if spec.kind == "worker":
            self.kill_worker(spec.worker)
        elif spec.kind == "region":
            for w in self.topo.workers_in_region(spec.region):
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
            adj_map = self.topo.region_adjacency
            for r, nb in ((a, b), (b, a)):
                ns = set(adj_map[r]) - {nb}
                if spec.action == "add":
                    ns.add(nb)
                adj_map[r] = tuple(sorted(ns))
            self.emit("kernel", "link_change", action=spec.action, edge=list(spec.edge))

    # -- main loop ----------------------------------------------------------

    def schedule_initial(self):
        """Queue the first command or failure and the first maintenance
        round.  The N initial events are ordered once by (fire time, seq),
        initial event i taking seq i, commands first and then failures, in
        scenario order; each queues its successor when it fires
        (``fire_initial``), and so does each round (``handle_maintenance``).
        The run's own pushes take seqs from N + rounds on, so every event
        keeps the key it had when all of them were queued up front."""
        sc = self.sc
        seqs: dict[int, int] = {}  # origin -> its commands so far
        for cmd in sc.commands:
            self.cmd_seqs.append(seqs.get(cmd.origin, 0))
            seqs[cmd.origin] = self.cmd_seqs[-1] + 1
        fires = [quantize(e.time) for e in (*sc.commands, *sc.failures)]
        self.order = sorted(range(len(fires)), key=fires.__getitem__)
        self.fires = fires
        if sc.commands:  # a bump of 0 would add the key to the conservation output
            self.bump("deliveries_enqueued", len(sc.commands))
        self.rounds = int(sc.horizon / sc.round_period + 1e-9)
        self.event_seq = len(fires) + self.rounds
        if fires:
            self.queue_initial(0)
        if self.rounds:
            self.queue_round(1)

    def queue_initial(self, pos: int):
        i = self.order[pos]
        heapq.heappush(self.heap, (self.fires[i], i, self.fire_initial, (pos,)))

    def fire_initial(self, pos: int):
        """Queue the next initial event, then run the one at pos: a command,
        its message built now, injected at its origin, or a failure."""
        sc = self.sc
        if pos + 1 < len(self.order):
            self.queue_initial(pos + 1)
        i = self.order[pos]
        if i < len(sc.commands):
            cmd = sc.commands[i]
            m = new_command(cmd.origin, self.cmd_seqs[i],
                            goal_clusters_for_scope(self.topo, cmd.scope), set(cmd.targets))
            if sc.strategy == "adjacent":
                self.handle_delivery(("leader", cmd.origin), m, 1, True)
            else:
                self.handle_delivery(("nodes", [(LAYER_LEADER, cmd.origin)]), m, None, True)
            return
        spec = sc.failures[i - len(sc.commands)]
        if spec.kind == "worker" and spec.action == "revive":
            self.revive_worker(spec.worker)
        else:
            self.handle_failure(spec)

    def run(self) -> tuple[list[TraceRecord], MetricsReport]:
        sc = self.sc
        self.emit("kernel", "run_start", format=4, strategy=sc.strategy, seed=sc.seed,
                  horizon=sc.horizon, workers=sc.config.n_workers,
                  clusters=sc.config.n_clusters, regions=sc.config.n_regions,
                  route_mode=sc.route_mode)
        self.schedule_initial()
        while self.heap:
            fire, _seq, handler, args = self.heap[0]
            if fire > sc.horizon:
                break
            heapq.heappop(self.heap)
            self.now = fire
            handler(*args)
            if len(self.batch) >= TRACE_BATCH:
                self.flush()

        # == and not `is`: every attribute access makes a new bound method
        delivery, broadcast = self.handle_delivery, self.handle_broadcast
        initial = self.fire_initial
        for _fire, _seq, handler, args in self.heap:
            if handler == delivery:
                kind, to = args[0]
                self.bump("deliveries_inflight", args[2] if kind == "leader"
                          else len(to) * len(args[2]) if kind == "workers" else len(to))
            elif handler == broadcast:  # cancelled if its leader's death popped its id
                self.bump("broadcasts_pending" if args[2].msg_id in self.pending.get(args[1], ())
                          else "broadcasts_cancelled")
            elif handler == initial:  # each command not yet injected is in flight
                n_cmds = len(sc.commands)
                left = sum(i < n_cmds for i in self.order[args[0]:])
                if left:
                    self.bump("deliveries_inflight", left)
        # each entry holds a bound method of the kernel: left queued, they
        # would keep the kernel alive until a full garbage collection
        self.heap.clear()
        self.bump("parked_pending", len(self.parked))

        g = self.counters.get
        conserved = (
            g("deliveries_enqueued", 0) == g("deliveries_completed", 0)
            + g("deliveries_dropped_dead", 0) + g("deliveries_parked", 0)
            + g("deliveries_inflight", 0)
            and g("broadcasts_scheduled", 0) == g("broadcasts_fired", 0)
            + g("broadcasts_cancelled", 0) + g("broadcasts_pending", 0)
            and g("parked_total", 0) == g("parked_retried_ok", 0)
            + g("parked_failed", 0) + g("parked_pending", 0)
        )
        live = sum(region_live(roster, self.topo) for roster in self.rosters)
        self.now = max(self.now, self.dropped_until)
        self.emit("kernel", "run_end",
                  live_region_fraction=live / len(self.rosters),
                  conservation=dict(sorted(self.counters.items())),
                  conserved=conserved)
        self.flush()  # the sink gets run_end even when the run then raises
        if not conserved:
            raise ConservationError(self.counters)
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
