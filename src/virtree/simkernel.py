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

A segment none of whose copies can act is not queued at all: its copies are
accounted when sent, for every sender at once, as their delivery would
count them (``_Kernel.settled``, ``_Kernel.account``).  Such a copy writes
no record, pushes nothing and draws nothing when it fires, so leaving its
entry out moves no other event: it would only have moved ``now``, and
``run_end`` takes its fire time as it takes an unqueued report's.  The
rule (``_Kernel.idle``) follows from ``worker_on_receive``'s three checks:
no copy is targeted, none meets a dead worker or a cluster jam, and each
one's report can only be a repeat drop or its relay was made already.  A
per message and region count of the clusters that processed the message
(``_Kernel.done_in``) answers the last for a whole region at once.

An entry's copies are delivered one sender at a time, each sender's in one
pass, a region at a time: ids are row-major, so each region's and each
cluster's workers in it are one slice.  A region's part of more than one
cluster run that ``idle`` finds cannot act is counted at once; the others
are taken a cluster run at a time.  The pass counts every alive copy of a
run as received, and as crossing when the run lies outside the sender's
region, with one bump per counter a pass (``_Kernel.deliver_pass``).  Alive
untargeted workers on an unjammed cluster link act alike, so one
``worker_on_receive`` call decides for the run: its suppressed relays are
counted, and its reports are sent or its first relays made at once.  Every
other run is acted on worker by worker, keeping jam
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

Trace format 4 (``metrics._SHAPES``) writes each fact once: a worker receive
writes no record, and ``run_end`` counts it in ``alg1_receives``, and in
``alg1_cross_region_receives`` when its sender sits in another region.

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
        # the fire time of every scheduled worker or region kill, ascending,
        # and the region of each in the same order (``kill_due``); only
        # reports read them, and only the adjacent strategy sends them
        region_of = self.topo.region_of_worker
        kills = sorted(
            (quantize(f.time), f.region if f.kind == "region" else region_of(f.worker))
            for f in sc.failures
            if f.kind == "region" or (f.kind, f.action) == ("worker", "kill")
        ) if sc.strategy == "adjacent" else []
        self.kill_times = [t for t, _ in kills]
        self.kill_regions = [r for _, r in kills]
        # the fire time of every scheduled cluster link jam, ascending, and
        # (msg_id, region) -> how many of the region's clusters processed
        # the message: only the adjacent strategy reads them (``settled``)
        self.jam_times = sorted(
            quantize(f.time) for f in sc.failures
            if (f.kind, f.action, f.link_class) == ("link", "jam", "cluster")
        ) if sc.strategy == "adjacent" else []
        self.done_in: defaultdict[tuple[tuple, int], int] = defaultdict(int)
        # workers a region: ids are row-major, so worker w lies in region w // region_size
        self.region_size = self.topo.span[LAYER_REGIONAL_HUB] * sc.config.workers_per_cluster
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
        revive fills a vacancy.  Only a kill in c can change that: a kill of
        one of its workers, or of its region.  With no kill scheduled in c's
        region in [now, fire], a superset of those, the leader keeps its
        role and stays alive until fire.  The reports are then repeats if
        the cluster has processed the message, or if an earlier queued
        report to it, due by fire and so before them, will make it do so.
        n per-report entries would take consecutive seqs at one fire time,
        with nothing run between them."""
        now, key = self.now, (c, m.msg_id)
        fire = quantize(now + self.latency["cluster"])
        due = self.kill_due(fire)
        if (not due or self.topo.scope_of(c, LAYER_REGIONAL_HUB) not in due) and (
                m.msg_id in self.processed.get(c, ()) or self.report_due.get(key, now) > now):
            self.report_dropped(fire, n)
            return
        self.bump("deliveries_enqueued", n)
        self.report_due[key] = fire
        self.push(fire, self.handle_delivery, (("leader", c), m, n, False))

    def kill_due(self, fire: float) -> list[int]:
        """The regions of the worker and region kills scheduled in [now,
        fire], empty when none is: a kill can change a cluster's leader in
        that window only when its region is among them.  One bisect pair
        answers for a run's every kill, and none is made in a run without
        kills; a caller asks about regions only when the list is not empty."""
        times = self.kill_times
        return times and self.kill_regions[bisect_left(times, self.now):bisect_right(times, fire)]

    def report_dropped(self, fire: float, n: int):
        """Account n reports due at fire, sent and never queued: dropped, or
        in flight past the horizon."""
        self.bump("deliveries_enqueued", n)
        if fire > self.sc.horizon:
            self.bump("deliveries_inflight", n)
        else:
            self.bump("deliveries_completed", n)
            self.bump("alg2_drops", n)
            self.dropped_until = max(self.dropped_until, fire)

    def fan_out(self, segments, m: Message, senders: list[int], settle: bool = True):
        """Enqueue a copy of m to each worker of segments, (link class,
        ascending ids) pairs in ascending id order, each in one region: one
        delivery entry per fire time, made when a copy first lands in it, so
        its workers are ascending, with the sender list senders.  A jammed
        class draws once per copy, in that order.  A segment none of whose
        copies can act joins no entry: it is accounted now (``settled``),
        in one step per fire time (``account``).  A leader's broadcast is
        sent with settle False: its members relay on it, so none of its
        copies could be accounted."""
        groups: dict[float, list[int]] = {}
        quiet: dict[float, list[int]] = {}  # fire -> settled copies, crossings, reports, relays
        home = senders[0] // self.region_size
        for cls, ws in segments:
            if self.jam.get(cls):
                ws = [w for w in ws if not self.jammed(cls, m, ("worker", w))]
            if ws:
                fire = quantize(self.now + self.latency[cls])
                acts = self.settled(ws, m, fire, home) if settle else None
                if acts is None:
                    groups.setdefault(fire, []).extend(ws)
                elif fire in quiet:
                    quiet[fire] = [a + b for a, b in zip(quiet[fire], acts)]
                else:
                    quiet[fire] = acts
        for fire, acts in quiet.items():
            self.account(fire, len(senders), *acts)
        for fire, ws in groups.items():
            self.bump("deliveries_enqueued", len(ws) * len(senders))
            self.push(fire, self.handle_delivery, (("workers", ws), m, senders, False))

    def settled(self, ws: list[int], m: Message, fire: float, home: int) -> list[int] | None:
        """[copies, crossings, reports, suppressed relays] of a copy of m to
        each worker of ws, a segment of one region r sent now from region
        home and due at fire, when none of them can act, else None.

        ws is alive now, and r's workers stay alive until the reports land
        when no kill is due in r by then (``kill_due``); the cluster link is
        unjammed at fire when it is now and no cluster jam is due by fire.
        ``idle`` then decides from state that only grows, or that an
        earlier queued report keeps.  A segment in a region none of whose
        clusters has processed m is left to its fire time, when reports
        queued to each of its clusters may make it idle (``deliver_pass``).
        A later sender's copy to the first sender, traded for its own
        (``copies_of``), goes to a worker of the same alike run: alive,
        untargeted and relayed."""
        r = ws[0] // self.region_size
        if not self.done_in.get((m.msg_id, r)):
            return None
        times, targets = self.jam_times, m.target_worker_ids
        if self.jam.get("cluster") or times and bisect_left(times, self.now) < bisect_right(
                times, fire) or targets and not targets.isdisjoint(ws):
            return None
        acts = self.idle(ws, m, r)
        if not acts or self.kill_times and r in self.kill_due(
                quantize(fire + self.latency["cluster"])):
            return None
        return [len(ws), len(ws) if r != home else 0, *acts]

    def account(self, fire: float, n: int, copies: int, crossed: int, reports: int,
                suppressed: int):
        """Account settled copies due at fire from each of n senders as
        their delivery would: received, crossing, their relays suppressed
        and their reports sent and dropped, or in flight past the horizon,
        and their fire time kept for ``run_end`` as ``report_dropped``
        keeps a report's."""
        self.bump("deliveries_enqueued", copies * n)
        if fire > self.sc.horizon:
            self.bump("deliveries_inflight", copies * n)
            return
        self.dropped_until = max(self.dropped_until, fire)
        self.count(copies, crossed, reports, suppressed, n)
        if reports:
            self.report_dropped(quantize(fire + self.latency["cluster"]), reports * n)

    def idle(self, ws: list[int], m: Message, r: int) -> tuple[int, int] | None:
        """(reports, suppressed relays) of m at ws, ascending alive
        untargeted workers of region r, delivered now or later on an
        unjammed cluster link with no kill due in r from now until their
        reports land, when no run of ws can act, else None.

        ``worker_on_receive`` makes three checks.  A worker copy is a
        leader's flagged broadcast copy or a relay of one; let L be its
        ``last_sent_cluster_id``.  At a worker of ws in cluster c:
        - it executes when targeted, and ws is not;
        - it reports when c is neither L nor in the copy's visited set,
          and ``send_reports`` drops that report when sent if c has
          processed m, or a report queued to c is due after now: c's
          leader, alive while a worker of ws is, processes that one before
          copies sent now land, or it is still due when they do;
        - it relays when c is L, and that relay is suppressed when the
          worker relayed already.
        So no run can act when every cluster of ws but L has processed m
        (a count per region in ``done_in`` says so for all of r at once)
        or has such a report queued, and every worker of L in ws relayed."""
        wpc = self.topo.config.workers_per_cluster
        mid, own, visited = m.msg_id, m.last_sent_cluster_id, m.visited_cluster_ids
        clusters = range(ws[0] // wpc, ws[-1] // wpc + 1)
        suppressed = 0
        if own in clusters:
            i = bisect_left(ws, own * wpc)
            suppressed = bisect_left(ws, (own + 1) * wpc, i) - i
            if not self.relayed[mid].issuperset(ws[i:i + suppressed]):
                return None
        if self.done_in.get((mid, r), 0) < self.topo.span[LAYER_REGIONAL_HUB]:
            processed, due_at, now = self.processed, self.report_due, self.now
            for c in clusters:
                if c != own and mid not in processed.get(c, ()) and (
                        due_at.get((c, mid), now) <= now):
                    return None
        reports = len(ws) - suppressed
        if not visited.isdisjoint(clusters):
            for c in clusters:
                if c != own and c in visited:
                    i = bisect_left(ws, c * wpc)
                    reports -= bisect_left(ws, (c + 1) * wpc, i) - i
        return reports, suppressed

    def count(self, received: int, crossed: int, reported: int, suppressed: int, n: int):
        """Count received copies, completed, and their crossings, reports
        and suppressed relays, each n times, once per sender alike; a bump
        of 0 would add the key to the conservation output."""
        if received:
            self.bump("deliveries_completed", received * n)
            self.bump("alg1_receives", received * n)
            self.bump("alg1_cross_region_receives", crossed * n)
        if suppressed:
            self.bump("relay_suppressed", suppressed * n)
        if reported:
            self.bump("reports_sent", reported * n)

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
        region = self.topo.region_of_worker(w)
        if w in self.rosters[region]:  # no other death unsettles a region (handle_maintenance)
            self.unsettled.add(region)
        self.emit("kernel", "failure", worker=w)
        self.pending.pop(w, None)  # its queued broadcasts find none and cancel
        self.reelect(self.topo.roles_held_by(w), w)

    def revive_worker(self, w: int):
        """Revive w and fill the vacancies of its scopes.  A revive in a
        region the last round found dead makes it unsettled again: the
        revived worker may be one of its coordinators."""
        if self.topo.is_alive(w):
            return
        self.topo.mark_alive(w)
        region = self.topo.region_of_worker(w)
        if region in self.dead_regions:
            self.unsettled.add(region)
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
        kill scheduled before their reports land in a receiver's region,
        whose ``drop_dead`` and ``process`` records at different clusters
        then interleave sender by sender.  A receiver reports only to its
        own cluster's leader, so a kill elsewhere changes no report.  When
        ws holds their cluster, a later sender's copies go to first as
        well, which may have died since: its region is then a receiver's."""
        topo = self.topo
        fire = quantize(self.now + self.latency["cluster"])
        members = topo.workers_in_cluster(topo.cluster_of(first))
        lo = bisect_left(ws, members.start)
        own = ws[lo:bisect_left(ws, members.stop, lo)]
        if own:
            own.append(first)
        due = self.kill_due(fire)
        return bool(self.jam.get("cluster")
                    or due and self.meets(due, ws)
                    or not m.target_worker_ids.isdisjoint(ws)
                    or not (topo.dead.isdisjoint(ws) and topo.dead.isdisjoint(own))
                    or not self.relayed[m.msg_id].issuperset(own))

    def meets(self, regions: list[int], ws: list[int]) -> bool:
        """Whether one of regions holds a worker of ws, ascending."""
        for r in regions:
            span = self.topo.workers_in_region(r)
            i = bisect_left(ws, span.start)
            if i < len(ws) and ws[i] < span.stop:
                return True
        return False

    def deliver_pass(self, ws: list[int], m: Message, sender: int, n: int):
        """Deliver m to ws, ascending, from sender in one pass, and count it
        n times, each report sent n times: for the n - 1 later senders of an
        entry that nothing tells apart.  ws is taken a region at a time: a
        part of more than one run that is alive and untargeted, on an
        unjammed cluster link with no kill due in its region before its
        reports land, and whose runs cannot act (``idle``), is counted, and
        its reports dropped, at once.  The other parts are taken a cluster
        run at a time: for one run, that costs what the part's check would.
        ``worker_on_receive`` reads a worker only through its cluster and
        the targets, so on an unjammed cluster link one call decides for a
        run of alive untargeted workers, and such a run relays in one call
        when none of its workers relayed yet.

        Every other run, only ever in a pass counted once, is acted on
        worker by worker (see the module docstring)."""
        topo = self.topo
        wpc, dead = topo.config.workers_per_cluster, topo.dead
        wpr = self.region_size
        targets, alike = m.target_worker_ids, not self.jam.get("cluster")
        whole = dead.isdisjoint(ws)
        relayed = self.relayed[m.msg_id]
        home = sender // wpr
        land = quantize(self.now + self.latency["cluster"])
        due = self.kill_due(land)
        received = crossed = reported = suppressed = dropped = 0
        i = 0
        while i < len(ws):
            r = ws[i] // wpr
            end = bisect_left(ws, (r + 1) * wpr, i)
            part = ws[i:end]
            acts = part[-1] // wpc != part[0] // wpc and alike and not (due and r in due) and (
                whole or dead.isdisjoint(part)) and (
                not targets or targets.isdisjoint(part)) and self.idle(part, m, r)
            if acts:
                i = end
                received += len(part)
                if r != home:
                    crossed += len(part)
                reported += acts[0]
                dropped += acts[0]
                suppressed += acts[1]
                continue
            while i < end:
                c = ws[i] // wpc
                j = bisect_left(ws, (c + 1) * wpc, i)
                run = ws[i:j]
                i = j
                live = len(run) if whole else len(run) - len(dead.intersection(run))
                received += live
                if r != home:
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
        self.count(received, crossed, reported, suppressed, n)
        if dropped:
            self.report_dropped(land, dropped * n)

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
        self.done_in[m.msg_id, region] += 1
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
        self.fan_out([("cluster", [w for w in members if w not in dead])], mb, (leader,),
                     settle=False)

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
        where a coordinator on their roster died since their last round,
        those whose roster is below T_min, and the dead ones where a worker
        revived since their last round.  Any other region's roster is alive
        coordinators at or above T_min, and ``monitor_round`` on it reads
        only that roster and would return it unchanged, so its round is
        quiet and is counted without a visit.  So the death of a worker off
        the roster unsettles nothing: it matters only to the candidates of a
        roster below T_min, which stays unsettled until a round finds it
        settled.  A dead region's roster stays as it was, every member dead,
        until one of them revives, so its round can only find it dead again:
        the round that finds it dead drops it from ``unsettled``, and
        ``revive_worker`` puts it back.  A revive in a region that is not
        dead needs no visit of its own, for the same reason as a death off
        the roster.

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
                unsettled.discard(r)  # until a kill or a revive lands in it
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
