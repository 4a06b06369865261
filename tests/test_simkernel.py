import gc
import importlib.util
import tracemalloc
import weakref
from dataclasses import replace
from collections import Counter, defaultdict
from itertools import groupby
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import region_crossings
from reference import ReferenceKernel
from virtree import metrics, simkernel
from virtree.adjacent import DelayParams, reachable_workers
from virtree.coordinators import monitor_round
from virtree.hierarchical import MODE_LCA, MODE_ROOT, TreeLinks
from virtree.errors import ConservationError, ScenarioInvalid
from virtree.messages import new_command
from virtree.metrics import dump_trace
from virtree.scenario import (CommandSpec, FailureSpec, Scenario, build_scenario,
                              validate_scenario)
from virtree.simkernel import _Kernel, run
from virtree.topology import LAYER_LEADER, SCOPE_LAYERS, HierarchyConfig, build_topology

CFG_1R = HierarchyConfig(2, 2, coordinator_k=3, t_min=2)            # 1 region, 4 workers
CFG_2R = HierarchyConfig(2, 2, 2, coordinator_k=3, t_min=2)         # 2 regions, 8 workers
NO_JITTER = DelayParams(alpha=1.0, beta=0.0, epsilon=0.0)


def scenario(**kw):
    kw.setdefault("config", CFG_2R)
    kw.setdefault("seed", 11)
    kw.setdefault("horizon", 15.0)
    return Scenario(**kw)


class TestDeterminism:
    def test_byte_identical_reruns(self):
        for strategy in ("adjacent", "hierarchical"):
            sc = scenario(
                strategy=strategy,
                commands=[CommandSpec(time=0.5, origin=0, scope=("region", 1)),
                          CommandSpec(time=1.0, origin=3, scope=("global",))],
                failures=[FailureSpec(time=2.0, kind="worker", action="kill", worker=5),
                          FailureSpec(time=4.0, kind="worker", action="revive", worker=5)])
            t1, _ = run(sc)
            t2, _ = run(sc)
            assert dump_trace(t1) == dump_trace(t2)

    def test_seed_changes_the_trace(self):
        cmds = [CommandSpec(time=0.5, origin=0, scope=("region", 1))]
        t1, _ = run(scenario(seed=11, commands=cmds))
        t2, _ = run(scenario(seed=12, commands=cmds))
        assert dump_trace(t1) != dump_trace(t2)  # jitter stream differs


class TestBroadcastLifecycle:
    def test_leader_death_cancels_pending_broadcast(self):
        sc = scenario(
            config=CFG_1R, horizon=6.0,
            delay=DelayParams(alpha=5.0, beta=0.0, epsilon=0.0),
            commands=[CommandSpec(time=0.0, origin=0, scope=("cluster", 1))],
            failures=[FailureSpec(time=1.0, kind="worker", action="kill", worker=0)])
        trace, report = run(sc)
        cons = report.conservation
        assert cons["broadcasts_scheduled"] == 1
        assert cons["broadcasts_cancelled"] == 1
        assert any(rec.event == "broadcast_cancelled" for rec in trace)
        assert report.messages["0:0"].goals_executed == 0
        assert report.conserved

    def test_revived_leader_does_not_fire_its_cancelled_broadcast(self):
        # worker 0 leads cluster 0 and schedules the broadcast, dies with it
        # pending, and revives before it would fire; leadership has moved to
        # worker 1, and the cleared broadcast stays cancelled
        sc = scenario(config=HierarchyConfig(4, 2, 2, coordinator_k=3, t_min=2),
                      horizon=6.0,
                      commands=[CommandSpec(time=1.0, origin=0, scope=("global",))],
                      failures=[FailureSpec(time=1.5, kind="worker", action="kill", worker=0),
                                FailureSpec(time=1.7, kind="worker", action="revive",
                                            worker=0)])
        trace, report = run(sc)
        assert [(rec.data["old"], rec.data["new"]) for rec in trace
                if rec.event == "role_reelect" and rec.data["layer"] == 2] == [(0, 1)]
        assert [(rec.event, rec.data["cluster"]) for rec in trace
                if rec.event in ("schedule", "broadcast", "broadcast_cancelled")] == [
            ("schedule", 0), ("broadcast_cancelled", 0)]
        assert report.conservation["broadcasts_cancelled"] == 1
        assert report.messages["0:0"].goals_executed == 1
        assert report.conserved

    def test_horizon_leaves_broadcast_pending(self):
        sc = scenario(config=CFG_1R, horizon=0.55, delay=NO_JITTER,
                      commands=[CommandSpec(time=0.5, origin=0, scope=("cluster", 1))])
        _, report = run(sc)
        cons = report.conservation
        assert cons["broadcasts_scheduled"] == 1
        assert cons["broadcasts_pending"] == 1
        assert "broadcasts_fired" not in cons
        assert report.conserved

    def test_inflight_accounting_survives_wrapped_handlers(self, monkeypatch):
        # a flood cut off by the horizon plus one broadcast still scheduled
        sc = scenario(config=CFG_1R, horizon=1.1, delay=NO_JITTER,
                      commands=[CommandSpec(time=0.0, origin=0, scope=("global",)),
                                CommandSpec(time=0.5, origin=0, scope=("cluster", 1))])
        _, plain = run(sc)
        calls = []

        def passthrough(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        # as a profiler wraps them: class attributes replaced before the run
        for name in ("handle_delivery", "handle_broadcast"):
            monkeypatch.setattr(_Kernel, name, passthrough(getattr(_Kernel, name)))
        _, report = run(sc)
        assert {"handle_delivery", "handle_broadcast"} <= set(calls)
        cons = report.conservation
        assert cons["deliveries_inflight"] >= 1
        assert cons["broadcasts_pending"] == 1
        assert report.conserved
        assert cons == plain.conservation
        assert_horizon_cut_counts_in_flight()

    def test_global_scope_floods_every_cluster(self):
        sc = scenario(delay=NO_JITTER, horizon=25.0,
                      commands=[CommandSpec(time=0.0, origin=0, scope=("global",))])
        trace, report = run(sc)
        assert report.messages["0:0"].goals_executed == sc.config.n_clusters
        done = {rec.data["cluster"] for rec in trace if rec.event == "execute_cluster"}
        assert done == set(range(sc.config.n_clusters))
        assert report.conserved


class TestJam:
    def test_full_adjacent_jam_blocks_crossings(self):
        sc = scenario(
            delay=NO_JITTER,
            commands=[CommandSpec(time=0.5, origin=0, scope=("region", 1))],
            failures=[FailureSpec(time=0.0, kind="link", action="jam",
                                  link_class="adjacent", drop=1.0)])
        _, report = run(sc)
        # workers did receive, so the 0 is a count and not a missing key
        assert report.conservation["alg1_receives"] > 0
        assert "alg1_cross_region_receives" in report.conservation
        assert region_crossings(report) == 0
        assert report.conservation["deliveries_dropped_jam"] >= 1
        assert report.messages["0:0"].goals_executed == 0
        assert report.conserved
        # without the jam, the same command crosses
        _, report = run(scenario(delay=NO_JITTER, commands=sc.commands))
        assert region_crossings(report) > 0

    def test_cleared_jam_lets_later_traffic_cross(self):
        sc = scenario(
            delay=NO_JITTER,
            commands=[CommandSpec(time=0.5, origin=0, scope=("region", 1))],
            failures=[FailureSpec(time=0.0, kind="link", action="jam",
                                  link_class="adjacent", drop=1.0),
                      FailureSpec(time=3.0, kind="link", action="clear",
                                  link_class="adjacent")])
        _, report = run(sc)
        assert region_crossings(report) > 0
        assert report.conservation["deliveries_dropped_jam"] >= 1
        assert report.messages["0:0"].goals_executed == 2
        assert report.conserved


class TestFailures:
    def test_region_kill_goes_dead_and_stays_contained(self):
        sc = scenario(
            horizon=5.0, delay=NO_JITTER,
            commands=[CommandSpec(time=0.4, origin=0, scope=("region", 0))],
            failures=[FailureSpec(time=0.5, kind="region", action="kill", region=1),
                      FailureSpec(time=1.45, kind="worker", action="kill", worker=1)])
        trace, report = run(sc)
        alg4 = [(rec.event, rec.data["region"], rec.data["round"]) for rec in trace
                if rec.comp == "alg4"]
        # region 1 is written dead once; region 0's round 2 removes worker 1
        assert alg4 == [("region_dead", 1, 1), ("round", 0, 2)]
        assert report.conservation["alg4_rounds_skipped"] == 5 * 2 - len(alg4)
        assert report.live_region_fraction == 0.5
        assert report.conservation["deliveries_dropped_dead"] >= 1
        assert report.cross_region_maintenance == 0
        assert report.conserved

    def test_revival_refills_vacated_role(self):
        sc = scenario(
            config=CFG_1R, horizon=4.0,
            failures=[FailureSpec(time=1.0, kind="worker", action="kill", worker=0),
                      FailureSpec(time=2.0, kind="worker", action="kill", worker=1),
                      FailureSpec(time=3.0, kind="worker", action="revive", worker=0)])
        trace, report = run(sc)
        assert any(rec.event == "role_vacant" and rec.data["layer"] == 2
                   and rec.data["scope"] == 0 for rec in trace)
        refill = [rec for rec in trace if rec.event == "role_reelect"
                  and rec.data["layer"] == 2 and rec.data["scope"] == 0
                  and rec.data["old"] is None]
        assert [r.data["new"] for r in refill] == [0]
        assert report.conserved

    def test_revival_refills_every_vacant_scope_in_layer_order(self):
        # region 1 is hub 1 of domain 0; killing it vacates its clusters,
        # its region and its hub, while worker 0 keeps the domain role.
        # A command injected at the dead cluster 2 parks there.
        cfg = HierarchyConfig(2, 2, 1, 2, coordinator_k=2, t_min=1)
        sc = scenario(config=cfg, strategy="hierarchical", horizon=6.0,
                      commands=[CommandSpec(time=1.5, origin=2, scope=("global",))],
                      failures=[FailureSpec(time=1.0, kind="region", action="kill",
                                            region=1),
                                FailureSpec(time=2.0, kind="worker", action="revive",
                                            worker=5)])
        trace, report = run(sc)
        at = next(i for i, rec in enumerate(trace) if rec.event == "recovery")
        after = [rec for rec in trace[at + 1:] if rec.time == 2.0]
        refills = [(rec.data["layer"], rec.data["scope"], rec.data["old"], rec.data["new"])
                   for rec in after if rec.event == "role_reelect"]
        # cluster 2, region 1, hub 1; cluster 3 and the domain are left alone
        assert refills == [(2, 2, None, 5), (3, 1, None, 5), (4, 1, None, 5)]
        assert not any(rec.event == "role_vacant" for rec in after)
        retried = [rec.data for rec in after if rec.event == "noroute_retry"]
        assert retried == [{"node": "(2, 2)", "msg_id": "2:0", "ok": True}]
        assert report.conserved

    def test_duplicate_execution_suppressed(self):
        sc = scenario(config=CFG_1R, delay=NO_JITTER, horizon=10.0,
                      commands=[CommandSpec(time=0.0, origin=0, scope=("region", 0),
                                            targets=frozenset({1}))])
        trace, report = run(sc)
        runs = [rec for rec in trace if rec.event == "execute_worker"
                and rec.data["worker"] == 1]
        assert len(runs) == 1
        assert report.conservation["duplicate_exec_suppressed"] >= 1
        pm = report.messages["0:0"]
        assert pm.targets_executed == 1
        assert pm.goals_executed == 2


class TestExecutionLedger:
    def test_holds_only_targeted_executions(self):
        # an untargeted global command and a targeted one whose target also
        # gets relayed copies: only the targeted executions are remembered,
        # and only they have execute_worker records
        sc = scenario(config=CFG_1R, delay=NO_JITTER, horizon=10.0,
                      commands=[CommandSpec(time=0.0, origin=0, scope=("global",)),
                                CommandSpec(time=0.0, origin=0, scope=("region", 0),
                                            targets=frozenset({1}))])
        kernel = _Kernel(sc)
        trace, report = kernel.run()
        execs = [(rec.data["worker"], rec.data["msg_id"])
                 for rec in trace if rec.event == "execute_worker"]
        assert execs == [(1, "0:1")]
        clusters = [(rec.data["cluster"], rec.data["msg_id"], rec.data["missed"])
                    for rec in trace if rec.event == "execute_cluster"]
        assert sorted(clusters) == [(0, "0:0", []), (0, "0:1", []),
                                    (1, "0:0", []), (1, "0:1", [])]
        assert kernel.wexec == {(1, (0, 1))}
        assert report.conservation["duplicate_exec_suppressed"] >= 1
        assert report.messages["0:1"].targets_executed == 1


class TestLeaderStates:
    def test_made_at_each_clusters_first_leader_receive(self):
        cfg = HierarchyConfig(2, 2, 4, coordinator_k=3, t_min=2)
        unvisited = {}
        for strategy in ("adjacent", "hierarchical"):
            kernel = _Kernel(scenario(
                strategy=strategy, config=cfg,
                commands=[CommandSpec(time=0.5, origin=0, scope=("region", 1))],
                failures=[FailureSpec(time=0.2, kind="worker", action="kill", worker=0)]))
            assert kernel.processed == {}
            trace, _ = kernel.run()
            named = {rec.data["cluster"] for rec in trace
                     if rec.comp in ("alg2", "alg3") and rec.event == "process"}
            assert set(kernel.processed) == named
            unvisited[strategy] = cfg.n_clusters - len(named)
        # tree routing leaves most clusters alone, so most never get a state
        assert unvisited["hierarchical"] > 0

    def test_pending_holds_the_broadcasts_left_at_the_horizon(self):
        # worker 2, cluster 1's leader, dies with its broadcast pending, which
        # is cancelled before the horizon; others fire and two are cut off.
        # Tree routing schedules no broadcast, so it never writes pending
        cfg = HierarchyConfig(2, 2, 4, coordinator_k=3, t_min=2)
        for strategy in ("adjacent", "hierarchical"):
            kernel = _Kernel(scenario(
                strategy=strategy, config=cfg, horizon=4.0,
                commands=[CommandSpec(time=0.5, origin=0, scope=("global",))],
                failures=[FailureSpec(time=2.0, kind="worker", action="kill", worker=2)]))
            _, report = kernel.run()
            cons = report.conservation
            if strategy == "hierarchical":
                assert kernel.pending == {}
                continue
            assert cons["broadcasts_fired"] and cons["broadcasts_cancelled"] == 1
            assert sum(map(len, kernel.pending.values())) == cons["broadcasts_pending"] == 2
            # keyed by leader: each key still leads its cluster, the dead
            # leader's broadcasts are gone, and a leader whose broadcasts all
            # fired keeps no empty set
            leaders, topo = kernel.topo.roles[LAYER_LEADER], kernel.topo
            assert all(leaders[topo.cluster_of(w)] == w for w in kernel.pending)
            assert 2 not in kernel.pending
            assert all(kernel.pending.values())

    def test_broadcast_its_leaders_death_cancelled_is_not_pending_at_the_horizon(self):
        # worker 2, cluster 1's leader, dies at 2.0 with its broadcast
        # scheduled past the horizon at 3.0: that broadcast is cancelled,
        # though it is still queued, and the four others left are pending
        kernel = _Kernel(scenario(
            strategy="adjacent", config=HierarchyConfig(2, 2, 4, coordinator_k=3, t_min=2),
            horizon=3.0, commands=[CommandSpec(time=0.5, origin=0, scope=("global",))],
            failures=[FailureSpec(time=2.0, kind="worker", action="kill", worker=2)]))
        _, report = kernel.run()
        cons = report.conservation
        assert [cons[f"broadcasts_{k}"] for k in ("scheduled", "fired", "pending",
                                                   "cancelled")] == [6, 1, 4, 1]
        # keyed by leader, so the dead leader 2 holds none
        assert sum(map(len, kernel.pending.values())) == 4 and 2 not in kernel.pending
        assert report.conserved

    @pytest.mark.parametrize("strategy", ["adjacent", "hierarchical"])
    def test_processed_outlives_the_leader(self, strategy):
        # processed is keyed by cluster, not by holder: cluster 0's leader
        # processes m and dies (adjacent: with its broadcast pending), and
        # the worker re-elected in its place drops a later copy of m
        kernel = _Kernel(scenario(strategy=strategy, config=CFG_1R))
        m = new_command(0, 0, goals=range(1, 2))
        # an adjacent leader entry carries its report count where a tree
        # entry names its sending node
        comp, dest, sender = (("alg2", ("leader", 0), 1) if strategy == "adjacent"
                              else ("alg3", ("nodes", [(LAYER_LEADER, 0)]), None))
        leader = kernel.topo.roles[LAYER_LEADER][0]
        kernel.handle_delivery(dest, m, sender, False)
        assert kernel.pending == ({leader: {m.msg_id}} if strategy == "adjacent" else {})
        kernel.kill_worker(leader)
        assert kernel.topo.roles[LAYER_LEADER][0] not in (None, leader)
        assert kernel.pending == {}  # the dead leader's broadcast is cancelled
        kernel.handle_delivery(dest, m, sender, False)
        assert [rec.data["cluster"] for rec in kernel.batch if rec.event == "process"] == [0]
        assert kernel.counters[f"{comp}_drops"] == 1
        assert kernel.processed == {0: {m.msg_id}}


class TestMaintenance:
    def test_round_cadence(self):
        # worker 0, a coordinator of region 0, dies before round 2: that round
        # removes it and is written; every other round is quiet, counted only
        sc = scenario(horizon=3.0, round_period=1.0,
                      failures=[FailureSpec(time=1.5, kind="worker", action="kill",
                                            worker=0)])
        trace, report = run(sc)
        rounds = [(rec.data["region"], rec.data["round"]) for rec in trace
                  if rec.comp == "alg4" and rec.event == "round"]
        assert rounds == [(0, 2)]
        skipped = report.conservation["alg4_rounds_skipped"]
        assert len(rounds) + skipped == 3 * sc.config.n_regions

    def test_rounds_never_cross_regions(self):
        sc = scenario(horizon=6.0,
                      failures=[FailureSpec(time=0.5, kind="worker", action="kill",
                                            worker=w) for w in (0, 1, 4, 5)])
        trace, report = run(sc)
        assert report.cross_region_maintenance == 0
        # two of each region's three coordinators die, below T_min 2: each
        # region promotes its one worker outside the roster
        rounds = [rec.data for rec in trace if rec.comp == "alg4"]
        assert [(d["region"], d["removed"], d["promoted"]) for d in rounds] == [
            (0, [0, 1], [3]), (1, [4, 5], [7])]


def assert_same_run(a, b):
    """Two (trace, report) results: the same trace bytes and the same whole
    report, conservation keys included.  The traces are compared line by
    line, so a failure names the first line that differs at once."""
    assert dump_trace(a[0]).split("\n") == dump_trace(b[0]).split("\n")
    assert a[1].to_json_obj() == b[1].to_json_obj()


def assert_same_as_reference(sc):
    """Run sc on the reference kernel, recording the outcome of every
    region's every round, None for a dead one, and on the kernel,
    recording: the same trace bytes and the same whole report, the receive
    counters equal to the reference's receive log, and the rounds the trace
    keeps folding like every round (``assert_rounds_fold``).  Returns the
    recording kernel, its trace and its report."""
    ref = ReferenceKernel(sc)
    outcomes = []  # (region, round, RoundOutcome or None when dead, t_min)
    rounds = Counter()

    def recording(roster, region, topo, **kw):
        rounds[region] += 1
        out = monitor_round(roster, region, topo, **kw)
        outcomes.append((region, rounds[region], out, topo.config.t_min))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simkernel, "monitor_round", recording)
        expected = ref.run()
    kernel = Recording(sc)
    trace, report = kernel.run()
    assert_same_run((trace, report), expected)
    cons, region_of = report.conservation, ref.topo.region_of_worker
    assert cons.get("alg1_receives", 0) == len(ref.receives)
    assert cons.get("alg1_cross_region_receives", 0) == sum(
        region_of(w) != region_of(s) for w, s in ref.receives)
    assert_rounds_fold(sc, outcomes, trace, report)
    return kernel, trace, report


def assert_rounds_fold(sc, outcomes, trace, report):
    """Fold the outcomes of every region's every round as if each round were
    written: the report, folded from the rounds the trace keeps, must
    agree."""
    breaches, samples, last = {}, [], {}
    for region, rnd, out, t_min in outcomes:
        if out is None or out.alive_before < t_min:
            breaches.setdefault(region, rnd)
        if out is not None and region in breaches and out.size_after >= t_min:
            samples.append((region, rnd - breaches.pop(region) + 1))
        last[region] = out
    assert report.recovery_samples == samples
    assert report.unrestored_regions == sorted(breaches)
    written = sum(1 for rec in trace if rec.comp == "alg4")
    assert written + report.conservation.get("alg4_rounds_skipped", 0) == len(outcomes)
    # with no kill or revive after the last round, a region is live at the
    # end exactly when its last round found an alive coordinator
    last_round = simkernel.quantize(int(sc.horizon / sc.round_period + 1e-9) * sc.round_period)
    if last and all(simkernel.quantize(f.time) <= last_round for f in sc.failures
                    if f.kind in ("worker", "region")):
        live = sum(out is not None for out in last.values())
        assert report.live_region_fraction == live / sc.config.n_regions


def visited_rounds(sc):
    """Run sc on the kernel and check it against the reference kernel;
    returns the (region, round) of every ``monitor_round`` call, the trace and
    the report."""
    visits = []
    kernel = _Kernel(sc)

    def recording(roster, region, topo, **kw):
        visits.append((region, round(kernel.now / sc.round_period)))
        return monitor_round(roster, region, topo, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simkernel, "monitor_round", recording)
        trace, report = kernel.run()
    assert_same_run((trace, report), ReferenceKernel(sc).run())
    return visits, trace, report


class TestMaintenanceRecords:
    def test_first_round_after_revival_closes_the_breach(self):
        # region 1 (workers 4-7, coordinators 4-6) dies before round 2, and all
        # three coordinators revive before round 5: round 5 changes nothing,
        # yet it closes the breach, so it is written
        sc = scenario(horizon=10.0,
                      failures=[FailureSpec(time=1.5, kind="region", action="kill", region=1)]
                      + [FailureSpec(time=4.5, kind="worker", action="revive", worker=w)
                         for w in (4, 5, 6)])
        _, trace, report = assert_same_as_reference(sc)
        alg4 = [rec for rec in trace if rec.comp == "alg4"]
        assert [(rec.event, rec.data["region"], rec.data["round"]) for rec in alg4] == [
            ("region_dead", 1, 2), ("round", 1, 5)]
        assert alg4[1].data["removed"] == alg4[1].data["promoted"] == []
        assert alg4[1].data["size_after"] >= alg4[1].data["t_min"]  # not degraded
        assert report.recovery_samples == [(1, 4)]
        assert report.unrestored_regions == []


class TestUnsettledRegions:
    """Maintenance visits only unsettled regions; each run here must equal
    the reference kernel's, which visits every region in every round."""

    def test_failure_free_run_visits_no_region(self):
        # every initial roster is K >= T_min alive workers: settled until a kill
        cfg = HierarchyConfig(2, 2, 3, 2, coordinator_k=3, t_min=2)  # 6 regions
        visits, _, report = visited_rounds(Scenario(config=cfg, seed=3, horizon=8.0))
        assert visits == []
        assert report.conservation["alg4_rounds_skipped"] == 8 * cfg.n_regions

    def test_kill_of_a_non_coordinator_is_a_quiet_visit(self):
        # worker 3 of region 0 (coordinators 0-2) dies before round 2
        visits, trace, report = visited_rounds(scenario(
            horizon=3.0, failures=[FailureSpec(time=1.5, kind="worker", action="kill",
                                               worker=3)]))
        assert visits == [(0, 2)]
        assert not any(rec.comp == "alg4" for rec in trace)
        assert report.conservation["alg4_rounds_skipped"] == 3 * 2

    def test_region_below_t_min_without_candidates_degrades_every_round(self):
        # region 0 is workers 0 and 1, both coordinators, with T_min 2: once
        # worker 1 dies no candidate is left
        cfg = HierarchyConfig(2, 1, 2, coordinator_k=2, t_min=2)
        visits, trace, report = visited_rounds(Scenario(
            config=cfg, seed=3, horizon=4.0,
            failures=[FailureSpec(time=0.5, kind="worker", action="kill", worker=1)]))
        assert visits == [(0, 1), (0, 2), (0, 3), (0, 4)]
        rounds = [(rec.data["region"], rec.data["round"],
                   rec.data["size_after"] < rec.data["t_min"])
                  for rec in trace if rec.comp == "alg4"]
        assert rounds == [(0, rnd, True) for rnd in range(1, 5)]
        assert report.conservation["alg4_rounds_skipped"] == 4 * 2 - 4
        assert report.unrestored_regions == [0]

    def test_single_promotion_refills_over_several_rounds(self):
        # one region of six workers, coordinators 0-2 and T_min 3; two of
        # them die, and one promotion a round takes two rounds to refill
        cfg = HierarchyConfig(3, 2, 1, coordinator_k=3, t_min=3)
        visits, trace, report = visited_rounds(Scenario(
            config=cfg, seed=3, horizon=5.0, single_promotion=True,
            failures=[FailureSpec(time=0.5, kind="worker", action="kill", worker=w)
                      for w in (0, 1)]))
        assert visits == [(0, 1), (0, 2)]
        rounds = [(rec.data["round"], len(rec.data["promoted"]), rec.data["size_after"],
                   rec.data["size_after"] < rec.data["t_min"])
                  for rec in trace if rec.comp == "alg4"]
        assert rounds == [(1, 1, 2, True), (2, 1, 3, False)]
        assert report.conservation["alg4_rounds_skipped"] == 3
        assert report.recovery_samples == [(0, 2)]

    def test_coordinator_killed_and_revived_between_rounds(self):
        # coordinator 0 dies and is back before round 2 looks: a quiet visit
        visits, trace, report = visited_rounds(scenario(
            horizon=3.0,
            failures=[FailureSpec(time=1.2, kind="worker", action="kill", worker=0),
                      FailureSpec(time=1.6, kind="worker", action="revive", worker=0)]))
        assert visits == [(0, 2)]
        assert not any(rec.comp == "alg4" for rec in trace)
        assert report.conservation["alg4_rounds_skipped"] == 3 * 2

    def test_no_quiet_round_leaves_the_skip_count_out(self):
        # a single region degraded from round 1 on: every round is written
        cfg = HierarchyConfig(2, 1, 1, coordinator_k=2, t_min=2)
        visits, trace, report = visited_rounds(Scenario(
            config=cfg, seed=3, horizon=3.0,
            failures=[FailureSpec(time=0.5, kind="worker", action="kill", worker=1)]))
        assert visits == [(0, 1), (0, 2), (0, 3)]
        assert sum(rec.comp == "alg4" for rec in trace) == 3
        assert "alg4_rounds_skipped" not in report.conservation


class Chained(_Kernel):
    """The kernel, noting how many heap entries are initial events or rounds
    after set-up, at every push and after every initial event and round."""

    def __init__(self, sc):
        super().__init__(sc)
        self.after_setup, self.most = None, 0

    def note(self):
        chained = (self.fire_initial, self.handle_maintenance)
        self.most = max(self.most, sum(h in chained for _, _, h, _ in self.heap))

    def schedule_initial(self):
        super().schedule_initial()
        self.after_setup = len(self.heap)
        self.note()

    def push(self, fire, handler, args):
        super().push(fire, handler, args)
        self.note()

    def fire_initial(self, pos):
        super().fire_initial(pos)
        self.note()

    def handle_maintenance(self, rnd):
        super().handle_maintenance(rnd)
        self.note()


class TestSchedule:
    """Initial events and rounds are queued one at a time, and a quiet
    stretch of rounds is counted at once; each run equals the reference
    kernel's, which queues every one before the first event."""

    @pytest.mark.parametrize("n_failures", [0, 1, 30, 600])
    def test_heap_holds_at_most_two_scheduled_entries(self, n_failures):
        failures = [FailureSpec(time=i * 7 % 90 / 10, kind="worker",
                                action="revive" if i % 3 else "kill", worker=i % 8)
                    for i in range(n_failures)]
        sc = scenario(horizon=10.0, failures=failures, commands=[
            CommandSpec(time=t, origin=0, scope=("global",)) for t in (0.0, 2.5, 5.0)])
        kernel = Chained(sc)
        result = kernel.run()
        assert kernel.after_setup == 2 and kernel.most == 2
        assert_same_run(result, ReferenceKernel(sc).run())

    def test_quiet_stretch_is_one_round(self):
        # 100,000 rounds with nothing unsettled, the command delivered before
        # the first: that round counts them all
        calls = []
        kernel = _Kernel(scenario(
            horizon=100_000.0, strategy="hierarchical",
            link_latencies={**simkernel.DEFAULT_LATENCIES, "tree": 0.1},
            commands=[CommandSpec(time=0.0, origin=0, scope=("region", 1))]))
        handle = kernel.handle_maintenance
        kernel.handle_maintenance = lambda rnd: (calls.append(rnd), handle(rnd))
        trace, report = kernel.run()
        assert calls == [1]
        assert report.conservation["alg4_rounds_skipped"] == 100_000 * 2
        assert trace[-1].time == 100_000.0


class TestRunRecords:
    def test_run_start_and_end_shape(self):
        sc = scenario(horizon=2.0)
        trace, report = run(sc)
        first, last = trace[0], trace[-1]
        assert (first.comp, first.event) == ("kernel", "run_start")
        assert first.data["strategy"] == "adjacent"
        assert first.data["workers"] == sc.config.n_workers
        assert (last.comp, last.event) == ("kernel", "run_end")
        assert last.data["conserved"] is True
        assert last.data["live_region_fraction"] == 1.0
        assert report.conservation == last.data["conservation"]

    def test_kernel_dies_with_its_last_reference(self):
        # a flood cut off by the horizon leaves deliveries and a broadcast
        # queued; the kernel must go without a garbage collection
        sc = scenario(config=CFG_1R, horizon=1.1, delay=NO_JITTER,
                      commands=[CommandSpec(time=0.0, origin=0, scope=("global",)),
                                CommandSpec(time=0.5, origin=0, scope=("cluster", 1))])
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            kernel = _Kernel(sc)
            _, report = kernel.run()
            assert report.conservation["deliveries_inflight"] >= 1
            ref = weakref.ref(kernel)
            del kernel
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_streamed_run_holds_one_small_batch(self):
        # 180 global commands on 32 clusters write over 20k records; written
        # through dump_trace as they come, the run's memory stays small
        cfg = HierarchyConfig(2, 4, 4, 2, coordinator_k=3, t_min=2)
        sc = Scenario(config=cfg, seed=0, strategy="hierarchical", horizon=60.0,
                      commands=[CommandSpec(time=i / 10, origin=i % cfg.n_clusters,
                                            scope=("global",)) for i in range(180)])
        written = []
        tracemalloc.start()
        try:
            run(sc, sink=lambda batch: written.append((len(batch), len(dump_trace(batch)))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(n for n, _ in written) >= 20_000
        assert max(n for n, _ in written) < 2 * simkernel.TRACE_BATCH
        assert peak < 2_000_000

    @staticmethod
    def lose_completions(monkeypatch):
        bump = _Kernel.bump

        def lossy_bump(self, key, n=1):
            if key != "deliveries_completed":
                bump(self, key, n)

        monkeypatch.setattr(_Kernel, "bump", lossy_bump)

    def test_imbalance_raises_after_run_end(self, monkeypatch):
        self.lose_completions(monkeypatch)
        kernel = _Kernel(scenario(commands=[CommandSpec(time=0.5, origin=0,
                                                        scope=("region", 1))]))
        with pytest.raises(ConservationError) as info:
            kernel.run()
        assert info.value.counters["deliveries_enqueued"] > 0
        assert "deliveries_completed" not in info.value.counters
        last = kernel.trace[-1]
        assert (last.event, last.data["conserved"]) == ("run_end", False)

    def test_imbalance_hands_run_end_to_the_sink_before_raising(self, monkeypatch):
        self.lose_completions(monkeypatch)
        batches = []
        with pytest.raises(ConservationError):
            run(scenario(commands=[CommandSpec(time=0.5, origin=0, scope=("region", 1))]),
                sink=batches.append)
        last = batches[-1][-1]
        assert (last.event, last.data["conserved"]) == ("run_end", False)


class TestValidation:
    def bad(self, field, **kw):
        kw.setdefault("config", CFG_2R)
        kw.setdefault("seed", 1)
        kw.setdefault("horizon", 5.0)
        with pytest.raises(ScenarioInvalid) as err:
            validate_scenario(Scenario(**kw))
        assert err.value.field == field

    def test_top_level_fields(self):
        self.bad("strategy", strategy="radio")
        self.bad("routing.mode", route_mode="spanning")
        self.bad("horizon", horizon=0.0)
        self.bad("seed", seed=-1)
        self.bad("coordinator.round_period", round_period=0.0)
        self.bad("link_latencies.warp", link_latencies={"warp": 1.0})
        self.bad("link_latencies.tree", link_latencies={"tree": -1.0})
        self.bad("topology.adjacency[0]", adjacency_override=[(0, 0)])
        self.bad("topology.adjacency[1]", adjacency_override=[(0, 1), (0, 9)])

    def test_command_fields(self):
        def cmd(**kw):
            kw.setdefault("time", 0.0)
            kw.setdefault("origin", 0)
            kw.setdefault("scope", ("region", 0))
            return CommandSpec(**kw)

        self.bad("commands[0].time", commands=[cmd(time=-1.0)])
        self.bad("commands[0].origin", commands=[cmd(origin=99)])
        self.bad("commands[0].scope", commands=[cmd(scope=("continent", 0))])
        self.bad("commands[0].scope", commands=[cmd(scope=("region", 9))])
        self.bad("commands[0].scope", commands=[cmd(scope=("hub",))])
        self.bad("commands[0].targets", commands=[cmd(targets=frozenset({99}))])

    def test_failure_fields(self):
        def fail(**kw):
            kw.setdefault("time", 0.0)
            kw.setdefault("kind", "worker")
            kw.setdefault("action", "kill")
            return FailureSpec(**kw)

        self.bad("failures[0].time", failures=[fail(time=-1.0, worker=0)])
        self.bad("failures[0].kind", failures=[fail(kind="meteor")])
        self.bad("failures[0].worker", failures=[fail(worker=None)])
        self.bad("failures[0].worker", failures=[fail(worker=99)])
        self.bad("failures[0].action",
                 failures=[fail(kind="region", action="revive", region=0)])
        self.bad("failures[0].region", failures=[fail(kind="region", region=9)])
        self.bad("failures[0].link_class",
                 failures=[fail(kind="link", action="jam", link_class="laser")])
        self.bad("failures[0].drop",
                 failures=[fail(kind="link", action="jam", link_class="tree", drop=2.0)])
        self.bad("failures[0].action",
                 failures=[fail(kind="adjacency", action="jam", edge=(0, 1))])
        self.bad("failures[0].edge",
                 failures=[fail(kind="adjacency", action="add", edge=(1, 1))])


class Recording(_Kernel):
    """The kernel, recording each worker delivery entry as (fire, workers,
    sender list, send time), each tree delivery entry as (fire, nodes,
    sending node, send time), each delivery pass as (now, sender, times
    counted), each report entry it queues as (now, fire, cluster, count of
    reports) and each report it accounts without queuing as (now, fire)."""

    def __init__(self, sc):
        super().__init__(sc)
        self.entries, self.passes, self.reports, self.unqueued = [], [], [], []
        self.tree_entries = []

    def deliver_pass(self, ws, m, sender, n):
        self.passes.append((self.now, sender, n))
        super().deliver_pass(ws, m, sender, n)

    def push(self, fire, handler, args):
        if handler == self.handle_delivery and args[0][0] == "workers":
            self.entries.append((fire, args[0][1], args[2], self.now))
        elif handler == self.handle_delivery and args[0][0] == "nodes":
            self.tree_entries.append((fire, args[0][1], args[2], self.now))
        elif handler == self.handle_delivery and args[0][0] == "leader" and not args[3]:
            self.reports.append((self.now, fire, args[0][1], args[2]))
        super().push(fire, handler, args)

    def report_dropped(self, fire, n):
        self.unqueued += [(self.now, fire)] * n
        super().report_dropped(fire, n)

    @property
    def fanouts(self):
        """(fire, workers, sender) of each sender's copies of each entry, in
        the order per-sender entries would have been pushed: the entries
        that share a sender list, sender by sender."""
        out = []
        for _, loop in groupby(self.entries, key=lambda e: id(e[2])):
            loop = list(loop)
            senders = loop[0][2]
            out += [(fire, simkernel.copies_of(ws, senders[0], s), s)
                    for s in senders for fire, ws, *_ in loop]
        return out


def reachable_peers(w, topo):
    """(peer, link class) of each alive worker of w's region and its
    adjacent regions but w, ascending: a per-peer model of
    ``adjacent.reachable_workers``."""
    r, c = topo.region_of_worker(w), topo.cluster_of(w)
    return [(p, "cluster" if topo.cluster_of(p) == c else "region" if region == r
             else "adjacent")
            for region in sorted((r, *topo.region_adjacency[r]))
            for p in topo.workers_in_region(region) if p != w and topo.is_alive(p)]


class TestRelayCopies:
    def test_relays_match_per_peer_reachable_workers(self, monkeypatch):
        # 6 regions of 6 workers on a 3x2 grid; a global command every 0.3 s
        # keeps every region relaying while workers die and revive, a region
        # dies and an adjacency edge comes and goes
        cfg = HierarchyConfig(3, 2, 3, 2, coordinator_k=2, t_min=1)
        sc = Scenario(
            config=cfg, seed=5, horizon=12.0, round_period=1000.0,
            commands=[CommandSpec(time=round(0.3 * i, 1), origin=(5 * i) % 12,
                                  scope=("global",)) for i in range(16)],
            failures=[FailureSpec(time=1.05, kind="worker", action="kill", worker=14),
                      FailureSpec(time=1.55, kind="adjacency", action="add", edge=(0, 5)),
                      FailureSpec(time=2.05, kind="region", action="kill", region=4),
                      FailureSpec(time=2.55, kind="worker", action="revive", worker=25),
                      FailureSpec(time=3.05, kind="adjacency", action="remove",
                                  edge=(0, 1)),
                      FailureSpec(time=3.55, kind="worker", action="kill", worker=7),
                      FailureSpec(time=4.05, kind="worker", action="revive", worker=14)])
        validate_scenario(sc)
        relays = []  # (time, worker, fanout, per-peer model)

        kernel = Recording(sc)
        emit = kernel.emit

        def checked(comp, event, **data):
            emit(comp, event, **data)
            if event == "relay":
                w = data["worker"]
                peers = reachable_peers(w, kernel.topo)
                assert [(p, cls) for cls, ws in reachable_workers(w, kernel.topo)
                        for p in ws] == peers
                relays.append((kernel.now, w, data["fanout"], peers))

        monkeypatch.setattr(kernel, "emit", checked)
        kernel.run()
        # (send time, sender) -> the copies of each send loop, whose entries
        # share one sender list
        loops = defaultdict(list)
        for _, loop in groupby(kernel.entries, key=lambda e: id(e[2])):
            loop = list(loop)
            senders, sent = loop[0][2], loop[0][3]
            # one entry per link class here, each ascending
            assert len(loop) <= 3 and all(ws == sorted(ws) for _, ws, *_ in loop)
            for s in senders:
                loops[sent, s].append(sorted(
                    (p, fire) for fire, ws, *_ in loop
                    for p in simkernel.copies_of(ws, senders[0], s)))
        for t, w, fanout, peers in relays:
            assert fanout == len(peers)
            # nothing is jammed: a loop w sent then holds every peer once, due
            # at its class's latency
            sent = [(p, simkernel.quantize(t + kernel.latency[cls])) for p, cls in peers]
            assert sent in loops[t, w]
            loops[t, w].remove(sent)
        # relays ran many times per region, and after every edit of the alive
        # set or the adjacency
        assert len(relays) > 3 * cfg.n_regions
        for spec in sc.failures:
            assert any(t > spec.time for t, *_ in relays)


WORKER_CLASSES = ("cluster", "region", "adjacent")
SCOPE_KINDS = ("cluster", "region", "hub", "domain")


@st.composite
def runs(draw):
    """A scenario of either strategy on a small shape, every coordinator
    setting drawn: K, T_min, eager refill and single promotion.  Commands of
    every scope kind, some targeted; worker kills and revives, region
    kills, jams of the strategy's link classes that eat every copy or some,
    and, with the adjacent strategy and two regions or more, adjacency
    edits; link latencies drawn with zeros and ties.  Commands and the
    horizon sit on a 0.1 grid that fire times land on; failures fall on that
    grid or on a 0.01 one.  More failures are aimed into the windows of the
    run's own entries: a worker delivery entry's, from its send to the
    landing of its reports (``window_failures``), or a tree entry's, from
    its send to its fire time (``tree_window_failures``), and some
    hierarchical runs end inside a tree entry.  Some runs revive a region
    that a round found dead (``dead_region_revival``)."""
    # two adjacent runs to a hierarchical one: most shortcuts are adjacent
    adjacent = draw(st.sampled_from([True, True, False]))
    if adjacent:  # five layers, one hub, and clusters whose relays can share entries
        fan = [draw(st.integers(2, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))]
        layers, end = 5, 30
    else:
        fan = [draw(st.integers(1, 3)), draw(st.integers(1, 3))] + [
            draw(st.integers(1, 2)) for _ in range(3)]
        layers, end = draw(st.integers(2, 5)), 60
    k = draw(st.integers(1, min(4, fan[0] * fan[1])))
    cfg = HierarchyConfig(*fan, num_layers=layers, coordinator_k=k,
                          t_min=draw(st.integers(1, k)))

    def steps(n, per):  # 0, 1 / per, ..., n / per
        return st.integers(0, n).map(lambda i: i / per)

    at = st.one_of(steps(end, 10), steps(10 * end, 100))
    commands = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(SCOPE_KINDS + ("global",)))
        if kind == "global":
            scope = ("global",)
        else:
            last = cfg.n_scopes(SCOPE_LAYERS[kind]) - 1
            # an adjacent command floods toward the last scope, far from most origins
            scope = (kind, last if adjacent else draw(st.integers(0, last)))
        targets = draw(st.frozensets(st.integers(0, cfg.n_workers - 1), max_size=2))
        commands.append(CommandSpec(time=draw(steps(20, 10)), origin=draw(st.integers(
            0, cfg.n_clusters - 1)), scope=scope, targets=targets))
    classes = WORKER_CLASSES if adjacent else ("tree",)
    failures = []
    kinds = ["worker", "worker", "region", "link"] + ["adjacency"] * (
        adjacent and cfg.n_regions > 1)
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds))
        if kind == "worker":
            failures.append(FailureSpec(time=draw(at), kind="worker",
                                        action=draw(st.sampled_from(["kill", "revive"])),
                                        worker=draw(st.integers(0, cfg.n_workers - 1))))
        elif kind == "region":
            failures.append(FailureSpec(time=draw(at), kind="region", action="kill",
                                        region=draw(st.integers(0, cfg.n_regions - 1))))
        elif kind == "adjacency":
            edge = draw(st.lists(st.integers(0, cfg.n_regions - 1), min_size=2, max_size=2,
                                 unique=True))
            failures.append(FailureSpec(time=draw(at), kind="adjacency",
                                        action=draw(st.sampled_from(["add", "remove"])),
                                        edge=tuple(edge)))
        else:
            failures.append(FailureSpec(time=draw(at), kind="link",
                                        action=draw(st.sampled_from(["jam", "clear"])),
                                        link_class=draw(st.sampled_from(classes)),
                                        drop=draw(st.sampled_from([0.3, 0.7, 1.0]))))
    # zero last: Hypothesis draws the first choice most often, and a zero
    # cluster latency leaves no report window to aim at
    latencies = {**simkernel.DEFAULT_LATENCIES, **{
        cls: draw(st.sampled_from([0.1, 0.2, 0.5, 1.0, 0.0])) for cls in classes}}
    delay = DelayParams(alpha=draw(st.sampled_from([0.0, 0.5, 1.0])),
                        beta=draw(st.sampled_from([0.0, 0.1])),
                        epsilon=draw(st.sampled_from([0.0, 0.05])))
    sc = Scenario(config=cfg, seed=draw(st.integers(0, 99)),
                  strategy="adjacent" if adjacent else "hierarchical",
                  horizon=draw(steps(end + 10, 10)) + 1.05, delay=delay,
                  link_latencies=latencies,
                  route_mode=draw(st.sampled_from([MODE_LCA, MODE_ROOT])),
                  eager_refill=draw(st.booleans()), single_promotion=draw(st.booleans()),
                  commands=commands, failures=failures)
    if adjacent:
        sc = replace(sc, failures=failures + draw(window_failures(sc)))
    else:
        sc = replace(sc, failures=failures + draw(tree_window_failures(sc)))
        if draw(st.booleans()):
            # end the run while one of its entries is in flight
            windows = tree_windows(sc)
            if windows:
                fire, _, _, sent = draw(st.sampled_from(windows))
                sc = replace(sc, horizon=sent + draw(st.integers(1, 99)) / 100 * (fire - sent))
    return replace(sc, failures=sc.failures + dead_region_revival(sc))


def dead_region_revival(sc):
    """In runs of an odd seed and two rounds or more, a region killed
    halfway to a round and all its workers revived halfway to the next, so
    that round visits a region its last round found dead.  Which round and
    region come from the seed: a draw here would shift the examples the
    derandomized generator makes after it, whose windows
    ``test_generated_runs_reach_every_window`` counts."""
    n_rounds = int(sc.horizon / sc.round_period + 1e-9)
    if n_rounds < 2 or sc.seed % 2 == 0:
        return []
    k, r = 1 + sc.seed % (n_rounds - 1), sc.seed // 2 % sc.config.n_regions
    return [FailureSpec(time=(k - 0.5) * sc.round_period, kind="region", action="kill",
                        region=r)] + [
        FailureSpec(time=(k + 0.5) * sc.round_period, kind="worker", action="revive", worker=w)
        for w in build_topology(sc.config, sc.seed).workers_in_region(r)]


@st.composite
def window_failures(draw, sc):
    """Failures aimed at one to six windows of sc's run.  Most fall in the
    window of a worker delivery entry, from its send to the landing of the
    reports it makes: a kill of one of its workers or of its first sender;
    for an entry that several relays share, a kill of such a worker's region
    or a cluster link jam; or, at a leader's broadcast, another worker of
    the cluster dead from before the send until then, which then relays on
    its siblings' copies only.  The rest vacate the cluster a queued report
    is headed to before it lands, and revive one of its workers before the
    report lands or after."""
    kernel = Recording(sc)
    kernel.run()
    topo, failures = kernel.topo, []
    pick = {"kill": kernel.entries,
            "blink": [e for e in kernel.entries if e[2][0] in e[1] and len(e[1]) > 1],
            "region": [e for e in kernel.entries if len(e[2]) > 1],
            "vacate": kernel.reports}
    pick["jam"] = pick["region"]
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["blink", "blink", "kill", "region", "jam", "vacate"]))
        if not pick[kind]:
            continue
        if kind == "vacate":
            now, fire, c, _ = draw(st.sampled_from(pick[kind]))
            t = now + draw(st.integers(1, 100)) / 100 * (fire - now)
            back = (t + draw(st.integers(1, 100)) / 100 * (fire - t) if draw(st.booleans())
                    else fire + draw(st.integers(1, 100)) / 100)
            members = topo.workers_in_cluster(c)
            failures += [FailureSpec(time=t, kind="worker", action="kill", worker=w)
                         for w in members]
            failures.append(FailureSpec(time=back, kind="worker", action="revive",
                                        worker=draw(st.sampled_from(members))))
            continue
        fire, ws, senders, sent = draw(st.sampled_from(pick[kind]))
        # a revive or a jam after the send and by the fire time, a region
        # kill while the reports are in flight, a kill in either window
        landed = fire + kernel.latency["cluster"]
        lo, hi = {"blink": (sent, fire), "jam": (sent, fire), "region": (fire, landed),
                  "kill": (sent, landed)}[kind]
        t = lo + draw(st.integers(1, 100)) / 100 * (hi - lo)
        w = draw(st.sampled_from([w for w in ws if w != senders[0]] if kind == "blink"
                                 else [senders[0], *ws]))
        if kind == "jam":
            failures.append(FailureSpec(time=t, kind="link", action="jam", link_class="cluster",
                                        drop=draw(st.sampled_from([0.3, 1.0]))))
        elif kind == "region":
            failures.append(FailureSpec(time=t, kind="region", action="kill",
                                        region=topo.region_of_worker(w)))
        elif kind == "kill":
            failures.append(FailureSpec(time=t, kind="worker", action="kill", worker=w))
        else:
            failures += [FailureSpec(time=max(0.0, sent - draw(st.integers(1, 50)) / 100),
                                     kind="worker", action="kill", worker=w),
                         FailureSpec(time=t, kind="worker", action="revive", worker=w)]
    return failures


def tree_windows(sc):
    """The tree entries of sc's run that fire after their send: those of two
    copies or more, when there are any, else all of them."""
    kernel = Recording(sc)
    kernel.run()
    windows = [e for e in kernel.tree_entries if e[0] > e[3]]
    return [e for e in windows if len(e[1]) > 1] or windows


@st.composite
def tree_window_failures(draw, sc):
    """One to four failures, each at a time drawn from the window of a tree
    delivery entry of sc's run, from its send to its fire time, aimed at one
    of its nodes: every worker under the node killed, so the copy finds it
    vacant, then one of them revived before the fire time (a refilled
    vacancy) or after it (a parked copy retried on re-election); one such
    worker killed; its region killed; or a tree jam."""
    windows = tree_windows(sc)
    # a jam eats only the copies sent after it: aim it before the fire time
    # of a copy that is sent on, to an interior node or an injection leaf
    relaying = [e for e in windows if e[2] is None or any(n[0] > LAYER_LEADER for n in e[1])]
    topo = build_topology(sc.config, sc.seed)
    links, wpc = TreeLinks.build(topo), sc.config.workers_per_cluster
    failures = []
    for _ in range(draw(st.integers(1, 4)) if windows else 0):
        kind = draw(st.sampled_from(["vacate", "vacate", "kill", "region", "jam"]))
        fire, nodes, _, sent = draw(st.sampled_from(relaying if kind == "jam" and relaying
                                                    else windows))
        t = sent + draw(st.integers(0, 99)) / 100 * (fire - sent)
        under = links.clusters_under(draw(st.sampled_from(nodes)))
        ws = range(under.start * wpc, under.stop * wpc)
        if kind == "vacate":
            failures += [FailureSpec(time=t, kind="worker", action="kill", worker=w)
                         for w in ws]
            back = (t + draw(st.integers(1, 100)) / 100 * (fire - t) if draw(st.booleans())
                    else fire + draw(st.integers(1, 200)) / 100)
            failures.append(FailureSpec(time=back, kind="worker", action="revive",
                                        worker=draw(st.sampled_from(ws))))
        elif kind == "kill":
            failures.append(FailureSpec(time=t, kind="worker", action="kill",
                                        worker=draw(st.sampled_from(ws))))
        elif kind == "region":
            failures.append(FailureSpec(time=t, kind="region", action="kill",
                                        region=topo.region_of_worker(draw(st.sampled_from(ws)))))
        else:
            failures.append(FailureSpec(time=t, kind="link", action="jam", link_class="tree",
                                        drop=draw(st.sampled_from([0.5, 1.0]))))
    return failures


# 8 workers: cluster c is workers 2c and 2c + 1, region 0 is clusters 0 and 1.
# Worker 0 leads cluster 0, and its broadcast of a global command injected
# there at 0 fires at 1.0 and reaches workers 0 and 1 at 1.1; each relays,
# and their copies reach cluster 1 at 1.3 in one entry, whose workers send
# their four reports to their leader for 1.4 in one entry of count 4.
FLOOD = dict(config=CFG_2R, delay=NO_JITTER,
             commands=[CommandSpec(time=0.0, origin=0, scope=("global",))])


def assert_horizon_cut_counts_in_flight():
    """FLOOD cut at 1.35: each copy of an unfired fan-out entry is in flight,
    and so is each report of an entry due past the horizon."""
    kernel, _, report = assert_same_as_reference(scenario(**FLOOD, horizon=1.35))
    assert kernel.reports == [(1.3, 1.4, 1, 4)] and kernel.unqueued == []
    # the adjacent copies of workers 0 and 1, due at 1.6
    assert [ws for fire, ws, _ in kernel.fanouts if fire > 1.35] == [[4, 5, 6, 7]] * 2
    # the two cut entries, and the four reports of the cut report entry
    assert report.conservation["deliveries_inflight"] == 2 * 4 + 4
    assert report.conserved


# FLOOD on 4 workers a cluster: cluster c is workers 4c to 4c + 3, region 0
# is clusters 0 and 1.  Workers 0 to 3 get worker 0's broadcast at 1.1 and
# relay; each relay reaches cluster 1 as one run of four at 1.3, and those
# 16 copies report to cluster 1's leader, worker 4, for 1.4 in one entry of
# count 16.
CFG_4W = HierarchyConfig(4, 2, 2, coordinator_k=3, t_min=2)
FLOOD_4W = dict(FLOOD, config=CFG_4W)


def records(trace, event, **match):
    return [(rec.time, rec.data) for rec in trace if rec.event == event
            and all(rec.data.get(k) == v for k, v in match.items())]


def reports_dropped_dead(trace, cluster):
    return [rec.time for rec in trace
            if rec.event == "drop_dead" and rec.data.get("cluster") == cluster]


class TestPerCopyReference:
    """Fan-out entries and unqueued certain-drop reports change no output:
    each run equals the reference kernel's, which queues every copy alone."""

    @pytest.mark.parametrize("change, fire, senders", [
        # a jammed cluster link: each sender's reports to cluster 1 draw on it
        (dict(failures=[FailureSpec(time=1.25, kind="link", action="jam",
                                    link_class="cluster", drop=0.5)]), 1.3, 4),
        # worker 0, the first sender, dies: the later senders' copies to it
        # are dropped dead
        (dict(failures=[FailureSpec(time=1.15, kind="worker", action="kill", worker=0)]),
         1.2, 4),
        # worker 5 of cluster 1 is targeted: its copy from each sender
        # executes, the later ones as duplicates
        (dict(commands=[CommandSpec(time=0.0, origin=0, scope=("global",),
                                    targets=frozenset({5}))]), 1.3, 4),
        # worker 3, dead at worker 0's broadcast and back before the relays,
        # relays on the first sender's copy only
        (dict(failures=[FailureSpec(time=0.5, kind="worker", action="kill", worker=3),
                        FailureSpec(time=1.05, kind="worker", action="revive", worker=3)]),
         1.2, 3),
        # cluster 1 dies before the reports land: each one is dropped dead
        (dict(failures=[FailureSpec(time=1.35, kind="worker", action="kill", worker=w)
                        for w in (4, 5, 6, 7)]), 1.3, 4),
    ], ids=["cluster-jam", "dead-receiver", "targeted-receiver", "yet-to-relay",
            "kill-in-report-window"])
    def test_entry_that_tells_senders_apart_goes_sender_by_sender(self, change, fire,
                                                                   senders):
        # workers 0 to 3 relay worker 0's broadcast together; their entry due
        # at fire is delivered one sender at a time, in relay order
        kernel, _, _ = assert_same_as_reference(scenario(**{**FLOOD_4W, **change}))
        assert [e[2] for e in kernel.entries if e[0] == fire] == [list(range(senders))]
        assert [p[1:] for p in kernel.passes if p[0] == fire] == [
            (s, 1) for s in range(senders)]

    def test_alike_run_relays_in_one_call(self):
        # workers 0 to 3 get worker 0's broadcast at 1.1 as one run: their
        # four relay records, then one entry per fire time, each with the
        # run as its sender list
        kernel, trace, _ = assert_same_as_reference(scenario(**FLOOD_4W))
        assert [(rec.event, rec.data["worker"]) for rec in trace if rec.time == 1.1] == [
            ("relay", w) for w in range(4)]
        entries = [e[:3] for e in kernel.entries if e[3] == 1.1]
        assert entries == [(1.2, [1, 2, 3], [0, 1, 2, 3]), (1.3, [4, 5, 6, 7], [0, 1, 2, 3]),
                           (1.6, list(range(8, 16)), [0, 1, 2, 3])]
        assert all(senders is entries[0][2] for _, _, senders in entries)

    def test_run_holding_a_targeted_worker_relays_copy_by_copy(self):
        # targeted worker 1 is in the run of worker 0's broadcast at 1.1:
        # each worker relays in turn and pushes its own entries, with a
        # sender list of one
        kernel, trace, _ = assert_same_as_reference(scenario(**dict(FLOOD_4W, commands=[
            CommandSpec(time=0.0, origin=0, scope=("global",), targets=frozenset({1}))])))
        assert [(t, d["worker"]) for t, d in records(trace, "relay") if t == 1.1] == [
            (1.1, w) for w in range(4)]
        assert [e[:3] for e in kernel.entries if e[3] == 1.1] == [
            entry for w in range(4) for entry in (
                (1.2, [p for p in range(4) if p != w], [w]), (1.3, [4, 5, 6, 7], [w]),
                (1.6, list(range(8, 16)), [w]))]

    def test_jam_at_a_relay_keeps_each_senders_entries(self):
        # the region link is half jammed when workers 0 to 3 relay: each
        # relay draws for its own copies and pushes its own entries
        kernel, _, _ = assert_same_as_reference(scenario(**FLOOD_4W, failures=[
            FailureSpec(time=1.05, kind="link", action="jam", link_class="region",
                        drop=0.5)]))
        assert [(ws, senders) for fire, ws, senders, _ in kernel.entries if fire == 1.2] == [
            ([w for w in range(4) if w != s], [s]) for s in range(4)]

    def test_reports_behind_a_queued_one_are_not_queued(self):
        # targeted worker 3 makes the entry to cluster 1 go sender by
        # sender, each pass acting on the run worker by worker and sending
        # its two reports in one call: the first pass's are queued, and at
        # the second pass they are still due, so its two can only be
        # dropped as processed
        kernel, trace, report = assert_same_as_reference(scenario(**dict(FLOOD, commands=[
            CommandSpec(time=0.0, origin=0, scope=("global",), targets=frozenset({3}))])))
        assert kernel.reports[0] == (1.3, 1.4, 1, 2)
        assert [u for u in kernel.unqueued if u[0] == 1.3] == [(1.3, 1.4)] * 2
        # worker 0's broadcast, then worker 0's relay, one entry per class
        assert kernel.fanouts[:4] == [(1.1, [0, 1], 0), (1.2, [1], 0), (1.3, [2, 3], 0),
                                      (1.6, [4, 5, 6, 7], 0)]
        assert report.messages["0:0"].goals_executed == CFG_2R.n_clusters

    def test_kill_at_a_reports_fire_time(self):
        # cluster 1 dies at 1.4, before its four reports land then
        kernel, trace, _ = assert_same_as_reference(scenario(**FLOOD, failures=[
            FailureSpec(time=1.4, kind="worker", action="kill", worker=w) for w in (2, 3)]))
        assert reports_dropped_dead(trace, 1) == [1.4] * 4
        assert not any(now == 1.3 for now, _ in kernel.unqueued)

    def test_last_worker_killed_with_reports_in_flight(self):
        # worker 3 dies early; worker 2, the last one of cluster 1, dies
        # while its two reports are in flight
        _, trace, report = assert_same_as_reference(scenario(**FLOOD, failures=[
            FailureSpec(time=0.2, kind="worker", action="kill", worker=3),
            FailureSpec(time=1.35, kind="worker", action="kill", worker=2)]))
        assert reports_dropped_dead(trace, 1) == [1.4, 1.4]
        assert report.conservation["deliveries_dropped_dead"] >= 2

    def test_revive_refills_a_vacant_leader_before_a_report_lands(self):
        # worker 2, cluster 1's leader, reports twice at 1.3 and dies at
        # 1.32; worker 3 revives at 1.35 and takes the vacant lead, and both
        # reports land on it, the first one processed
        _, trace, _ = assert_same_as_reference(scenario(**FLOOD, failures=[
            FailureSpec(time=0.2, kind="worker", action="kill", worker=3),
            FailureSpec(time=1.32, kind="worker", action="kill", worker=2),
            FailureSpec(time=1.35, kind="worker", action="revive", worker=3)]))
        roles = [(rec.time, rec.event, rec.data.get("new")) for rec in trace
                 if rec.event in ("role_vacant", "role_reelect")
                 and (rec.data["layer"], rec.data["scope"]) == (2, 1)]
        assert roles == [(1.32, "role_vacant", None), (1.35, "role_reelect", 3)]
        assert [rec.time for rec in trace if rec.event == "process"
                and rec.data["cluster"] == 1] == [1.4]
        assert reports_dropped_dead(trace, 1) == []

    def test_run_end_at_an_unqueued_report_due_last(self):
        # one worker a cluster, and the cluster link the slowest: the last
        # event due before the horizon is a report the kernel does not
        # queue, and run_end still takes its time
        sc = Scenario(config=HierarchyConfig(1, 2, 2, coordinator_k=1, t_min=1), seed=0,
                      horizon=1.15, delay=DelayParams(alpha=0.0, beta=0.0, epsilon=0.0),
                      link_latencies={"cluster": 0.2, "region": 0.0, "adjacent": 0.1},
                      commands=[CommandSpec(time=0.1, origin=0, scope=("global",))])
        kernel, trace, _ = assert_same_as_reference(sc)
        assert trace[-1].time == kernel.unqueued[-1][1] == 1.1
        assert trace[-2].time < 1.1

    def test_horizon_cuts_fan_outs_and_unqueued_reports(self):
        assert_horizon_cut_counts_in_flight()

    # Each case below breaks one condition of counting a cluster run at once;
    # test_run_breaking_every_condition_at_once breaks them together.

    def test_run_with_a_dead_worker(self):
        # worker 6 dies after the relays are sent, before their runs land
        _, trace, _ = assert_same_as_reference(scenario(**FLOOD_4W, failures=[
            FailureSpec(time=1.25, kind="worker", action="kill", worker=6)]))
        assert [t for t, _ in records(trace, "drop_dead", worker=6)] == [1.3] * 4

    def test_dead_worker_run_beside_counted_runs(self):
        # three clusters a region: worker 0's relay reaches clusters 1 and 2
        # of its own region in one entry at 1.3, after worker 3 of cluster 1
        # died; cluster 1's run is acted on worker by worker, cluster 2's is
        # counted
        sc = scenario(**dict(FLOOD, config=HierarchyConfig(2, 3, 2, coordinator_k=2, t_min=1)),
                      failures=[FailureSpec(time=1.25, kind="worker", action="kill", worker=3)])
        kernel, trace, report = assert_same_as_reference(sc)
        assert (1.3, [2, 3, 4, 5], 0) in kernel.fanouts
        assert [t for t, _ in records(trace, "drop_dead", worker=3)] == [1.3, 1.3]

    def test_run_holding_a_targeted_worker(self):
        sc = scenario(**dict(FLOOD_4W, commands=[CommandSpec(
            time=0.0, origin=0, scope=("global",), targets=frozenset({6}))]))
        # each sender's run at cluster 1 is acted on worker by worker, and
        # its four reports go in one call: the first pass's in one entry,
        # the later three passes' 12 unqueued behind it
        kernel, trace, _ = assert_same_as_reference(sc)
        assert records(trace, "execute_worker") == [
            (1.3, {"worker": 6, "msg_id": "0:0", "hop": 1, "from_worker": 0})]
        assert [r for r in kernel.reports if r[0] == 1.3] == [(1.3, 1.4, 1, 4)]
        assert [u for u in kernel.unqueued if u[0] == 1.3] == [(1.3, 1.4)] * 12

    def test_run_with_a_worker_yet_to_relay(self):
        # worker 3 is dead at worker 0's broadcast and back before the relays
        # go out: its first flagged copy comes in a run with workers that
        # relayed already, and it relays then
        _, trace, _ = assert_same_as_reference(scenario(**FLOOD_4W, failures=[
            FailureSpec(time=0.5, kind="worker", action="kill", worker=3),
            FailureSpec(time=1.05, kind="worker", action="revive", worker=3)]))
        relays = [(t, d["worker"], d["from_worker"]) for t, d in records(trace, "relay")]
        assert relays[:4] == [(1.1, 0, 0), (1.1, 1, 0), (1.1, 2, 0), (1.2, 3, 0)]

    def test_cluster_jam_during_a_run(self):
        # every report of the 16 draws on the jam, worker by worker; each
        # sender's pass sends the reports that get through in one call: the
        # first pass's in one entry, the later passes' unqueued behind it
        kernel, trace, _ = assert_same_as_reference(scenario(**FLOOD_4W, failures=[
            FailureSpec(time=1.25, kind="link", action="jam", link_class="cluster",
                        drop=0.5)]))
        jammed = [t for t, _ in records(trace, "drop_jam", dest="('leader', 1)")
                  if t == 1.3]
        queued = [r for r in kernel.reports if r[0] == 1.3]
        unqueued = [f for now, f in kernel.unqueued if now == 1.3]
        assert 0 < len(jammed) < 16 and [r[:3] for r in queued] == [(1.3, 1.4, 1)]
        assert 0 < queued[0][3] < 4
        assert unqueued == [1.4] * (16 - len(jammed) - queued[0][3])

    def test_run_breaking_every_condition_at_once(self):
        # each relay of workers 0 to 3 crosses to region 1 as one entry at
        # 1.6; its cluster 2 run holds dead worker 9 and targeted worker 10,
        # and the cluster link is half jammed, so each sender's pass acts on
        # every run worker by worker and each alive one's report draws on
        # the jam
        sc = scenario(**dict(FLOOD_4W, commands=[CommandSpec(
            time=0.0, origin=0, scope=("global",), targets=frozenset({10}))]), failures=[
            FailureSpec(time=1.55, kind="worker", action="kill", worker=9),
            FailureSpec(time=1.55, kind="link", action="jam", link_class="cluster",
                        drop=0.5)])
        kernel, trace, report = assert_same_as_reference(sc)
        assert [(ws, w) for fire, ws, w in kernel.fanouts if fire == 1.6] == [
            (list(range(8, 16)), w) for w in range(4)]
        acts = [(rec.event, rec.data.get("worker"), rec.data.get("dest")) for rec in trace
                if rec.time == 1.6 and rec.event in ("drop_dead", "execute_worker", "drop_jam")]
        dead, done = ("drop_dead", 9, None), ("execute_worker", 10, None)
        jam2, jam3 = (("drop_jam", None, f"('leader', {c})") for c in (2, 3))
        # entry by entry, workers 8 to 15 in turn; a report the jam lets
        # through writes nothing, and worker 10 executes once
        assert acts == [jam2, dead, done, jam2, jam3, jam3,
                        jam2, dead, jam3, jam3,
                        jam2, dead, jam2, jam2, jam3,
                        dead, jam2, jam2, jam3, jam3]
        # 28 reports: 15 jammed; the first pass sends its run's one
        # unjammed report to cluster 2 and two to cluster 3, one entry a
        # run; the later passes' 10 are unqueued behind them
        assert [r for r in kernel.reports if r[0] == 1.6] == [(1.6, 1.7, 2, 1),
                                                              (1.6, 1.7, 3, 2)]
        assert [u for u in kernel.unqueued if u[0] == 1.6] == [(1.6, 1.7)] * 10
        assert report.conservation["deliveries_dropped_dead"] == 4

    def test_adjacent_jam_draws_once_per_copy(self):
        # each of workers 0 to 3 relays eight adjacent copies to region 1 at
        # 1.1, one segment each, and a half jam eats some copies of each
        _, trace, _ = assert_same_as_reference(scenario(**FLOOD_4W, failures=[
            FailureSpec(time=1.05, kind="link", action="jam", link_class="adjacent",
                        drop=0.5)]))
        jammed = [t for t, d in records(trace, "drop_jam", link_class="adjacent")
                  if t == 1.1]
        assert 0 < len(jammed) < 32 and len(jammed) % 8

    def test_zero_cluster_latency_is_one_pass(self):
        # reports due now land in one entry at once, so nothing tells workers
        # 0 to 3 apart: their entry to cluster 1 is one pass counted four
        # times, whose 16 reports are one entry due now
        kernel, _, _ = assert_same_as_reference(scenario(**FLOOD_4W, link_latencies={
            **simkernel.DEFAULT_LATENCIES, "cluster": 0.0}))
        assert [e[2] for e in kernel.entries if e[0] == 1.2] == [[0, 1, 2, 3]]
        assert [p[1:] for p in kernel.passes if p[0] == 1.2] == [(0, 4)]
        assert [r for r in kernel.reports if r[2] == 1] == [(1.2, 1.2, 1, 16)]
        assert [u for u in kernel.unqueued if u[0] == 1.2] == []

    def test_kill_between_a_run_and_its_reports(self):
        # worker 7 dies at 1.35, in [1.3, 1.4]: the entry at 1.3 goes sender
        # by sender, no report of its runs can be accounted unqueued, and the
        # leader drops 15 of them
        kernel, trace, _ = assert_same_as_reference(scenario(**FLOOD_4W, failures=[
            FailureSpec(time=1.35, kind="worker", action="kill", worker=7)]))
        assert [r for r in kernel.reports if r[0] == 1.3] == [(1.3, 1.4, 1, 4)] * 4
        assert not any(now == 1.3 for now, _ in kernel.unqueued)
        assert [t for t, _ in records(trace, "process", cluster=1)] == [1.4]

    def test_horizon_cuts_a_runs_unqueued_reports(self):
        # targeted worker 6 makes the entry to cluster 1 go sender by
        # sender: the first pass's four reports queued in one entry, the
        # later passes' 12 accounted unqueued, all due past the horizon
        kernel, _, report = assert_same_as_reference(scenario(**dict(FLOOD_4W, commands=[
            CommandSpec(time=0.0, origin=0, scope=("global",), targets=frozenset({6}))]),
            horizon=1.35))
        assert kernel.reports == [(1.3, 1.4, 1, 4)]
        assert kernel.unqueued == [(1.3, 1.4)] * 12
        # the 12 unqueued reports, the queued entry's four, and each relay's
        # eight adjacent copies due at 1.6
        assert report.conservation["deliveries_inflight"] == 12 + 4 + 4 * 8
        assert report.conserved


class TestClusterRuns:
    def test_later_senders_make_no_receive_or_report_call(self, monkeypatch):
        # workers 0 to 3 relay worker 0's broadcast together, and so do the
        # workers of every cluster that broadcasts: each entry's first
        # sender's pass is counted for the others
        kernel = Recording(scenario(**FLOOD_4W))
        callers = []  # the sender of the pass each call is made in

        def attributed(fn):
            def wrapper(*args):
                callers.append(kernel.passes[-1][1])
                return fn(*args)
            return wrapper

        monkeypatch.setattr(simkernel.adj, "worker_on_receive",
                            attributed(simkernel.adj.worker_on_receive))
        monkeypatch.setattr(_Kernel, "send_reports", attributed(_Kernel.send_reports))
        _, report = kernel.run()
        assert [e for e in kernel.entries if e[0] == 1.2] == [(1.2, [1, 2, 3], [0, 1, 2, 3], 1.1)]
        later = {s for _, _, senders, _ in kernel.entries for s in senders[1:]}
        assert {1, 2, 3} <= later and callers and later.isdisjoint(callers)
        # one pass an entry that fired, counted once per sender
        fired = [senders for fire, _, senders, _ in kernel.entries if fire <= 15.0]
        assert sorted(n for _, _, n in kernel.passes) == sorted(map(len, fired))
        assert report.conserved

    def test_a_run_takes_one_receive_call(self, monkeypatch):
        # a silent fall back to copy-by-copy delivery fails here
        calls = []
        on_receive = simkernel.adj.worker_on_receive

        def counted(w, m, topo):
            calls.append(w)
            return on_receive(w, m, topo)

        monkeypatch.setattr(simkernel.adj, "worker_on_receive", counted)
        sc = scenario(**FLOOD_4W)
        kernel = Recording(sc)
        trace, report = kernel.run()
        n_calls = len(calls)
        _, ref = ReferenceKernel(sc).run()
        receives = report.conservation["alg1_receives"]
        # the reference calls it once per receive
        assert receives == ref.conservation["alg1_receives"] == len(calls) - n_calls
        # one call a cluster run of a delivered entry, and one more for each
        # first relay, whose run is acted on worker by worker
        wpc = CFG_4W.workers_per_cluster
        runs = sum(len({w // wpc for w in ws}) for fire, ws, _ in kernel.fanouts
                   if fire <= sc.horizon)
        assert n_calls <= runs + len(records(trace, "relay")) <= receives / 2


class Windows(Recording):
    """The kernel, counting the windows a run reaches that its shortcuts
    must get right: a worker killed while a copy from another region is
    headed to it; a kill while a report is in flight; a revive while a
    report to the worker's cluster is; a cluster link jammed while a worker
    entry is in flight; a parked injection retried; a vacancy refilled while
    a tree copy to it is in flight; and, at the horizon, a worker entry in
    flight, or a tree entry of several copies."""

    def __init__(self, sc):
        super().__init__(sc)
        self.windows = Counter()

    def queued(self, kind):
        """The args of each queued delivery entry of kind."""
        return [args for _, _, handler, args in self.heap
                if handler == self.handle_delivery and args[0][0] == kind]

    def kill_worker(self, w):
        if self.topo.is_alive(w):
            region_of = self.topo.region_of_worker
            self.windows["crossing copy's target killed"] += any(
                w in args[0][1] and region_of(args[2][0]) != region_of(w)
                for args in self.queued("workers"))
            self.windows["kill in a report's window"] += any(
                not args[3] for args in self.queued("leader"))
        super().kill_worker(w)

    def revive_worker(self, w):
        if not self.topo.is_alive(w):
            self.windows["revive before a report lands"] += any(
                args[0][1] == self.topo.cluster_of(w) and not args[3]
                for args in self.queued("leader"))
        vacant = [n for args in self.queued("nodes") for n in args[0][1]
                  if self.links.holder(n) is None]
        super().revive_worker(w)
        self.windows["vacancy refilled"] += sum(
            self.links.holder(n) is not None for n in vacant)

    def handle_failure(self, spec):
        if (spec.kind, spec.action, spec.link_class) == ("link", "jam", "cluster"):
            self.windows["cluster jam during a run"] += bool(self.queued("workers"))
        super().handle_failure(spec)

    def retry_parked(self):
        self.windows["injection retried"] += sum(
            e["from"] is None and self.links.holder(e["node"]) is not None
            for e in self.parked)
        super().retry_parked()

    def run(self):
        result = super().run()
        horizon = self.sc.horizon
        self.windows["worker entry cut"] += any(
            sent <= horizon < fire for fire, _, _, sent in self.entries)
        self.windows["tree entry cut"] += any(
            sent <= horizon < fire and len(nodes) > 1
            for fire, nodes, _, sent in self.tree_entries)
        return result


def small_run(config, commands, failures=(), tree=None, **kw):
    """A run of config with one coordinator a region and no forwarding
    delay: an adjacent one with 0.1 on every worker link or, given a tree
    latency, a hierarchical one."""
    latencies = {**simkernel.DEFAULT_LATENCIES, "cluster": 0.1, "region": 0.1, "adjacent": 0.1}
    if tree is not None:
        latencies = {**simkernel.DEFAULT_LATENCIES, "tree": tree}
        kw["strategy"] = "hierarchical"
    kw.setdefault("horizon", 1.05)
    return Scenario(config=replace(config, coordinator_k=1, t_min=1), seed=0,
                    delay=DelayParams(alpha=0.0, beta=0.0, epsilon=0.0),
                    link_latencies=latencies, commands=commands, failures=list(failures), **kw)


def to_cluster(c, origin=0, targets=(), time=0.0):
    return CommandSpec(time=time, origin=origin, scope=("cluster", c), targets=frozenset(targets))


def blink(w, down, up):
    """Worker w killed at down and revived at up."""
    return [FailureSpec(time=down, kind="worker", action="kill", worker=w),
            FailureSpec(time=up, kind="worker", action="revive", worker=w)]


def cluster_jam(t):
    return FailureSpec(time=t, kind="link", action="jam", link_class="cluster", drop=0.3)


def region_kill(t, r):
    return FailureSpec(time=t, kind="region", action="kill", region=r)


# Adjacent shapes: cluster c is workers 2c and 2c + 1 (3c to 3c + 2 in
# R1W3), alone in its region in R1, R1W3 and R1X3, two a region in R2.
# A worker blinked at 0 misses its leader's broadcast, at 0, and first
# hears the command from a sibling's relay: it relays a hop after them.
R1 = HierarchyConfig(2, 1, 2)
R1W3 = HierarchyConfig(3, 1, 2)
R1X3 = HierarchyConfig(2, 1, 3)
R2 = HierarchyConfig(2, 2, 2)
LATE_1 = blink(1, 0.0, 0.001)

# The smallest generated runs on which leaving one condition out of a
# shortcut changes the output, each named for that condition, so that each
# condition is checked whatever runs the generator draws.
SMALLEST_RUNS = [pytest.param(sc, id=name) for name, sc in {
    # the adjacent link is jammed from 0, so the relays of an alike run
    # are sent on a jammed link: each keeps its own entries and draws
    "relay-under-a-jam": small_run(R1, [to_cluster(1)], [FailureSpec(
        time=0.0, kind="link", action="jam", link_class="adjacent", drop=0.3)]),
    # the jam falls while the first relays' entry is in flight: the
    # senders go apart, and no run acts alike
    "jam-in-flight": small_run(R1, [to_cluster(1)], [cluster_jam(0.101)]),
    # relays on the jammed link draw once for each copy, not once a segment
    "jam-draws-per-copy": small_run(R1X3, [to_cluster(2)], [cluster_jam(0.101)]),
    # worker 0, the first sender, dies while worker 1's copy to it flies
    "first-sender-dead": small_run(R1, [to_cluster(1)], [FailureSpec(
        time=0.102, kind="worker", action="kill", worker=0)]),
    # targeted worker 0 receives the entry of cluster 1's two relays
    "receiver-targeted": small_run(R1X3, [to_cluster(2, targets={0})], LATE_1),
    # targeted worker 2 would be the first sender of cluster 1's relays: its
    # run relays copy by copy, each relay with entries of its own
    "first-sender-targeted": small_run(R1X3, [to_cluster(2, targets={2})], LATE_1),
    # a run holding a targeted worker is acted on worker by worker
    "run-targeted": small_run(R1, [to_cluster(1, targets={0})], LATE_1),
    # the targeted worker is the second of its run, not the first
    "run-targeted-after-its-first": small_run(R1, [to_cluster(1, targets={3})]),
    # worker 1 of three is yet to relay when the relays of workers 0 and 2
    # reach it in one entry
    "receiver-yet-to-relay": small_run(R1W3, [to_cluster(1)], LATE_1),
    # worker 2 is yet to relay when its run of the first relays lands; a
    # check of the run's first worker alone misses it
    "run-yet-to-relay": small_run(R1W3, [to_cluster(1)], blink(2, 0.0, 0.001)),
    # region 0 dies at 0.201, while the reports from the entry that workers
    # 0 and 1 share fly to clusters 1 to 3: cluster 1's are dropped dead
    "kill-before-reports-land": small_run(R2, [to_cluster(3)], [region_kill(0.201, 0)]),
    # the one region dies at 0.201, while the reports of a run fly
    "kill-before-a-runs-reports-land": small_run(HierarchyConfig(2, 2), [to_cluster(1)],
                                                 [region_kill(0.201, 0)]),
    # a worker of a run is dead as its copies land: only the alive ones are
    # received, or cross a region
    "run-with-a-dead-worker": small_run(R1X3, [to_cluster(2)],
                                        LATE_1 + blink(3, 0.29, 0.301)),
    "crossing-run-with-a-dead-worker": small_run(R2, [to_cluster(3)],
                                                 LATE_1 + blink(5, 0.29, 0.301)),
    # an entry of two senders is received once for each
    "receives-per-sender": small_run(R1X3, [to_cluster(2)], LATE_1),
    # the one region, dead from 0, stays unsettled until worker 0 revives
    "dead-region-revived": small_run(HierarchyConfig(2, 1), [to_cluster(0)], [
        region_kill(0.0, 0), region_kill(0.0, 0), *blink(0, 0.0, 1.1)], horizon=2.05),
    # the horizon falls inside an entry of four reports to cluster 1
    "report-entry-cut": small_run(R1, [to_cluster(1)], horizon=0.25),
    # the horizon falls inside a tree entry of two copies
    "tree-entry-cut": small_run(HierarchyConfig(1, 3, num_layers=2),
                                [to_cluster(0)] * 3 + [CommandSpec(time=0.0, origin=0,
                                                                   scope=("region", 0))],
                                blink(1, 0.101, 0.21), tree=0.1, horizon=0.101),
    # an injection at vacant cluster 1 is parked, and retried when its
    # worker revives
    "injection-retried": small_run(HierarchyConfig(1, 1, domains=2, num_layers=2),
                                   [to_cluster(0, origin=1, time=0.1)],
                                   blink(1, 0.0, 0.11), tree=0.1),
    # a tree entry of several copies is counted per copy
    "tree-entry-of-several-copies": small_run(
        HierarchyConfig(1, 1, hubs_per_domain=2, domains=2, num_layers=2),
        [CommandSpec(time=0.0, origin=0, scope=("global",)), to_cluster(0)], tree=0.0),
    # The initial schedule: initial events and rounds are queued one at a
    # time, each keeping the (fire, seq) key it would have had if all were
    # queued up front, and a quiet stretch of rounds is counted at once.
    # Worker 0 leads cluster 0, and its death listed after a command there
    # quantizes to the command's time though it is earlier: the command goes first
    "command-and-failure-in-one-quantum": small_run(
        R1, [to_cluster(1, time=0.5)], [FailureSpec(
            time=0.5 - 1e-12, kind="worker", action="kill", worker=0)]),
    # worker 1 dies and revives in one quantum, listed in that order though
    # the revive's raw time is earlier: it ends alive
    "failures-in-one-quantum-in-reverse-raw-order": small_run(R1, [to_cluster(1)], [
        FailureSpec(time=0.2 + 1e-12, kind="worker", action="kill", worker=1),
        FailureSpec(time=0.2, kind="worker", action="revive", worker=1)]),
    # region 0 dies at round 1's time: the kill goes first, and round 1 finds it dead
    "initial-event-at-a-round": small_run(R1, [to_cluster(1)], [region_kill(1.0, 0)],
                                          horizon=2.05),
    # the injection's climbing copy lands at round 2's time, queued before
    # round 1 fired: round 2 goes first and writes region 1's death; worker
    # 0's death, queued when region 1's fires, goes before them both
    "delivery-at-a-round": small_run(
        HierarchyConfig(1, 1, hubs_per_domain=2, num_layers=2), [to_cluster(1, time=0.5)],
        [region_kill(1.5, 1), FailureSpec(time=2.0, kind="worker", action="kill", worker=0)],
        tree=1.5, horizon=2.05),
    # rounds 1 to 1,000 are quiet and counted at once; the kill at 1,000.5
    # makes round 1,001 find region 0 dead
    "quiet-stretch-ended-by-a-kill": small_run(R1, [to_cluster(1)], [region_kill(1000.5, 0)],
                                               horizon=1002.05),
    # the second command and a kill come after the horizon: the command is in flight
    "command-after-the-horizon": small_run(R1, [to_cluster(1), to_cluster(1, time=2.0)],
                                           [region_kill(1.5, 0)]),
    # the quiet rounds run to round 3, at the horizon, and run_end takes its time
    "horizon-on-a-round": small_run(R1, [to_cluster(1)], horizon=3.0),
}.items()]


def _benchmark_scenarios():
    """perfbench's scenario generators by workload name, loaded read-only
    from their file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GENERATORS


BENCHMARK_SCENARIOS = _benchmark_scenarios()


class TestReference:
    """Every shortcut at once changes no output: each generated run of
    either strategy equals the reference kernel's, which undoes them all
    (``assert_same_as_reference``), balances, and keeps tree routing within
    2 * (layers - 1) hops."""

    @staticmethod
    def check(sc):
        validate_scenario(sc)
        _, _, report = assert_same_as_reference(sc)
        assert report.conserved
        if sc.strategy == "hierarchical":
            bound = 2 * (sc.config.num_layers - 1)
            assert all(pm.max_hop <= bound for pm in report.messages.values())

    @settings(max_examples=400, deadline=None)
    @given(runs())
    def test_generated_runs(self, sc):
        self.check(sc)

    @pytest.mark.parametrize("sc", SMALLEST_RUNS)
    def test_smallest_runs(self, sc):
        self.check(sc)

    @pytest.mark.parametrize("workload", ["adjacent-flood", "tree-commands", "failure-churn"])
    def test_benchmark_runs(self, workload):
        # the benchmark's run workloads at seed 1: a 384-worker adjacent
        # flood, and 10k-worker tree routing and failure churn (40% of the
        # workers killed and half revived, three region kills, a tree jam)
        self.check(build_scenario(BENCHMARK_SCENARIOS[workload](1)))

    def test_generated_runs_reach_every_window(self):
        # the examples the derandomized generator draws first reach each
        # window, and the hierarchical ones each kind of input the tree
        # entries must get right
        seen = Counter()

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(runs())
        def count(sc):
            validate_scenario(sc)
            kernel = Windows(sc)
            trace, report = kernel.run()
            seen.update(k for k, n in kernel.windows.items() if n)
            if sc.strategy == "adjacent":
                return
            cons = report.conservation
            seen["parked at fire time"] += cons.get("deliveries_parked", 0) > 0
            seen["retried"] += cons.get("parked_retried_ok", 0) > 0
            jams = {rec.data["drop"] for rec in trace
                    if rec.event == "link_jam" and rec.data["link_class"] == "tree"}
            eaten = any(rec.event == "drop_jam" for rec in trace)
            seen["full jam"] += eaten and 1.0 in jams
            seen["partial jam"] += eaten and any(d < 1 for d in jams)
            seen["region kill"] += any(f.kind == "region" and f.time <= sc.horizon
                                       for f in sc.failures)
            seen["zero latency"] += sc.link_latencies["tree"] == 0
            seen["root mode"] += sc.route_mode == MODE_ROOT
            seen["targeted"] += any(rec.event == "execute_worker" for rec in trace)

        count()
        assert set(seen) == {
            "crossing copy's target killed", "kill in a report's window",
            "revive before a report lands", "cluster jam during a run", "worker entry cut",
            "injection retried", "vacancy refilled", "tree entry cut", "parked at fire time",
            "retried", "full jam", "partial jam", "region kill", "zero latency",
            "root mode", "targeted"}
        assert all(seen.values()), seen


# Cluster 1's one worker is dead from 0, so the command injected there is
# parked; worker 0's death, revival and death change the role map three
# times with cluster 1 still vacant, and the parked copy fails.
PARKED_COPY_FAILS = small_run(HierarchyConfig(1, 1, domains=2, num_layers=2),
                              [to_cluster(0, origin=1, time=0.1)],
                              [FailureSpec(time=0.0, kind="worker", action="kill", worker=1),
                               *blink(0, 0.2, 0.3),
                               FailureSpec(time=0.4, kind="worker", action="kill", worker=0)],
                              tree=0.1)


class TestTraceShapes:
    def test_every_written_shape_has_a_line_function(self):
        # every record the kernel writes, in generated runs of both
        # strategies and the smallest runs, has the shape of a row of
        # metrics._SHAPES, and its row's line function writes it: an emit
        # change that leaves the table shows here.  Every row is written.
        rows = {(s.comp, s.event, tuple(s.fields.items())) for s in metrics._SHAPES}
        seen = set()

        def check(trace):
            for rec in trace:
                shape = (rec.comp, rec.event, tuple(
                    (key, None if value is None else type(value))
                    for key, value in rec.data.items()))
                assert shape in rows
                assert type(rec.time) is float
                assert metrics._LINES[rec.comp, rec.event](repr(rec.time), rec.seq, rec.data)
                seen.add(shape)

        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @given(runs())
        def generated(sc):
            check(run(sc)[0])

        generated()
        for param in SMALLEST_RUNS:
            check(run(param.values[0])[0])
        check(run(PARKED_COPY_FAILS)[0])
        assert seen == rows
