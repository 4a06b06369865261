import random

import pytest

from virtree.adjacent import DelayParams
from virtree.errors import ConservationError, ScenarioInvalid
from virtree.metrics import dump_trace
from virtree.scenario import CommandSpec, FailureSpec, Scenario, validate_scenario
from virtree.simkernel import _Kernel, run
from virtree.topology import HierarchyConfig

CFG_1R = HierarchyConfig(2, 2, coordinator_k=3, t_min=2)            # 1 region, 4 workers
CFG_2R = HierarchyConfig(2, 2, 2, coordinator_k=3, t_min=2)         # 2 regions, 8 workers
NO_JITTER = DelayParams(alpha=1.0, beta=0.0, epsilon=0.0)


def region_crossings(trace) -> int:
    """Worker receives whose sender sat in a different region."""
    return sum(1 for rec in trace if rec.comp == "alg1" and rec.event == "receive"
               and rec.data["from_region"] != rec.data["region"])


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

    def test_horizon_leaves_broadcast_pending(self):
        sc = scenario(config=CFG_1R, horizon=0.55, delay=NO_JITTER,
                      commands=[CommandSpec(time=0.5, origin=0, scope=("cluster", 1))])
        _, report = run(sc)
        cons = report.conservation
        assert cons["broadcasts_scheduled"] == 1
        assert cons["broadcasts_pending"] == 1
        assert "broadcasts_fired" not in cons
        assert report.conserved

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
        trace, report = run(sc)
        assert region_crossings(trace) == 0
        assert report.conservation["deliveries_dropped_jam"] >= 1
        assert report.messages["0:0"].goals_executed == 0
        assert report.conserved

    def test_cleared_jam_lets_later_traffic_cross(self):
        sc = scenario(
            delay=NO_JITTER,
            commands=[CommandSpec(time=0.5, origin=0, scope=("region", 1))],
            failures=[FailureSpec(time=0.0, kind="link", action="jam",
                                  link_class="adjacent", drop=1.0),
                      FailureSpec(time=3.0, kind="link", action="clear",
                                  link_class="adjacent")])
        trace, report = run(sc)
        assert region_crossings(trace) > 0
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
        dead_rounds = [rec for rec in trace
                       if rec.comp == "alg4" and rec.event == "region_dead"]
        assert len(dead_rounds) == 5
        assert all(rec.data["region"] == 1 for rec in dead_rounds)
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


class TestMaintenance:
    def test_round_cadence(self):
        sc = scenario(horizon=3.0, round_period=1.0)
        trace, _ = run(sc)
        rounds = [rec for rec in trace if rec.comp == "alg4" and rec.event == "round"]
        assert len(rounds) == 3 * sc.config.n_regions
        for region in range(sc.config.n_regions):
            seq = [rec.data["round"] for rec in rounds if rec.data["region"] == region]
            assert seq == [1, 2, 3]

    def test_rounds_never_cross_regions(self):
        sc = scenario(horizon=6.0,
                      failures=[FailureSpec(time=0.5, kind="worker", action="kill",
                                            worker=w) for w in (0, 1, 2)])
        trace, report = run(sc)
        assert report.cross_region_maintenance == 0
        assert all(rec.data["src_region"] == rec.data["dst_region"]
                   for rec in trace if rec.comp == "alg4")


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

    def test_imbalance_raises_after_run_end(self, monkeypatch):
        bump = _Kernel.bump

        def lose_completions(self, key, n=1):
            if key != "deliveries_completed":
                bump(self, key, n)

        monkeypatch.setattr(_Kernel, "bump", lose_completions)
        kernel = _Kernel(scenario(commands=[CommandSpec(time=0.5, origin=0,
                                                        scope=("region", 1))]))
        with pytest.raises(ConservationError) as info:
            kernel.run()
        assert info.value.counters["deliveries_enqueued"] > 0
        assert "deliveries_completed" not in info.value.counters
        last = kernel.trace[-1]
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


class TestConservationFuzz:
    def test_random_scenarios_balance(self):
        rng = random.Random(20250819)
        shapes = [(2, 2, 1, 1), (2, 2, 2, 1), (3, 2, 2, 1), (2, 3, 1, 2), (3, 3, 2, 1)]
        for i in range(25):
            wpc, cpr, rph, hpd = shapes[i % len(shapes)]
            cfg = HierarchyConfig(wpc, cpr, rph, hpd, coordinator_k=2, t_min=1)
            commands = [
                CommandSpec(time=round(rng.uniform(0, 4), 3),
                            origin=rng.randrange(cfg.n_clusters),
                            scope=rng.choice([
                                ("cluster", rng.randrange(cfg.n_clusters)),
                                ("region", rng.randrange(cfg.n_regions)),
                                ("global",)]))
                for _ in range(rng.randint(1, 2))
            ]
            failures = []
            for _ in range(rng.randint(0, 3)):
                roll = rng.random()
                if roll < 0.5:
                    failures.append(FailureSpec(
                        time=round(rng.uniform(0, 8), 3), kind="worker",
                        action=rng.choice(["kill", "revive"]),
                        worker=rng.randrange(cfg.n_workers)))
                elif roll < 0.8:
                    failures.append(FailureSpec(
                        time=round(rng.uniform(0, 8), 3), kind="link",
                        action=rng.choice(["jam", "clear"]),
                        link_class=rng.choice(list(("cluster", "region",
                                                    "adjacent", "tree"))),
                        drop=round(rng.uniform(0.2, 1.0), 2)))
                else:
                    failures.append(FailureSpec(
                        time=round(rng.uniform(0, 8), 3), kind="region",
                        action="kill", region=rng.randrange(cfg.n_regions)))
            sc = Scenario(config=cfg, seed=1000 + i, horizon=12.0,
                          strategy=("adjacent", "hierarchical")[i % 2],
                          commands=commands, failures=failures)
            _, report = run(sc)  # run() itself asserts the balance
            assert report.conserved, f"scenario {i} out of balance"
