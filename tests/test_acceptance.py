"""End-to-end checks for the package's headline guarantees.

Each test exercises one contract at desk scale and prints a single
PASS line with the measured numbers.  Tolerances are fixed here, not
tuned to the implementation; if one of these fails, the protocol code
is wrong, not the test.
"""

import random
import time
from collections import Counter

from virtree import hierarchical
from virtree.adjacent import DelayParams
from virtree.coordinators import liveness_trials
from virtree.metrics import TRANSMISSION_EVENTS, dump_trace
from virtree.oracle import check_trace
from virtree.scenario import CommandSpec, FailureSpec, Scenario
from virtree.simkernel import quantize, run
from virtree.topology import (HierarchyConfig, build_topology,
                              goal_clusters_for_scope)


def mk(cfg, seed, horizon, **kw):
    kw.setdefault("round_period", 1000.0)
    return Scenario(config=cfg, seed=seed, horizon=horizon, **kw)


def region_crossings(trace) -> int:
    """Worker receives whose sender sat in a different region."""
    return sum(1 for rec in trace if rec.comp == "alg1" and rec.event == "receive"
               and rec.data["from_region"] != rec.data["region"])


def spanning_adjacency(n_regions: int, rng: random.Random, extra: int = 0):
    """Random connected region graph: shuffled spanning tree plus extras."""
    if n_regions < 2:
        return []
    order = list(range(n_regions))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], rng.choice(order[:i]))))
             for i in range(1, n_regions)}
    for _ in range(extra):
        a, b = rng.sample(range(n_regions), 2)
        edges.add(tuple(sorted((a, b))))
    return sorted(edges)


def test_criterion_1_region_liveness_formula():
    t0 = time.monotonic()
    cases = []
    for k, expected, tol in ((3, 0.999, 5e-4), (1, 0.9, 3e-3)):
        frac = liveness_trials(0.1, k, 100_000, 20260819) / 100_000
        assert abs(frac - expected) <= tol
        cases.append(f"K={k} frac={frac:.5f} (|diff|={abs(frac - expected):.2e})")
    dead = 100_000 - liveness_trials(0.1, 5, 100_000, 20260819)
    assert dead <= 1
    cases.append(f"K=5 dead_trials={dead}")
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 1: PASS - {'; '.join(cases)}; {elapsed:.1f}s", flush=True)


def test_criterion_2_no_breach_below_redundancy_margin():
    # at most 2 of 5 coordinators die per region, so alive never drops
    # under T_min = 3 and no maintenance round may report a breach
    cfg = HierarchyConfig(3, 2, 2, coordinator_k=5, t_min=3)
    per_region = cfg.workers_per_cluster * cfg.clusters_per_region
    rng = random.Random(20260819)
    for i in range(1000):
        failures = []
        for r in range(cfg.n_regions):
            roster = range(r * per_region, r * per_region + 5)
            for w in rng.sample(list(roster), rng.randrange(3)):
                failures.append(FailureSpec(time=round(rng.uniform(0.2, 5.5), 3),
                                            kind="worker", action="kill", worker=w))
        sc = mk(cfg, seed=3000 + i, horizon=6.0, failures=failures,
                round_period=1.0)
        _, report = run(sc)
        assert report.recovery_samples == [] and report.unrestored_regions == []
    print("criterion 2: PASS - 0 breaches over 1000 runs with <=2 kills/region",
          flush=True)


def test_criterion_3_reselection_restores_in_bounded_rounds():
    cfg = HierarchyConfig(4, 2, 2, coordinator_k=5, t_min=3)
    per_region = cfg.workers_per_cluster * cfg.clusters_per_region
    rng = random.Random(20260819)

    def breach_run(n_kills, seed, **kw):
        r = rng.randrange(cfg.n_regions)
        roster = list(range(r * per_region, r * per_region + 5))
        t = round(rng.uniform(0.1, 0.9), 3)
        failures = [FailureSpec(time=t, kind="worker", action="kill", worker=w)
                    for w in rng.sample(roster, n_kills)]
        _, report = run(mk(cfg, seed=seed, horizon=5.0, failures=failures,
                           round_period=1.0, **kw))
        return r, (report.recovery_samples, report.unrestored_regions)

    for i in range(60):
        r, (samples, unrestored) = breach_run(rng.choice((3, 4)), 6000 + i)
        assert samples == [(r, 1)] and unrestored == []

    for i in range(40):
        n_kills = rng.choice((3, 4))
        bound = cfg.t_min - (5 - n_kills)  # rounds needed at one promotion each
        r, (samples, unrestored) = breach_run(n_kills, 7000 + i,
                                              single_promotion=True)
        assert unrestored == []
        assert samples == [(r, bound)]
        assert samples[0][1] <= bound
    print("criterion 3: PASS - 60/60 default breaches closed in 1 round, "
          "40/40 single-promotion breaches within T_min - remaining",
          flush=True)


def test_criterion_4_maintenance_stays_inside_the_region():
    shapes = [(2, 2, 1), (2, 2, 2), (3, 2, 2), (2, 3, 2)]
    classes = ["cluster", "region", "adjacent", "tree"]
    rng = random.Random(20260819)
    runs = 0
    for i in range(100):
        wpc, cpr, rph = shapes[i % len(shapes)]
        cfg = HierarchyConfig(wpc, cpr, rph, coordinator_k=2, t_min=1)
        failures = [FailureSpec(time=round(rng.uniform(0.5, 4.0), 3),
                                kind="region", action="kill",
                                region=rng.randrange(cfg.n_regions))]
        for _ in range(rng.randrange(1, 3)):
            cls = rng.choice(classes)
            t = round(rng.uniform(0.0, 2.0), 3)
            failures.append(FailureSpec(time=t, kind="link", action="jam",
                                        link_class=cls,
                                        drop=round(rng.uniform(0.3, 1.0), 3)))
            if rng.random() < 0.5:
                failures.append(FailureSpec(time=t + 2.0, kind="link",
                                            action="clear", link_class=cls))
        commands = [CommandSpec(time=round(rng.uniform(0.2, 2.0), 3),
                                origin=rng.randrange(cfg.n_clusters),
                                scope=rng.choice([
                                    ("region", rng.randrange(cfg.n_regions)),
                                    ("global",)]))
                    for _ in range(rng.randrange(1, 3))]
        sc = mk(cfg, seed=4000 + i, horizon=8.0, round_period=1.0,
                strategy="adjacent" if i % 2 == 0 else "hierarchical",
                commands=commands, failures=failures)
        _, report = run(sc)
        assert report.cross_region_maintenance == 0
        runs += 1
    assert runs >= 100
    print(f"criterion 4: PASS - cross_region_maintenance == 0 on {runs} runs "
          "with region kills and jams", flush=True)


def test_criterion_5_delivery_matches_reachability_oracle():
    rng = random.Random(20260819)
    shapes = [(2, 2, 1, 1, 1), (3, 2, 2, 1, 1), (2, 3, 2, 1, 1),
              (2, 4, 3, 1, 1), (3, 3, 4, 2, 1), (2, 2, 4, 2, 2),
              (2, 4, 4, 2, 2)]
    checked = 0
    for i in range(15):
        wpc, cpr, rph, hpd, dom = shapes[i % len(shapes)]
        cfg = HierarchyConfig(wpc, cpr, rph, hpd, domains=dom,
                              coordinator_k=2, t_min=1)
        assert cfg.n_clusters <= 64
        adjacency = spanning_adjacency(cfg.n_regions, rng,
                                       extra=rng.randrange(3)) or None
        topo = build_topology(cfg, seed=8000 + i, adjacency=adjacency)
        commands = []
        for _ in range(rng.randrange(1, 3)):
            scope = rng.choice([("cluster", rng.randrange(cfg.n_clusters)),
                                ("region", rng.randrange(cfg.n_regions)),
                                ("hub", rng.randrange(cfg.n_hubs)),
                                ("domain", rng.randrange(cfg.domains)),
                                ("global",)])
            members = sorted(w for c in goal_clusters_for_scope(topo, scope)
                             for w in topo.workers_in_cluster[c])
            targets = frozenset(rng.sample(members, min(3, len(members))))
            commands.append(CommandSpec(time=round(rng.uniform(0.2, 2.0), 3),
                                        origin=rng.randrange(cfg.n_clusters),
                                        scope=scope, targets=targets))
        for strategy in ("adjacent", "hierarchical"):
            sc = mk(cfg, seed=8000 + i, horizon=600.0, strategy=strategy,
                    adjacency_override=adjacency, commands=commands)
            trace, _ = run(sc)
            assert check_trace(trace, topo, strategy, commands) == []
            checked += 1
    print(f"criterion 5: PASS - oracle agreement on {checked} runs "
          "(random connected adjacency, both strategies)", flush=True)


def test_criterion_6_loop_freedom_and_quiescence():
    shapes = [(2, 2, 1), (2, 2, 2), (3, 2, 2), (2, 3, 1)]
    rng = random.Random(20260819)
    for i in range(1000):
        wpc, cpr, rph = shapes[i % len(shapes)]
        cfg = HierarchyConfig(wpc, cpr, rph, coordinator_k=2, t_min=1)
        commands = [CommandSpec(time=round(rng.uniform(0.2, 2.0), 3),
                                origin=rng.randrange(cfg.n_clusters),
                                scope=rng.choice([
                                    ("cluster", rng.randrange(cfg.n_clusters)),
                                    ("region", rng.randrange(cfg.n_regions)),
                                    ("global",)]))
                    for _ in range(rng.randrange(1, 3))]
        failures = [FailureSpec(time=round(rng.uniform(0.0, 10.0), 3),
                                kind="worker", action="kill",
                                worker=rng.randrange(cfg.n_workers))
                    for _ in range(rng.randrange(3))]
        sc = mk(cfg, seed=5000 + i, horizon=30.0,
                strategy="adjacent" if i % 2 == 0 else "hierarchical",
                commands=commands, failures=failures)
        trace, report = run(sc)
        processed = set()
        for rec in trace:
            if rec.event == "process":
                visited = rec.data["visited"]
                assert len(visited) == len(set(visited))
                key = (rec.comp, rec.data["cluster"], rec.data["msg_id"])
                assert key not in processed  # one processing pass per cluster
                processed.add(key)
        cons = report.conservation
        assert cons.get("deliveries_inflight", 0) == 0
        assert cons.get("broadcasts_pending", 0) == 0
        assert report.conserved
    print("criterion 6: PASS - 1000 runs loop-free, single-processing, "
          "quiescent at horizon", flush=True)


def test_criterion_7_hop_and_transmission_bounds():
    # deep tree: worst route is leaf -> apex -> leaf, 2 * (layers - 1) hops,
    # independent of how stretched the region line is
    cfg = HierarchyConfig(2, 2, 2, 2, domains=2, coordinator_k=3, t_min=2)
    line = [(i, i + 1) for i in range(cfg.n_regions - 1)]
    sc = mk(cfg, seed=9100, horizon=15.0, strategy="hierarchical",
            adjacency_override=line,
            commands=[CommandSpec(time=0.5, origin=0, scope=("domain", 1))])
    trace, report = run(sc)
    hops = [rec.data["hop"] for rec in trace if rec.comp == "alg3"
            and "hop" in rec.data]
    assert max(hops) <= 8
    assert report.messages["0:0"].max_hop == 8

    # crossing volume grows with the length of the region line
    crossings = []
    for rph in (2, 4, 8):
        cfg_line = HierarchyConfig(3, 2, rph, coordinator_k=2, t_min=1)
        sc = mk(cfg_line, seed=9200, horizon=120.0,
                adjacency_override=[(i, i + 1) for i in range(rph - 1)],
                commands=[CommandSpec(time=1.0, origin=0,
                                      scope=("region", rph - 1))])
        trace, _ = run(sc)
        crossings.append(region_crossings(trace))
    assert crossings[0] < crossings[1] < crossings[2]

    # tree routing never transmits more than flooding on the same scenario
    rng = random.Random(99)
    pairs = []
    for i in range(20):
        cfg_i = HierarchyConfig(rng.choice((2, 3, 4)), rng.choice((2, 3)),
                                rng.choice((2, 3, 4)), coordinator_k=2, t_min=1)
        adjacency = spanning_adjacency(cfg_i.n_regions, rng) or None
        scope = rng.choice([("global",), ("region", rng.randrange(cfg_i.n_regions))])
        commands = [CommandSpec(time=0.5, origin=rng.randrange(cfg_i.n_clusters),
                                scope=scope)]
        counts = {}
        for strategy in ("adjacent", "hierarchical"):
            _, report = run(mk(cfg_i, seed=1000 + i, horizon=200.0,
                               strategy=strategy, adjacency_override=adjacency,
                               commands=commands))
            counts[strategy] = sum(report.totals.get(k, 0) for k in TRANSMISSION_EVENTS)
        assert counts["hierarchical"] <= counts["adjacent"]
        pairs.append(counts)
    print(f"criterion 7: PASS - max hop 8 <= 8; crossings {crossings}; "
          f"tree <= flooding on {len(pairs)}/20 pairs", flush=True)


def test_criterion_7_tree_routing_work_is_per_branch_at_100k_workers(monkeypatch):
    # one global command over 100k workers (10k clusters, apex over 10
    # domains): the work bound counts TreeLinks.covers calls, which the old
    # per-goal scan made once per remaining goal at every interior route
    cfg = HierarchyConfig(10, 10, 10, 10, domains=10)
    assert cfg.n_workers == 100_000 and cfg.n_clusters == 10_000
    covers_calls = routes = 0
    covers, route_interior = hierarchical.TreeLinks.covers, hierarchical.route_interior

    def counted_covers(*args):
        nonlocal covers_calls
        covers_calls += 1
        return covers(*args)

    def counted_route(*args):
        nonlocal routes
        routes += 1
        return route_interior(*args)

    monkeypatch.setattr(hierarchical.TreeLinks, "covers", counted_covers)
    monkeypatch.setattr(hierarchical, "route_interior", counted_route)
    executed = Counter()
    sc = mk(cfg, seed=8100, horizon=10.0, strategy="hierarchical",
            commands=[CommandSpec(time=0.5, origin=4321, scope=("global",))])
    _, report = run(sc, sink=lambda batch: executed.update(
        rec.data["cluster"] for rec in batch if rec.event == "execute_cluster"))
    pm = report.messages["4321:0"]
    assert report.conserved
    assert sorted(executed) == list(range(cfg.n_clusters))
    assert set(executed.values()) == {1}
    assert pm.goals_executed == pm.goals_total == cfg.n_clusters
    assert pm.max_hop <= 2 * (cfg.num_layers - 1)
    # the copies carry one executed goal, the origin: one covers call a route
    assert 0 < routes and covers_calls <= routes
    print(f"criterion 7: PASS - 100000-worker global command: {cfg.n_clusters} "
          f"clusters executed once each, max hop {pm.max_hop} <= 8, "
          f"{covers_calls} covers calls over {routes} interior routes", flush=True)


def test_criterion_8_deferred_delay_is_alpha_times_distance():
    cfg = HierarchyConfig(3, 2, 3, coordinator_k=2, t_min=1)
    for alpha in (1.0, 2.0):
        sc = mk(cfg, seed=9300, horizon=60.0,
                delay=DelayParams(alpha, 0.0, 0.0),
                adjacency_override=[(0, 1), (1, 2)],
                commands=[CommandSpec(time=0.5, origin=0, scope=("region", 2))])
        trace, report = run(sc)
        schedules = [rec for rec in trace
                     if rec.comp == "alg2" and rec.event == "schedule"]
        assert schedules
        for rec in schedules:
            assert rec.data["delay"] == alpha * rec.data["distance"]
            assert rec.data["fire"] == quantize(rec.time + rec.data["delay"])
        assert {rec.data["distance"] for rec in schedules} == {1, 2}
        assert report.messages["0:0"].goals_executed == 2
    print("criterion 8: PASS - every scheduled fire time == receive + "
          "alpha*distance, bit-equal, for alpha in {1.0, 2.0}", flush=True)


def test_criterion_9_reruns_are_byte_identical():
    def render(sc):
        trace, _ = run(sc)
        return dump_trace(trace)

    small_cfg = HierarchyConfig(3, 2, 2, coordinator_k=2, t_min=1)
    small = dict(seed=77, horizon=20.0, round_period=1.0,
                 commands=[CommandSpec(time=0.5, origin=0, scope=("global",)),
                           CommandSpec(time=1.0, origin=3, scope=("region", 1))],
                 failures=[FailureSpec(time=1.2, kind="worker", action="kill",
                                       worker=2),
                           FailureSpec(time=2.0, kind="link", action="jam",
                                       link_class="adjacent", drop=0.5),
                           FailureSpec(time=4.0, kind="link", action="clear",
                                       link_class="adjacent")])
    assert render(mk(small_cfg, **small)) == render(mk(small_cfg, **small))

    big_cfg = HierarchyConfig(10, 10, 5, 5, domains=4)
    assert big_cfg.n_workers == 10_000 and big_cfg.n_regions == 100
    t0 = time.monotonic()
    big = dict(seed=123, horizon=10.0, strategy="hierarchical",
               round_period=1.0,
               commands=[CommandSpec(time=0.5, origin=0, scope=("domain", 3))])
    first = render(mk(big_cfg, **big))
    second = render(mk(big_cfg, **big))
    elapsed = time.monotonic() - t0
    assert first == second
    assert elapsed < 120.0
    records = first.count("\n")
    print(f"criterion 9: PASS - byte-identical reruns "
          f"(small with failures; 10000-worker smoke, {records} records, "
          f"{elapsed:.1f}s for two runs)", flush=True)
