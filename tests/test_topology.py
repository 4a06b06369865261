import random
import tracemalloc

import pytest

from virtree.errors import ScenarioInvalid
from virtree.scenario import CommandSpec, FailureSpec, Scenario, validate_scenario
from virtree.simkernel import _Kernel
from virtree.topology import (
    SCOPE_LAYERS,
    HierarchyConfig,
    build_topology,
    derive_seed,
    goal_clusters_for_scope,
    grid_adjacency,
    reelect_role,
)


def hierarchy_distance(topo, a, b):
    """Coordination distance between two clusters: 0 same cluster, 1 same
    region, 2 same hub, 3 same domain, 4 otherwise."""
    for distance, layer in enumerate(SCOPE_LAYERS.values()):
        if topo.scope_of(a, layer) == topo.scope_of(b, layer):
            return distance
    return len(SCOPE_LAYERS)


def config_error(**kw) -> str:
    """The field validate_scenario names for a HierarchyConfig(**kw)."""
    with pytest.raises(ScenarioInvalid) as err:
        validate_scenario(Scenario(config=HierarchyConfig(**kw), seed=1, horizon=1.0))
    return err.value.field


class TestConfig:
    def test_counts_multiply_through(self):
        cfg = HierarchyConfig(workers_per_cluster=2, clusters_per_region=4,
                              regions_per_hub=2, hubs_per_domain=2)
        assert cfg.n_workers == 32
        assert cfg.n_clusters == 16
        assert cfg.n_regions == 4
        assert cfg.n_hubs == 2

    def test_num_layers_range(self):
        for n in (1, 6):
            assert config_error(workers_per_cluster=2, clusters_per_region=3,
                                num_layers=n) == "topology.num_layers"

    def test_zero_counts_rejected(self):
        for name in ("workers_per_cluster", "clusters_per_region", "regions_per_hub",
                     "hubs_per_domain", "domains"):
            kw = {"workers_per_cluster": 2, "clusters_per_region": 3, name: 0}
            assert config_error(**kw) == f"topology.{name}"

    def test_t_min_bounds(self):
        for t_min in (4, 0):
            assert config_error(workers_per_cluster=3, clusters_per_region=3,
                                coordinator_k=3, t_min=t_min) == "coordinator.T_min"

    def test_k_cannot_exceed_region_size(self):
        assert config_error(workers_per_cluster=2, clusters_per_region=2,
                            coordinator_k=5, t_min=3) == "coordinator.K"


class TestBuild:
    def test_small_plate_counts(self, topo32):
        assert len(topo32.energy) == 32
        assert len(topo32.clusters) == 16
        assert len(topo32.roles[2]) == 16
        assert len(topo32.roles[3]) == 4

    def test_eight_worker_shape_and_role_multiplicity(self):
        cfg = HierarchyConfig(workers_per_cluster=2, clusters_per_region=2,
                              regions_per_hub=1, hubs_per_domain=2,
                              coordinator_k=2, t_min=1)
        topo = build_topology(cfg, seed=1)
        assert cfg.n_workers == 8
        assert [len(topo.roles[layer]) for layer in (2, 3, 4, 5)] == [4, 2, 2, 1]
        # the top role piggybacks on a worker that already holds a local-global role
        top = topo.roles[5][0]
        assert top in set(topo.roles[4].values())

    def test_initial_roles_lowest_id(self, topo32):
        for c, leader in topo32.roles[2].items():
            assert leader == min(topo32.workers_in_cluster(c))
        for r, hub in topo32.roles[3].items():
            assert hub == min(topo32.workers_in_region(r))

    def test_build_deterministic(self):
        cfg = HierarchyConfig(workers_per_cluster=2, clusters_per_region=4,
                              regions_per_hub=2)
        a = build_topology(cfg, seed=99)
        b = build_topology(cfg, seed=99)
        assert a.energy == b.energy
        assert a.roles == b.roles
        assert a.region_adjacency == b.region_adjacency
        c = build_topology(cfg, seed=100)
        assert a.energy != c.energy  # seed feeds the energy scalars

    def test_energy_bounds(self, topo32):
        assert len(topo32.energy) == 32
        assert all(0.2 <= e <= 1.0 for e in topo32.energy)

    def test_everyone_starts_alive(self, topo32):
        assert topo32.dead == set()
        assert all(topo32.is_alive(w) for w in range(32))

    def test_truncated_layers_keep_containment(self):
        cfg = HierarchyConfig(workers_per_cluster=2, clusters_per_region=2,
                              regions_per_hub=2, hubs_per_domain=2, num_layers=3,
                              coordinator_k=2, t_min=1)
        topo = build_topology(cfg, seed=3)
        assert sorted(topo.roles) == [2, 3]
        # containment stays full depth even without the upper roles
        assert hierarchy_distance(topo, 0, cfg.n_clusters - 1) == 3  # other hub
        assert goal_clusters_for_scope(topo, ("hub", 1)) == range(4, 8)

    def test_scope_chain_total(self):
        shapes = [(2, 4, 2, 2, 1), (3, 2, 2, 2, 2), (1, 1, 1, 1, 3), (5, 3, 1, 2, 1),
                  (2, 1, 3, 1, 2)]
        for wpc, cpr, rph, hpd, domains in shapes:
            cfg = HierarchyConfig(workers_per_cluster=wpc, clusters_per_region=cpr,
                                  regions_per_hub=rph, hubs_per_domain=hpd, domains=domains,
                                  coordinator_k=1, t_min=1)
            topo = build_topology(cfg, seed=7)
            # (worker, cluster, region) numbered in nesting order, independent
            # of the topology's own arithmetic
            rows = []
            for r in range(cfg.n_regions):
                for c in range(r * cpr, (r + 1) * cpr):
                    for _ in range(wpc):
                        rows.append((len(rows), c, r))
            assert [w for w, _, _ in rows] == list(range(cfg.n_workers))
            for w, c, r in rows:
                assert topo.cluster_of(w) == c
                assert topo.region_of_worker(w) == r
                chain = [topo.scope_of(c, layer) for layer in (2, 3, 4, 5)]
                assert chain == [c, c // cpr, c // (cpr * rph), c // (cpr * rph * hpd)]
                assert chain[1] == r
            for c in topo.clusters:
                assert list(topo.workers_in_cluster(c)) == [w for w, c2, _ in rows if c2 == c]
            for r in topo.regions:
                assert list(topo.workers_in_region(r)) == [w for w, _, r2 in rows if r2 == r]

    def test_energy_stream(self):
        # uniform in [0.2, 1.0] to 6 decimals, drawn in worker order from the
        # seed's "energy" stream
        cfg = HierarchyConfig(workers_per_cluster=3, clusters_per_region=4, regions_per_hub=2)
        for seed in (0, 99, 2 ** 64 - 1):
            rng = random.Random(derive_seed(seed, "energy"))
            expected = [round(rng.uniform(0.2, 1.0), 6) for _ in range(cfg.n_workers)]
            assert build_topology(cfg, seed).energy.tolist() == expected

    # 1000 workers a cluster: what a build keeps grows with clusters and
    # regions, so per-worker state would stand out
    WIDE = HierarchyConfig(workers_per_cluster=1000, clusters_per_region=10, regions_per_hub=10)

    def test_build_retains_nothing_per_worker(self):
        # membership is arithmetic, no worker is dead yet and energy is not drawn
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            topo = build_topology(self.WIDE, seed=1)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert topo.dead == set() and "energy" not in vars(topo)
        assert retained / self.WIDE.n_workers < 1

    def test_first_energy_read_retains_one_double_per_worker(self):
        topo = build_topology(self.WIDE, seed=1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            energy = topo.energy
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(energy) == 100_000 and topo.energy is energy
        assert retained / self.WIDE.n_workers < 8.5  # a packed double, plus growth slack

    @pytest.mark.parametrize("strategy", ["adjacent", "hierarchical"])
    def test_energy_drawn_only_when_a_coordinator_is_promoted(self, strategy):
        cfg = HierarchyConfig(workers_per_cluster=4, clusters_per_region=2, regions_per_hub=2,
                              coordinator_k=2, t_min=2)
        commands = [CommandSpec(time=0.5, origin=0, scope=("global",))]
        kernel = _Kernel(Scenario(config=cfg, seed=3, horizon=5.0, strategy=strategy,
                                  commands=commands))
        kernel.run()
        assert "energy" not in vars(kernel.topo)
        # killing one of region 0's two coordinators makes its next round promote one
        kill = FailureSpec(time=1.5, kind="worker", action="kill", worker=kernel.rosters[0][0])
        kernel = _Kernel(Scenario(config=cfg, seed=3, horizon=5.0, strategy=strategy,
                                  commands=commands, failures=[kill]))
        kernel.run()
        assert len(vars(kernel.topo)["energy"]) == cfg.n_workers


class TestDeriveSeed:
    def test_stable_and_label_sensitive(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")
        assert 0 <= derive_seed(12345, "x", 7) < 2 ** 64


class TestGridAdjacency:
    def test_single_region(self):
        assert grid_adjacency(1) == {0: ()}

    def test_two_by_two(self):
        adj = grid_adjacency(4)
        assert adj == {0: (1, 2), 1: (0, 3), 2: (0, 3), 3: (1, 2)}

    def test_ragged_last_row(self):
        assert grid_adjacency(3) == {0: (1, 2), 1: (0,), 2: (0,)}

    def test_symmetric_no_self_loops(self):
        adj = grid_adjacency(12)
        for r, nbrs in adj.items():
            assert r not in nbrs
            for n in nbrs:
                assert r in adj[n]


class TestGoalClusters:
    def test_region_scope(self, topo32):
        assert goal_clusters_for_scope(topo32, ("region", 1)) == range(4, 8)

    def test_cluster_scope_singleton(self, topo32):
        assert goal_clusters_for_scope(topo32, ("cluster", 9)) == range(9, 10)

    def test_hub_and_domain(self, topo32):
        assert goal_clusters_for_scope(topo32, ("hub", 0)) == range(8)
        assert goal_clusters_for_scope(topo32, ("domain", 0)) == range(16)

    def test_global_covers_everything(self, topo32):
        assert goal_clusters_for_scope(topo32, ("global",)) == range(16)


class TestReelection:
    def test_two_worker_cluster_survivor_takes_over(self, topo32):
        assert topo32.roles[2][0] == 0
        topo32.mark_dead(0)
        assert reelect_role(topo32, 2, 0) == 1
        assert topo32.roles[2][0] == 1

    def test_hub_election_picks_lowest_leader(self, topo32):
        # region 0 leaders are 0,2,4,6; drop the hub holder and its cluster
        topo32.mark_dead(0)
        topo32.mark_dead(1)
        assert reelect_role(topo32, 2, 0) is None
        assert reelect_role(topo32, 3, 0) == 2
        assert topo32.roles[3][0] == 2

    def test_no_candidate_vacates_binding(self, topo32):
        topo32.mark_dead(4)
        topo32.mark_dead(5)
        assert reelect_role(topo32, 2, 2) is None
        assert 2 not in topo32.roles[2]

    def test_other_bindings_untouched(self, topo32):
        before = dict(topo32.roles[2])
        topo32.mark_dead(6)
        assert reelect_role(topo32, 2, 3) == 7
        after = topo32.roles[2]
        assert after[3] == 7
        assert {c: w for c, w in after.items() if c != 3} == \
               {c: w for c, w in before.items() if c != 3}

    def test_holders_stay_alive_and_in_scope_under_attrition(self):
        cfg = HierarchyConfig(workers_per_cluster=3, clusters_per_region=2,
                              regions_per_hub=2, hubs_per_domain=2,
                              coordinator_k=3, t_min=2)
        rng = random.Random(2024)
        for trial in range(20):
            topo = build_topology(cfg, seed=trial)
            victims = rng.sample(range(cfg.n_workers), k=cfg.n_workers // 2)
            for w in victims:
                held = topo.roles_held_by(w)
                topo.mark_dead(w)
                for layer, scope in held:
                    assert reelect_role(topo, layer, scope) == topo.roles[layer].get(scope)
            for layer, holders in topo.roles.items():
                for scope, holder in holders.items():
                    assert topo.is_alive(holder)
                    assert topo.scope_of(topo.cluster_of(holder), layer) == scope

    def test_roles_held_by_matches_full_scan_under_churn(self):
        cfg = HierarchyConfig(workers_per_cluster=2, clusters_per_region=2,
                              regions_per_hub=2, hubs_per_domain=2, domains=2,
                              coordinator_k=2, t_min=1)
        rng = random.Random(7)

        def full_scan(topo, w):
            return sorted((layer, scope) for layer, holders in topo.roles.items()
                          for scope, holder in holders.items() if holder == w)

        for trial in range(10):
            topo = build_topology(cfg, seed=trial)
            for _ in range(3 * cfg.n_workers):
                w = rng.randrange(cfg.n_workers)
                if topo.is_alive(w):
                    held = full_scan(topo, w)
                    topo.mark_dead(w)
                    for layer, scope in held:
                        reelect_role(topo, layer, scope)
                else:  # revive and fill the vacancies along its chain
                    topo.mark_alive(w)
                    for layer, holders in topo.roles.items():
                        scope = topo.scope_of(topo.cluster_of(w), layer)
                        if scope not in holders:
                            reelect_role(topo, layer, scope)
                for v in range(cfg.n_workers):
                    assert topo.roles_held_by(v) == full_scan(topo, v)
