import random

import pytest

from virtree.errors import NoCandidate, ScenarioInvalid, UnknownCluster, UnknownScope
from virtree.scenario import Scenario, validate_scenario
from virtree.topology import (
    HierarchyConfig,
    build_topology,
    derive_seed,
    goal_clusters_for_scope,
    grid_adjacency,
    hierarchy_distance,
    reelect_role,
)


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
        assert len(topo32.cluster_of) == 32
        assert len(topo32.workers_in_cluster) == 16
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
            assert leader == min(topo32.workers_in_cluster[c])
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
        assert all(0.2 <= e <= 1.0 for e in topo32.energy.values())

    def test_everyone_starts_alive(self, topo32):
        assert topo32.alive == set(range(32))

    def test_truncated_layers_keep_containment(self):
        cfg = HierarchyConfig(workers_per_cluster=2, clusters_per_region=2,
                              regions_per_hub=2, hubs_per_domain=2, num_layers=3,
                              coordinator_k=2, t_min=1)
        topo = build_topology(cfg, seed=3)
        assert sorted(topo.roles) == [2, 3]
        # containment stays full depth even without the upper roles
        assert hierarchy_distance(topo, 0, cfg.n_clusters - 1) == 3  # other hub
        assert goal_clusters_for_scope(topo, ("hub", 1)) == range(4, 8)

    def test_scope_chain_total(self, topo32):
        for w in topo32.workers:
            c = topo32.cluster_of[w]
            chain = [topo32.scope_of(c, layer) for layer in (2, 3, 4, 5)]
            assert chain == [c, c // 4, c // 8, 0]
            assert topo32.region_of_worker(w) == chain[1]


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


class TestHierarchyDistance:
    def test_ladder(self, two_domain_topo):
        topo = two_domain_topo
        # clusters: 2 per region, 2 regions per hub, 2 hubs per domain, 2 domains
        assert hierarchy_distance(topo, 0, 0) == 0
        assert hierarchy_distance(topo, 0, 1) == 1   # same region
        assert hierarchy_distance(topo, 0, 2) == 2   # same hub
        assert hierarchy_distance(topo, 0, 4) == 3   # same domain
        assert hierarchy_distance(topo, 0, 8) == 4   # other domain

    def test_symmetric(self, two_domain_topo):
        topo = two_domain_topo
        for a in (0, 3, 9):
            for b in (1, 8, 15):
                assert hierarchy_distance(topo, a, b) == hierarchy_distance(topo, b, a)

    def test_zero_iff_equal(self, two_domain_topo):
        for a in range(16):
            for b in range(16):
                d = hierarchy_distance(two_domain_topo, a, b)
                assert (d == 0) == (a == b)

    def test_unknown_cluster(self, topo32):
        with pytest.raises(UnknownCluster):
            hierarchy_distance(topo32, 0, 999)


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

    def test_unknown_scope(self, topo32):
        with pytest.raises(UnknownScope):
            goal_clusters_for_scope(topo32, ("continent", 0))
        with pytest.raises(UnknownScope):
            goal_clusters_for_scope(topo32, ("region", 99))
        with pytest.raises(UnknownScope):
            goal_clusters_for_scope(topo32, ("region",))


class TestReelection:
    def test_two_worker_cluster_survivor_takes_over(self, topo32):
        assert topo32.roles[2][0] == 0
        topo32.mark_dead(0)
        reelect_role(topo32, 2, 0)
        assert topo32.roles[2][0] == 1

    def test_hub_election_picks_lowest_leader(self, topo32):
        # region 0 leaders are 0,2,4,6; drop the hub holder and its cluster
        topo32.mark_dead(0)
        topo32.mark_dead(1)
        with pytest.raises(NoCandidate):
            reelect_role(topo32, 2, 0)
        reelect_role(topo32, 3, 0)
        assert topo32.roles[3][0] == 2

    def test_no_candidate_vacates_binding(self, topo32):
        topo32.mark_dead(4)
        topo32.mark_dead(5)
        with pytest.raises(NoCandidate):
            reelect_role(topo32, 2, 2)
        assert 2 not in topo32.roles[2]

    def test_other_bindings_untouched(self, topo32):
        before = dict(topo32.roles[2])
        topo32.mark_dead(6)
        reelect_role(topo32, 2, 3)
        after = topo32.roles[2]
        assert after[3] == 7
        assert {c: w for c, w in after.items() if c != 3} == \
               {c: w for c, w in before.items() if c != 3}

    def test_layer_above_build_rejected(self):
        cfg = HierarchyConfig(workers_per_cluster=2, clusters_per_region=2,
                              num_layers=3, coordinator_k=2, t_min=1)
        topo = build_topology(cfg, seed=1)
        with pytest.raises(UnknownScope):
            reelect_role(topo, 4, 0)

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
                    try:
                        reelect_role(topo, layer, scope)
                    except NoCandidate:
                        pass
            for layer, holders in topo.roles.items():
                for scope, holder in holders.items():
                    assert topo.is_alive(holder)
                    assert topo.scope_of(topo.cluster_of[holder], layer) == scope

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
                        try:
                            reelect_role(topo, layer, scope)
                        except NoCandidate:
                            pass
                else:  # revive and fill the vacancies along its chain
                    topo.mark_alive(w)
                    for layer, holders in topo.roles.items():
                        scope = topo.scope_of(topo.cluster_of[w], layer)
                        if scope not in holders:
                            try:
                                reelect_role(topo, layer, scope)
                            except NoCandidate:
                                pass
                for v in topo.workers:
                    assert topo.roles_held_by(v) == full_scan(topo, v)
