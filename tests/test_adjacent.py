import random

import pytest

from virtree.adjacent import (
    BroadcastToReachable,
    DelayParams,
    ExecuteLocally,
    LeaderState,
    ReportToLeader,
    compute_delay,
    leader_on_receive_deferred,
    reachable_workers,
    worker_broadcast,
    worker_on_receive,
)
from virtree.errors import ScenarioInvalid
from virtree.messages import new_command
from virtree.scenario import Scenario, validate_scenario
from virtree.topology import HierarchyConfig, build_topology

NO_JITTER = DelayParams(alpha=1.0, beta=0.0, epsilon=0.0)


def two_region_topo(adjacency):
    # two regions of 8 workers each (4 workers/cluster, 2 clusters/region)
    cfg = HierarchyConfig(workers_per_cluster=4, clusters_per_region=2,
                          regions_per_hub=2, coordinator_k=5, t_min=3)
    return build_topology(cfg, seed=1, adjacency=adjacency)


class TestWorkerReceive:
    def test_targeted_visited_flag_down_executes_only(self, topo32):
        m = new_command(1, 0, goals=range(1, 2), targets={3})
        m = m.copy(visited_cluster_ids=frozenset({1}))  # worker 3 sits in cluster 1
        actions = worker_on_receive(3, m, topo32)
        assert actions == [ExecuteLocally(3)]

    def test_unvisited_from_neighbor_reports(self, topo32):
        m = new_command(5, 0, goals=range(0, 1))
        m = m.copy(visited_cluster_ids=frozenset({5}), last_sent_cluster_id=5)
        actions = worker_on_receive(3, m, topo32)  # worker 3: cluster 1, not targeted
        assert actions == [ReportToLeader(1)]

    def test_flagged_from_own_leader_broadcasts(self, topo32):
        m = new_command(1, 0, goals=range(9, 10))
        m = m.copy(visited_cluster_ids=frozenset({1}), last_sent_cluster_id=1,
                   forward_flag=True)
        actions = worker_on_receive(3, m, topo32)
        assert actions == [BroadcastToReachable(3)]

    def test_checks_fire_independently(self, topo32):
        m = new_command(5, 0, goals=range(1, 2), targets={3})
        m = m.copy(last_sent_cluster_id=5)
        actions = worker_on_receive(3, m, topo32)
        assert actions == [ExecuteLocally(3), ReportToLeader(1)]

    def test_flag_without_own_leader_origin_does_not_broadcast(self, topo32):
        m = new_command(5, 0, goals=range(1, 2))
        m = m.copy(visited_cluster_ids=frozenset({1, 5}), last_sent_cluster_id=5,
                   forward_flag=True)
        assert worker_on_receive(3, m, topo32) == []


class TestReachableWorkers:
    def test_isolated_region_own_peers_only(self):
        topo = two_region_topo(adjacency=[])
        assert reachable_workers(0, topo) == [1, 2, 3, 4, 5, 6, 7]

    def test_one_neighbor_region_adds_its_workers(self):
        topo = two_region_topo(adjacency=[(0, 1)])
        assert reachable_workers(0, topo) == list(range(1, 16))

    def test_dead_neighbors_filtered(self):
        topo = two_region_topo(adjacency=[(0, 1)])
        for w in range(8, 16):
            topo.mark_dead(w)
        assert reachable_workers(0, topo) == [1, 2, 3, 4, 5, 6, 7]


class TestComputeDelay:
    def test_all_terms_zero(self):
        assert compute_delay(DelayParams(0.0, 0.0, 0.0), 0, 0, random.Random(1)) == 0.0

    def test_distance_term(self):
        assert compute_delay(NO_JITTER, 2, 0, random.Random(1)) == 2.0

    def test_distance_plus_load(self):
        params = DelayParams(alpha=2.0, beta=0.5, epsilon=0.0)
        assert compute_delay(params, 1, 4, random.Random(1)) == 4.0

    def test_jitter_stays_below_epsilon(self):
        params = DelayParams(alpha=0.0, beta=0.0, epsilon=0.25)
        rng = random.Random(9)
        for _ in range(500):
            assert 0.0 <= compute_delay(params, 0, 0, rng) < 0.25

    def test_one_draw_consumed_even_without_jitter(self):
        # stream positions must not depend on parameter values
        a, b = random.Random(5), random.Random(5)
        compute_delay(NO_JITTER, 3, 2, a)
        b.random()
        assert a.random() == b.random()

    def test_negative_params_rejected(self):
        cfg = HierarchyConfig(2, 2, coordinator_k=3, t_min=2)
        for name in ("alpha", "beta", "epsilon"):
            sc = Scenario(config=cfg, seed=1, horizon=1.0, delay=DelayParams(**{name: -0.1}))
            with pytest.raises(ScenarioInvalid) as err:
                validate_scenario(sc)
            assert err.value.field == f"delays.{name}"


class TestLeaderDeferred:
    def test_visited_cluster_drops(self, topo32):
        state = LeaderState(cluster_id=2)
        m = new_command(0, 0, goals=range(5, 6)).copy(visited_cluster_ids=frozenset({2}))
        d = leader_on_receive_deferred(state, m, topo32, NO_JITTER, random.Random(1))
        assert d.outcome == "drop"
        assert d.reason == "visited"

    def test_reprocessing_drops(self, topo32):
        state = LeaderState(cluster_id=2)
        m = new_command(0, 0, goals=range(5, 6))
        leader_on_receive_deferred(state, m, topo32, NO_JITTER, random.Random(1))
        d = leader_on_receive_deferred(state, m, topo32, NO_JITTER, random.Random(1))
        assert d.outcome == "drop"
        assert d.reason == "processed"

    def test_last_goal_delivers_then_stops(self, topo32):
        state = LeaderState(cluster_id=2)
        m = new_command(0, 0, goals=range(2, 3))
        d = leader_on_receive_deferred(state, m, topo32, NO_JITTER, random.Random(1))
        assert d.outcome == "stop"
        assert d.executed_here
        assert d.delivered_workers == (4, 5)  # empty targets: whole cluster
        assert d.message.executed_cluster_ids == {2}
        assert 2 in d.message.visited_cluster_ids

    def test_targets_limit_local_delivery(self, topo32):
        state = LeaderState(cluster_id=2)
        m = new_command(0, 0, goals=range(2, 3), targets={5})
        d = leader_on_receive_deferred(state, m, topo32, NO_JITTER, random.Random(1))
        assert d.delivered_workers == (5,)

    def test_nearest_unexecuted_goal_sets_delay(self, topo32):
        # goals at distance 1 (cluster 3, same region), 2 (clusters 4-7, same
        # hub) and 3 (cluster 8, other hub)
        state = LeaderState(cluster_id=2)
        m = new_command(0, 0, goals=range(3, 9))
        d = leader_on_receive_deferred(state, m, topo32, NO_JITTER, random.Random(1))
        assert d.outcome == "scheduled"
        assert d.distance == 1
        assert d.delay == 1.0

    def test_distance_two_schedules_two_time_units(self, two_domain_topo):
        state = LeaderState(cluster_id=0)
        m = new_command(4, 0, goals=range(2, 3))  # cluster 2: same hub, other region
        d = leader_on_receive_deferred(state, m, two_domain_topo, NO_JITTER,
                                       random.Random(1))
        assert d.distance == 2
        assert d.delay == 2.0

    def test_load_term_charged(self, topo32):
        state = LeaderState(cluster_id=2)
        state.pending_broadcasts.update({(9, 9), (9, 10)})
        params = DelayParams(alpha=1.0, beta=0.5, epsilon=0.0)
        m = new_command(0, 0, goals=range(3, 4))
        d = leader_on_receive_deferred(state, m, topo32, params, random.Random(1))
        assert d.delay == 1.0 * 1 + 0.5 * 2  # distance 1, load 2

    def test_closer_leader_fires_first(self, topo32):
        # same message processed at distance 1 and distance 4 leaders
        m = new_command(0, 0, goals=range(5, 6))
        near = leader_on_receive_deferred(LeaderState(cluster_id=4), m, topo32,
                                          NO_JITTER, random.Random(1))
        far = leader_on_receive_deferred(LeaderState(cluster_id=9), m, topo32,
                                         NO_JITTER, random.Random(1))
        assert near.delay < far.delay


class TestWorkerBroadcast:
    def test_broadcast_copy_fields(self):
        state = LeaderState(cluster_id=6)
        m = new_command(0, 0, goals=range(1, 7)).copy(
            visited_cluster_ids=frozenset({6}), hop_count=3)
        out = worker_broadcast(state, m)
        assert out.hop_count == 4
        assert out.last_sent_cluster_id == 6
        assert out.forward_flag is True
        assert out.msg_id == m.msg_id
