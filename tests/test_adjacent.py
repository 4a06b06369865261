import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virtree.adjacent import (
    BroadcastToReachable,
    DelayParams,
    ExecuteLocally,
    ReportToLeader,
    compute_delay,
    leader_on_receive_deferred,
    reachable_workers,
    visited_copy,
    worker_broadcast,
    worker_on_receive,
)
from virtree.errors import ScenarioInvalid
from virtree.messages import goals_left, new_command
from virtree.scenario import Scenario, validate_scenario
from virtree.topology import (
    SCOPE_LAYERS,
    HierarchyConfig,
    build_topology,
    goal_clusters_for_scope,
)

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
    # worker 0 is in cluster 0, workers 0-3, of region 0, workers 0-7
    def test_isolated_region_own_peers_only(self):
        topo = two_region_topo(adjacency=[])
        assert reachable_workers(0, topo) == [("cluster", [1, 2, 3]), ("region", [4, 5, 6, 7])]

    def test_one_neighbor_region_adds_its_workers(self):
        topo = two_region_topo(adjacency=[(0, 1)])
        assert reachable_workers(0, topo) == [("cluster", [1, 2, 3]), ("region", [4, 5, 6, 7]),
                                              ("adjacent", list(range(8, 16)))]

    def test_segments_ascend_around_the_worker(self):
        # worker 13 is in cluster 3, workers 12-15, of region 1, workers 8-15
        topo = two_region_topo(adjacency=[(0, 1)])
        assert reachable_workers(13, topo) == [("adjacent", list(range(8))),
                                               ("region", [8, 9, 10, 11]),
                                               ("cluster", [12, 14, 15])]

    def test_dead_neighbors_filtered(self):
        topo = two_region_topo(adjacency=[(0, 1)])
        for w in (*range(8, 16), 2, 5):
            topo.mark_dead(w)
        assert reachable_workers(0, topo) == [("cluster", [1, 3]), ("region", [4, 6, 7])]


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
        m = new_command(0, 0, goals=range(5, 6)).copy(visited_cluster_ids=frozenset({2}))
        d = leader_on_receive_deferred(2, m, topo32, NO_JITTER, 0, random.Random(1))
        assert d.outcome == "drop"

    def test_last_goal_delivers_then_stops(self, topo32):
        m = new_command(0, 0, goals=range(2, 3))
        d = leader_on_receive_deferred(2, m, topo32, NO_JITTER, 0, random.Random(1))
        assert d.outcome == "stop"
        assert d.executed_here
        assert d.delivered_workers == (4, 5)  # empty targets: whole cluster
        # a stop sends nothing on, so no copy is built; the leader's copy
        # would have executed its last goal
        assert d.message is None
        copy = visited_copy(m, d, 2)
        assert copy.executed_cluster_ids == {2}
        assert 2 in copy.visited_cluster_ids
        assert goals_left(copy) == 0

    def test_targets_limit_local_delivery(self, topo32):
        m = new_command(0, 0, goals=range(2, 3), targets={5})
        d = leader_on_receive_deferred(2, m, topo32, NO_JITTER, 0, random.Random(1))
        assert d.delivered_workers == (5,)

    def test_nearest_unexecuted_goal_sets_delay(self, topo32):
        # goals at distance 1 (cluster 3, same region), 2 (clusters 4-7, same
        # hub) and 3 (cluster 8, other hub)
        m = new_command(0, 0, goals=range(3, 9))
        d = leader_on_receive_deferred(2, m, topo32, NO_JITTER, 0, random.Random(1))
        assert d.outcome == "scheduled"
        assert d.distance == 1
        assert d.delay == 1.0

    def test_distance_two_schedules_two_time_units(self, two_domain_topo):
        m = new_command(4, 0, goals=range(2, 3))  # cluster 2: same hub, other region
        d = leader_on_receive_deferred(0, m, two_domain_topo, NO_JITTER, 0,
                                       random.Random(1))
        assert d.distance == 2
        assert d.delay == 2.0

    def test_load_term_charged(self, topo32):
        params = DelayParams(alpha=1.0, beta=0.5, epsilon=0.0)
        m = new_command(0, 0, goals=range(3, 4))
        d = leader_on_receive_deferred(2, m, topo32, params, 2, random.Random(1))
        assert d.delay == 1.0 * 1 + 0.5 * 2  # distance 1, load 2

    def test_closer_leader_fires_first(self, topo32):
        # same message processed at distance 1 and distance 4 leaders
        m = new_command(0, 0, goals=range(5, 6))
        near = leader_on_receive_deferred(4, m, topo32, NO_JITTER, 0, random.Random(1))
        far = leader_on_receive_deferred(9, m, topo32, NO_JITTER, 0, random.Random(1))
        assert near.delay < far.delay


@st.composite
def leader_receives(draw):
    """A receiving cluster and its leader's load, a copy of a command to any
    scope with executed/visited subsets, and a topology with some workers
    dead."""
    cfg = HierarchyConfig(*(draw(st.integers(1, 3)) for _ in range(4)),
                          domains=draw(st.integers(1, 2)), coordinator_k=1, t_min=1)
    topo = build_topology(cfg, seed=1)
    for w in draw(st.sets(st.sampled_from(range(cfg.n_workers)))):
        topo.mark_dead(w)
    kind = draw(st.sampled_from(["global", *SCOPE_LAYERS]))
    scope = ("global",) if kind == "global" else \
        (kind, draw(st.integers(0, cfg.n_scopes(SCOPE_LAYERS[kind]) - 1)))
    goals = goal_clusters_for_scope(topo, scope)
    executed = frozenset(draw(st.sets(st.sampled_from(goals))))
    visited = executed | draw(st.sets(st.sampled_from(topo.clusters)))
    m = new_command(draw(st.sampled_from(topo.clusters)), 0, goals).copy(
        visited_cluster_ids=visited, executed_cluster_ids=executed)
    c = draw(st.sampled_from(topo.clusters))
    return topo, c, draw(st.integers(0, 3)), m


class TestScheduledBroadcastHasGoalsLeft:
    @settings(max_examples=300, deadline=None)
    @given(leader_receives(), st.integers(0, 2**32 - 1))
    def test_only_a_copy_with_goals_left_is_scheduled(self, case, seed):
        # the broadcast fires with the scheduled copy itself, so it always
        # has a goal left to carry
        topo, c, load, m = case
        d = leader_on_receive_deferred(c, m, topo, DelayParams(), load, random.Random(seed))
        if d.outcome != "drop":
            copy = visited_copy(m, d, c)
            assert (d.outcome == "scheduled") == (goals_left(copy) > 0)
            assert d.message == (copy if d.outcome == "scheduled" else None)


class TestLeaderReceiveIsPure:
    @settings(max_examples=300, deadline=None)
    @given(leader_receives(), st.integers(0, 2**32 - 1))
    def test_same_inputs_same_decision(self, case, seed):
        # the kernel keeps what a cluster processed: a second call on the
        # same inputs decides alike and neither edits the copy or topology
        topo, c, load, m = case
        before, dead = m.copy(), set(topo.dead)
        first, again = (leader_on_receive_deferred(c, m, topo, DelayParams(), load,
                                                   random.Random(seed)) for _ in range(2))
        assert first == again
        assert m == before and topo.dead == dead


class TestWorkerBroadcast:
    def test_broadcast_copy_fields(self):
        m = new_command(0, 0, goals=range(1, 7)).copy(
            visited_cluster_ids=frozenset({6}), hop_count=3)
        out = worker_broadcast(6, m)
        assert out.hop_count == 4
        assert out.last_sent_cluster_id == 6
        assert out.forward_flag is True
        assert out.msg_id == m.msg_id
