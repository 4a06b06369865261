import random

from hypothesis import given, settings
from hypothesis import strategies as st

from virtree.adjacent import LeaderState, min_goal_distance
from virtree.hierarchical import (
    MODE_LCA,
    MODE_ROOT,
    TreeLinks,
    leader_on_receive_immediate,
    route_interior,
)
from virtree.messages import new_command
from virtree.oracle import _bfs, containment_tree
from virtree.scenario import CommandSpec, FailureSpec, Scenario
from virtree.simkernel import run
from virtree.topology import (
    LAYER_REGIONAL_HUB,
    SCOPE_LAYERS,
    HierarchyConfig,
    build_topology,
    goal_clusters_for_scope,
    hierarchy_distance,
)


def hier_scenario(**kw):
    kw.setdefault("config", HierarchyConfig(2, 2, 2, 2, coordinator_k=3, t_min=2))
    kw.setdefault("seed", 5)
    kw.setdefault("horizon", 20.0)
    kw.setdefault("strategy", "hierarchical")
    kw.setdefault("round_period", 100.0)
    return Scenario(**kw)


def tree_path_length(topo, a, b):
    """Edge count between two clusters' leaves on the oracle's tree."""
    return _bfs(containment_tree(topo), ("c", a))[("c", b)]


class TestTreePathLength:
    def test_same_cluster_is_zero(self, topo32):
        assert tree_path_length(topo32, 7, 7) == 0

    def test_same_region_two_edges(self, topo32):
        assert tree_path_length(topo32, 0, 1) == 2

    def test_same_hub_four_edges(self, topo32):
        assert tree_path_length(topo32, 0, 4) == 4

    def test_cross_domain_worst_case(self, two_domain_topo):
        # full depth both ways through the apex: 2 * (num_layers - 1)
        assert tree_path_length(two_domain_topo, 0, 8) == 8


class TestTreeLinks:
    def test_single_domain_has_no_apex(self, topo32):
        links = TreeLinks.build(topo32)
        assert links.apex is None
        assert links.root == (5, 0)
        assert links.parent((5, 0)) is None

    def test_multi_domain_gets_apex(self, two_domain_topo):
        links = TreeLinks.build(two_domain_topo)
        assert links.apex == (6, 0)
        assert links.root == (6, 0)
        assert links.parent((5, 1)) == (6, 0)
        assert links.parent((6, 0)) is None

    def test_parent_chain_from_leaf(self, topo32):
        links = TreeLinks.build(topo32)
        chain = []
        node = links.leaf(13)  # cluster 13: region 3, hub 1
        while node is not None:
            chain.append(node)
            node = links.parent(node)
        assert chain == [(2, 13), (3, 3), (4, 1), (5, 0)]

    def test_covers(self, topo32):
        links = TreeLinks.build(topo32)
        assert links.covers((3, 0), 2)
        assert not links.covers((3, 0), 4)
        assert links.covers((4, 1), 9)
        assert links.covers((5, 0), 15)

    def test_apex_covers_everything(self, two_domain_topo):
        links = TreeLinks.build(two_domain_topo)
        assert all(links.covers((6, 0), c) for c in two_domain_topo.clusters)

    def test_child_toward(self, topo32):
        links = TreeLinks.build(topo32)
        assert links.child_toward((3, 0), 2) == (2, 2)
        assert links.child_toward((4, 0), 5) == (3, 1)
        assert links.child_toward((5, 0), 9) == (4, 1)

    def test_apex_child_toward(self, two_domain_topo):
        links = TreeLinks.build(two_domain_topo)
        assert links.child_toward((6, 0), 8) == (5, 1)

    def test_holder_resolves_live_role_map(self, topo32):
        links = TreeLinks.build(topo32)
        assert links.holder((2, 3)) == 6
        assert links.holder_cluster((2, 3)) == 3
        del topo32.roles[2][3]
        assert links.holder((2, 3)) is None
        assert links.holder_cluster((2, 3)) is None

    def test_apex_held_by_lowest_top_scope(self, two_domain_topo):
        links = TreeLinks.build(two_domain_topo)
        assert links.holder((6, 0)) == two_domain_topo.roles[5][0]


# oracle node kind <-> tree layer, and the scope selector kind of each
ORACLE_KIND = {2: "c", 3: "r", 4: "h", 5: "d"}
SCOPE_KIND = {"c": "cluster", "r": "region", "h": "hub", "d": "domain"}


def sampled_shapes(per_case=4, seed=4242):
    """Seeded shapes: each num_layers 2..5, with and without an apex."""
    rng = random.Random(seed)
    for num_layers in range(2, 6):
        for apex in (False, True):
            for _ in range(per_case):
                # cpr, rph, hpd, domains; those above the top layer set its scope count
                fans = [rng.randint(1, 4) for _ in range(4)]
                for i in range(num_layers - 2, 4):
                    fans[i] = 1
                if apex:
                    fans[rng.randrange(num_layers - 2, 4)] = rng.randint(2, 3)
                yield HierarchyConfig(workers_per_cluster=1, clusters_per_region=fans[0],
                                      regions_per_hub=fans[1], hubs_per_domain=fans[2],
                                      domains=fans[3], num_layers=num_layers,
                                      coordinator_k=1, t_min=1)


class TestTreeLinksMatchOracle:
    """TreeLinks and goal expansion agree with the oracle's independent tree."""

    def test_sampled_shapes(self):
        seen = {(cfg.num_layers, self.check_shape(cfg)) for cfg in sampled_shapes()}
        assert seen == {(n, apex) for n in range(2, 6) for apex in (False, True)}

    @staticmethod
    def check_shape(cfg) -> bool:
        """Compare one shape; returns whether it has an apex."""
        topo = build_topology(cfg, seed=1)
        links = TreeLinks.build(topo)
        tree = containment_tree(topo)
        n = cfg.num_layers
        top = ("top", 0) if ("top", 0) in tree else (ORACLE_KIND[n], 0)
        layer_of = {kind: layer for layer, kind in ORACLE_KIND.items()}
        layer_of["top"] = n + 1

        def to_links(node):
            return (layer_of[node[0]], node[1])

        # root the oracle's undirected tree at its top
        parent = {top: None}
        order = [top]
        for node in order:
            for peer in sorted(tree[node]):
                if peer not in parent:
                    parent[peer] = node
                    order.append(peer)
        assert len(parent) == len(tree)
        leaves = {node: set() for node in tree}
        for node in reversed(order):
            if node[0] == "c":
                leaves[node].add(node[1])
            if parent[node] is not None:
                leaves[parent[node]] |= leaves[node]

        assert links.root == to_links(top)
        assert (links.apex is None) == (top[0] != "top")
        for c in range(cfg.n_clusters):
            chain, node = [], links.leaf(c)
            while node is not None:
                chain.append(node)
                node = links.parent(node)
            want, onode = [], ("c", c)
            while onode is not None:
                want.append(to_links(onode))
                onode = parent[onode]
            assert chain == want, (cfg, c)
        for onode, under in leaves.items():
            node = to_links(onode)
            for c in range(cfg.n_clusters):
                assert links.covers(node, c) == (c in under), (cfg, node, c)
                if c in under and onode[0] != "c":
                    child = next(p for p in tree[onode]
                                 if parent.get(p) == onode and c in leaves[p])
                    assert links.child_toward(node, c) == to_links(child), (cfg, node, c)
            if onode[0] in SCOPE_KIND:
                assert set(goal_clusters_for_scope(topo, (SCOPE_KIND[onode[0]], onode[1]))) == under
        assert set(goal_clusters_for_scope(topo, ("global",))) == leaves[top]
        return links.apex is not None


class TestLeafReceive:
    def test_injection_leaf_climbs_toward_remote_goal(self, topo32):
        state = LeaderState(cluster_id=0)
        m = new_command(0, 0, goals=range(5, 6))
        d = leader_on_receive_immediate(state, m, topo32, TreeLinks.build(topo32),
                                        injected=True)
        assert d.outcome == "forwarded"
        [(node, fm)] = d.forwards
        assert node == (3, 0)
        assert fm.hop_count == 1
        assert fm.last_sent_cluster_id == 0
        assert 0 in fm.visited_cluster_ids
        assert fm.forward_flag is False

    def test_fanned_down_copy_never_climbs(self, topo32):
        # the parent already routed this copy; climbing again would echo
        state = LeaderState(cluster_id=0)
        m = new_command(3, 0, goals=range(0, 6)).copy(visited_cluster_ids=frozenset({3}))
        d = leader_on_receive_immediate(state, m, topo32, TreeLinks.build(topo32),
                                        injected=False)
        assert d.outcome == "stop"
        assert d.forwards == ()
        assert d.executed_here

    def test_visited_copy_drops(self, topo32):
        state = LeaderState(cluster_id=4)
        m = new_command(0, 0, goals=range(4, 5)).copy(visited_cluster_ids=frozenset({4}))
        d = leader_on_receive_immediate(state, m, topo32, TreeLinks.build(topo32))
        assert (d.outcome, d.reason) == ("drop", "visited")

    def test_reprocess_drops(self, topo32):
        state = LeaderState(cluster_id=4)
        links = TreeLinks.build(topo32)
        leader_on_receive_immediate(state, new_command(0, 0, goals=range(4, 5)), topo32, links)
        d = leader_on_receive_immediate(state, new_command(0, 0, goals=range(4, 5)), topo32, links)
        assert (d.outcome, d.reason) == ("drop", "processed")

    def test_goal_leaf_delivers_and_stops(self, topo32):
        state = LeaderState(cluster_id=4)
        m = new_command(0, 0, goals=range(4, 5)).copy(visited_cluster_ids=frozenset({0}))
        d = leader_on_receive_immediate(state, m, topo32, TreeLinks.build(topo32),
                                        injected=True)
        assert d.outcome == "stop"
        assert d.executed_here
        assert d.delivered_workers == (8, 9)
        assert d.message.executed_cluster_ids == {4}


class TestRouteInterior:
    def test_fan_down_per_goal_branch(self, topo32):
        links = TreeLinks.build(topo32)
        m = new_command(0, 0, goals=range(1, 3)).copy(visited_cluster_ids=frozenset({0}),
                                                 hop_count=1)
        out = route_interior((3, 0), m, (2, 0), topo32, links)
        assert [node for node, _ in out] == [(2, 1), (2, 2)]
        for _, fm in out:
            assert fm.hop_count == 2
            assert fm.last_sent_cluster_id == 0  # regional hub held by worker 0

    def test_shared_branch_sent_once(self, topo32):
        links = TreeLinks.build(topo32)
        m = new_command(0, 0, goals=range(4, 6)).copy(hop_count=1)
        out = route_interior((4, 0), m, (3, 0), topo32, links)
        assert [node for node, _ in out] == [(3, 1)]  # both goals under region 1

    def test_arrival_branch_excluded(self, topo32):
        links = TreeLinks.build(topo32)
        m = new_command(1, 0, goals=range(1, 2))
        assert route_interior((3, 0), m, (2, 1), topo32, links) == []

    def test_up_only_from_child(self, topo32):
        links = TreeLinks.build(topo32)
        m = new_command(0, 0, goals=range(5, 6))
        out = route_interior((3, 0), m, (2, 0), topo32, links)
        assert [node for node, _ in out] == [(4, 0)]
        # same copy arriving from the parent must not bounce back up
        assert route_interior((3, 0), m, (4, 0), topo32, links) == []

    def test_root_mode_climbs_past_the_lca(self, topo32):
        links = TreeLinks.build(topo32)
        m = new_command(0, 0, goals=range(1, 2))
        out = route_interior((3, 0), m, (2, 0), topo32, links, mode=MODE_ROOT)
        assert [node for node, _ in out] == [(2, 1), (4, 0)]
        out_lca = route_interior((3, 0), m, (2, 0), topo32, links, mode=MODE_LCA)
        assert [node for node, _ in out_lca] == [(2, 1)]

    def test_root_never_forwards_up(self, topo32):
        links = TreeLinks.build(topo32)
        m = new_command(0, 0, goals=range(15, 16))
        out = route_interior((5, 0), m, (4, 0), topo32, links, mode=MODE_ROOT)
        assert [node for node, _ in out] == [(4, 1)]

    def test_vacant_holder_routes_nothing(self, topo32):
        links = TreeLinks.build(topo32)
        del topo32.roles[3][0]
        m = new_command(0, 0, goals=range(1, 2))
        assert route_interior((3, 0), m, (2, 0), topo32, links) == []

    def test_executed_everywhere_routes_nothing(self, topo32):
        links = TreeLinks.build(topo32)
        m = new_command(0, 0, goals=range(1, 2)).copy(visited_cluster_ids=frozenset({1}),
                                              executed_cluster_ids=frozenset({1}))
        assert route_interior((3, 0), m, (2, 1), topo32, links) == []


@st.composite
def shapes_and_copies(draw):
    """A shape (num_layers 2..5, with or without an apex), a message whose goal
    is any scope kind, and executed/visited subsets of it."""
    num_layers = draw(st.integers(2, 5))
    # cpr, rph, hpd, domains; those above the top layer set its scope count
    fans = [draw(st.integers(1, 3)) for _ in range(4)]
    for i in range(num_layers - 2, 4):
        fans[i] = 1
    if draw(st.booleans()):  # apex
        fans[draw(st.integers(num_layers - 2, 3))] = draw(st.integers(2, 3))
    cfg = HierarchyConfig(workers_per_cluster=1, clusters_per_region=fans[0],
                          regions_per_hub=fans[1], hubs_per_domain=fans[2],
                          domains=fans[3], num_layers=num_layers,
                          coordinator_k=1, t_min=1)
    topo = build_topology(cfg, seed=1)
    kind = draw(st.sampled_from(["global", *SCOPE_LAYERS]))
    if kind == "global":
        scope = ("global",)
    else:
        scope = (kind, draw(st.integers(0, cfg.n_scopes(SCOPE_LAYERS[kind]) - 1)))
    goals = goal_clusters_for_scope(topo, scope)
    executed = frozenset(draw(st.sets(st.sampled_from(goals))))
    visited = executed | draw(st.sets(st.sampled_from(topo.clusters)))
    origin = draw(st.sampled_from(topo.clusters))
    m = new_command(origin, 0, goals).copy(visited_cluster_ids=visited,
                                          executed_cluster_ids=executed,
                                          hop_count=draw(st.integers(0, 8)))
    return topo, m


def brute_needs_up(links, node, remaining, mode):
    if links.parent(node) is None:
        return False
    return mode == MODE_ROOT or any(not links.covers(node, g) for g in remaining)


def brute_route(node, m, arrived_from, links, mode):
    """route_interior's branches, one goal at a time."""
    remaining = set(m.goal_cluster_ids) - m.executed_cluster_ids
    if not remaining:
        return []
    from_child = arrived_from is not None and links.parent(arrived_from) == node
    branches = []
    for g in sorted(remaining):
        if not links.covers(node, g):
            continue
        branch = links.child_toward(node, g)
        if branch not in branches and not (from_child and branch == arrived_from):
            branches.append(branch)
    if from_child and brute_needs_up(links, node, remaining, mode):
        branches.append(links.parent(node))
    return branches


class TestRangeRoutingMatchesPerGoal:
    """Range arithmetic routes, visits and measures distance as a per-goal scan."""

    @settings(deadline=None, max_examples=150)  # speed is not what this checks
    @given(shapes_and_copies())
    def test_route_interior(self, case):
        topo, m = case
        links = TreeLinks.build(topo)
        nodes = [(layer, s) for layer in range(LAYER_REGIONAL_HUB, topo.config.num_layers + 1)
                 for s in range(topo.config.n_scopes(layer))]
        nodes += [links.apex] if links.apex else []
        leaves = [links.leaf(c) for c in topo.clusters]
        for node in nodes:
            children = [n for n in nodes + leaves if links.parent(n) == node]
            for arrived_from in [None, links.parent(node), *children]:
                for mode in (MODE_LCA, MODE_ROOT):
                    out = route_interior(node, m, arrived_from, topo, links, mode)
                    assert [n for n, _ in out] == brute_route(node, m, arrived_from,
                                                              links, mode)
                    sender = links.holder_cluster(node)
                    for _, fm in out:
                        assert fm == m.copy(hop_count=m.hop_count + 1,
                                            last_sent_cluster_id=sender)

    @settings(deadline=None, max_examples=150)
    @given(shapes_and_copies())
    def test_leader_on_receive_immediate(self, case):
        topo, m = case
        links = TreeLinks.build(topo)
        goals = set(m.goal_cluster_ids)
        for c in topo.clusters:
            for injected in (False, True):
                d = leader_on_receive_immediate(LeaderState(cluster_id=c), m, topo,
                                                links, injected)
                if c in m.visited_cluster_ids:
                    assert (d.outcome, d.reason) == ("drop", "visited")
                    continue
                executed = m.executed_cluster_ids | ({c} & goals)
                remaining = goals - executed
                assert d.executed_here == (c in goals)
                assert d.message.executed_cluster_ids == executed
                assert d.message.visited_cluster_ids == m.visited_cluster_ids | {c}
                # the leaf takes no route mode: the climb rule of each agrees
                leaf = links.leaf(c)
                for mode in (MODE_LCA, MODE_ROOT):
                    up = bool(remaining) and injected and brute_needs_up(
                        links, leaf, remaining, mode)
                    assert [n for n, _ in d.forwards] == ([links.parent(leaf)] if up else [])
                    assert d.outcome == ("forwarded" if up else "stop")

    @settings(deadline=None, max_examples=150)
    @given(shapes_and_copies())
    def test_min_goal_distance(self, case):
        topo, m = case
        remaining = set(m.goal_cluster_ids) - m.executed_cluster_ids
        if remaining:
            for c in topo.clusters:
                assert min_goal_distance(topo, c, m) == min(
                    hierarchy_distance(topo, c, g) for g in remaining)


class TestHierSimulation:
    def test_max_hop_matches_tree_path(self):
        cfg = HierarchyConfig(2, 4, 2, 2, coordinator_k=5, t_min=3)
        sc = hier_scenario(config=cfg,
                           commands=[CommandSpec(time=0.0, origin=0,
                                                 scope=("cluster", 4))])
        trace, report = run(sc)
        topo = build_topology(cfg, sc.seed)
        assert report.messages["0:0"].max_hop == tree_path_length(topo, 0, 4) == 4
        assert report.messages["0:0"].goals_executed == 1

    def test_tree_mode_emits_no_radio_records(self):
        sc = hier_scenario(commands=[CommandSpec(time=0.0, origin=0,
                                                 scope=("region", 1))])
        trace, _ = run(sc)
        comps = {rec.comp for rec in trace}
        assert "alg1" not in comps
        assert "alg2" not in comps

    def test_root_mode_same_outcome_more_forwards(self):
        cmd = CommandSpec(time=0.0, origin=0, scope=("region", 1))
        t_lca, r_lca = run(hier_scenario(commands=[cmd]))
        t_root, r_root = run(hier_scenario(commands=[cmd], route_mode="root"))
        assert any(rec.event == "route_mode_root" for rec in t_root)
        assert not any(rec.event == "route_mode_root" for rec in t_lca)

        def executed(trace):
            return {rec.data["cluster"] for rec in trace
                    if rec.event == "execute_cluster"}

        assert executed(t_lca) == executed(t_root) == {2, 3}
        assert r_root.totals["alg3.forward"] == r_lca.totals["alg3.forward"] + 1

    def test_cross_domain_hop_bound(self, two_domain_topo):
        sc = hier_scenario(config=two_domain_topo.config, seed=7,
                           commands=[CommandSpec(time=0.0, origin=0,
                                                 scope=("domain", 1))])
        _, report = run(sc)
        pm = report.messages["0:0"]
        assert pm.goals_executed == 8
        assert pm.max_hop == 2 * (two_domain_topo.config.num_layers - 1)

    def test_dead_goal_cluster_parks_then_fails(self):
        # goal leaf vacant from the start; three later role changes burn the
        # retry budget
        sc = hier_scenario(
            commands=[CommandSpec(time=1.0, origin=0, scope=("cluster", 3))],
            failures=[
                FailureSpec(time=0.5, kind="worker", action="kill", worker=6),
                FailureSpec(time=0.5, kind="worker", action="kill", worker=7),
                FailureSpec(time=5.0, kind="worker", action="kill", worker=0),
                FailureSpec(time=6.0, kind="worker", action="kill", worker=1),
                FailureSpec(time=7.0, kind="worker", action="kill", worker=2),
            ])
        trace, report = run(sc)
        cons = report.conservation
        assert cons["parked_total"] == 1
        assert cons["parked_failed"] == 1
        assert cons["delivery_failures"] == 1
        assert any(rec.comp == "alg3" and rec.event == "delivery_failed"
                   for rec in trace)
        assert report.messages["0:0"].goals_executed == 0
        assert report.conserved

    def test_parked_copy_retried_after_revival(self):
        sc = hier_scenario(
            commands=[CommandSpec(time=1.0, origin=0, scope=("cluster", 3))],
            failures=[
                FailureSpec(time=0.5, kind="worker", action="kill", worker=6),
                FailureSpec(time=0.5, kind="worker", action="kill", worker=7),
                FailureSpec(time=6.0, kind="worker", action="revive", worker=6),
            ])
        trace, report = run(sc)
        cons = report.conservation
        assert cons["parked_total"] == 1
        assert cons["parked_retried_ok"] == 1
        assert "parked_failed" not in cons
        assert report.messages["0:0"].goals_executed == 1
        assert report.conserved
