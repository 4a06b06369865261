"""Brute-force reachability oracle for delivery checking.

Predicts which goal clusters must execute a command by plain BFS over raw
topology data: the region adjacency graph for the adjacent strategy, an
explicitly rebuilt containment tree for the hierarchical one.  Deliberately
shares no code with the dissemination modules it double-checks, including the
tree helpers; the duplication is the point.
"""

from __future__ import annotations

from .metrics import TraceRecord
from .topology import Topology, goal_clusters_for_scope


def _bfs(adjacency: dict, start) -> dict:
    """Hop distance from start to every node it reaches."""
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for peer in adjacency.get(node, ()):
                if peer not in dist:
                    dist[peer] = dist[node] + 1
                    nxt.append(peer)
        frontier = nxt
    return dist


def reachable_clusters_adjacent(topo: Topology, origin: int) -> set[int]:
    """Clusters whose region is connected to the origin's region."""
    cpr = topo.config.clusters_per_region
    adj = {r: set(ns) for r, ns in topo.region_adjacency.items()}
    regions = _bfs(adj, origin // cpr)
    return {c for c in range(topo.config.n_clusters) if c // cpr in regions}


def containment_tree(topo: Topology) -> dict[tuple, set[tuple]]:
    """Undirected virtual tree rebuilt from nothing but the configured fan-outs.

    Leaf nodes ("c", id) hang under ("r", id) under ("h", id) under
    ("d", id), ids numbered row-major, with a single synthetic top when the
    topmost configured layer has more than one scope.
    """
    cfg = topo.config
    # (kind, node count, children per parent one level up), bottom-up
    levels = [("c", cfg.n_clusters, cfg.clusters_per_region),
              ("r", cfg.n_regions, cfg.regions_per_hub),
              ("h", cfg.n_hubs, cfg.hubs_per_domain),
              ("d", cfg.domains, None)][:cfg.num_layers - 1]
    adj: dict[tuple, set[tuple]] = {("c", c): set() for c in range(cfg.n_clusters)}

    def link(a, b):
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    for (kind, count, fanout), (up, _, _) in zip(levels, levels[1:]):
        for i in range(count):
            link((kind, i), (up, i // fanout))
    top_kind, top_count, _ = levels[-1]
    if top_count > 1:
        for s in range(top_count):
            link((top_kind, s), ("top", 0))
    return adj


def reachable_clusters_hier(topo: Topology, origin: int) -> set[int]:
    """Clusters connected to the origin through the virtual tree."""
    reached = _bfs(containment_tree(topo), ("c", origin))
    return {node[1] for node in reached if node[0] == "c"}


def predict(topo: Topology, strategy: str, origin: int,
            goals: set[int], targets: set[int]) -> tuple[set[int], set[int]]:
    """(expected executed clusters, expected executed targeted workers).

    Target prediction is exact only when every target sits inside a goal
    cluster; callers enforce that before trusting the second set.
    """
    if strategy == "adjacent":
        reachable = reachable_clusters_adjacent(topo, origin)
    else:
        reachable = reachable_clusters_hier(topo, origin)
    exec_clusters = goals & reachable
    exec_workers = {w for w in targets
                    if topo.is_alive(w) and topo.cluster_of[w] in exec_clusters}
    return exec_clusters, exec_workers


def check_trace(trace: list[TraceRecord], topo: Topology, strategy: str,
                commands) -> list[str]:
    """Compare a finished run against the BFS prediction.

    Returns human-readable mismatch descriptions; empty means the run agrees
    with the oracle and every goal cluster / targeted worker executed exactly
    once.  Message ids are reconstructed with the kernel's per-origin
    sequence numbering (first command from a cluster is <origin>:0).
    """
    mismatches: list[str] = []
    exec_clusters: dict[str, list[int]] = {}
    exec_workers: dict[str, list[int]] = {}
    for rec in trace:
        if rec.event == "execute_cluster":
            exec_clusters.setdefault(rec.data["msg_id"], []).append(rec.data["cluster"])
        elif rec.event == "execute_worker" and rec.data.get("targeted"):
            exec_workers.setdefault(rec.data["msg_id"], []).append(rec.data["worker"])

    seq_per_origin: dict[int, int] = {}
    for cmd in commands:
        seq = seq_per_origin.get(cmd.origin, 0)
        seq_per_origin[cmd.origin] = seq + 1
        mid = f"{cmd.origin}:{seq}"
        goals = set(goal_clusters_for_scope(topo, cmd.scope))
        want_clusters, want_workers = predict(topo, strategy, cmd.origin,
                                              goals, set(cmd.targets))
        got = exec_clusters.get(mid, [])
        if len(got) != len(set(got)):
            dupes = sorted({c for c in got if got.count(c) > 1})
            mismatches.append(f"{mid}: clusters executed more than once: {dupes}")
        if set(got) != want_clusters:
            missing = sorted(want_clusters - set(got))
            extra = sorted(set(got) - want_clusters)
            mismatches.append(
                f"{mid}: executed clusters disagree with BFS oracle "
                f"(missing {missing}, unexpected {extra})")
        got_w = exec_workers.get(mid, [])
        if len(got_w) != len(set(got_w)):
            dupes = sorted({w for w in got_w if got_w.count(w) > 1})
            mismatches.append(f"{mid}: workers executed more than once: {dupes}")
        if set(got_w) != want_workers:
            missing = sorted(want_workers - set(got_w))
            extra = sorted(set(got_w) - want_workers)
            mismatches.append(
                f"{mid}: targeted executions disagree with BFS oracle "
                f"(missing {missing}, unexpected {extra})")
    return mismatches
