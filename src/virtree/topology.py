"""Virtual-tree hierarchy topology.

Physical workers sit at layer 1.  Layers 2..5 are virtual roles mapped onto
workers: cluster leaders (one per cluster), regional hubs (one per region),
local-global command (one per hub) and global command (one per domain).  The
containment chain worker -> cluster -> region -> hub -> domain is always
full depth; ``num_layers`` only controls which role layers exist, so a
3-layer build still knows which hub a region belongs to but binds no roles
above the regional hubs.

Ids are row-major at every layer, so one number per layer describes the whole
chain: ``span[L]`` is how many clusters one layer-L scope holds.  Cluster c
lies in scope ``c // span[L]`` at layer L, and scope s holds the cluster range
``s * span[L] .. (s + 1) * span[L] - 1``.

One worker may hold several roles at once.  Role bindings live in
``Topology.roles``, one holder dict per built layer; re-election replaces a
single binding and leaves the rest alone.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from .errors import NoCandidate, UnknownCluster, UnknownScope

WorkerId = int
ClusterId = int
RegionId = int

# Role layers.  Layer 1 (workers) has no bindings.
LAYER_LEADER = 2
LAYER_REGIONAL_HUB = 3
LAYER_LOCAL_GLOBAL = 4
LAYER_GLOBAL = 5

# Scope selector kind -> the layer whose scopes it names; "global" is all.
SCOPE_LAYERS = {"cluster": LAYER_LEADER, "region": LAYER_REGIONAL_HUB,
                "hub": LAYER_LOCAL_GLOBAL, "domain": LAYER_GLOBAL}


def derive_seed(seed: int, *labels) -> int:
    """Derive a stable 64-bit sub-seed from a master seed and labels.

    sha256 based so the result does not depend on PYTHONHASHSEED or on the
    master seed's bit width.
    """
    text = ":".join([str(seed)] + [str(x) for x in labels])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class HierarchyConfig:
    """Shape of one hierarchy build.

    Attributes
    ----------
    num_layers:
        How many role layers exist, 2..5.  Lower values drop the topmost
        virtual layers (3 layers = workers/leaders/regional hubs).
    workers_per_cluster, clusters_per_region, regions_per_hub,
    hubs_per_domain, domains:
        Uniform fan-out at each containment level, all >= 1.
    coordinator_k:
        Redundant active coordinators maintained per region.
    t_min:
        Minimum viable coordinator count per region, 1 <= t_min <= k.

    The bounds above are checked by ``scenario.validate_scenario``, not here.
    """

    workers_per_cluster: int
    clusters_per_region: int
    regions_per_hub: int = 1
    hubs_per_domain: int = 1
    domains: int = 1
    num_layers: int = 5
    coordinator_k: int = 5
    t_min: int = 3

    @property
    def n_hubs(self) -> int:
        return self.domains * self.hubs_per_domain

    @property
    def n_regions(self) -> int:
        return self.n_hubs * self.regions_per_hub

    @property
    def n_clusters(self) -> int:
        return self.n_regions * self.clusters_per_region

    @property
    def n_workers(self) -> int:
        return self.n_clusters * self.workers_per_cluster

    @property
    def span(self) -> dict[int, int]:
        """Clusters under one scope of each layer 2..5, full depth."""
        cpr, rph = self.clusters_per_region, self.regions_per_hub
        return {LAYER_LEADER: 1, LAYER_REGIONAL_HUB: cpr,
                LAYER_LOCAL_GLOBAL: cpr * rph, LAYER_GLOBAL: cpr * rph * self.hubs_per_domain}

    def n_scopes(self, layer: int) -> int:
        return self.n_clusters // self.span[layer]


@dataclass
class Topology:
    """Built hierarchy: spans, region adjacency, roles, aliveness.

    ``roles[layer][scope]`` is the worker holding that role, for layers
    2..num_layers; a scope missing from its dict is vacant (holder died and
    no candidate existed at re-election time).
    """

    config: HierarchyConfig
    span: dict[int, int]
    cluster_of: tuple[ClusterId, ...]
    workers_in_cluster: tuple[tuple[WorkerId, ...], ...]
    region_adjacency: dict[RegionId, tuple[RegionId, ...]]
    roles: dict[int, dict[int, WorkerId]]
    alive: set[WorkerId]
    energy: dict[WorkerId, float]

    @property
    def workers(self) -> range:
        return range(self.config.n_workers)

    @property
    def clusters(self) -> range:
        return range(self.config.n_clusters)

    @property
    def regions(self) -> range:
        return range(self.config.n_regions)

    def scope_of(self, c: ClusterId, layer: int) -> int:
        return c // self.span[layer]

    def clusters_in(self, layer: int, scope: int) -> range:
        span = self.span[layer]
        return range(scope * span, (scope + 1) * span)

    def workers_in_region(self, r: RegionId) -> list[WorkerId]:
        out: list[WorkerId] = []
        for c in self.clusters_in(LAYER_REGIONAL_HUB, r):
            out.extend(self.workers_in_cluster[c])
        return out

    def region_of_worker(self, w: WorkerId) -> RegionId:
        return self.cluster_of[w] // self.span[LAYER_REGIONAL_HUB]

    def is_alive(self, w: WorkerId) -> bool:
        return w in self.alive

    def mark_dead(self, w: WorkerId):
        self.alive.discard(w)

    def mark_alive(self, w: WorkerId):
        if 0 <= w < len(self.cluster_of):
            self.alive.add(w)

    def roles_held_by(self, w: WorkerId) -> list[tuple[int, int]]:
        """All (layer, scope_id) bindings currently held by worker w, sorted.

        A holder always lies inside its scope (initial holders are the
        scope's lowest worker, re-election draws from inside), so only the
        one scope per layer that contains w's cluster can name w.
        """
        c = self.cluster_of[w]
        held = []
        for layer in sorted(self.roles):
            scope = self.scope_of(c, layer)
            if self.roles[layer].get(scope) == w:
                held.append((layer, scope))
        return held


def grid_adjacency(n_regions: int) -> dict[RegionId, tuple[RegionId, ...]]:
    """Default region graph: 2-D grid, row-major, 4-neighbour.

    Column count is ceil(sqrt(n)); the last row may be ragged.
    """
    cols = max(1, math.isqrt(n_regions))
    if cols * cols < n_regions:
        cols += 1
    adj: dict[RegionId, set[RegionId]] = {r: set() for r in range(n_regions)}
    for r in range(n_regions):
        row, col = divmod(r, cols)
        for dr, dc in ((0, 1), (1, 0)):
            nr, nc = row + dr, col + dc
            nb = nr * cols + nc
            if nc < cols and nb < n_regions:
                adj[r].add(nb)
                adj[nb].add(r)
    return {r: tuple(sorted(ns)) for r, ns in adj.items()}


def _adjacency_from_edges(n_regions: int,
                          edges: list[tuple[RegionId, RegionId]]) -> dict[RegionId, tuple[RegionId, ...]]:
    adj: dict[RegionId, set[RegionId]] = {r: set() for r in range(n_regions)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return {r: tuple(sorted(ns)) for r, ns in adj.items()}


def build_topology(config: HierarchyConfig, seed: int,
                   adjacency: list[tuple[RegionId, RegionId]] | None = None) -> Topology:
    """Build a hierarchy deterministically from (config, seed).

    Ids are assigned row-major at every level, so worker w belongs to cluster
    w // workers_per_cluster and so on up the chain.  Initial role holders are
    the lowest-id worker of each scope.  The seed feeds only the per-worker
    energy scalars consumed by the coordinator fitness metric.  Each
    ``adjacency`` edge joins two distinct in-range regions, as
    ``scenario.validate_scenario`` checks.
    """
    n_workers = config.n_workers
    wpc = config.workers_per_cluster
    span = config.span
    cluster_of = tuple(w // wpc for w in range(n_workers))
    workers_in_cluster = tuple(tuple(range(c * wpc, (c + 1) * wpc))
                               for c in range(config.n_clusters))

    if adjacency is None:
        region_adjacency = grid_adjacency(config.n_regions)
    else:
        region_adjacency = _adjacency_from_edges(config.n_regions, adjacency)

    roles = {
        layer: {s: workers_in_cluster[s * span[layer]][0]
                for s in range(config.n_scopes(layer))}
        for layer in range(LAYER_LEADER, config.num_layers + 1)
    }

    rng = random.Random(derive_seed(seed, "energy"))
    energy = {w: round(rng.uniform(0.2, 1.0), 6) for w in range(n_workers)}

    return Topology(
        config=config,
        span=span,
        cluster_of=cluster_of,
        workers_in_cluster=workers_in_cluster,
        region_adjacency=region_adjacency,
        roles=roles,
        alive=set(range(n_workers)),
        energy=energy,
    )


def hierarchy_distance(topo: Topology, a: ClusterId, b: ClusterId) -> int:
    """Coordination distance between two clusters, 0..4.

    0 same cluster, 1 same region, 2 same hub, 3 same domain, 4 otherwise.
    """
    for c in (a, b):
        if not 0 <= c < topo.config.n_clusters:
            raise UnknownCluster(f"cluster {c}")
    for distance, layer in enumerate(SCOPE_LAYERS.values()):
        if topo.scope_of(a, layer) == topo.scope_of(b, layer):
            return distance
    return len(SCOPE_LAYERS)


def goal_clusters_for_scope(topo: Topology, scope: tuple) -> range:
    """Expand a scope selector into the cluster range it covers.

    ``scope`` is ("cluster", id) | ("region", id) | ("hub", id) |
    ("domain", id) | ("global",) or ("global", None).
    """
    kind = scope[0] if scope else None
    if kind == "global":
        return topo.clusters
    if kind not in SCOPE_LAYERS:
        raise UnknownScope(f"scope kind {scope!r}")
    if len(scope) < 2 or scope[1] is None:
        raise UnknownScope(f"scope {kind} needs an id")
    layer, sid = SCOPE_LAYERS[kind], scope[1]
    if not 0 <= sid < topo.config.n_scopes(layer):
        raise UnknownScope(f"{kind} {sid}")
    return topo.clusters_in(layer, sid)


def _candidates(topo: Topology, layer: int, scope_id: int) -> list[WorkerId]:
    """Alive candidates for a role: holders of the next layer down in scope.

    Layer 2 draws from all alive workers of the cluster since workers hold no
    bindings.
    """
    if not 0 <= scope_id < topo.config.n_scopes(layer):
        raise UnknownScope(f"layer {layer} scope {scope_id}")
    if layer == LAYER_LEADER:
        pool = topo.workers_in_cluster[scope_id]
    else:
        below = topo.roles[layer - 1]
        per_scope = topo.span[layer] // topo.span[layer - 1]
        pool = [below[s] for s in range(scope_id * per_scope, (scope_id + 1) * per_scope)
                if s in below]
    return sorted(w for w in set(pool) if topo.is_alive(w))


def reelect_role(topo: Topology, layer: int, scope_id: int):
    """Re-elect the role at (layer, scope_id); lowest alive candidate id wins.

    Rebinds ``topo.roles[layer][scope_id]``.  Raises NoCandidate when the
    scope has no alive candidate; the binding is vacated in that case so
    routing sees the hole instead of a dead holder.
    """
    if layer not in topo.roles:
        raise UnknownScope(f"layer {layer} not built (num_layers={topo.config.num_layers})")
    holders = topo.roles[layer]
    cands = _candidates(topo, layer, scope_id)
    if not cands:
        holders.pop(scope_id, None)
        raise NoCandidate(f"layer {layer} scope {scope_id}")
    holders[scope_id] = cands[0]
