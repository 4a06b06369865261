"""Virtual-tree hierarchy topology.

Physical workers sit at layer 1.  Layers 2..5 are virtual roles mapped onto
workers: cluster leaders (one per cluster), regional hubs (one per region),
local-global command (one per hub) and global command (one per domain).  The
containment chain worker -> cluster -> region -> hub -> domain is always built
at full depth; ``num_layers`` only controls which role layers exist, so a
3-layer build still knows which hub a region belongs to but binds no roles
above the regional hubs.

One worker may hold several roles at once.  Role bindings live in a mutable
``RoleMap``; re-election replaces a single binding and leaves the rest alone.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field

from .errors import NoCandidate, UnknownCluster, UnknownScope

WorkerId = int
ClusterId = int
RegionId = int
HubId = int
DomainId = int

# Role layers.  Layer 1 (workers) has no bindings.
LAYER_LEADER = 2
LAYER_REGIONAL_HUB = 3
LAYER_LOCAL_GLOBAL = 4
LAYER_GLOBAL = 5

SCOPE_KINDS = ("cluster", "region", "hub", "domain", "global")


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


@dataclass
class RoleMap:
    """Current virtual-role bindings, one holder per scope.

    A scope missing from its map is vacant (holder died and no candidate
    existed at re-election time).
    """

    cluster_leader: dict[ClusterId, WorkerId] = field(default_factory=dict)
    regional_hub: dict[RegionId, WorkerId] = field(default_factory=dict)
    local_global: dict[HubId, WorkerId] = field(default_factory=dict)
    global_command: dict[DomainId, WorkerId] = field(default_factory=dict)

    def layer_map(self, layer: int) -> dict[int, WorkerId]:
        try:
            return {
                LAYER_LEADER: self.cluster_leader,
                LAYER_REGIONAL_HUB: self.regional_hub,
                LAYER_LOCAL_GLOBAL: self.local_global,
                LAYER_GLOBAL: self.global_command,
            }[layer]
        except KeyError:
            raise UnknownScope(f"no role layer {layer}") from None


@dataclass
class Topology:
    """Built hierarchy: containment maps, region adjacency, roles, aliveness."""

    config: HierarchyConfig
    cluster_of: dict[WorkerId, ClusterId]
    region_of: dict[ClusterId, RegionId]
    hub_of: dict[RegionId, HubId]
    domain_of: dict[HubId, DomainId]
    region_adjacency: dict[RegionId, tuple[RegionId, ...]]
    role_map: RoleMap
    alive: set[WorkerId]
    energy: dict[WorkerId, float]
    # inverse containment, precomputed once at build time
    workers_in_cluster: dict[ClusterId, tuple[WorkerId, ...]]
    clusters_in_region: dict[RegionId, tuple[ClusterId, ...]]
    regions_in_hub: dict[HubId, tuple[RegionId, ...]]
    hubs_in_domain: dict[DomainId, tuple[HubId, ...]]

    @property
    def workers(self) -> range:
        return range(self.config.n_workers)

    @property
    def clusters(self) -> range:
        return range(self.config.n_clusters)

    @property
    def regions(self) -> range:
        return range(self.config.n_regions)

    def workers_in_region(self, r: RegionId) -> list[WorkerId]:
        out: list[WorkerId] = []
        for c in self.clusters_in_region[r]:
            out.extend(self.workers_in_cluster[c])
        return out

    def region_of_worker(self, w: WorkerId) -> RegionId:
        return self.region_of[self.cluster_of[w]]

    def is_alive(self, w: WorkerId) -> bool:
        return w in self.alive

    def mark_dead(self, w: WorkerId):
        self.alive.discard(w)

    def mark_alive(self, w: WorkerId):
        if w in self.cluster_of:
            self.alive.add(w)

    def roles_held_by(self, w: WorkerId) -> list[tuple[int, int]]:
        """All (layer, scope_id) bindings currently held by worker w."""
        held = []
        for layer in range(LAYER_LEADER, self.config.num_layers + 1):
            for scope_id, holder in self.role_map.layer_map(layer).items():
                if holder == w:
                    held.append((layer, scope_id))
        return sorted(held)

    def scope_chain(self, c: ClusterId) -> tuple[ClusterId, RegionId, HubId, DomainId]:
        if c not in self.region_of:
            raise UnknownCluster(f"cluster {c}")
        r = self.region_of[c]
        h = self.hub_of[r]
        return c, r, h, self.domain_of[h]


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
    n_clusters = config.n_clusters
    n_regions = config.n_regions
    n_hubs = config.n_hubs

    cluster_of = {w: w // config.workers_per_cluster for w in range(n_workers)}
    region_of = {c: c // config.clusters_per_region for c in range(n_clusters)}
    hub_of = {r: r // config.regions_per_hub for r in range(n_regions)}
    domain_of = {h: h // config.hubs_per_domain for h in range(n_hubs)}

    wpc = config.workers_per_cluster
    workers_in_cluster = {
        c: tuple(range(c * wpc, (c + 1) * wpc)) for c in range(n_clusters)
    }
    cpr = config.clusters_per_region
    clusters_in_region = {
        r: tuple(range(r * cpr, (r + 1) * cpr)) for r in range(n_regions)
    }
    rph = config.regions_per_hub
    regions_in_hub = {
        h: tuple(range(h * rph, (h + 1) * rph)) for h in range(n_hubs)
    }
    hpd = config.hubs_per_domain
    hubs_in_domain = {
        d: tuple(range(d * hpd, (d + 1) * hpd)) for d in range(config.domains)
    }

    if adjacency is None:
        region_adjacency = grid_adjacency(n_regions)
    else:
        region_adjacency = _adjacency_from_edges(n_regions, adjacency)

    role_map = RoleMap(
        cluster_leader={c: workers_in_cluster[c][0] for c in range(n_clusters)},
    )
    if config.num_layers >= LAYER_REGIONAL_HUB:
        role_map.regional_hub = {
            r: workers_in_cluster[clusters_in_region[r][0]][0] for r in range(n_regions)
        }
    if config.num_layers >= LAYER_LOCAL_GLOBAL:
        role_map.local_global = {
            h: workers_in_cluster[clusters_in_region[regions_in_hub[h][0]][0]][0]
            for h in range(n_hubs)
        }
    if config.num_layers >= LAYER_GLOBAL:
        role_map.global_command = {
            d: workers_in_cluster[clusters_in_region[regions_in_hub[hubs_in_domain[d][0]][0]][0]][0]
            for d in range(config.domains)
        }

    rng = random.Random(derive_seed(seed, "energy"))
    energy = {w: round(rng.uniform(0.2, 1.0), 6) for w in range(n_workers)}

    return Topology(
        config=config,
        cluster_of=cluster_of,
        region_of=region_of,
        hub_of=hub_of,
        domain_of=domain_of,
        region_adjacency=region_adjacency,
        role_map=role_map,
        alive=set(range(n_workers)),
        energy=energy,
        workers_in_cluster=workers_in_cluster,
        clusters_in_region=clusters_in_region,
        regions_in_hub=regions_in_hub,
        hubs_in_domain=hubs_in_domain,
    )


def hierarchy_distance(topo: Topology, a: ClusterId, b: ClusterId) -> int:
    """Coordination distance between two clusters, 0..4.

    0 same cluster, 1 same region, 2 same hub, 3 same domain, 4 otherwise.
    """
    ca, ra, ha, da = topo.scope_chain(a)
    cb, rb, hb, db = topo.scope_chain(b)
    if ca == cb:
        return 0
    if ra == rb:
        return 1
    if ha == hb:
        return 2
    if da == db:
        return 3
    return 4


def goal_clusters_for_scope(topo: Topology, scope: tuple) -> set[ClusterId]:
    """Expand a scope selector into the set of clusters it covers.

    ``scope`` is ("cluster", id) | ("region", id) | ("hub", id) |
    ("domain", id) | ("global",) or ("global", None).
    """
    if not scope or scope[0] not in SCOPE_KINDS:
        raise UnknownScope(f"scope kind {scope!r}")
    kind = scope[0]
    if kind == "global":
        return set(topo.clusters)
    if len(scope) < 2 or scope[1] is None:
        raise UnknownScope(f"scope {kind} needs an id")
    sid = scope[1]
    if kind == "cluster":
        if sid not in topo.region_of:
            raise UnknownScope(f"cluster {sid}")
        return {sid}
    if kind == "region":
        if sid not in topo.clusters_in_region:
            raise UnknownScope(f"region {sid}")
        return set(topo.clusters_in_region[sid])
    if kind == "hub":
        if sid not in topo.regions_in_hub:
            raise UnknownScope(f"hub {sid}")
        out: set[ClusterId] = set()
        for r in topo.regions_in_hub[sid]:
            out.update(topo.clusters_in_region[r])
        return out
    # domain
    if sid not in topo.hubs_in_domain:
        raise UnknownScope(f"domain {sid}")
    out = set()
    for h in topo.hubs_in_domain[sid]:
        for r in topo.regions_in_hub[h]:
            out.update(topo.clusters_in_region[r])
    return out


def _candidates(topo: Topology, layer: int, scope_id: int) -> list[WorkerId]:
    """Alive candidates for a role: holders of the next layer down in scope.

    Layer 2 draws from all alive workers of the cluster since workers hold no
    bindings.
    """
    if layer == LAYER_LEADER:
        if scope_id not in topo.workers_in_cluster:
            raise UnknownScope(f"cluster {scope_id}")
        pool = topo.workers_in_cluster[scope_id]
    elif layer == LAYER_REGIONAL_HUB:
        if scope_id not in topo.clusters_in_region:
            raise UnknownScope(f"region {scope_id}")
        pool = [topo.role_map.cluster_leader[c]
                for c in topo.clusters_in_region[scope_id]
                if c in topo.role_map.cluster_leader]
    elif layer == LAYER_LOCAL_GLOBAL:
        if scope_id not in topo.regions_in_hub:
            raise UnknownScope(f"hub {scope_id}")
        pool = [topo.role_map.regional_hub[r]
                for r in topo.regions_in_hub[scope_id]
                if r in topo.role_map.regional_hub]
    elif layer == LAYER_GLOBAL:
        if scope_id not in topo.hubs_in_domain:
            raise UnknownScope(f"domain {scope_id}")
        pool = [topo.role_map.local_global[h]
                for h in topo.hubs_in_domain[scope_id]
                if h in topo.role_map.local_global]
    else:
        raise UnknownScope(f"role layer {layer}")
    return sorted(w for w in set(pool) if topo.is_alive(w))


def reelect_role(topo: Topology, layer: int, scope_id: int) -> RoleMap:
    """Re-elect the role at (layer, scope_id); lowest alive candidate id wins.

    Mutates and returns the role map.  Raises NoCandidate when the scope has
    no alive candidate; the binding is vacated in that case so routing sees
    the hole instead of a dead holder.
    """
    if layer > topo.config.num_layers:
        raise UnknownScope(f"layer {layer} not built (num_layers={topo.config.num_layers})")
    layer_map = topo.role_map.layer_map(layer)
    cands = _candidates(topo, layer, scope_id)
    if not cands:
        layer_map.pop(scope_id, None)
        raise NoCandidate(f"layer {layer} scope {scope_id}")
    layer_map[scope_id] = cands[0]
    return topo.role_map
