"""Immediate hierarchical dissemination over the virtual tree.

Tree nodes are (layer, scope) pairs: cluster leaders are the leaves, regional
hubs / local-global / global command holders are interior relays.  When the
topmost configured layer has more than one scope, a single apex node sits
above the top-layer holders (held by the holder of the lowest top scope), so
the tree always has one root and the worst leaf-to-leaf path is exactly
2 * (num_layers - 1) edges.

Leaves run the full duplicate/visited/executed bookkeeping; interior nodes
only route.  A copy that arrived from a child may travel up and fan down, a
copy that arrived from the parent only fans down, so copies move monotonically
and need no interior deduplication.  Up-forwarding stops at the lowest common
ancestor of the copy's remaining unexecuted goals by default; literal-root
mode pushes every copy to the root instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .adjacent import LeaderState, _local_delivery
from .messages import Message, unexecuted_goals
from .topology import (
    LAYER_LEADER,
    LAYER_REGIONAL_HUB,
    LAYER_LOCAL_GLOBAL,
    LAYER_GLOBAL,
    ClusterId,
    Topology,
    WorkerId,
)

Node = tuple[int, int]  # (layer, scope id); apex layer = num_layers + 1

MODE_LCA = "lca"
MODE_ROOT = "root"


@dataclass
class TreeLinks:
    """Static tree structure; holders resolve live from the role map."""

    topo: Topology
    num_layers: int
    apex: Node | None
    root: Node

    @classmethod
    def build(cls, topo: Topology) -> "TreeLinks":
        n = topo.config.num_layers
        top_scopes = cls._scope_count(topo, n)
        apex = (n + 1, 0) if top_scopes > 1 else None
        root = apex if apex else (n, 0)
        return cls(topo=topo, num_layers=n, apex=apex, root=root)

    @staticmethod
    def _scope_count(topo: Topology, layer: int) -> int:
        cfg = topo.config
        return {
            LAYER_LEADER: cfg.n_clusters,
            LAYER_REGIONAL_HUB: cfg.n_regions,
            LAYER_LOCAL_GLOBAL: cfg.n_hubs,
            LAYER_GLOBAL: cfg.domains,
        }[layer]

    def leaf(self, c: ClusterId) -> Node:
        return (LAYER_LEADER, c)

    def scope_at(self, c: ClusterId, layer: int) -> int:
        """Scope id of cluster c's ancestor at the given layer."""
        _, r, h, d = self.topo.scope_chain(c)
        return {LAYER_LEADER: c, LAYER_REGIONAL_HUB: r,
                LAYER_LOCAL_GLOBAL: h, LAYER_GLOBAL: d}[layer]

    def parent(self, node: Node) -> Node | None:
        layer, scope = node
        if node == self.root:
            return None
        if layer == self.num_layers:
            return self.apex
        if layer == LAYER_LEADER:
            up_scope = self.topo.region_of[scope]
        elif layer == LAYER_REGIONAL_HUB:
            up_scope = self.topo.hub_of[scope]
        else:
            up_scope = self.topo.domain_of[scope]
        return (layer + 1, up_scope)

    def covers(self, node: Node, c: ClusterId) -> bool:
        layer, scope = node
        if self.apex and node == self.apex:
            return True
        return self.scope_at(c, layer) == scope

    def child_toward(self, node: Node, c: ClusterId) -> Node:
        """The child branch of an interior node whose subtree holds cluster c."""
        layer, _ = node
        if self.apex and node == self.apex:
            return (self.num_layers, self.scope_at(c, self.num_layers))
        return (layer - 1, self.scope_at(c, layer - 1))

    def holder(self, node: Node) -> WorkerId | None:
        """Current worker bound to a node's role; None when vacant."""
        layer, scope = node
        if self.apex and node == self.apex:
            layer, scope = self.num_layers, 0
        return self.topo.role_map.layer_map(layer).get(scope)

    def holder_cluster(self, node: Node) -> int | None:
        w = self.holder(node)
        return None if w is None else self.topo.cluster_of[w]


@dataclass
class HierDecision:
    """Outcome of one immediate-mode receive at a leaf (cluster leader)."""

    outcome: str  # "drop" | "stop" | "forwarded"
    reason: str = ""
    message: Message | None = None
    delivered_workers: tuple[WorkerId, ...] = ()
    executed_here: bool = False
    forwards: tuple[tuple[Node, Message], ...] = ()


def _needs_up(links: TreeLinks, node: Node, remaining, mode: str) -> bool:
    if links.parent(node) is None:
        return False
    if mode == MODE_ROOT:
        return True
    # LCA pruning: climb only while some unexecuted goal lies outside
    # this node's subtree.
    return any(not links.covers(node, g) for g in remaining)


def leader_on_receive_immediate(state: LeaderState, m: Message, topo: Topology,
                                links: TreeLinks, mode: str = MODE_LCA,
                                injected: bool = False) -> HierDecision:
    """Immediate-routing receive at a leaf: dedup, visit, deliver, climb.

    Only the injection leaf climbs; a copy fanned down from the parent ends
    here, keeping traffic monotone up-then-down.  Forwarded copies carry
    hop_count + 1 and last_sent_cluster_id set to this cluster; forward_flag
    never turns on in this mode.
    """
    c = state.cluster_id
    if m.msg_id in state.processed_msgs:
        return HierDecision(outcome="drop", reason="processed")
    if c in m.visited_cluster_ids:
        state.processed_msgs.add(m.msg_id)
        return HierDecision(outcome="drop", reason="visited")
    state.processed_msgs.add(m.msg_id)

    m2 = m.copy(visited_cluster_ids=m.visited_cluster_ids | {c})
    delivered: tuple[WorkerId, ...] = ()
    executed_here = False
    if c in m2.goal_cluster_ids:
        delivered = _local_delivery(m2, c, topo)
        m2 = m2.copy(executed_cluster_ids=m2.executed_cluster_ids | {c})
        executed_here = True

    remaining = unexecuted_goals(m2)
    if not remaining:
        return HierDecision(outcome="stop", message=m2,
                            delivered_workers=delivered, executed_here=executed_here)

    node = links.leaf(c)
    forwards = []
    if injected and _needs_up(links, node, remaining, mode):
        up = m2.copy(hop_count=m2.hop_count + 1, last_sent_cluster_id=c)
        forwards.append((links.parent(node), up))
    return HierDecision(outcome="forwarded" if forwards else "stop", message=m2,
                        delivered_workers=delivered, executed_here=executed_here,
                        forwards=tuple(forwards))


def route_interior(node: Node, m: Message, arrived_from: Node, topo: Topology,
                   links: TreeLinks, mode: str = MODE_LCA) -> list[tuple[Node, Message]]:
    """Relay at an interior node (or the apex).

    Fans one copy down each child branch that still covers an unexecuted goal,
    skipping the branch the copy arrived from, and climbs toward the root when
    the mode asks for it.  Interior nodes leave the goal bookkeeping alone.
    """
    remaining = unexecuted_goals(m)
    if not remaining:
        return []
    from_child = arrived_from is not None and links.parent(arrived_from) == node
    sender_cluster = links.holder_cluster(node)
    if sender_cluster is None:
        return []

    out: list[tuple[Node, Message]] = []
    seen_branches: set[Node] = set()
    for g in sorted(remaining):
        if not links.covers(node, g):
            continue
        branch = links.child_toward(node, g)
        if branch in seen_branches:
            continue
        if from_child and branch == arrived_from:
            continue
        seen_branches.add(branch)
        down = m.copy(hop_count=m.hop_count + 1, last_sent_cluster_id=sender_cluster)
        out.append((branch, down))

    if from_child and _needs_up(links, node, remaining, mode):
        up = m.copy(hop_count=m.hop_count + 1, last_sent_cluster_id=sender_cluster)
        out.append((links.parent(node), up))
    return out
