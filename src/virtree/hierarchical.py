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

A copy's goals are one contiguous cluster range, so the child branches a node
fans out to are the contiguous run of child scopes that range meets: routing
costs O(branches + executed), not O(goals).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .adjacent import LeaderState, leader_visit
from .messages import Message, goals_left
from .topology import LAYER_LEADER, ClusterId, Topology, WorkerId

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
        apex = (n + 1, 0) if topo.config.n_scopes(n) > 1 else None
        root = apex if apex else (n, 0)
        return cls(topo=topo, num_layers=n, apex=apex, root=root)

    def leaf(self, c: ClusterId) -> Node:
        return (LAYER_LEADER, c)

    def parent(self, node: Node) -> Node | None:
        layer, scope = node
        if node == self.root:
            return None
        if layer == self.num_layers:
            return self.apex
        first = self.topo.clusters_in(layer, scope).start
        return (layer + 1, self.topo.scope_of(first, layer + 1))

    def clusters_under(self, node: Node) -> range:
        """The clusters whose leaves lie in a node's subtree."""
        if node == self.apex:
            return self.topo.clusters
        return self.topo.clusters_in(*node)

    def covers(self, node: Node, c: ClusterId) -> bool:
        layer, scope = node
        if node == self.apex:
            return True
        return self.topo.scope_of(c, layer) == scope

    def child_toward(self, node: Node, c: ClusterId) -> Node:
        """The child branch of an interior node whose subtree holds cluster c.

        The apex sits at num_layers + 1, so one layer down is the top layer
        for it as for every other interior node.
        """
        layer = node[0] - 1
        return (layer, self.topo.scope_of(c, layer))

    def holder(self, node: Node) -> WorkerId | None:
        """Current worker bound to a node's role; None when vacant."""
        layer, scope = node
        if node == self.apex:
            layer, scope = self.num_layers, 0
        return self.topo.roles[layer].get(scope)

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


def leader_on_receive_immediate(state: LeaderState, m: Message, topo: Topology,
                                links: TreeLinks, injected: bool = False) -> HierDecision:
    """Immediate-routing receive at a leaf: dedup, visit, deliver, climb.

    Only the injection leaf climbs; a copy fanned down from the parent ends
    here, keeping traffic monotone up-then-down.  Every goal left lies outside
    the leaf, so both route modes climb from it.  Forwarded copies carry
    hop_count + 1 and last_sent_cluster_id set to this cluster; forward_flag
    never turns on in this mode.
    """
    c = state.cluster_id
    reason, m2, delivered = leader_visit(state, m, topo)
    if m2 is None:
        return HierDecision(outcome="drop", reason=reason)
    executed_here = c in m2.goal_cluster_ids
    if not goals_left(m2):
        return HierDecision(outcome="stop", message=m2,
                            delivered_workers=delivered, executed_here=executed_here)

    parent = links.parent(links.leaf(c))
    forwards = []
    if injected and parent is not None:
        up = m2.copy(hop_count=m2.hop_count + 1, last_sent_cluster_id=c)
        forwards.append((parent, up))
    return HierDecision(outcome="forwarded" if forwards else "stop", message=m2,
                        delivered_workers=delivered, executed_here=executed_here,
                        forwards=tuple(forwards))


def route_interior(node: Node, m: Message, arrived_from: Node, topo: Topology,
                   links: TreeLinks, mode: str = MODE_LCA) -> list[tuple[Node, Message]]:
    """Relay at an interior node (or the apex).

    Fans one copy down each child branch that still holds an unexecuted goal,
    in ascending order, skipping the branch the copy arrived from, and climbs
    toward the root when the mode asks for it.  Interior nodes leave the goal
    bookkeeping alone.
    """
    if not goals_left(m):
        return []
    from_child = arrived_from is not None and links.parent(arrived_from) == node
    sender_cluster = links.holder_cluster(node)
    if sender_cluster is None:
        return []

    goals, under = m.goal_cluster_ids, links.clusters_under(node)
    lo, hi = max(goals.start, under.start), min(goals.stop, under.stop)
    # executed goals in this subtree, per child branch
    done = Counter(links.child_toward(node, c) for c in m.executed_cluster_ids
                   if links.covers(node, c))
    out: list[tuple[Node, Message]] = []
    if lo < hi:
        layer, first = links.child_toward(node, lo)
        for scope in range(first, links.child_toward(node, hi - 1)[1] + 1):
            branch = (layer, scope)
            if from_child and branch == arrived_from:
                continue
            sub = topo.clusters_in(layer, scope)
            if done[branch] == min(hi, sub.stop) - max(lo, sub.start):
                continue  # every goal down this branch has executed
            down = m.copy(hop_count=m.hop_count + 1, last_sent_cluster_id=sender_cluster)
            out.append((branch, down))

    # LCA pruning: climb only while some unexecuted goal lies outside this
    # subtree; literal-root mode climbs all the way
    parent = links.parent(node)
    if from_child and parent is not None and (
            mode == MODE_ROOT or goals_left(m) > max(hi - lo, 0) - sum(done.values())):
        up = m.copy(hop_count=m.hop_count + 1, last_sent_cluster_id=sender_cluster)
        out.append((parent, up))
    return out
