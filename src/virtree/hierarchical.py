"""Immediate hierarchical dissemination over the virtual tree.

Tree nodes are (layer, scope) pairs: cluster leaders are the leaves, regional
hubs / local-global / global command holders are interior relays.  When the
topmost configured layer has more than one scope, a single apex node sits
above the top-layer holders (held by the holder of the lowest top scope), so
the tree always has one root and the worst leaf-to-leaf path is exactly
2 * (num_layers - 1) edges.

Leaves run the visited/executed bookkeeping, each receiving a message once
(the kernel deduplicates per cluster); interior nodes only route.  A copy
that arrived from a child may travel up and fan down, a copy that arrived
from the parent only fans down, so copies move monotonically and need no
interior deduplication.  Up-forwarding stops at the lowest common ancestor
of the copy's remaining unexecuted goals by default; literal-root mode
pushes every copy to the root instead.

A copy's goals are one contiguous cluster range, so the child branches a node
fans out to are the contiguous run of child scopes that range meets: routing
costs O(branches + executed), not O(goals).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .adjacent import LeaderDecision, leader_visit, visited_copy
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


def leader_on_receive_immediate(c: ClusterId, m: Message, topo: Topology,
                                links: TreeLinks, injected: bool = False) -> LeaderDecision:
    """Immediate-routing receive at cluster c's leaf: visit, deliver, climb.

    Only the injection leaf climbs; a copy fanned down from the parent ends
    here, keeping traffic monotone up-then-down.  Every goal left lies outside
    the leaf, so both route modes climb from it.  The climbing copy, the
    only one a leaf builds, is the received one visited here
    (``visited_copy``) with hop_count + 1; forward_flag never turns on in
    this mode, and no tree copy sets last_sent_cluster_id, which only the
    adjacent strategy's workers read.
    """
    decision = leader_visit(c, m, topo)
    if decision.outcome:
        return decision
    # c is not yet executed (not visited), so a goal here is one fewer left
    if injected and goals_left(m) > decision.executed_here:
        parent = links.parent(links.leaf(c))
        if parent is not None:
            up = visited_copy(m, decision, c, hop_count=m.hop_count + 1)
            decision.forwards = ((parent, up),)
    decision.outcome = "forwarded" if decision.forwards else "stop"
    return decision


def route_interior(node: Node, m: Message, arrived_from: Node, topo: Topology,
                   links: TreeLinks, mode: str = MODE_LCA) -> list[tuple[Node, Message]]:
    """Relay at an interior node (or the apex).

    Fans one copy down each child branch that still holds an unexecuted goal,
    in ascending order, skipping the branch the copy arrived from, and climbs
    toward the root when the mode asks for it.  Interior nodes leave the goal
    bookkeeping alone and read no role binding: the kernel parks a copy at a
    vacant node before it routes.
    """
    if not goals_left(m):
        return []
    from_child = arrived_from is not None and links.parent(arrived_from) == node

    goals, under = m.goal_cluster_ids, links.clusters_under(node)
    lo, hi = max(goals.start, under.start), min(goals.stop, under.stop)
    # executed goals in this subtree, per child branch
    done = Counter(links.child_toward(node, c) for c in m.executed_cluster_ids
                   if links.covers(node, c))
    # one copy goes down every branch and up: no Message changes once built
    fwd = m.copy(hop_count=m.hop_count + 1)
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
            out.append((branch, fwd))

    # LCA pruning: climb only while some unexecuted goal lies outside this
    # subtree; literal-root mode climbs all the way
    parent = links.parent(node)
    if from_child and parent is not None and (
            mode == MODE_ROOT or goals_left(m) > max(hi - lo, 0) - sum(done.values())):
        out.append((parent, fwd))
    return out
