"""Deferred adjacent-region dissemination (worker-mediated forwarding).

Two cooperating receive paths:

* every worker applies three independent checks to each incoming copy:
  execute if personally targeted, report upward if its cluster has not seen
  the message and the copy was not just broadcast by its own leader, and
  rebroadcast to all reachable workers if the copy is flagged and came from
  its own leader;
* the kernel deduplicates per cluster, so a cluster's leader receives each
  message once; it marks its cluster visited, delivers to goal targets, and
  defers its own worker broadcast by
  alpha * distance-to-nearest-unexecuted-goal + beta * load + U[0, eps)
  so that copies already heading toward the goal win the race.

Functions here are pure decision makers; the simulation kernel owns delivery,
scheduling and the per-cluster bookkeeping: the messages each cluster
processed and the broadcasts each leader has pending.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain

from .messages import Message, goals_left
from .topology import SCOPE_LAYERS, Topology, WorkerId, ClusterId


@dataclass(frozen=True)
class DelayParams:
    """Coefficients of the deferred-forwarding delay.

    All >= 0, with a finite largest delay, as ``scenario.validate_scenario`` checks.
    """

    alpha: float = 1.0
    beta: float = 0.1
    epsilon: float = 0.05


# Worker-side actions, returned in this order when several apply.
@dataclass(frozen=True)
class ExecuteLocally:
    worker: WorkerId


@dataclass(frozen=True)
class ReportToLeader:
    cluster: ClusterId


@dataclass(frozen=True)
class BroadcastToReachable:
    """Relay to ``reachable_workers(worker)``; the kernel builds those segments
    only for a worker's first relay of a message, the one it does not suppress."""

    worker: WorkerId


def reachable_workers(w: WorkerId, topo: Topology) -> list[tuple[str, list[WorkerId]]]:
    """Alive workers in w's region and all adjacent regions, excluding w, as
    (link class, ascending ids) segments in ascending id order, none empty.

    Ids are row-major, so every region and cluster is one id range: w's
    cluster less w is "cluster", the rest of its region "region" and each
    adjacent region "adjacent".
    """
    r = topo.region_of_worker(w)
    own, cluster = topo.workers_in_region(r), topo.workers_in_cluster(topo.cluster_of(w))
    own_parts = (("region", range(own.start, cluster.start)),
                 ("cluster", chain(range(cluster.start, w), range(w + 1, cluster.stop))),
                 ("region", range(cluster.stop, own.stop)))
    dead = topo.dead
    segments = []
    for region in sorted((r, *topo.region_adjacency[r])):
        parts = own_parts if region == r else (("adjacent", topo.workers_in_region(region)),)
        for cls, ids in parts:
            live = [w for w in ids if w not in dead]
            if live:
                segments.append((cls, live))
    return segments


def worker_on_receive(w: WorkerId, m: Message, topo: Topology) -> list:
    """Apply the three worker checks to one received copy.

    The checks are independent; any subset may fire.  Execution is emitted on
    every targeted receipt and the kernel keeps it idempotent per worker.
    """
    cluster = topo.cluster_of(w)
    actions = []
    if w in m.target_worker_ids:
        actions.append(ExecuteLocally(w))
    if cluster not in m.visited_cluster_ids and m.last_sent_cluster_id != cluster:
        actions.append(ReportToLeader(cluster))
    if m.forward_flag and m.last_sent_cluster_id == cluster:
        actions.append(BroadcastToReachable(w))
    return actions


def min_goal_distance(topo: Topology, cluster: ClusterId, m: Message) -> int:
    """Distance from cluster to m's nearest unexecuted goal: 0 in the same
    cluster, 1 region, 2 hub, 3 domain and 4 beyond.

    That is the lowest layer whose scope around cluster still holds an
    unexecuted goal; m must have one left.
    """
    goals, executed = m.goal_cluster_ids, m.executed_cluster_ids
    for distance, layer in enumerate(SCOPE_LAYERS.values()):
        under = topo.clusters_in(layer, topo.scope_of(cluster, layer))
        lo, hi = max(goals.start, under.start), min(goals.stop, under.stop)
        if hi - lo > sum(1 for c in executed if lo <= c < hi):
            return distance
    return len(SCOPE_LAYERS)


def compute_delay(params: DelayParams, distance: int, load: int,
                  rng: random.Random) -> float:
    """alpha*distance + beta*load + uniform jitter from [0, epsilon).

    Always consumes exactly one draw from rng so stream positions do not
    depend on the parameter values.
    """
    return params.alpha * distance + params.beta * load + rng.random() * params.epsilon


@dataclass
class LeaderDecision:
    """Outcome of one leader receive, either strategy.

    outcome: "drop" (the cluster is in the copy's visited set) | "stop" |
        "scheduled" (deferred) | "forwarded" (tree)
    message: the copy a deferred receive schedules for broadcast, its cluster
        marked visited, and executed when a goal (``visited_copy``); None
        otherwise, since no other outcome sends the leader's copy on
    delivered_workers: workers handed the command locally (goal cluster only)
    missed_workers: the dead workers it was meant for: its dead targets in the
        cluster, or every dead member when the command names no targets
    distance, delay: set by a deferred receive that schedules a broadcast
    forwards: (tree node, copy) pairs an immediate receive sends on
    """

    outcome: str
    message: Message | None = None
    delivered_workers: tuple[WorkerId, ...] = ()
    missed_workers: tuple[WorkerId, ...] = ()
    executed_here: bool = False
    distance: int | None = None
    delay: float | None = None
    forwards: tuple = ()


def _local_delivery(m: Message, cluster: ClusterId,
                    topo: Topology) -> tuple[tuple[WorkerId, ...], tuple[WorkerId, ...]]:
    """(alive, dead) workers of the cluster the command is meant for: its
    targets there, or every member for a cluster-level command."""
    members = topo.workers_in_cluster(cluster)
    if m.target_worker_ids:
        members = [w for w in members if w in m.target_worker_ids]
    elif topo.dead.isdisjoint(members):
        return tuple(members), ()
    alive, dead = [], []
    for w in members:
        (alive if topo.is_alive(w) else dead).append(w)
    return tuple(alive), tuple(dead)


def leader_visit(c: ClusterId, m: Message, topo: Topology) -> LeaderDecision:
    """The receive prefix both leader paths share at cluster c: visit, deliver.

    Returns a "drop" decision when c is already in the copy's visited set.
    Otherwise the outcome is "" for the caller to finish, and no copy is
    built: the caller builds the leader's copy (``visited_copy``) only to
    send it on.
    """
    if c in m.visited_cluster_ids:
        return LeaderDecision(outcome="drop")
    if c not in m.goal_cluster_ids:
        return LeaderDecision(outcome="")
    delivered, missed = _local_delivery(m, c, topo)
    return LeaderDecision(outcome="", executed_here=True, delivered_workers=delivered,
                          missed_workers=missed)


def visited_copy(m: Message, decision: LeaderDecision, c: ClusterId, **changes) -> Message:
    """The copy cluster c's leader sends on after ``leader_visit``: c marked
    visited, and executed when it is a goal, with changes applied."""
    executed = m.executed_cluster_ids
    if decision.executed_here:
        executed = executed | {c}
    return m.copy(visited_cluster_ids=m.visited_cluster_ids | {c},
                  executed_cluster_ids=executed, **changes)


def leader_on_receive_deferred(c: ClusterId, m: Message, topo: Topology,
                               params: DelayParams, load: int,
                               rng: random.Random) -> LeaderDecision:
    """Deferred-routing receive at cluster c's leader, which has load
    broadcasts pending.

    After ``leader_visit``, either stops (no unexecuted goals left) or
    computes a deferred broadcast delay.  The caller schedules the broadcast
    and keeps the pending ones.
    """
    decision = leader_visit(c, m, topo)
    if decision.outcome:
        return decision
    # c is not yet executed (not visited), so a goal here is one fewer left
    if goals_left(m) == decision.executed_here:
        decision.outcome = "stop"
        return decision
    decision.outcome = "scheduled"
    decision.message = visited_copy(m, decision, c)
    decision.distance = min_goal_distance(topo, c, decision.message)
    decision.delay = compute_delay(params, decision.distance, load, rng)
    return decision


def worker_broadcast(c: ClusterId, m: Message) -> Message:
    """Build the flagged copy cluster c's leader hands to its own workers at
    fire time."""
    return m.copy(
        hop_count=m.hop_count + 1,
        last_sent_cluster_id=c,
        forward_flag=True,
    )
