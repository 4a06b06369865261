"""Deferred adjacent-region dissemination (worker-mediated forwarding).

Two cooperating receive paths:

* every worker applies three independent checks to each incoming copy:
  execute if personally targeted, report upward if its cluster has not seen
  the message and the copy was not just broadcast by its own leader, and
  rebroadcast to all reachable workers if the copy is flagged and came from
  its own leader;
* every cluster leader deduplicates, marks its cluster visited, delivers to
  goal targets, and defers its own worker broadcast by
  alpha * distance-to-nearest-unexecuted-goal + beta * local_load + U[0, eps)
  so that copies already heading toward the goal win the race.

Functions here are pure decision makers; the simulation kernel owns delivery,
scheduling and the deduplication that needs global state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .messages import Message, MsgId, goals_left
from .topology import SCOPE_LAYERS, Topology, WorkerId, ClusterId


@dataclass(frozen=True)
class DelayParams:
    """Coefficients of the deferred-forwarding delay.

    All must be >= 0, as ``scenario.validate_scenario`` checks.
    """

    alpha: float = 1.0
    beta: float = 0.1
    epsilon: float = 0.05


@dataclass
class LeaderState:
    """Per-cluster leader bookkeeping.

    Keyed by cluster, not by holder, so a re-elected leader inherits the
    processed set and per-message idempotence survives failover.  local_load
    is the number of broadcasts currently pending, the quantity the delay
    formula charges for.
    """

    cluster_id: ClusterId
    processed_msgs: set[MsgId] = field(default_factory=set)
    pending_broadcasts: set[MsgId] = field(default_factory=set)

    @property
    def local_load(self) -> int:
        return len(self.pending_broadcasts)


# Worker-side actions, returned in this order when several apply.
@dataclass(frozen=True)
class ExecuteLocally:
    worker: WorkerId


@dataclass(frozen=True)
class ReportToLeader:
    cluster: ClusterId


@dataclass(frozen=True)
class BroadcastToReachable:
    """Relay to ``reachable_workers(worker)``; the kernel builds that list only
    for a worker's first relay of a message, the one it does not suppress."""

    worker: WorkerId


def reachable_workers(w: WorkerId, topo: Topology) -> list[WorkerId]:
    """Alive workers in w's region and all adjacent regions, excluding w."""
    r = topo.region_of_worker(w)
    out = []
    for region in sorted((r, *topo.region_adjacency[r])):
        for peer in topo.workers_in_region(region):
            if peer != w and topo.is_alive(peer):
                out.append(peer)
    return sorted(out)


def worker_on_receive(w: WorkerId, m: Message, topo: Topology) -> list:
    """Apply the three worker checks to one received copy.

    The checks are independent; any subset may fire.  Execution is emitted on
    every targeted receipt and the kernel keeps it idempotent per worker.
    """
    cluster = topo.cluster_of[w]
    actions = []
    if w in m.target_worker_ids:
        actions.append(ExecuteLocally(w))
    if cluster not in m.visited_cluster_ids and m.last_sent_cluster_id != cluster:
        actions.append(ReportToLeader(cluster))
    if m.forward_flag and m.last_sent_cluster_id == cluster:
        actions.append(BroadcastToReachable(w))
    return actions


def min_goal_distance(topo: Topology, cluster: ClusterId, m: Message) -> int:
    """``hierarchy_distance`` from cluster to m's nearest unexecuted goal.

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
    """Outcome of one deferred-mode leader receive.

    outcome: "drop" | "stop" | "scheduled"
    message: the leader's updated copy (visited/executed extended); None on drop
    delivered_workers: workers handed the command locally (goal cluster only)
    """

    outcome: str
    reason: str = ""
    message: Message | None = None
    delivered_workers: tuple[WorkerId, ...] = ()
    executed_here: bool = False
    distance: int | None = None
    delay: float | None = None


def _local_delivery(m: Message, cluster: ClusterId, topo: Topology) -> tuple[WorkerId, ...]:
    members = topo.workers_in_cluster[cluster]
    if m.target_worker_ids:
        chosen = [w for w in members if w in m.target_worker_ids and topo.is_alive(w)]
    else:
        # cluster-level command: every alive member takes it
        chosen = [w for w in members if topo.is_alive(w)]
    return tuple(chosen)


def leader_visit(state: LeaderState, m: Message,
                 topo: Topology) -> tuple[str, Message | None, tuple[WorkerId, ...]]:
    """The receive prefix both leader paths share: dedup, visit, deliver.

    Returns (reason, None, ()) for a duplicate (already processed, or own
    cluster already in the copy's visited set).  Otherwise it returns ("",
    the copy with this cluster marked visited, and executed when it is a goal,
    the workers handed the command locally).
    """
    c = state.cluster_id
    if m.msg_id in state.processed_msgs:
        return "processed", None, ()
    state.processed_msgs.add(m.msg_id)
    if c in m.visited_cluster_ids:
        return "visited", None, ()
    executed, delivered = m.executed_cluster_ids, ()
    if c in m.goal_cluster_ids:
        executed = executed | {c}
        delivered = _local_delivery(m, c, topo)
    return "", m.copy(visited_cluster_ids=m.visited_cluster_ids | {c},
                      executed_cluster_ids=executed), delivered


def leader_on_receive_deferred(state: LeaderState, m: Message, topo: Topology,
                               params: DelayParams, rng: random.Random) -> LeaderDecision:
    """Deferred-routing receive at a cluster leader.

    After ``leader_visit``, either stops (no unexecuted goals left) or
    computes a deferred broadcast delay.  The caller schedules the broadcast
    and maintains pending_broadcasts.
    """
    reason, m2, delivered = leader_visit(state, m, topo)
    if m2 is None:
        return LeaderDecision(outcome="drop", reason=reason)
    executed_here = state.cluster_id in m2.goal_cluster_ids
    if not goals_left(m2):
        return LeaderDecision(outcome="stop", message=m2,
                              delivered_workers=delivered, executed_here=executed_here)

    dist = min_goal_distance(topo, state.cluster_id, m2)
    delay = compute_delay(params, dist, state.local_load, rng)
    return LeaderDecision(outcome="scheduled", message=m2,
                          delivered_workers=delivered, executed_here=executed_here,
                          distance=dist, delay=delay)


def worker_broadcast(state: LeaderState, m: Message) -> Message:
    """Build the flagged copy a leader hands to its own workers at fire time."""
    return m.copy(
        hop_count=m.hop_count + 1,
        last_sent_cluster_id=state.cluster_id,
        forward_flag=True,
    )
