"""Command message records.

Copies are value-semantic: every forward or broadcast clones the record, and
the visited/executed sets of distinct copies never merge back together.  A
copy's set fields only ever grow.

A command's goal is one layer scope, and ids are row-major, so the goal
clusters are one contiguous ``range``; the executed set is always a subset of
it, which makes the count of goals left one subtraction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import EmptyGoalSet

MsgId = tuple[int, int]  # (original source cluster, per-source sequence)


@dataclass
class Message:
    msg_id: MsgId
    goal_cluster_ids: range
    target_worker_ids: frozenset[int]
    visited_cluster_ids: frozenset[int]
    executed_cluster_ids: frozenset[int]
    hop_count: int
    original_source: int
    last_sent_cluster_id: int
    forward_flag: bool
    payload: bytes = b""

    def __post_init__(self):
        goals = self.goal_cluster_ids
        if not all(c in goals for c in self.executed_cluster_ids):
            raise ValueError("executed clusters must be a subset of goal clusters")
        if not self.executed_cluster_ids <= self.visited_cluster_ids:
            raise ValueError("executed clusters must be a subset of visited clusters")

    def copy(self, **changes) -> "Message":
        return replace(self, **changes)


def new_command(origin_cluster: int, seq: int, goals: range,
                targets: set[int] | None = None, payload: bytes = b"") -> Message:
    """Fresh command at its origin: hop 0, nothing visited, flag down."""
    if not goals:
        raise EmptyGoalSet(f"command ({origin_cluster},{seq}) has no goal clusters")
    return Message(
        msg_id=(origin_cluster, seq),
        goal_cluster_ids=goals,
        target_worker_ids=frozenset(targets or ()),
        visited_cluster_ids=frozenset(),
        executed_cluster_ids=frozenset(),
        hop_count=0,
        original_source=origin_cluster,
        last_sent_cluster_id=origin_cluster,
        forward_flag=False,
        payload=payload,
    )


def goals_left(m: Message) -> int:
    """How many goal clusters the copy has not executed yet."""
    return len(m.goal_cluster_ids) - len(m.executed_cluster_ids)


def msg_id_str(mid: MsgId) -> str:
    return f"{mid[0]}:{mid[1]}"
