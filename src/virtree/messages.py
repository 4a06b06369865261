"""Command message records.

Records are values: no code changes a ``Message`` once it is built, so one
record may stand for several copies in flight (a tree entry carries one
record to every node of a fan-down, a worker entry one record to every
worker of every sender), and a copy that changes anything is a new record
(``Message.copy``).  A leader builds its visited copy only to send it on
(``adjacent.visited_copy``).  The visited/executed sets of distinct copies
never merge back together, and a copy's set fields only ever grow.

A command's goal is one layer scope, and ids are row-major, so the goal
clusters are one contiguous ``range``; the executed set is always a subset of
it, which makes the count of goals left one subtraction.
"""

from __future__ import annotations

from dataclasses import dataclass

MsgId = tuple[int, int]  # (original source cluster, per-source sequence)


@dataclass
class Message:
    msg_id: MsgId
    goal_cluster_ids: range
    target_worker_ids: frozenset[int]
    visited_cluster_ids: frozenset[int]
    executed_cluster_ids: frozenset[int]
    hop_count: int
    last_sent_cluster_id: int
    forward_flag: bool

    def __post_init__(self):
        goals = self.goal_cluster_ids
        if not all(c in goals for c in self.executed_cluster_ids):
            raise ValueError("executed clusters must be a subset of goal clusters")
        if not self.executed_cluster_ids <= self.visited_cluster_ids:
            raise ValueError("executed clusters must be a subset of visited clusters")

    def copy(self, **changes) -> "Message":
        """A new record with changes applied, checked like any other."""
        return Message(**{**self.__dict__, **changes})


def new_command(origin_cluster: int, seq: int, goals: range,
                targets: set[int] | None = None) -> Message:
    """Fresh command at its origin: hop 0, nothing visited, flag down.
    The goals are trusted: a validated scope is never an empty range."""
    return Message(
        msg_id=(origin_cluster, seq),
        goal_cluster_ids=goals,
        target_worker_ids=frozenset(targets or ()),
        visited_cluster_ids=frozenset(),
        executed_cluster_ids=frozenset(),
        hop_count=0,
        last_sent_cluster_id=origin_cluster,
        forward_flag=False,
    )


def goals_left(m: Message) -> int:
    """How many goal clusters the copy has not executed yet."""
    return len(m.goal_cluster_ids) - len(m.executed_cluster_ids)


def msg_id_str(mid: MsgId) -> str:
    return f"{mid[0]}:{mid[1]}"
