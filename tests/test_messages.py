import pytest

from virtree.errors import EmptyGoalSet
from virtree.messages import (
    Message,
    msg_id_str,
    new_command,
    goals_left,
)


class TestNewCommand:
    def test_fresh_command_fields(self):
        m = new_command(3, 0, goals=range(1, 3), targets=set(), payload=b"hi")
        assert m.msg_id == (3, 0)
        assert m.hop_count == 0
        assert m.visited_cluster_ids == frozenset()
        assert m.executed_cluster_ids == frozenset()
        assert m.forward_flag is False
        assert m.original_source == 3
        assert m.last_sent_cluster_id == 3
        assert m.target_worker_ids == frozenset()  # cluster-level policy executes

    def test_empty_goals_rejected(self):
        with pytest.raises(EmptyGoalSet):
            new_command(0, 0, goals=range(0))

    def test_same_origin_seq_same_identity(self):
        a = new_command(2, 7, goals=range(1, 2))
        b = new_command(2, 7, goals=range(5, 7))
        assert a.msg_id == b.msg_id
        assert msg_id_str(a.msg_id) == "2:7"


class TestUnexecutedGoals:
    def test_set_difference(self):
        m = new_command(0, 0, goals=range(1, 4))
        m = m.copy(visited_cluster_ids=frozenset({2}),
                   executed_cluster_ids=frozenset({2}))
        assert goals_left(m) == 2  # clusters 1 and 3

    def test_all_executed_means_empty(self):
        m = new_command(0, 0, goals=range(1, 3))
        m = m.copy(visited_cluster_ids=frozenset({1, 2}),
                   executed_cluster_ids=frozenset({1, 2}))
        assert goals_left(m) == 0

    def test_nothing_executed_returns_goals(self):
        m = new_command(0, 0, goals=range(4, 6))
        assert goals_left(m) == 2


class TestInvariants:
    def test_executed_must_be_goal_subset(self):
        with pytest.raises(ValueError):
            Message(msg_id=(0, 0), goal_cluster_ids=range(1, 2),
                    target_worker_ids=frozenset(), visited_cluster_ids=frozenset({2}),
                    executed_cluster_ids=frozenset({2}), hop_count=0,
                    original_source=0, last_sent_cluster_id=0, forward_flag=False)

    def test_executed_must_be_visited_subset(self):
        with pytest.raises(ValueError):
            Message(msg_id=(0, 0), goal_cluster_ids=range(1, 2),
                    target_worker_ids=frozenset(), visited_cluster_ids=frozenset(),
                    executed_cluster_ids=frozenset({1}), hop_count=0,
                    original_source=0, last_sent_cluster_id=0, forward_flag=False)

    def test_copy_touches_only_named_fields(self):
        m = new_command(1, 0, goals=range(1, 3), targets={9}, payload=b"\x00\x01")
        m2 = m.copy(hop_count=4, last_sent_cluster_id=2)
        assert m2.hop_count == 4
        assert m2.last_sent_cluster_id == 2
        assert m2.msg_id == m.msg_id
        assert m2.original_source == m.original_source
        assert m2.goal_cluster_ids == m.goal_cluster_ids
        assert m2.payload == m.payload
        assert m.hop_count == 0  # original untouched
