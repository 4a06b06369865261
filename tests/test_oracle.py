import pytest

from virtree.oracle import check_trace
from virtree.scenario import CommandSpec, Scenario
from virtree.simkernel import run
from virtree.topology import HierarchyConfig, build_topology

CFG = HierarchyConfig(2, 2, 2, coordinator_k=2, t_min=1)  # 2 regions, 8 workers
COMMANDS = [CommandSpec(time=0.5, origin=0, scope=("global",),
                        targets=frozenset({1, 2, 6}))]
TWICE = "0:0: workers executed more than once: {}"
DISAGREE = "0:0: targeted executions disagree with BFS oracle (missing {}, unexpected [])"
CLUSTERS_TWICE = "0:0: clusters executed more than once: {}"
CLUSTERS_DISAGREE = ("0:0: executed clusters disagree with BFS oracle "
                     "(missing {}, unexpected [])")


def mismatches_after_edit(strategy, event, key, ids, drop, repeat):
    """Check a real run's trace with the ``event`` records of the given ids
    (their ``key`` field) removed or repeated; the run must execute ``ids``."""
    trace, _ = run(Scenario(config=CFG, seed=3, horizon=30.0, strategy=strategy,
                            commands=COMMANDS))
    execs = {rec.data[key]: rec for rec in trace if rec.event == event}
    assert sorted(execs) == ids
    for i in drop:
        trace.remove(execs[i])
    trace.extend(execs[i] for i in repeat)
    return check_trace(trace, build_topology(CFG, seed=3), strategy, COMMANDS)


@pytest.mark.parametrize("strategy", ["adjacent", "hierarchical"])
@pytest.mark.parametrize("drop, repeat, expected", [
    ((), (), []),
    ((2,), (), [DISAGREE.format([2])]),
    ((), (6,), [TWICE.format([6])]),
    ((1,), (6,), [TWICE.format([6]), DISAGREE.format([1])]),
])
def test_targeted_worker_mismatches(strategy, drop, repeat, expected):
    # execute_worker records (targeted only) removed or repeated: the oracle
    # names the missing and the repeated workers
    assert mismatches_after_edit(strategy, "execute_worker", "worker", [1, 2, 6],
                                 drop, repeat) == expected


@pytest.mark.parametrize("strategy", ["adjacent", "hierarchical"])
@pytest.mark.parametrize("drop, repeat, expected", [
    ((3,), (), [CLUSTERS_DISAGREE.format([3])]),
    ((), (1,), [CLUSTERS_TWICE.format([1])]),
    ((0,), (2, 1), [CLUSTERS_TWICE.format([1, 2]), CLUSTERS_DISAGREE.format([0])]),
])
def test_executed_cluster_mismatches(strategy, drop, repeat, expected):
    # execute_cluster records removed or repeated, the targeted executions
    # left as they are: only the cluster lines appear
    assert mismatches_after_edit(strategy, "execute_cluster", "cluster", [0, 1, 2, 3],
                                 drop, repeat) == expected
