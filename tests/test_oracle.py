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


@pytest.mark.parametrize("strategy", ["adjacent", "hierarchical"])
@pytest.mark.parametrize("drop, repeat, expected", [
    ((), (), []),
    ((2,), (), [DISAGREE.format([2])]),
    ((), (6,), [TWICE.format([6])]),
    ((1,), (6,), [TWICE.format([6]), DISAGREE.format([1])]),
])
def test_targeted_worker_mismatches(strategy, drop, repeat, expected):
    # a real run's trace with execute_worker records (targeted only) removed or
    # repeated: the oracle names the missing and the repeated workers
    trace, _ = run(Scenario(config=CFG, seed=3, horizon=30.0, strategy=strategy,
                            commands=COMMANDS))
    execs = {rec.data["worker"]: rec for rec in trace if rec.event == "execute_worker"}
    assert sorted(execs) == [1, 2, 6]
    for w in drop:
        trace.remove(execs[w])
    trace.extend(execs[w] for w in repeat)
    assert check_trace(trace, build_topology(CFG, seed=3), strategy, COMMANDS) == expected
