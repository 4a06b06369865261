"""Virtual-tree hierarchy coordination: protocol library and simulator."""

from .adjacent import (
    DelayParams,
    compute_delay,
    leader_on_receive_deferred,
    reachable_workers,
    worker_broadcast,
    worker_on_receive,
)
from .coordinators import (
    candidate_metric,
    initial_roster,
    liveness_trials,
    monitor_round,
    predicted_liveness,
)
from .errors import (
    ConservationError,
    OracleMismatch,
    ScenarioInvalid,
    VirtreeError,
)
from .hierarchical import (
    MODE_LCA,
    MODE_ROOT,
    TreeLinks,
    leader_on_receive_immediate,
    route_interior,
)
from .messages import Message, goals_left, new_command
from .metrics import MetricsReport, TraceRecord, build_report, dump_trace
from .scenario import (
    CommandSpec,
    FailureSpec,
    Scenario,
    build_scenario,
    load_scenario_file,
    validate_scenario,
)
from .simkernel import run
from .topology import (
    HierarchyConfig,
    Topology,
    build_topology,
    derive_seed,
    goal_clusters_for_scope,
    grid_adjacency,
    reelect_role,
)

__version__ = "0.1.0"

__all__ = [
    "CommandSpec",
    "ConservationError",
    "DelayParams",
    "FailureSpec",
    "HierarchyConfig",
    "MODE_LCA",
    "MODE_ROOT",
    "Message",
    "MetricsReport",
    "OracleMismatch",
    "Scenario",
    "ScenarioInvalid",
    "Topology",
    "TraceRecord",
    "TreeLinks",
    "VirtreeError",
    "build_report",
    "build_scenario",
    "build_topology",
    "candidate_metric",
    "compute_delay",
    "derive_seed",
    "dump_trace",
    "goal_clusters_for_scope",
    "goals_left",
    "grid_adjacency",
    "initial_roster",
    "leader_on_receive_deferred",
    "leader_on_receive_immediate",
    "liveness_trials",
    "load_scenario_file",
    "monitor_round",
    "new_command",
    "predicted_liveness",
    "reachable_workers",
    "reelect_role",
    "route_interior",
    "run",
    "validate_scenario",
    "worker_broadcast",
    "worker_on_receive",
]
