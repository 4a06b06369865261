import json

import pytest

from virtree.metrics import TraceRecord
from virtree.topology import HierarchyConfig, build_topology


@pytest.fixture
def topo32():
    # 2 workers/cluster, 4 clusters/region, 2 regions/hub, 2 hubs
    cfg = HierarchyConfig(workers_per_cluster=2, clusters_per_region=4,
                          regions_per_hub=2, hubs_per_domain=2, coordinator_k=5, t_min=3)
    return build_topology(cfg, seed=7)


@pytest.fixture
def two_domain_topo():
    cfg = HierarchyConfig(workers_per_cluster=2, clusters_per_region=2,
                          regions_per_hub=2, hubs_per_domain=2, domains=2,
                          coordinator_k=3, t_min=2)
    return build_topology(cfg, seed=7)


def region_crossings(report) -> int:
    """Worker receives whose sender sat in a different region, as ``run_end``
    counts them; the key is there once any worker has received."""
    return report.conservation["alg1_cross_region_receives"]


def parse_trace(text: str) -> list[TraceRecord]:
    """The records of a trace's JSONL text; blank lines are skipped."""
    return [TraceRecord.from_obj(json.loads(line))
            for line in text.splitlines() if line.strip()]
