"""Seeded scenario generators for the benchmark workloads.

Every generator is a pure function of the workload seed: the same seed gives
byte-identical scenario files.  The seed picks origins, command times, scope
ids and kill/revive lists; the shape (sizes, counts, scope mix) is fixed per
workload so that the cost of a run barely depends on the seed and run-to-run
spread comes from the host, not from the inputs.  The scenario's own ``seed``
field is derived from the workload seed too.
"""

from __future__ import annotations

import hashlib
import json
import random


def _rng(seed: int, workload: str) -> random.Random:
    digest = hashlib.sha256(f"perfbench:{workload}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _scenario_seed(rng: random.Random) -> int:
    return rng.getrandbits(63)


# 10k workers, 1000 clusters, 100 regions, 10 hubs, 2 domains: deep enough
# that the apex exists and every tree layer routes.
_TREE_10K = {"num_layers": 5, "workers_per_cluster": 10, "clusters_per_region": 10,
             "regions_per_hub": 10, "hubs_per_domain": 5, "domains": 2}


# Corner regions of the 4 x 3 region grid that 12 regions get by default.
_FLOOD_CORNERS = (0, 3, 8, 11)


def adjacent_flood(seed: int) -> dict:
    """One global command flooded by the adjacent strategy, no failures.

    The origin is a cluster of a corner region, so every seed floods the
    grid across the same distance and the latency and cost depend on the
    seed only through jitter and the derived scenario seed.
    """
    rng = _rng(seed, "adjacent-flood")
    cpr = 4
    origin = rng.choice(_FLOOD_CORNERS) * cpr + rng.randrange(cpr)
    return {
        "topology": {"workers_per_cluster": 8, "clusters_per_region": cpr,
                     "regions_per_hub": 12},
        "strategy": "adjacent",
        "commands": [{"time": round(rng.uniform(0.5, 2.0), 3), "origin": origin,
                      "scope": {"kind": "global"}}],
        "seed": _scenario_seed(rng),
        "horizon": 60.0,
    }


# Fixed scope mix per tree-commands run; the seed picks only ids and times.
TREE_SCOPE_MIX = (("cluster", 30), ("region", 25), ("hub", 10), ("domain", 6),
                  ("global", 2))


def tree_commands(seed: int) -> dict:
    """Hierarchical routing of a fixed scope mix over 10k workers, no failures.

    Origins lie in domain 0 and scopes in domain 1 (or global), so every
    command climbs to the apex and fans down: the 2 * depth worst case of the
    hop bound, taken by every seed alike.
    """
    rng = _rng(seed, "tree-commands")
    in_domain1 = {"cluster": (500, 1000), "region": (50, 100), "hub": (5, 10),
                  "domain": (1, 2)}
    commands = []
    for kind, count in TREE_SCOPE_MIX:
        for _ in range(count):
            scope = {"kind": kind}
            if kind != "global":
                scope["id"] = rng.randrange(*in_domain1[kind])
            commands.append({"time": round(rng.uniform(0.5, 40.0), 3),
                             "origin": rng.randrange(500), "scope": scope})
    commands.sort(key=lambda c: c["time"])
    return {
        "topology": dict(_TREE_10K),
        "strategy": "hierarchical",
        "commands": commands,
        "seed": _scenario_seed(rng),
        "horizon": 60.0,
    }


def failure_churn(seed: int) -> dict:
    """Coordinator churn over 10k workers: kills, revivals, region kills, a jam."""
    rng = _rng(seed, "failure-churn")
    horizon = 150.0
    wpr = 100  # workers per region
    n_regions = 100
    failures = []
    killed = []
    for r in range(n_regions):
        members = list(range(r * wpr, (r + 1) * wpr))
        # initial coordinators (the K=5 lowest ids) go first, then 35 others
        victims = members[:5] + rng.sample(members[5:], 35)
        t = rng.uniform(2.0, 10.0)
        for w in victims:
            failures.append({"time": round(t, 3), "kind": "worker",
                             "action": "kill", "worker": w})
            killed.append((t, w))
            t += rng.uniform(0.5, 3.0)
    for t, w in rng.sample(killed, len(killed) // 2):
        failures.append({"time": round(t + rng.uniform(5.0, 40.0), 3),
                         "kind": "worker", "action": "revive", "worker": w})
    for r in rng.sample(range(n_regions), 3):
        failures.append({"time": round(rng.uniform(60.0, 100.0), 3),
                         "kind": "region", "action": "kill", "region": r})
    jam_at = round(rng.uniform(20.0, 40.0), 3)
    failures.append({"time": jam_at, "kind": "link", "action": "jam",
                     "link_class": "tree", "drop": 0.3})
    failures.append({"time": round(jam_at + 30.0, 3), "kind": "link",
                     "action": "clear", "link_class": "tree"})
    failures.sort(key=lambda f: f["time"])
    # Commands are spread evenly over time (one per slot, jittered) so that
    # every seed puts the same share of them inside the jam window; origins
    # lie in domain 0 and scopes in domain 1, as in tree-commands.
    n_commands = 400
    slot = (horizon - 20.0) / n_commands
    commands = []
    for i in range(n_commands):
        scope = ({"kind": "cluster", "id": rng.randrange(500, 1000)} if i % 2 == 0
                 else {"kind": "region", "id": rng.randrange(50, 100)})
        commands.append({"time": round(1.0 + (i + rng.random()) * slot, 3),
                         "origin": rng.randrange(500), "scope": scope})
    return {
        "topology": dict(_TREE_10K),
        "strategy": "hierarchical",
        "coordinator": {"round_period": 0.25},
        "commands": commands,
        "failures": failures,
        "seed": _scenario_seed(rng),
        "horizon": horizon,
    }


def sweep_base(seed: int) -> dict:
    """Small failure scenario that the strategy sweep reruns many times.

    Two commands cross the 4 x 3 region grid corner to corner before any
    failure; the seed picks their times and which workers fail and recover,
    and when, so every seed delivers the same way and churns maintenance.
    """
    rng = _rng(seed, "sweep-trials")
    failures = []
    for w in rng.sample(range(24), 2):
        t = rng.uniform(10.0, 14.0)
        failures.append({"time": round(t, 3), "kind": "worker", "action": "kill",
                         "worker": w})
        failures.append({"time": round(t + rng.uniform(2.0, 6.0), 3), "kind": "worker",
                         "action": "revive", "worker": w})
    failures.sort(key=lambda f: f["time"])
    commands = sorted(
        ({"time": round(rng.uniform(0.5, 2.0), 3), "origin": origin, "scope": scope}
         for origin, scope in ((0, {"kind": "cluster", "id": 11}),
                               (11, {"kind": "region", "id": 0}))),
        key=lambda c: c["time"])
    return {
        "topology": {"workers_per_cluster": 2, "clusters_per_region": 1,
                     "regions_per_hub": 12},
        "coordinator": {"K": 2, "T_min": 1},
        "commands": commands,
        "failures": failures,
        "seed": _scenario_seed(rng),
        "horizon": 20.0,
    }


STRATEGY_TRIALS = 250
K_TRIALS = 100000
# The K sweep checks a 3-sigma band, which a correct program misses with
# probability ~0.3% per row.  Its Monte-Carlo stream therefore uses this fixed
# seed instead of one derived from the workload seed, so the gate is a
# deterministic regression check and never a coin flip.
K_SWEEP_SEED = 20260214


def cli_calls(workload: str, scenario_path: str, out_dir: str) -> list[list[str]]:
    """The virtree CLI argument lists one measured repetition executes."""
    if workload != "sweep-trials":
        return [["run", "--scenario", scenario_path, "--out", out_dir]]
    return [
        ["sweep", "--scenario", scenario_path, "--param", "strategy",
         "--values", "adjacent,hierarchical", "--trials", str(STRATEGY_TRIALS),
         "--out", f"{out_dir}/strategy"],
        ["sweep", "--scenario", scenario_path, "--param", "K", "--values", "1,3,5",
         "--trials", str(K_TRIALS), "--seed", str(K_SWEEP_SEED),
         "--out", f"{out_dir}/K"],
    ]


GENERATORS = {
    "adjacent-flood": adjacent_flood,
    "tree-commands": tree_commands,
    "failure-churn": failure_churn,
    "sweep-trials": sweep_base,
}


def scenario_text(workload: str, seed: int) -> str:
    return json.dumps(GENERATORS[workload](seed), indent=1, sort_keys=True) + "\n"
