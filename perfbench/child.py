"""One measured repetition of a workload, in its own process.

Usage: python3 perfbench/child.py JOB.json RESULT.json

JOB holds the workload name, scenario path, output directory and two flags:
``check`` (run the output gates and read the model metrics afterwards) and
``traced`` (wrap every layer in spans, see layers.py).  The child imports
virtree from ``src/`` of the current directory, calls ``virtree.cli.main``
once per CLI call of the workload, and writes what it measured to RESULT.

The process exits with the first non-zero CLI exit code; an exception
escaping the CLI ends it with a traceback and exit code 1.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import layers  # noqa: E402
import outputs  # noqa: E402
import workloads  # noqa: E402


# Extra set-up-only CLI calls per repetition; set-up is short, so its
# median needs more samples than the full calls give.
SETUP_SAMPLES = 5


class SetupDone(Exception):
    """Stops a set-up-only CLI call at its first event."""


class SetupClock:
    """Marks the end of set-up: the first time the kernel finishes scheduling.

    Set-up is everything from the CLI call to the first event: argument
    parsing, scenario load and validation, topology and kernel construction
    and initial scheduling.  Absent kernel hook -> set-up is not measured.
    """

    TARGET = ("virtree.simkernel", "_Kernel.schedule_initial")

    def __init__(self):
        self.mark = None
        self.stop = False
        found = layers.resolve(*self.TARGET)
        self.present = found is not None
        if found:
            owner, name, fn = found
            clock = time.perf_counter

            def schedule_initial(*args, **kwargs):
                result = fn(*args, **kwargs)
                if self.mark is None:
                    self.mark = clock()
                if self.stop:
                    raise SetupDone
                return result
            setattr(owner, name, schedule_initial)

    def sample(self, call) -> float | None:
        """Time one set-up-only call of the CLI, stopped at the first event."""
        self.mark, self.stop = None, True
        t0 = time.perf_counter()
        try:
            call()
        except SetupDone:
            return self.mark - t0
        finally:
            self.stop = False
        return None


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    import virtree
    import virtree.cli

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(virtree.__file__).startswith(src + os.sep):
        print(f"virtree imported from {virtree.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload, out_dir = job["workload"], job["out"]
    tracer = None
    if job["traced"]:
        tracer = layers.Tracer()
        tracer.install()
    setup = SetupClock()
    calls = workloads.cli_calls(workload, job["scenario"], out_dir)

    wall = 0.0
    setup_samples = []
    for argv in calls:
        t0 = time.perf_counter()
        rc = virtree.cli.main(argv)
        t1 = time.perf_counter()
        if not setup_samples and setup.mark is not None:
            setup_samples.append(setup.mark - t0)
        wall += t1 - t0
        if rc != 0:
            return rc
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
    elif setup.present:
        for _ in range(SETUP_SAMPLES):
            s = setup.sample(lambda: virtree.cli.main(calls[0]))
            if s is not None:
                setup_samples.append(s)
    setup_s = statistics.median(setup_samples) if setup_samples else None

    hashes, counts = outputs.hashes_and_counts(workload, out_dir)
    result = {"wall_s": wall, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
              "hashes": hashes, "counts": counts}
    if job["check"]:
        result["failures"] = outputs.run_checks(workload, out_dir, job["scenario"])
        result["model"], result["model_bases"] = outputs.model_metrics(workload, out_dir)
    if tracer:
        result["tracer"] = {
            "stats": tracer.stats,
            "edges": [[p, c, v] for (p, c), v in sorted(tracer.edges.items())],
            "counters": tracer.counters,
            "absent": tracer.absent,
        }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
