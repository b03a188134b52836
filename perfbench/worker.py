"""One measured worker process of the benchmark.

Reads a job (workload, inputs, checkout root, trace flag) as JSON on stdin,
imports the library from the checkout, runs the workload's set-up, prints
``READY`` (the parent times set-up up to that line), runs the timed phase
and prints one JSON result line.  With tracing on, the tracer is installed
only around the timed phase and the spans are written to the trace
directory after it.  The worker starts no thread.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _cpu_seconds():
    """User plus system CPU of this process and of its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main():
    job = json.loads(sys.stdin.read())
    root = job["root"]
    sys.path.insert(0, str(Path(root) / "src"))
    start = time.perf_counter()
    import recdiff.cli  # noqa: F401  (the whole library, as the CLI loads it)
    import_s = time.perf_counter() - start

    import workloads
    from tracer import Tracer, layer_metrics, merge

    _, setup, run, _ = workloads.WORKLOADS[job["workload"]]
    state = setup(job["inputs"], root)
    print("READY", flush=True)
    if job["setup_only"]:
        return

    trace_dir = job["trace_dir"]
    tracer = None
    if trace_dir is not None:
        tracer = Tracer()
        tracer.install()
    cpu0, wall0 = _cpu_seconds(), time.perf_counter()
    try:
        results, child_peak_kb = run(state, job["inputs"], trace_dir)
    finally:
        wall = time.perf_counter() - wall0
        cpu = _cpu_seconds() - cpu0
        if tracer is not None:
            tracer.uninstall()

    report = {
        "wall_s": wall,
        "cpu_s": cpu,
        "child_peak_kb": child_peak_kb,
        "outputs": [output for output, _, _ in results],
        "op_seconds": [seconds for _, seconds, _ in results],
        "errors": [error for _, _, error in results],
    }
    if tracer is not None:
        parts = [tracer.export()]
        parts += [json.loads(path.read_text())
                  for path in sorted(Path(trace_dir).glob("job-*.json"))]
        trace = merge(parts)
        with open(Path(trace_dir) / "trace.json", "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
        jobs_import = sum(part.get("import_s", 0.0) for part in parts[1:])
        metrics = layer_metrics(trace)
        metrics["cli.import_s"] = jobs_import if len(parts) > 1 else import_s
        report["layers"] = metrics
        report["missing"] = trace["missing"]
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
