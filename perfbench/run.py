"""recdiff benchmark: one workload, measured end to end or layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and README.md): spectral-cold, count-deep,
cli-session.  Inputs come from the seed alone.  Each round runs the workload
once in a fresh single-threaded worker process; rounds run one after
another until the timed phases add up to ``--seconds``.  Extra set-up-only
workers bring the set-up samples to SETUP_SAMPLES.  Outputs are checked in
this process after each worker has exited.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from traced rounds (plus untraced ones for ``trace.overhead_s``).
The second-to-last stdout line is a JSON record of the generated inputs and
every sample; the last line is the result.  The exit code is 0 only when
every operation succeeded and every output passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 3
MAX_ROUNDS = 8
WORKER_TIMEOUT_S = 170
OUT_DIR = ROOT / ".perfbench"



def metric_units():
    """Metric name -> unit for the end-to-end and the per-layer metrics, as
    BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def run_worker(workload, inputs, setup_only=False, trace_dir=None):
    """Start one worker, time its set-up, wait for it and read its peak RSS.

    Returns (setup seconds, report or None, peak RSS in KiB, stderr note).
    """
    job = {"workload": workload, "inputs": inputs, "root": str(ROOT),
           "setup_only": setup_only,
           "trace_dir": None if trace_dir is None else str(trace_dir)}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT,
                            env=workloads.worker_env(ROOT), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, start_new_session=True)
    timer = _Deadline(proc, WORKER_TIMEOUT_S)
    try:
        proc.stdin.write(json.dumps(job).encode())
        proc.stdin.close()
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    except BaseException:           # interrupted: take the worker down too
        _kill_group(proc)
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    report = None
    if ready.strip() == b"READY" and proc.returncode == 0 and not setup_only:
        lines = rest.decode().strip().splitlines()
        report = json.loads(lines[-1]) if lines else None
    note = None if proc.returncode == 0 else "worker exit code %d" % proc.returncode
    return setup_s, report, usage.ru_maxrss, note


def _kill_group(proc):
    """Kill a worker and every process it started (its own session)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class _Deadline:
    """Kill a worker's whole process group if it outlives its deadline."""

    def __init__(self, proc, seconds):
        self.proc = proc
        self.previous = signal.signal(signal.SIGALRM, self._expire)
        signal.alarm(seconds)

    def _expire(self, signum, frame):
        _kill_group(self.proc)

    def cancel(self):
        signal.alarm(0)
        signal.signal(signal.SIGALRM, self.previous)


def measure(workload, inputs, seconds, traced):
    """Rounds until the timed phases add up to ``seconds`` (at least one)."""
    rounds = []
    timed = 0.0
    while not rounds or (timed < seconds and len(rounds) < MAX_ROUNDS):
        trace_dir = None
        if traced:
            trace_dir = OUT_DIR / workload / ("round-%d" % len(rounds))
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
        setup_s, report, rss_kb, note = run_worker(workload, inputs, trace_dir=trace_dir)
        rounds.append({"setup_s": setup_s, "report": report, "rss_kb": rss_kb,
                       "note": note})
        if report is None:
            break
        timed += report["wall_s"]
    return rounds


def evaluate(workload, inputs, seed, rounds):
    """Count attempted and failed operations; a failed op raised, exited
    nonzero or produced an output that fails the workload's check."""
    check = workloads.WORKLOADS[workload][3]
    expected = len(next(iter(inputs.values())))     # inputs hold one list: one item per op
    attempted, failed, messages, verdicts = 0, 0, [], {}
    for index, rnd in enumerate(rounds):
        attempted += expected
        report = rnd["report"]
        if report is None:
            failed += expected
            messages.append("round %d: %s" % (index, rnd["note"] or "no result"))
            continue
        bad = set()
        for op, error in enumerate(report["errors"]):
            if error is not None:
                bad.add(op)
                messages.append("round %d: %s" % (index, error))
        key = json.dumps(report["outputs"], sort_keys=True)
        if key not in verdicts:         # equal outputs get the same verdict
            verdicts[key] = check(inputs, report["outputs"], seed)
        for op, mismatch in verdicts[key]:
            bad.add(op)
            messages.append("round %d: %s" % (index, mismatch))
        failed += len(bad)
    return attempted, failed, messages


def summarize(done, setups, detail):
    """End-to-end metrics of the untraced rounds; samples go into ``detail``."""
    walls = [r["report"]["wall_s"] for r in done]
    ops = [s for r in done for s in r["report"]["op_seconds"]]
    rss = [max(r["rss_kb"], r["report"]["child_peak_kb"] or 0) / 1024 for r in done]
    detail.update(
        rounds=[{"wall_s": r["report"]["wall_s"], "cpu_s": r["report"]["cpu_s"],
                 "peak_rss_mb": m, "setup_s": r["setup_s"],
                 "op_seconds": r["report"]["op_seconds"]} for r, m in zip(done, rss)],
        wall_s_quartiles=quartiles(walls), wall_s_samples=len(walls),
        op_seconds_quartiles=quartiles(ops), op_seconds_samples=len(ops))
    detail["end_to_end"] = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(r["report"]["cpu_s"] for r in done),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss)}
    return detail["end_to_end"]


def layer_summary(reports, untraced_wall, detail):
    """Per-layer metrics: the median over traced rounds of each, plus
    ``trace.overhead_s``."""
    if not reports:
        return {}
    layers = {name: statistics.median(r["layers"][name] for r in reports)
              for name in reports[0]["layers"]}
    layers["trace.overhead_s"] = statistics.median(r["wall_s"] for r in reports) - untraced_wall
    detail["missing_boundaries"] = reports[0]["missing"]
    return layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark unwinds through run_worker, which kills its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "recdiff" / "__init__.py").is_file():
        print("no recdiff sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    end_to_end_units, layer_units = metric_units()
    inputs = workloads.WORKLOADS[args.workload][0](args.seed)
    # compile the library once so that no measured set-up pays for it
    subprocess.run([sys.executable, "-c", "import recdiff.cli"], cwd=ROOT,
                   env=workloads.worker_env(ROOT), check=True)

    plain = measure(args.workload, inputs, args.seconds, traced=False)
    traced = measure(args.workload, inputs, args.seconds, traced=True) if args.trace else []
    setups = [r["setup_s"] for r in plain + traced]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(args.workload, inputs, setup_only=True)[0])

    attempted, failed, messages = evaluate(args.workload, inputs, args.seed, plain + traced)
    detail = {"workload": args.workload, "seed": args.seed, "inputs": inputs,
              "setup_s": setups, "failures": messages}
    done = [r for r in plain if r["report"] is not None]
    metrics = {}
    if done:
        end_to_end = summarize(done, setups, detail)
        if args.trace:
            layers = layer_summary([r["report"] for r in traced if r["report"] is not None],
                                   end_to_end["wall_s"], detail)
            layers["ops_failed_frac"] = failed / attempted
            metrics = {k: {"value": layers[k], "unit": unit}
                       for k, unit in layer_units.items() if k in layers}
        else:
            metrics = {k: {"value": end_to_end[k], "unit": unit}
                       for k, unit in end_to_end_units.items()}
    correct = failed == 0 and bool(done)
    for message in messages:
        print("FAILED %s" % message, file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
