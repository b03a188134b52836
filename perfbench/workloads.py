"""The three workloads: seeded inputs, the measured operations, output checks.

Each workload has four parts.  ``generate(seed)`` runs in the benchmark's
parent process and builds every input from the seed.  ``setup(inputs, root)`` and
``run(state, inputs, tracer_dir)`` run in a fresh worker process: set-up
comes before the timed phase, ``run`` is the timed phase and returns one
(output, seconds, error) per operation plus the peak RSS of the processes it
started, if any.  ``check(inputs, outputs, seed)`` runs
in the parent after the worker has exited and returns an (operation index,
message) pair per problem found.  Module-level imports are standard library only, so a
worker loads nothing beyond what it measures.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import reduce
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"

# Sequence definitions of the benchmark's own, for the independent checks.
SEQUENCES = {
    "fib": ((1, 1), (0, 1)),
    "lucas": ((1, 1), (2, 1)),
    "pow2": ((2,), (1,)),
    "pow3": ((3,), (1,)),
    "tribonacci": ((1, 1, 1), (0, 0, 1)),
}


def terms(coefficients, initial, count):
    """U_0 .. U_{count-1} by the recurrence, exact integers."""
    out = list(initial[:count])
    while len(out) < count:
        out.append(sum(c * out[-1 - i] for i, c in enumerate(coefficients)))
    return out


def worker_env(root):
    """Environment of every process the benchmark starts: the checkout's
    sources first on the path, one thread for any numeric library."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(root) / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _timed_ops(items, op):
    """Apply ``op`` to every item; one (output, seconds, error) per item."""
    results = []
    for item in items:
        start = time.perf_counter()
        try:
            output, error = op(item), None
        except Exception as exc:        # a failed op is counted, not fatal
            output, error = None, "%s: %s" % (type(exc).__name__, exc)
        results.append((output, time.perf_counter() - start, error))
    return results


# ---------------------------------------------------------------------------
# spectral-cold


ANCHORS = (
    ("tribonacci", (1, 1, 1), (0, 0, 1)),
    ("tetranacci", (1, 1, 1, 1), (0, 0, 0, 1)),
)


def _dominant_modulus(coefficients):
    import numpy

    return float(max(abs(numpy.roots([1] + [-c for c in coefficients]))))


def spectral_pool(order):
    """Generator pools of one order: (irreducible, reducible) coefficient
    tuples c_1..c_k.

    Every c_i is in 0..3, c_k >= 1 and gcd{i : c_i > 0} = 1, so the
    companion matrix is primitive and its Perron root strictly dominates
    every other root.  Irreducible members have a complex-conjugate root
    pair and a dominant root in [1.6, 2.0], the band where certification
    stops at the 512-bit rung like the anchors.  Reducible members have only
    factors of degree <= 2 (the exact path) and a dominant root in [1.3, 3.1].
    """
    import numpy
    from sympy import Poly, Symbol

    x = Symbol("X")
    irreducible, reducible = [], []
    for c in itertools.product(range(4), repeat=order):
        if c[-1] == 0 or reduce(math.gcd, [i + 1 for i, ci in enumerate(c) if ci]) != 1:
            continue
        poly = [1] + [-ci for ci in c]
        alpha = _dominant_modulus(c)
        degrees = [g.degree() for g, _ in Poly(poly, x).factor_list()[1]]
        if degrees == [order]:
            if 1.6 <= alpha <= 2.0 and numpy.iscomplex(numpy.roots(poly)).any():
                irreducible.append(c)
        elif max(degrees) <= 2 and 1.3 <= alpha <= 3.1:
            reducible.append(c)
    return irreducible, reducible


def _dominant_part_vanishes(coefficients, initial):
    """True when the initial terms lie in the span of the non-dominant
    factors, i.e. the dominant Binet coefficient would be zero."""
    from sympy import Poly, Symbol, div

    x = Symbol("X")
    poly = Poly([1] + [-c for c in coefficients], x)
    alpha = _dominant_modulus(coefficients)
    for factor, _ in poly.factor_list()[1]:
        values = [complex(r) for r in factor.nroots()]
        if any(abs(abs(v) - alpha) < 1e-9 and abs(v.imag) < 1e-9 for v in values):
            rest, _ = div(poly, factor)
            q = [int(v) for v in reversed(rest.all_coeffs())]   # low degree first
            seq = terms(coefficients, initial, len(coefficients) + len(q))
            w = [sum(q[j] * seq[n + j] for j in range(len(q)))
                 for n in range(factor.degree())]
            return not any(w)
    raise ValueError("no factor holds the dominant root")


def _draw_initial(rng, coefficients):
    while True:
        initial = tuple(rng.randint(0, 9) for _ in coefficients)
        if any(initial) and not _dominant_part_vanishes(coefficients, initial):
            return initial


def spectral_generate(seed):
    """The anchors, one drawn irreducible cubic twice (two initial vectors,
    so analyses share a characteristic polynomial), one drawn irreducible
    quartic, and two drawn reducible cubics and quartics."""
    rng = random.Random(seed)
    irr3, red3 = spectral_pool(3)
    irr4, red4 = spectral_pool(4)
    batch = [{"name": n, "coefficients": list(c), "initial_terms": list(i)}
             for n, c, i in ANCHORS]

    def add(name, coefficients):
        batch.append({"name": name, "coefficients": list(coefficients),
                      "initial_terms": list(_draw_initial(rng, coefficients))})

    cubic = rng.choice(irr3)
    add("irreducible-cubic-a", cubic)
    add("irreducible-cubic-b", cubic)
    add("irreducible-quartic", rng.choice(irr4))
    for index, c in enumerate(rng.sample(red3, 2)):
        add("reducible-cubic-%d" % index, c)
    for index, c in enumerate(rng.sample(red4, 2)):
        add("reducible-quartic-%d" % index, c)
    return {"recurrences": batch}


def spectral_setup(inputs, root):
    from recdiff import LinearRecurrence

    return [LinearRecurrence(r["name"], tuple(r["coefficients"]), tuple(r["initial_terms"]))
            for r in inputs["recurrences"]]


def spectral_run(sequences, inputs, tracer_dir):
    from recdiff import analyze_sequence

    def analyze(seq):
        analysis = analyze_sequence(seq)
        lo, hi = analysis.certificate.modulus_bounds()
        env = analysis.envelope
        return {"modulus": [str(lo), str(hi)], "c_lower": str(env.c_lower),
                "c_upper": str(env.c_upper), "n0": env.n0, "sigma": env.sigma,
                "verified_to": env.verified_to,
                "precision_bits": analysis.spectrum.precision_bits}

    return _timed_ops(sequences, analyze), None


def spectral_check(inputs, outputs, seed):
    """numpy's dominant modulus lies in the certified interval, and both
    envelope inequalities hold exactly, with Fraction bounds, at n0, at
    verified_to and at six seeded n up to twice verified_to."""
    rng = random.Random(seed)
    errors = []
    for index, (rec, out) in enumerate(zip(inputs["recurrences"], outputs)):
        if out is None:
            continue
        name, coefficients = rec["name"], rec["coefficients"]
        lo, hi = (Fraction(v) for v in out["modulus"])
        reference = _dominant_modulus(coefficients)
        if not float(lo) * (1 - 1e-9) <= reference <= float(hi) * (1 + 1e-9):
            errors.append((index, "%s: numpy dominant modulus %r outside [%s, %s]"
                           % (name, reference, float(lo), float(hi))))
        c_lower, c_upper = Fraction(out["c_lower"]), Fraction(out["c_upper"])
        n0, sigma, top = out["n0"], out["sigma"], out["verified_to"]
        picks = {n0, top} | {rng.randint(n0, 2 * top) for _ in range(6)}
        seq = terms(coefficients, rec["initial_terms"], max(picks) + 1)
        for n in sorted(picks):
            u = abs(seq[n])
            if not c_lower * hi ** n <= u:
                errors.append((index, "%s: lower envelope fails at n=%d" % (name, n)))
            if not u <= c_upper * (n ** sigma) * lo ** n:
                errors.append((index, "%s: upper envelope fails at n=%d" % (name, n)))
    return errors


# ---------------------------------------------------------------------------
# count-deep


COUNT_PAIRS = (("fib", "pow2"), ("tribonacci", "pow3"), ("lucas", "pow3"))
# pinned (u, v, x, T, S); S None where only T is pinned
COUNT_ANCHORS = (
    ("fib", "pow2", 10 ** 12, 2411, 2355),
    ("fib", "pow2", 10 ** 100, 160179, 159830),
    ("fib", "pow2", 10 ** 300, 1433695, None),
)
DRAWS_PER_PAIR = 6
EXPONENT_RANGE = (100, 300)


def _exact_power_of_ten(exponent):
    """10**exponent for a real exponent, rounded to 16 significant digits,
    as an exact integer."""
    whole = math.floor(exponent)
    mantissa = round(10 ** (exponent - whole + 15))
    return mantissa * 10 ** (whole - 15)


def count_generate(seed):
    """Pinned anchors, then per pair one log-uniform x in each of
    DRAWS_PER_PAIR equal strata of the exponent range (stratified, so the
    total work of a run varies little between seeds)."""
    rng = random.Random(seed)
    low, high = EXPONENT_RANGE
    width = (high - low) / DRAWS_PER_PAIR
    counts = [{"u": u, "v": v, "x": str(x), "T": t, "S": s}
              for u, v, x, t, s in COUNT_ANCHORS]
    for u, v in COUNT_PAIRS:
        for stratum in range(DRAWS_PER_PAIR):
            exponent = low + width * (stratum + rng.random())
            counts.append({"u": u, "v": v, "x": str(_exact_power_of_ten(exponent)),
                           "exponent": round(exponent, 6)})
    return {"counts": counts}


def count_setup(inputs, root):
    """Certified envelopes of every sequence used, computed before timing."""
    from recdiff import BUILTIN_SEQUENCES, analyze_sequence

    names = sorted({c[k] for c in inputs["counts"] for k in ("u", "v")})
    return {name: (BUILTIN_SEQUENCES[name], analyze_sequence(BUILTIN_SEQUENCES[name]).envelope)
            for name in names}


def count_run(state, inputs, tracer_dir):
    from recdiff import count_T_S

    def count(item):
        (seq_u, env_u), (seq_v, env_v) = state[item["u"]], state[item["v"]]
        result = count_T_S(seq_u, seq_v, int(item["x"]), env_u, env_v)
        return {"T": result.T, "S": result.S, "n_cut": result.n_cut, "m_cut": result.m_cut}

    return _timed_ops(inputs["counts"], count), None


_MODULUS = 2 ** 62 - 57       # prime; a Mersenne modulus would fold powers of two


def bisect_count(u_def, v_def, x, n_cap, m_cap):
    """Independent (T, S) over n <= n_cap, m <= m_cap.

    T is a sum of bisect widths over the sorted V terms.  S counts distinct
    values U_n - V_m: residues mod a 62-bit prime are deduplicated with numpy, and
    each residue shared by several pairs is resolved with exact integers.
    """
    import numpy

    u_terms = terms(*u_def, n_cap + 1)
    v_terms = sorted(terms(*v_def, m_cap + 1))
    v_res = numpy.array([v % _MODULUS for v in v_terms], dtype=numpy.int64)
    total, chunks, where = 0, [], []
    for n, u in enumerate(u_terms):
        left, right = bisect_left(v_terms, u - x), bisect_right(v_terms, u + x)
        if right > left:
            total += right - left
            chunks.append((u % _MODULUS - v_res[left:right]) % _MODULUS)
            where.append((n, left, right))
    if not chunks:
        return 0, 0
    residues = numpy.concatenate(chunks)
    unique, counts = numpy.unique(residues, return_counts=True)
    distinct = len(unique)
    shared = unique[counts > 1]
    if len(shared):
        starts = numpy.cumsum([0] + [len(c) for c in chunks[:-1]]).tolist()
        groups = {}
        for pos in numpy.nonzero(numpy.isin(residues, shared))[0].tolist():
            k = bisect_right(starts, pos) - 1
            n, left, _ = where[k]
            c = u_terms[n] - v_terms[left + pos - starts[k]]
            groups.setdefault(c % _MODULUS, set()).add(c)
        distinct += sum(len(values) - 1 for values in groups.values())
    return total, distinct


def count_check(inputs, outputs, seed):
    """Each (T, S) equals the bisect counter's over 3x the reported cutoffs
    (as ratio_table's oracle check scans), and the pinned anchors hold."""
    errors = []
    for index, (item, out) in enumerate(zip(inputs["counts"], outputs)):
        if out is None:
            continue
        label = "%s/%s at x=%.6e" % (item["u"], item["v"], int(item["x"]))
        if item.get("T") is not None and out["T"] != item["T"]:
            errors.append((index, "%s: T=%d, pinned %d" % (label, out["T"], item["T"])))
        if item.get("S") is not None and out["S"] != item["S"]:
            errors.append((index, "%s: S=%d, pinned %d" % (label, out["S"], item["S"])))
        expected = bisect_count(SEQUENCES[item["u"]], SEQUENCES[item["v"]], int(item["x"]),
                                3 * out["n_cut"], 3 * out["m_cut"])
        if (out["T"], out["S"]) != expected:
            errors.append((index, "%s: (T, S)=(%d, %d), bisect counter (%d, %d)"
                           % ((label, out["T"], out["S"]) + expected)))
    return errors


# ---------------------------------------------------------------------------
# cli-session


CLI_SCRIPT = (
    "analyze --seq-u fib --seq-v pow2",
    "analyze --seq-u tribonacci --seq-v pow3",
    "count --seq-u fib --seq-v pow2 --x 1e12 --collisions",
    "count --seq-u lucas --seq-v pow3 --x 1e12 --oracle",
    "collisions --seq-u fib --seq-v pow2 --x 1e9",
    "scan --seq-u fib --seq-v pow2 --x-grid 1e3,1e6,1e9,1e12 --output csv",
    "bounds --seq-u fib --seq-v pow2",
    "bounds --seq-u tribonacci --seq-v pow3",
    "matveev --t 3 --D 2 --B 100 --A 1 --A 1 --A 1",
    "independence --alpha phi --beta 2",
    "heights --alpha 2 --beta 3 --range 10",
    "problem1 --alpha pi --beta e --x 1000",
)


def cli_generate(seed):
    """A fixed script: the seed changes nothing here."""
    return {"commands": list(CLI_SCRIPT)}


def cli_setup(inputs, root):
    return root


def _golden_path(index, command):
    return GOLDEN / ("%02d-%s.txt" % (index, command.split()[0]))


def run_cli_job(root, command, span_file=None):
    """One CLI command in its own process.  Returns (exit code, stdout bytes,
    peak RSS in KiB).  With ``span_file`` the job runs under the tracer."""
    argv = command.split() + ["--no-header"]
    if span_file is None:
        cmd = [sys.executable, "-m", "recdiff.cli"] + argv
    else:
        cmd = [sys.executable, str(HERE / "cli_job.py"), str(span_file)] + argv
    proc = subprocess.Popen(cmd, cwd=root, env=worker_env(root),
                            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
    try:
        stdout = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout, usage.ru_maxrss


def cli_run(root, inputs, tracer_dir):
    peak = [0]

    def job(indexed):
        index, command = indexed
        spans = None if tracer_dir is None else Path(tracer_dir) / ("job-%02d.json" % index)
        code, stdout, rss = run_cli_job(root, command, spans)
        peak[0] = max(peak[0], rss)
        if code != 0:
            raise RuntimeError("exit code %d" % code)
        return {"stdout": stdout.decode("utf-8", "replace")}

    results = _timed_ops(list(enumerate(inputs["commands"])), job)
    return results, peak[0]


def cli_check(inputs, outputs, seed):
    """stdout equals the golden output byte for byte."""
    errors = []
    for index, (command, out) in enumerate(zip(inputs["commands"], outputs)):
        if out is None:
            continue
        golden = _golden_path(index, command)
        if not golden.is_file():
            errors.append((index, "%s: no golden output %s" % (command, golden.name)))
        elif golden.read_bytes() != out["stdout"].encode("utf-8"):
            errors.append((index, "%s: stdout differs from %s" % (command, golden.name)))
    return errors


def write_golden(root):
    """Capture the golden outputs of the CLI script from the checkout."""
    GOLDEN.mkdir(exist_ok=True)
    for index, command in enumerate(CLI_SCRIPT):
        code, stdout, _ = run_cli_job(root, command)
        if code != 0:
            raise SystemExit("%s exited %d" % (command, code))
        _golden_path(index, command).write_bytes(stdout)


WORKLOADS = {
    "spectral-cold": (spectral_generate, spectral_setup, spectral_run, spectral_check),
    "count-deep": (count_generate, count_setup, count_run, count_check),
    "cli-session": (cli_generate, cli_setup, cli_run, cli_check),
}


if __name__ == "__main__":
    if sys.argv[1:] == ["--write-golden"]:
        write_golden(HERE.parent)
    else:
        print(json.dumps(WORKLOADS[sys.argv[1]][0](int(sys.argv[2])), indent=1))
