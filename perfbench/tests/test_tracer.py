"""Tests of the benchmark's tracer and output checks.

Run from the root of the checkout: python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        ["p", 0.0, 10.0, -1, None],
        ["a", 1.0, 3.0, 0, None],
        ["b", 2.0, 5.0, 0, None],      # overlaps a: union [1, 5]
        ["c", 9.0, 12.0, 0, None],     # clipped to [9, 10]
        ["g", 1.5, 2.5, 1, None],      # grandchild: covered by a already
    ]
    selfs = tr.self_times(spans)
    assert selfs[0] == pytest.approx(10 - 4 - 1)
    assert selfs[1] == pytest.approx(2 - 1)
    assert selfs[4] == pytest.approx(1)


def test_nested_wrapped_calls_record_parents_and_layer_times():
    clock = FakeClock()
    tracer = tr.Tracer(clock=clock)

    def factor():
        clock.now += 3
        return [(1, 1)]

    factor = tracer.wrap("roots.factor", factor)

    def analyze():
        clock.now += 1
        factor()
        clock.now += 2
        return "ok"

    analyze = tracer.wrap("spectral.analyze", analyze)
    assert analyze() == "ok"
    assert [(s[tr.NAME], s[tr.PARENT]) for s in tracer.spans] == [
        ("spectral.analyze", -1), ("roots.factor", 0)]
    metrics = tr.layer_metrics(tracer.export())
    assert metrics["spectral.analyze_s"] == pytest.approx(6)
    assert metrics["spectral.analyze_self_s"] == pytest.approx(3)
    assert metrics["spectral.analyze_cache_hits"] == 0
    assert metrics["spectral.rung_success_ratio"] == 1.0


def test_exceptions_pass_through_unchanged_and_unwind_the_stack():
    clock = FakeClock()
    tracer = tr.Tracer(clock=clock)
    error = ValueError("boom")

    def fails():
        clock.now += 1
        raise error

    wrapped = tracer.wrap("spectral.analyze", fails)
    with pytest.raises(ValueError) as caught:
        wrapped()
    assert caught.value is error
    assert tracer.spans[0][tr.NOTE] == {"error": "ValueError"}
    assert tracer.spans[0][tr.END] == 1
    tracer.wrap("roots.factor", lambda: None)()
    assert tracer.spans[1][tr.PARENT] == -1


def test_install_rebinds_every_module_binding_and_uninstall_restores_them():
    import recdiff
    import recdiff.asymptotics
    import recdiff.cli
    import recdiff.counting
    import recdiff.spectral

    original = recdiff.spectral.analyze_sequence
    holders = [recdiff, recdiff.spectral, recdiff.counting, recdiff.asymptotics, recdiff.cli]
    assert all(m.analyze_sequence is original for m in holders)
    tracer = tr.Tracer()
    tracer.install()
    try:
        wrapped = recdiff.spectral.analyze_sequence
        assert wrapped is not original
        assert all(m.analyze_sequence is wrapped for m in holders)
        seq = recdiff.BUILTIN_SEQUENCES["pow2"]
        assert recdiff.counting.count_T_S(seq, recdiff.BUILTIN_SEQUENCES["fib"], 10).T > 0
    finally:
        tracer.uninstall()
    assert all(m.analyze_sequence is original for m in holders)
    assert tracer.missing == []
    names = {s[tr.NAME] for s in tracer.spans}
    assert {"counting.count", "recurrences.term"} <= names


def test_a_missing_boundary_is_reported_not_fatal():
    tracer = tr.Tracer()
    tracer.install(boundaries=(("roots.isolate", "recdiff._roots", "no_such_function", None),),
                   field_boundary=None)
    tracer.uninstall()
    assert tracer.missing == ["roots.isolate"]
    metrics = tr.layer_metrics(tracer.export())
    assert "roots.isolate_s" not in metrics
    assert "roots.isolate_refused" not in metrics
    assert "spectral.analyze_s" in metrics


def test_bisect_counter_matches_the_library_oracle():
    from recdiff import BUILTIN_SEQUENCES, brute_force_oracle

    oracle = brute_force_oracle(BUILTIN_SEQUENCES["lucas"], BUILTIN_SEQUENCES["pow3"],
                                10 ** 6, 60, 40)
    mine = workloads.bisect_count(workloads.SEQUENCES["lucas"], workloads.SEQUENCES["pow3"],
                                  10 ** 6, 60, 40)
    assert mine == (oracle.T, oracle.S)


def _count_round(T, S):
    inputs = {"counts": [{"u": "fib", "v": "pow2", "x": str(10 ** 12), "T": 2411, "S": 2355},
                         {"u": "lucas", "v": "pow3", "x": str(10 ** 6)}]}
    from recdiff import BUILTIN_SEQUENCES, count_T_S

    outputs = []
    for item in inputs["counts"]:
        r = count_T_S(BUILTIN_SEQUENCES[item["u"]], BUILTIN_SEQUENCES[item["v"]], int(item["x"]))
        outputs.append({"T": r.T, "S": r.S, "n_cut": r.n_cut, "m_cut": r.m_cut})
    outputs[1]["T"] += T
    outputs[1]["S"] += S
    report = {"outputs": outputs, "errors": [None, None], "wall_s": 1.0}
    return inputs, [{"report": report, "note": None}]


def test_a_wrong_T_is_flagged_as_a_failed_op():
    inputs, rounds = _count_round(T=1, S=0)
    attempted, failed, messages = run.evaluate("count-deep", inputs, 0, rounds)
    assert (attempted, failed) == (2, 1)
    assert "bisect counter" in messages[0]


def test_correct_counts_pass_the_check():
    inputs, rounds = _count_round(T=0, S=0)
    assert run.evaluate("count-deep", inputs, 0, rounds) == (2, 0, [])


def test_a_wrong_pinned_anchor_is_flagged():
    inputs, rounds = _count_round(T=0, S=0)
    rounds[0]["report"]["outputs"][0]["S"] -= 1
    _, failed, messages = run.evaluate("count-deep", inputs, 0, rounds)
    assert failed == 1      # one op, though the pin and the bisect counter both disagree
    assert len(messages) == 2 and "pinned" in messages[0]


def test_seeded_inputs_repeat_and_differ_between_seeds():
    assert workloads.count_generate(3) == workloads.count_generate(3)
    assert workloads.count_generate(3) != workloads.count_generate(4)
    spectral = workloads.spectral_generate(3)
    assert spectral == workloads.spectral_generate(3)
    names = [r["name"] for r in spectral["recurrences"]]
    assert names[:2] == ["tribonacci", "tetranacci"]
