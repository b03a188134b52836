import json

import pytest

from recdiff.cli import _parse_x_int, dispatch
from recdiff.counting import brute_force_oracle
from recdiff.recurrences import serialize_sequence_config, BUILTIN_SEQUENCES, LinearRecurrence


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_help_lists_subcommands(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    for name in ("analyze", "count", "scan", "collisions", "matveev",
                 "independence", "heights", "bounds", "problem1"):
        assert name in out


def test_count_fib_pow2(capsys):
    code, out, _ = run(capsys, "count", "--seq-u", "fib", "--seq-v", "pow2",
                       "--x", "10", "--no-header")
    assert code == 0
    data = json.loads(out)
    assert data["T"] == 35 and data["S"] == 18
    assert data["method"] == "fast"


def test_count_with_collisions_and_oracle(capsys):
    code, out, _ = run(capsys, "count", "--seq-u", "fib", "--seq-v", "pow2",
                       "--x", "0", "--collisions", "--no-header")
    data = json.loads(out)
    assert code == 0 and data["S"] == 1
    assert data["collisions"][0]["c"] == 0
    code, out, _ = run(capsys, "count", "--seq-u", "fib", "--seq-v", "pow2",
                       "--x", "10", "--oracle", "--no-header")
    data = json.loads(out)
    assert data["method"] == "oracle" and data["T"] == 35


def test_byte_identical_reports(capsys):
    _, a, _ = run(capsys, "count", "--seq-u", "fib", "--seq-v", "pow2",
                  "--x", "100", "--no-header")
    _, b, _ = run(capsys, "count", "--seq-u", "fib", "--seq-v", "pow2",
                  "--x", "100", "--no-header")
    assert a == b


def test_header_contains_timestamp(capsys):
    _, out, _ = run(capsys, "count", "--seq-u", "fib", "--seq-v", "pow2", "--x", "1")
    assert out.startswith("# recdiff count generated ")


def test_config_file_and_invalid_exit(tmp_path, capsys):
    path = tmp_path / "fib.cfg"
    path.write_text(serialize_sequence_config(BUILTIN_SEQUENCES["fib"]))
    code, out, _ = run(capsys, "count", "--seq-u", str(path), "--seq-v", "pow2",
                       "--x", "10", "--no-header")
    assert code == 0 and json.loads(out)["T"] == 35

    bad = tmp_path / "bad.cfg"
    bad.write_text('{"name": "bad", "coefficients": [1, 0], "initial_terms": [0, 1]}')
    code, _, err = run(capsys, "analyze", "--seq-u", str(bad))
    assert code == 4 and "invalid input" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "count", "--seq-u", "fib", "--nonsense")
    assert code == 1
    code, _, _ = run(capsys, "count", "--seq-u", "fib", "--seq-v", "pow2",
                     "--x", "-3")
    assert code == 4


@pytest.mark.parametrize("cap", ["--n-cap", "--m-cap"])
def test_caps_without_oracle_are_a_usage_error(capsys, cap):
    # the fast count has no caps; it used to ignore them and exit 0
    code, out, err = run(capsys, "count", "--seq-u", "fib", "--seq-v", "pow2",
                         "--x", "10", cap, "2", "--no-header")
    assert code == 1 and out == ""
    assert "--oracle" in err


def test_parse_x_int_is_exact():
    assert _parse_x_int("1e12") == 10 ** 12
    assert _parse_x_int("10000000000000000001") == 10 ** 19 + 1
    assert _parse_x_int("1e400") == 10 ** 400
    assert _parse_x_int("2.5e3") == 2500
    assert [_parse_x_int(t) for t in "1e3,1e6,1e9,1e12".split(",")] == \
        [10 ** 3, 10 ** 6, 10 ** 9, 10 ** 12]
    for bad in ("-3", "2.5", "1e-3", "", "abc", "inf", "nan", "1/0"):
        with pytest.raises(ValueError):
            _parse_x_int(bad)


def test_x_is_not_rounded_through_float(capsys):
    code, out, _ = run(capsys, "count", "--seq-u", "fib", "--seq-v", "pow2",
                       "--x", "10000000000000000001", "--no-header")
    assert code == 0 and json.loads(out)["x"] == 10000000000000000001


def test_non_integer_x_exits_invalid(capsys):
    for argv in (("count", "--seq-u", "fib", "--seq-v", "pow2", "--x", "2.5"),
                 ("collisions", "--seq-u", "fib", "--seq-v", "pow2", "--x", "1e-3"),
                 ("scan", "--seq-u", "fib", "--seq-v", "pow2", "--x-grid", "1e3,2.5")):
        code, _, err = run(capsys, *argv)
        assert code == 4 and "non-negative integer" in err


def test_analyze_report(capsys):
    code, out, _ = run(capsys, "analyze", "--seq-u", "fib", "--seq-v", "pow2",
                       "--no-header")
    assert code == 0
    data = json.loads(out)
    assert len(data["sequences"]) == 2
    fib = data["sequences"][0]
    assert fib["dominant"]["sigma"] == 0
    assert abs(float(fib["dominant"]["modulus"]) - 1.618033988749895) < 1e-10
    with_dom = data["sequences"][1]
    assert with_dom["envelope"]["n0"] == 0


def test_no_dominant_root_exit(tmp_path, capsys):
    cfg = tmp_path / "pm.cfg"
    cfg.write_text('{"name": "pm", "coefficients": [0, -1], "initial_terms": [0, 1]}')
    code, _, err = run(capsys, "analyze", "--seq-u", str(cfg))
    assert code == 4


@pytest.mark.parametrize("coeffs,init", [
    ((5, -6), (1, 2)),          # 2^n; exited 4, "vanishes identically"
    ((4, -2, -3), (0, 1, 1)),   # Fibonacci; exited 3 at the precision cap
    ((6, -11, 6), (1, 2, 4)),   # 2^n; exited 3
    ((0, 4), (1, 2)),           # 2^n; was refused as an alpha, -alpha tie
])
def test_non_minimal_presentations_analyse_and_count(tmp_path, capsys, coeffs, init):
    seq = LinearRecurrence("presented", coeffs, init)
    cfg = tmp_path / "presented.cfg"
    cfg.write_text(serialize_sequence_config(seq))
    code, out, _ = run(capsys, "analyze", "--seq-u", str(cfg), "--no-header")
    assert code == 0 and json.loads(out)["sequences"][0]["precision_bits"] == 256
    code, out, _ = run(capsys, "count", "--seq-u", str(cfg), "--seq-v", "pow3",
                       "--x", "1000000", "--no-header")
    data = json.loads(out)
    oracle = brute_force_oracle(seq, BUILTIN_SEQUENCES["pow3"], 10 ** 6,
                                3 * data["n_cut"] + 5, 3 * data["m_cut"] + 5)
    assert code == 0 and (data["T"], data["S"]) == (oracle.T, oracle.S)


def test_huge_discriminant_exits_quickly(tmp_path, capsys):
    # x^2 - 10^40 x - 1: its discriminant 10^80 + 4 is not factored, so the
    # analysis reaches the precision cap in well under a second
    import time

    cfg = tmp_path / "huge.cfg"
    cfg.write_text(serialize_sequence_config(LinearRecurrence("huge", (10 ** 40, 1), (0, 1))))
    start = time.perf_counter()
    code, _, err = run(capsys, "analyze", "--seq-u", str(cfg))
    assert code == 3 and "precision" in err
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("init", [(1, 3), (0, 0)], ids=("tie", "zero"))
def test_genuine_tie_and_zero_sequence_exit_invalid(tmp_path, capsys, init):
    cfg = tmp_path / "refused.cfg"
    cfg.write_text(serialize_sequence_config(LinearRecurrence("refused", (0, 4), init)))
    code, _, _ = run(capsys, "count", "--seq-u", str(cfg), "--seq-v", "pow3",
                     "--x", "1000000")
    assert code == 4


@pytest.mark.parametrize("coeffs", [(4, -8, 8), (2, 0, -4, 4)])
def test_a_real_root_tied_with_a_complex_pair_exits_invalid(tmp_path, capsys, coeffs):
    cfg = tmp_path / "tied.cfg"
    cfg.write_text(serialize_sequence_config(
        LinearRecurrence("tied", coeffs, (0,) * (len(coeffs) - 1) + (1,))))
    code, out, err = run(capsys, "analyze", "--seq-u", str(cfg))
    assert code == 4 and out == "" and "(equal exact modulus)" in err


def test_dependent_dominant_roots_exit_invalid(tmp_path, capsys):
    cfg = tmp_path / "pow4.cfg"
    cfg.write_text('{"name": "pow4", "coefficients": [4], "initial_terms": [1]}')
    code, _, err = run(capsys, "count", "--seq-u", "pow2", "--seq-v", str(cfg),
                       "--x", "1e6")
    assert code == 4 and "multiplicatively dependent" in err


def test_scan_csv(capsys):
    code, out, _ = run(capsys, "scan", "--seq-u", "fib", "--seq-v", "pow2",
                       "--x-grid", "1e3,1e6", "--output", "csv", "--no-header")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,T,S,main,T_ratio,S_ratio,grid,excess"
    first = lines[1].split(",")
    assert first[0] == "1000" and first[1] == "182" and first[2] == "156"


def test_scan_structured(capsys):
    code, out, _ = run(capsys, "scan", "--seq-u", "fib", "--seq-v", "pow2",
                       "--x-grid", "1e3", "--output", "structured", "--no-header")
    data = json.loads(out)
    assert data["rows"][0]["T"] == 182


def test_constants_past_the_float_range(tmp_path, capsys):
    # fib's recurrence from 10^400: analyze prints its constants from their
    # digits, scan counts with an empty grid column, count is as before and
    # bounds refuses, naming the constant
    path = tmp_path / "big.cfg"
    path.write_text(serialize_sequence_config(
        LinearRecurrence("big", (1, 1), (10 ** 400, 10 ** 400))))
    big = str(path)
    code, out, _ = run(capsys, "analyze", "--seq-u", big, "--no-header")
    env = json.loads(out)["sequences"][0]["envelope"]
    assert code == 0
    assert (env["c_lower"], env["c_upper"], env["a_prime"], env["alpha_prime"]) == \
        ("6.17430439933e+399", "1.00124674133e+400", "2.76663117487e+399", "1.27201964951")
    code, out, _ = run(capsys, "scan", "--seq-u", big, "--seq-v", "pow2",
                       "--x-grid", "1e500,1e600", "--no-header")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert code == 0 and [(r[1], r[2], r[6]) for r in rows] == \
        [("797294", "795633", ""), ("1910259", "1908265", "")]
    code, out, _ = run(capsys, "count", "--seq-u", big, "--seq-v", "pow2", "--x", "1e500",
                       "--no-header")
    data = json.loads(out)
    assert code == 0
    assert (data["T"], data["S"], data["n_cut"], data["m_cut"]) == (797294, 795633, 485, 1665)
    code, out, err = run(capsys, "bounds", "--seq-u", big, "--seq-v", "pow2", "--no-header")
    assert code == 4 and out == ""
    assert "envelope constant c_lower of 'big' is past the float range" in err


def test_matveev_subcommand(capsys):
    code, out, _ = run(capsys, "matveev", "--t", "3", "--D", "2", "--B", "100",
                       "--A", "1", "--A", "1", "--A", "1", "--no-header")
    assert code == 0
    value = float(json.loads(out)["log_lambda_lower_bound"])
    assert value == pytest.approx(-6.1006e15, rel=1e-4)
    # a NaN or infinite input would print "NaN" (not JSON) or "-inf"
    for b, a in (("nan", "1"), ("100", "inf")):
        code, out, _ = run(capsys, "matveev", "--t", "1", "--D", "2", "--B", b, "--A", a,
                           "--no-header")
        assert code == 4 and out == ""


def test_independence_subcommand(capsys):
    code, out, _ = run(capsys, "independence", "--alpha", "2", "--beta", "3",
                       "--no-header")
    assert code == 0 and json.loads(out)["status"] == "independent"
    code, out, _ = run(capsys, "independence", "--alpha", "phi", "--beta", "2",
                       "--no-header")
    assert json.loads(out)["status"] == "independent"
    code, out, _ = run(capsys, "independence", "--alpha", "2", "--beta", "8",
                       "--no-header")
    data = json.loads(out)
    assert data["status"] == "dependent" and (data["n"], data["m"]) == (3, 1)


def test_heights_subcommand(capsys):
    code, out, _ = run(capsys, "heights", "--alpha", "2", "--beta", "3",
                       "--range", "4", "--no-header")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# h(alpha) = 0.693147180560")
    assert "n,m,height,ratio" in lines
    data_rows = [l for l in lines if not l.startswith("#") and l[0].isdigit()]
    assert len(data_rows) == 16


def test_bounds_subcommand(capsys):
    code, out, _ = run(capsys, "bounds", "--seq-u", "fib", "--seq-v", "pow2",
                       "--no-header")
    assert code == 0
    for name in ("C5", "C11", "C18"):
        assert name in out
    assert '"n_max"' in out


def test_problem1_subcommand(capsys):
    code, out, _ = run(capsys, "problem1", "--x", "10", "--no-header")
    assert code == 0
    data = json.loads(out)
    assert data["T"] == 9 and data["precision_bits"] == 200
    code, _, _ = run(capsys, "problem1", "--alpha", "e", "--beta", "e", "--x", "1")
    assert code == 4


def test_problem1_counts_an_exact_rational_tie(capsys):
    # 1.1^1 - 2^0 = 0.1 exactly: no interval decides it, the exact check does
    code, out, _ = run(capsys, "problem1", "--alpha", "1.1", "--beta", "2", "--x", "0.1",
                       "--no-header")
    assert code == 0
    data = json.loads(out)
    assert data["pairs"] == [[0, 0], [1, 0], [7, 1]] and data["precision_bits"] == 200


def test_problem1_decides_the_bases_at_a_low_precision(capsys):
    code, out, _ = run(capsys, "problem1", "--alpha", "1.001", "--beta", "3", "--x", "0.5",
                       "--precision", "8", "--no-header")
    assert code == 0 and json.loads(out)["T"] == 406
    for alpha in ("1", "1/2"):
        code, out, err = run(capsys, "problem1", "--alpha", alpha, "--beta", "3", "--x", "0.5",
                             "--precision", "8")
        assert code == 4 and out == "" and "alpha must exceed 1" in err


@pytest.mark.parametrize("alpha, beta, x", [("2", "4", "1"), ("1.5", "2.25", "0.5")])
def test_problem1_refuses_dependent_bases(capsys, alpha, beta, x):
    code, out, err = run(capsys, "problem1", "--alpha", alpha, "--beta", beta, "--x", x)
    assert code == 4 and out == ""
    assert "alpha^2 = beta^1" in err


def test_error_exit_code_wiring(capsys, monkeypatch):
    from recdiff import counting
    from recdiff.errors import CutoffUnsafe, PrecisionExhausted

    def raise_cutoff(*a, **k):
        raise CutoffUnsafe("synthetic")

    monkeypatch.setattr(counting, "count_T_S", raise_cutoff)
    code, _, err = run(capsys, "count", "--seq-u", "fib", "--seq-v", "pow2", "--x", "1")
    assert code == 2 and "cutoff" in err

    def raise_precision(*a, **k):
        raise PrecisionExhausted("synthetic")

    monkeypatch.setattr(counting, "count_T_S", raise_precision)
    code, _, err = run(capsys, "count", "--seq-u", "fib", "--seq-v", "pow2", "--x", "1")
    assert code == 3 and "precision" in err


GOLDEN_COUNT_X10 = """{
  "S": 18,
  "T": 35,
  "gap_margin": 16,
  "m_cut": 6,
  "method": "fast",
  "n_cut": 10,
  "x": 10
}
"""


def test_golden_count_snapshot(capsys):
    # stable-ordered report format is part of the interface contract
    _, out, _ = run(capsys, "count", "--seq-u", "fib", "--seq-v", "pow2",
                    "--x", "10", "--no-header")
    assert out == GOLDEN_COUNT_X10


def test_module_entry_point():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "recdiff.cli", "matveev", "--t", "1", "--D", "1",
         "--B", "1", "--A", "0.16", "--no-header"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "log_lambda_lower_bound" in proc.stdout


_SYMPY_PROBE = """
import sys
from recdiff.cli import dispatch
code = dispatch(sys.argv[1:] + ["--no-header"])
print(code, sorted(m for m in sys.modules if m.startswith("sympy")))
"""


@pytest.mark.parametrize("argv, loads_sympy", [
    (["count", "--seq-u", "fib", "--seq-v", "pow2", "--x", "1e6"], False),
    (["analyze", "--seq-u", "tribonacci", "--seq-v", "pow3"], False),
    (["independence", "--alpha", "sqrt(%d)" % (10 ** 80 + 4), "--beta", "2"], False),
], ids=["degree-2-count", "degree-3-analyze", "huge-sqrt-independence"])
def test_sympy_is_loaded_only_for_degree_3(argv, loads_sympy):
    # a fresh process: this one has sympy loaded by other tests; a degree-3
    # analysis factors and isolates in integer code, and loads no sympy either,
    # nor does an independence test whose radicand has a cofactor past 2^32
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-c", _SYMPY_PROBE] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, modules = proc.stdout.splitlines()[-1].split(" ", 1)
    assert code == "0"
    assert (modules != "[]") == loads_sympy, modules
