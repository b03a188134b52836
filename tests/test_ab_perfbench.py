"""The verdicts of scripts/ab_perfbench.py on hand-made paired samples."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "ab_perfbench.py"
_SPEC = importlib.util.spec_from_file_location("ab_perfbench", _PATH)
ab_perfbench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_perfbench)

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_nine_of_ten_pairs_won_with_a_wide_gap_is_a_gain():
    change = [p - 0.2 for p in PARENT]
    change[3] = PARENT[3] + 0.01                    # one pair lost
    v = ab_perfbench.verdicts(PARENT, change, "lower", 0.25)
    assert (v["wins"], v["pairs"], v["gain"], v["no_regression"]) == (9, 10, True, "yes")
    q1, q3 = v["parent_quartiles"]
    assert v["parent_median"] - v["change_median"] > q3 - q1


def test_eight_of_ten_pairs_won_is_no_gain():
    change = [p - 0.2 for p in PARENT]
    change[3] = change[6] = 1.5                     # two pairs lost
    v = ab_perfbench.verdicts(PARENT, change, "lower", 0.25)
    assert (v["wins"], v["gain"], v["no_regression"]) == (8, False, "yes")


def test_a_median_past_the_bound_is_a_regression():
    change = [p * 1.3 for p in PARENT]
    v = ab_perfbench.verdicts(PARENT, change, "lower", 0.25)
    assert (v["wins"], v["gain"], v["no_regression"]) == (0, False, "no")
    # for a metric where higher is better, the same samples are a gain
    v = ab_perfbench.verdicts(PARENT, change, "higher", 0.25)
    assert (v["wins"], v["gain"], v["no_regression"]) == (10, True, "yes")


@pytest.mark.parametrize("shift, verdict", [(0.01, "unresolved"), (-1.0, "yes")])
def test_a_spread_wider_than_the_bound_leaves_the_verdict_unresolved(shift, verdict):
    # the parent's inter-quartile distance (about 0.5) exceeds 10% of its
    # median (1.0): only a change whose every run beats every parent run is
    # resolved
    parent = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
    change = [p + shift if shift > 0 else 0.1 for p in parent]
    assert ab_perfbench.verdicts(parent, change, "lower", 0.1)["no_regression"] == verdict


_FAKE_RUN = """import json, sys
from pathlib import Path
with open(Path(__file__).resolve().parents[1] / "prefixes.txt", "a") as out:
    out.write("%s %s\\n" % (sys.pycache_prefix, sys.dont_write_bytecode))
print(json.dumps({"correct": True, "failed": 0, "metrics": {"wall_s": {"value": 1.0}}}))
"""


def test_each_side_reads_bytecode_from_its_own_fresh_prefix(tmp_path, capsys, monkeypatch):
    # no __pycache__ left in a checkout is read: each side gets one
    # temporary PYTHONPYCACHEPREFIX for all its runs, outside both checkouts,
    # with bytecode writing on and one run to fill it before the pairs, and
    # the prefix is gone once the pairs are done
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    checkouts = []
    for side in ("parent", "change"):
        root = tmp_path / side
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text(_FAKE_RUN)
        (root / "BENCHMARK.json").write_text(json.dumps({
            "run_seconds": 1,
            "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}))
        checkouts.append(root)
    assert ab_perfbench.main([str(c) for c in checkouts] +
                             ["--workload", "w", "--seeds", "1,5", "--pairs", "3"]) == 0
    assert "wall_s" in capsys.readouterr().out
    seen = [(c / "prefixes.txt").read_text().splitlines() for c in checkouts]
    assert [len(runs) for runs in seen] == [4, 4]
    assert [set(runs) for runs in seen] == [{runs[0]} for runs in seen]
    assert {runs[0].split()[1] for runs in seen} == {"False"}
    prefixes = [Path(runs[0].split()[0]) for runs in seen]
    assert prefixes[0] != prefixes[1]
    for prefix in prefixes:
        assert not prefix.exists()
        assert not any(c in prefix.parents for c in checkouts)


_LOGGING_RUN = """import json, os, sys
from pathlib import Path
root = Path(__file__).resolve().parents[1]
with open(os.environ["AB_TEST_LOG"], "a") as out:
    out.write("%s %s %s\\n" % (root, sys.pycache_prefix, sorted(p.name for p in root.iterdir())))
print(json.dumps({"correct": True, "failed": 0,
                  "metrics": {"wall_s": {"value": float((root / "wall.txt").read_text())}}}))
"""


def _checkout(root, wall):
    """A checkout whose benchmark logs each run and reports ``wall`` seconds."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(_LOGGING_RUN)
    (root / "wall.txt").write_text(str(wall))
    (root / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}))
    return root


def _runs(log):
    return [line.split(" ", 2) for line in log.read_text().splitlines()]


def test_the_session_alternates_from_the_warm_ups_on(tmp_path, monkeypatch):
    # the warm-ups run in the order opposite to the first pair's, so the
    # sides run as B A | A B | B A | A B: whichever side opens a pair has
    # just run
    log = tmp_path / "log.txt"
    monkeypatch.setenv("AB_TEST_LOG", str(log))
    parent, change = _checkout(tmp_path / "parent", 1.0), _checkout(tmp_path / "change", 0.5)
    assert ab_perfbench.main([str(parent), str(change), "--workload", "w", "--seeds", "1",
                              "--pairs", "4"]) == 0
    sides = [Path(root).name for root, _, _ in _runs(log)]
    assert sides == ["change", "parent"] + ["parent", "change", "change", "parent"] * 2


def test_aa_runs_a_checkout_against_a_copy_of_itself(tmp_path, monkeypatch, capsys):
    # the copy leaves out .git, bytecode and perfbench's output, gets its own
    # prefix, and is gone with the session; the split is printed per metric
    log = tmp_path / "log.txt"
    monkeypatch.setenv("AB_TEST_LOG", str(log))
    checkout = _checkout(tmp_path / "checkout", 1.0)
    for name in (".git", "__pycache__", ".perfbench"):
        (checkout / name).mkdir()
    assert ab_perfbench.main([str(checkout), "--aa", "--workload", "w", "--seeds", "1,5",
                              "--pairs", "3"]) == 0
    runs = _runs(log)
    roots = [Path(root) for root, _, _ in runs]
    copy = roots[0]
    assert roots == [copy, checkout, checkout, copy, copy, checkout, checkout, copy]
    assert copy != checkout and checkout not in copy.parents and not copy.exists()
    listing = {Path(root): names for root, _, names in runs}
    assert listing[copy] == "['BENCHMARK.json', 'perfbench', 'wall.txt']"
    assert listing[checkout] != listing[copy]
    assert len({prefix for _, prefix, _ in runs}) == 2
    out = capsys.readouterr().out
    assert "A/A split of the pairs won:\n  wall_s copy 0, checkout 0, tied 3" in out


@pytest.mark.parametrize("extra", [[], ["CHANGE", "--aa"]])
def test_aa_takes_one_checkout_and_a_comparison_two(extra, capsys):
    with pytest.raises(SystemExit):
        ab_perfbench.main(["PARENT"] + extra + ["--workload", "w", "--seeds", "1", "--pairs", "1"])
    assert "give CHANGE, or --aa without it" in capsys.readouterr().err
