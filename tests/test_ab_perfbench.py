"""The verdicts of scripts/ab_perfbench.py on hand-made paired samples."""

import importlib.util
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
