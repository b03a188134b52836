"""The precision ladder's contract: one doubling schedule, the cap as the last
rung, and PrecisionExhausted carrying that rung in ``.bits``."""

import pytest

from recdiff.cli import dispatch
from recdiff.errors import PrecisionExhausted
from recdiff.heights import AlgebraicNumber, log_height
from recdiff.intervals import ladder
from recdiff.quadratic import quadratic_roots
from recdiff.recurrences import LinearRecurrence, serialize_sequence_config
from recdiff.spectral import analyze_sequence

# its own object, so no analysis cached by another test can answer for it
PROBE = LinearRecurrence("cap_probe", (1, 1), (4, 9))


def test_ladder_returns_first_decision_and_counts_false():
    tried = []

    def attempt(field):
        tried.append(field.prec)
        return False if field.prec >= 256 else None

    assert ladder(64, attempt, "never", cap=1024) is False
    assert tried == [64, 128, 256]


def test_ladder_tries_the_cap_last_and_reports_it():
    tried = []

    def attempt(field):
        tried.append(field.prec)

    with pytest.raises(PrecisionExhausted, match="undecided") as info:
        ladder(200, attempt, "undecided", cap=1000)
    assert tried == [200, 400, 800, 1000]
    assert info.value.bits == 1000


@pytest.mark.parametrize("start", [0, -8])
def test_ladder_refuses_a_start_below_one_bit(start):
    # doubling used to keep 0 at 0 and a negative start negative, forever
    tried = []
    with pytest.raises(ValueError, match="at least 1 bit"):
        ladder(start, tried.append, "never", cap=1024)
    assert tried == []


def test_cli_exits_4_on_a_precision_below_one_bit():
    assert dispatch(["problem1", "--x", "10", "--precision", "0", "--no-header"]) == 4
    assert dispatch(["problem1", "--x", "10", "--precision", "-8", "--no-header"]) == 4


def test_ladder_start_above_cap_runs_only_the_cap(monkeypatch):
    monkeypatch.setenv("RECDIFF_PRECISION_BITS", "64")
    tried = []
    with pytest.raises(PrecisionExhausted) as info:
        ladder(256, lambda field: tried.append(field.prec), "undecided")
    assert tried == [64] and info.value.bits == 64


def test_analysis_exhausts_at_a_low_cap(monkeypatch):
    monkeypatch.setenv("RECDIFF_PRECISION_BITS", "64")
    with pytest.raises(PrecisionExhausted) as info:
        analyze_sequence(PROBE)
    assert info.value.bits == 64


def test_narrow_height_exhausts_at_a_low_cap(monkeypatch):
    monkeypatch.setenv("RECDIFF_PRECISION_BITS", "64")
    phi = AlgebraicNumber.from_quadratic(quadratic_roots(1, -1, -1)[0], "phi")
    with pytest.raises(PrecisionExhausted) as info:
        log_height(phi, target_width=2.0 ** -80)
    assert info.value.bits == 64


def test_cli_exits_3_at_a_low_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RECDIFF_PRECISION_BITS", "64")
    cfg = tmp_path / "probe.cfg"
    cfg.write_text(serialize_sequence_config(PROBE))
    code = dispatch(["analyze", "--seq-u", str(cfg), "--no-header"])
    assert code == 3
    assert "precision exhausted" in capsys.readouterr().err
