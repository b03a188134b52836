import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recdiff.errors import InvalidRecurrence, MalformedConfig
from recdiff.recurrences import (
    BUILTIN_SEQUENCES,
    LinearRecurrence,
    minimal_recurrence,
    parse_sequence_config,
    serialize_sequence_config,
)
from test_bit_identity import BATCH, BATCH_5_7
from test_integration import _recurrences

FIB = BUILTIN_SEQUENCES["fib"]
POW2 = BUILTIN_SEQUENCES["pow2"]
N2N = LinearRecurrence("n2n", (4, -4), (0, 2))


def test_term_examples():
    assert FIB.term(10) == 55
    assert POW2.term(5) == 32
    assert N2N.term(4) == 64          # closed form n * 2^n


def test_initial_terms_returned_unchanged():
    assert [FIB.term(n) for n in range(2)] == [0, 1]
    assert LinearRecurrence("x", (1, 2, 3), (7, -8, 9)).term(1) == -8


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        FIB.term(-1)
    with pytest.raises(ValueError):
        FIB.terms(-1)


def test_terms_are_a_slice_of_the_sequence():
    seq = LinearRecurrence("x", (1, 2, 3), (7, -8, 9))
    assert seq.terms(0) == [] and seq.terms(2) == [7, -8]
    first = seq.terms(40)
    assert first == [seq.term(n) for n in range(40)]
    first.clear()                      # the caller's copy, not the cache
    assert seq.terms(41)[:40] == [seq.term(n) for n in range(40)]


def test_recurrence_identity_far_out():
    # U_n = sum c_i U_{n-i} exactly, spot-checked out to n = 10^4
    seq = BUILTIN_SEQUENCES["tribonacci"]
    seq.term(10 ** 4)
    for n in (3, 17, 123, 5000, 10 ** 4):
        assert seq.term(n) == sum(
            seq.coefficients[i] * seq.term(n - 1 - i) for i in range(seq.order))


@pytest.mark.parametrize("coeffs, init", [
    ((-3,), (5,)), ((-1, -1), (2, -7)), ((2, -5), (0, 1)), ((-1, 0, -2), (1, -1, 3)),
    ((1, -4, 0, -3), (0, 0, 0, 1)), ((-2, -2, -2, -2), (-9, 4, 0, 6))])
def test_terms_equal_stepping_the_recurrence(coeffs, init):
    # orders 1-4 with negative coefficients, against a window stepped by hand
    # from U_{n+k} = c_1 U_{n+k-1} + ... + c_k U_n
    seq, window, stepped = LinearRecurrence("neg", coeffs, init), list(init), list(init)
    while len(stepped) < 300:
        window = window[1:] + [sum(c * u for c, u in zip(coeffs, reversed(window)))]
        stepped.append(window[-1])
    assert [seq.term(n) for n in (299, 7, 0)] == [stepped[299], stepped[7], stepped[0]]
    assert seq.terms(300) == stepped


@settings(max_examples=100, deadline=None)
@given(
    coeffs=st.lists(st.integers(-6, 6), min_size=1, max_size=4),
    init=st.lists(st.integers(-50, 50), min_size=1, max_size=4),
    n=st.integers(0, 60),
)
def test_recurrence_identity_random(coeffs, init, n):
    k = min(len(coeffs), len(init))
    coeffs, init = coeffs[:k], init[:k]
    if coeffs[-1] == 0:
        coeffs[-1] = 1
    seq = LinearRecurrence("rand", tuple(coeffs), tuple(init))
    if n >= k:
        assert seq.term(n) == sum(coeffs[i] * seq.term(n - 1 - i) for i in range(k))


def test_parse_config():
    seq = parse_sequence_config('{"name": "fib", "coefficients": [1, 1], "initial_terms": [0, 1]}')
    assert seq.term(10) == 55
    seq2 = parse_sequence_config({"name": "pow2", "coefficients": [2], "initial_terms": [1]})
    assert seq2.term(5) == 32


def test_parse_config_rejects_bad_data():
    with pytest.raises(InvalidRecurrence):
        parse_sequence_config({"name": "bad", "coefficients": [1, 0], "initial_terms": [0, 1]})
    with pytest.raises(InvalidRecurrence):
        parse_sequence_config({"name": "bad", "coefficients": [], "initial_terms": []})
    with pytest.raises(InvalidRecurrence):
        parse_sequence_config({"name": "bad", "coefficients": [1, 1], "initial_terms": [0]})
    with pytest.raises(MalformedConfig):
        parse_sequence_config({"name": "x", "coefficients": [1]})
    with pytest.raises(MalformedConfig):
        parse_sequence_config({"name": "x", "coefficients": [1], "initial_terms": [1], "extra": 0})
    with pytest.raises(MalformedConfig):
        parse_sequence_config("not json at all {")
    with pytest.raises(MalformedConfig):
        parse_sequence_config([1, 2, 3])


def test_serialize_round_trip_idempotent():
    doc = serialize_sequence_config(FIB)
    seq = parse_sequence_config(doc)
    assert serialize_sequence_config(seq) == doc
    assert json.loads(doc) == {"name": "fib", "coefficients": [1, 1], "initial_terms": [0, 1]}


def test_concurrent_term_access():
    seq = LinearRecurrence("fib2", (1, 1), (0, 1))
    results = []

    def worker():
        results.append(seq.term(3000))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1
    assert results[0] == FIB.term(3000)


def test_non_integer_entries_rejected():
    with pytest.raises(InvalidRecurrence):
        parse_sequence_config({"name": "x", "coefficients": [1.5], "initial_terms": [1]})
    with pytest.raises(InvalidRecurrence):
        parse_sequence_config({"name": "x", "coefficients": [True], "initial_terms": [1]})


# the sequence of the SEED_PATH digest: (x - 3)(x^4 + 3x^2 + 1)
IMAG3 = ("imag3", (3, -3, 9, -1, 3), (0, 0, 0, 0, 1))


def test_minimal_recurrence_keeps_minimal_sequences():
    # so the analyses of the builtins and of the bit-identity digests are of
    # the presentations they name, on their own term caches
    seqs = list(BUILTIN_SEQUENCES.values())
    seqs += [LinearRecurrence(*spec) for spec in BATCH + BATCH_5_7 + [IMAG3]]
    for seq in seqs:
        assert minimal_recurrence(seq) is seq


@pytest.mark.parametrize("coeffs", [(1,), (-3,), (1, 1), (0, 4), (2, -1, 5), (1, 1, 1, 1),
                                    (0, 0, 0, -2)])
def test_minimal_recurrence_of_the_zero_sequence_is_none(coeffs):
    assert minimal_recurrence(LinearRecurrence("zero", coeffs, (0,) * len(coeffs))) is None


@pytest.mark.parametrize("coeffs,init,minimal", [
    ((5, -6), (1, 2), ((2,), (1,))),                 # (x - 2)(x - 3), 2^n
    ((4, -2, -3), (0, 1, 1), ((1, 1), (0, 1))),      # (x - 3)(x^2 - x - 1), Fibonacci
    ((6, -11, 6), (1, 2, 4), ((2,), (1,))),          # (x - 1)(x - 2)(x - 3), 2^n
    ((0, 4), (1, 2), ((2,), (1,))),                  # (x - 2)(x + 2), 2^n
    ((4, -4), (1, 2), ((2,), (1,))),                 # (x - 2)^2, 2^n
])
def test_minimal_recurrence_examples(coeffs, init, minimal):
    found = minimal_recurrence(LinearRecurrence("x", coeffs, init))
    assert (found.name, found.coefficients, found.initial_terms) == ("x", *minimal)


@settings(max_examples=200, deadline=None)
@given(seq=_recurrences())
def test_minimal_recurrence_generates_the_same_terms(seq):
    minimal, terms = minimal_recurrence(seq), seq.terms(3 * seq.order + 1)
    if minimal is None:
        assert not any(terms)
        return
    assert minimal.coefficients[-1] != 0 and minimal.order <= seq.order
    assert minimal.terms(3 * seq.order + 1) == terms
    assert minimal_recurrence(minimal) is minimal
