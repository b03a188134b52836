import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recdiff.errors import InvalidRecurrence, MalformedConfig
from recdiff.recurrences import (
    BUILTIN_SEQUENCES,
    LinearRecurrence,
    parse_sequence_config,
    serialize_sequence_config,
)

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
