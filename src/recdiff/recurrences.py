"""Integer linear recurrence sequences with exact arbitrary-precision evaluation.

A sequence of order k is given by coefficients c_1..c_k (c_k != 0) and
initial terms U_0..U_{k-1}; every later term is
U_{n+k} = c_1 U_{n+k-1} + ... + c_k U_n.  All arithmetic is exact integer
arithmetic; no floating point is used anywhere in this module.
"""

from __future__ import annotations

import functools
import json
import threading
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidRecurrence, MalformedConfig

CONFIG_FIELDS = ("name", "coefficients", "initial_terms")


@dataclass(frozen=True, eq=False)
class LinearRecurrence:
    """Immutable recurrence definition.  Term values are cached internally;
    the cache is lock-protected so sharing an instance across threads is safe.
    """

    name: str
    coefficients: tuple    # c_1 .. c_k
    initial_terms: tuple   # U_0 .. U_{k-1}
    _cache: list = field(default_factory=list, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def __post_init__(self):
        coeffs = tuple(self.coefficients)
        init = tuple(self.initial_terms)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "initial_terms", init)
        if len(coeffs) == 0:
            raise InvalidRecurrence("order k must be >= 1")
        if len(coeffs) != len(init):
            raise InvalidRecurrence(
                "need exactly k coefficients and k initial terms, got %d and %d"
                % (len(coeffs), len(init))
            )
        for v in coeffs + init:
            if not isinstance(v, int) or isinstance(v, bool):
                raise InvalidRecurrence("coefficients and initial terms must be integers")
        if coeffs[-1] == 0:
            raise InvalidRecurrence("trailing coefficient c_k must be nonzero")
        self._cache.extend(init)

    @property
    def order(self) -> int:
        return len(self.coefficients)

    def term(self, n: int) -> int:
        """Exact value of U_n (n >= 0)."""
        if n < 0:
            raise ValueError("negative indices are not defined")
        with self._lock:
            cache = self._cache
            k = self.order
            c = self.coefficients
            while len(cache) <= n:
                j = len(cache)
                cache.append(sum(c[i] * cache[j - 1 - i] for i in range(k)))
            return cache[n]

    def terms(self, stop: int) -> list:
        """[U_0, ..., U_{stop-1}], from one term(stop - 1) and one slice of
        the cache under the lock."""
        if stop < 0:
            raise ValueError("negative indices are not defined")
        if stop:
            self.term(stop - 1)
        with self._lock:
            return self._cache[:stop]

    def characteristic_polynomial(self) -> tuple:
        """Coefficients of X^k - c_1 X^{k-1} - ... - c_k, highest degree first."""
        return (1,) + tuple(-c for c in self.coefficients)

    def __repr__(self):
        return "LinearRecurrence(%r, coefficients=%r, initial_terms=%r)" % (
            self.name, self.coefficients, self.initial_terms)


@functools.lru_cache(maxsize=64)
def minimal_recurrence(seq: LinearRecurrence):
    """The least-order recurrence of seq's terms, by Berlekamp-Massey over Q
    on U_0..U_{2k-1}: ``seq`` itself when minimal, None for the zero
    sequence.  Its polynomial divides seq's, so c_L != 0, and its
    coefficients are integers by Fatou's lemma."""
    terms = seq.terms(2 * seq.order)
    conn, prev = [1] + [0] * len(terms), [1] + [0] * len(terms)   # x^0 first
    length, shift, last = 0, 1, 1
    for n in range(len(terms)):
        d = sum(conn[i] * terms[n - i] for i in range(length + 1))    # discrepancy
        if d:
            old, ratio = conn[:], Fraction(d) / last
            for i in range(len(terms) + 1 - shift):
                conn[i + shift] -= ratio * prev[i]
            if 2 * length <= n:
                length, prev, last, shift = n + 1 - length, old, d, 0
        shift += 1
    if length == 0:
        return None
    if length == seq.order:
        return seq
    coeffs = [-c for c in conn[1:length + 1]]
    assert all(c.denominator == 1 for c in coeffs), coeffs
    return LinearRecurrence(seq.name, tuple(int(c) for c in coeffs), tuple(terms[:length]))


def parse_sequence_config(document) -> LinearRecurrence:
    """Build a LinearRecurrence from a config document.

    Accepts a JSON string or an already-parsed mapping with exactly the keys
    name, coefficients (c_1 first), initial_terms.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise MalformedConfig("config is not valid JSON: %s" % exc) from exc
    if not isinstance(document, dict):
        raise MalformedConfig("config must be a key/value mapping")
    missing = [k for k in CONFIG_FIELDS if k not in document]
    extra = [k for k in document if k not in CONFIG_FIELDS]
    if missing:
        raise MalformedConfig("missing fields: %s" % ", ".join(missing))
    if extra:
        raise MalformedConfig("unknown fields: %s" % ", ".join(sorted(extra)))
    name = document["name"]
    if not isinstance(name, str):
        raise MalformedConfig("name must be a string")
    coeffs = document["coefficients"]
    init = document["initial_terms"]
    if not isinstance(coeffs, (list, tuple)) or not isinstance(init, (list, tuple)):
        raise MalformedConfig("coefficients and initial_terms must be arrays")
    return LinearRecurrence(name, tuple(coeffs), tuple(init))


def serialize_sequence_config(seq: LinearRecurrence) -> str:
    return json.dumps(
        {"name": seq.name,
         "coefficients": list(seq.coefficients),
         "initial_terms": list(seq.initial_terms)},
        sort_keys=True) + "\n"


def load_sequence(path_or_name: str) -> LinearRecurrence:
    """Resolve a CLI sequence argument: a built-in name or a config file path."""
    if path_or_name in BUILTIN_SEQUENCES:
        return BUILTIN_SEQUENCES[path_or_name]
    try:
        with open(path_or_name, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise MalformedConfig("cannot read sequence config %r: %s" % (path_or_name, exc)) from exc
    return parse_sequence_config(text)


BUILTIN_SEQUENCES = {
    "fib": LinearRecurrence("fib", (1, 1), (0, 1)),
    "lucas": LinearRecurrence("lucas", (1, 1), (2, 1)),
    "pow2": LinearRecurrence("pow2", (2,), (1,)),
    "pow3": LinearRecurrence("pow3", (3,), (1,)),
    "tribonacci": LinearRecurrence("tribonacci", (1, 1, 1), (0, 0, 1)),
}
