"""Exact algebra of integer polynomials: square-free split, factoring over Z
and real-root isolation, all in integer arithmetic.

Coefficients are highest degree first, as everywhere in recdiff; arithmetic
modulo a prime works on lists lowest degree first.

* ``square_free`` is Yun's square-free split over Q, with primitive gcds, so
  every division is exact in Z[x] (Gauss's lemma).
* ``factor_square_free`` is big-prime Berlekamp–Zassenhaus (von zur Gathen
  and Gerhard, *Modern Computer Algebra*, Algorithm 15.2).  The prime is the
  smallest Mersenne prime above 2 |lc| 2^n ||f||_2, the factor bound, that
  does not divide lc and keeps f mod p square-free.  Distinct-degree
  factoring by a Frobenius matrix, Cantor–Zassenhaus splitting with a seeded
  generator, and recombination of subsets of the modular factors by exact
  division.  There is no Hensel lifting and no primality test.
* ``real_root_intervals`` ports sympy 1.14's VAS continued-fraction isolation
  (Akritas, Strzebonski and Vigklas; ``dup_inner_isolate_real_roots``,
  ``dup_inner_refine_real_root``, ``dup_step_refine_real_root`` and the LMQ
  bounds, ``fast=False``) step by step, float ``log`` of the bound included,
  so its intervals are those of ``Poly.intervals(eps)``.  Its input, an
  irreducible polynomial of degree >= 3, has no rational root: sympy's
  steps for an exact root are left out.
* ``primitive``, ``strip``, ``negated`` and ``derivative`` are the helpers
  that the rest of the package shares; this module imports none of it.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from math import gcd

# exponents e of the Mersenne primes 2^e - 1 (OEIS A000043), far beyond any
# factor bound of a polynomial this library can analyse
_MERSENNE = (2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279, 2203, 2281,
             3217, 4253, 4423, 9689, 9941, 11213, 19937, 21701, 23209, 44497, 86243)


def primitive(f) -> tuple:
    """f over its content, leading coefficient made positive."""
    g = 0
    for c in f:
        g = gcd(g, c)
    if f[0] < 0:
        g = -g
    return tuple(c // g for c in f)


def derivative(f) -> list:
    n = len(f) - 1
    return [c * (n - i) for i, c in enumerate(f[:-1])]


def negated(f) -> tuple:
    """f(-x)."""
    n = len(f) - 1
    return tuple(-c if (n - i) % 2 else c for i, c in enumerate(f))


def strip(f) -> tuple:
    """f without its leading zeros."""
    i = 0
    while i < len(f) and f[i] == 0:
        i += 1
    return tuple(f[i:])


def _divide(f, g):
    """f / g in Z[x] when g divides f there, else None."""
    f, n = list(f), len(g) - 1
    q = []
    for i in range(len(f) - n):
        c, r = divmod(f[i], g[0])
        if r:
            return None
        q.append(c)
        for j in range(1, n + 1):
            f[i + j] -= c * g[j]
    return tuple(q) if not any(f[len(f) - n:]) else None


def _gcd(f, g) -> tuple:
    """The primitive gcd of f and g over Q, by primitive remainder sequences."""
    f, g = strip(f), strip(g)
    f, g = (primitive(f) if f else ()), (primitive(g) if g else ())
    while len(g) > 1:
        r = f
        while len(r) >= len(g):
            tail = g[1:] + (0,) * (len(r) - len(g))
            r = strip([g[0] * a - r[0] * b for a, b in zip(r[1:], tail)])
        f, g = g, (primitive(r) if r else ())
    return f if not g else (1,)


def square_free(f) -> list:
    """[(a_i, i)] with f = c * prod a_i^i: each a_i primitive, square-free,
    non-constant and prime to the others (Yun)."""
    f = primitive(strip(f))
    df = derivative(f)
    a = _gcd(f, df)
    b, c = _divide(f, a), _divide(df, a)
    out, i = [], 1
    while len(b) > 1:
        db = (0,) * (len(c) - len(b) + 1) + tuple(derivative(b))
        d = strip([x - y for x, y in zip((0,) * (len(db) - len(c)) + c, db)])
        a = _gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b, c = _divide(b, a), _divide(d, a)
        i += 1
    return out


# ---------------------------------------------------------------------------
# arithmetic modulo p, lowest degree first; divisors are monic


def _trim(a) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _divmod_p(a, f, p):
    """(quotient, remainder) of a by the monic f, mod p."""
    n = len(f) - 1
    r = list(a)
    q = [0] * max(len(r) - n, 0)
    for i in range(len(r) - 1, n - 1, -1):
        c = r[i] % p
        if c:
            q[i - n] = c
            for j in range(n):
                r[i - n + j] -= c * f[j]
    return _trim(q), _trim([c % p for c in r[:n]])


def _mul(a, b) -> list:
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return prod


def _mulmod(a, b, f, p):
    return _divmod_p(_mul(a, b), f, p)[1]


def _powmod(a, e, f, p):
    result = [1]
    while e:
        if e & 1:
            result = _mulmod(result, a, f, p)
        e >>= 1
        if e:
            a = _mulmod(a, a, f, p)
    return result


def _monic(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd_p(a, b, p):
    """The monic gcd of a and b mod p."""
    while b:
        b = _monic(b, p)
        a, b = b, _divmod_p(a, b, p)[1]
    return _monic(a, p) if a else a


def _frobenius(f, p):
    """h -> h^p mod f for h of degree < deg f, as the map sum h_j x^(jp)."""
    xp = _powmod([0, 1], p, f, p)
    rows = [[1]]
    for _ in range(len(f) - 2):
        rows.append(_mulmod(rows[-1], xp, f, p))

    def frob(h):
        acc = [0] * (len(f) - 1)
        for c, row in zip(h, rows):
            if c:
                for j, v in enumerate(row):
                    acc[j] += c * v
        return _trim([c % p for c in acc])

    return frob


def _split_equal_degree(g, d, frob, p, rng):
    """The monic irreducible factors of degree d of g mod p (Cantor–Zassenhaus):
    a^((p^d - 1)/2) = (a a^p ... a^(p^(d-1)))^((p - 1)/2), the powers of p by
    ``frob``, the Frobenius map of a multiple of g."""
    if len(g) - 1 == d:
        return [g]
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(g) - 1)])
        norm, conj = a, a
        for _ in range(d - 1):
            conj = _divmod_p(frob(conj), g, p)[1]
            norm = _mulmod(norm, conj, g, p)
        b = _powmod(norm, (p - 1) // 2, g, p)
        h = _gcd_p(_trim([((b[0] if b else 0) - 1) % p] + b[1:]), g, p)
        if 1 < len(h) < len(g):
            return (_split_equal_degree(h, d, frob, p, rng)
                    + _split_equal_degree(_divmod_p(g, h, p)[0], d, frob, p, rng))


def _modular_factors(f, p, rng):
    """The monic irreducible factors of the square-free monic f mod p."""
    frob = _frobenius(f, p)
    out, h, d = [], [0, 1], 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = frob(h)                                   # x^(p^d) mod the input f
        x_minus = _trim([(h[i] if i < len(h) else 0) - (i == 1) for i in range(max(len(h), 2))])
        g = _gcd_p(x_minus, f, p)
        if len(g) > 1:
            out += _split_equal_degree(g, d, frob, p, rng)
            f = _divmod_p(f, g, p)[0]
    return out + [f] if len(f) > 1 else out


def _symmetric(a, p) -> tuple:
    """Highest degree first, each coefficient in (-p/2, p/2]."""
    return tuple(c - p if c > p // 2 else c for c in reversed(a))


def factor_square_free(f) -> list:
    """The irreducible factors over Z of a primitive square-free f of degree
    >= 1 with lc > 0, each primitive with lc > 0."""
    n, lead = len(f) - 1, f[0]
    if n == 1:
        return [tuple(f)]
    bound = (lead * lead * sum(c * c for c in f)) << (2 * n + 2)   # (2 |lc| 2^n ||f||_2)^2
    for e in _MERSENNE:
        p = (1 << e) - 1
        if p * p <= bound or lead % p == 0:
            continue
        monic = _monic([c % p for c in reversed(f)], p)
        dmonic = _trim([i * c % p for i, c in enumerate(monic)][1:])
        if len(_gcd_p(monic, dmonic, p)) == 1:
            break
    else:
        raise ValueError("no prime in the table exceeds the factor bound")
    modular = _modular_factors(monic, p, random.Random(n))
    found, rest, s = [], tuple(f), 1
    while 2 * s <= len(modular):
        for subset in itertools.combinations(range(len(modular)), s):
            g = [rest[0] % p]
            for i in subset:
                g = [c % p for c in _mul(g, modular[i])]
            g = primitive(_symmetric(g, p))
            q = _divide(rest, g)
            if q is not None:
                found.append(g)
                rest = q
                modular = [h for i, h in enumerate(modular) if i not in subset]
                break
        else:
            s += 1
    return found + [rest]


# ---------------------------------------------------------------------------
# real-root isolation: sympy 1.14's VAS continued fractions, fast=False


def _sign_variations(f) -> int:
    k, prev = 0, 0
    for c in f:
        if c * prev < 0:
            k += 1
        if c:
            prev = c
    return k


def _shift(f, a) -> list:
    """f(x + a), by sympy's loop."""
    f, n = list(f), len(f) - 1
    for i in range(n, 0, -1):
        for j in range(i):
            f[j + 1] += a * f[j]
    return f


def _inverted(f) -> list:
    """(x + 1)^n f(1 / (x + 1))."""
    return _shift(f[::-1], 1)


def _upper_bound_exponent(f):
    """e of sympy's LMQ bound 2^e on the positive roots of f, or None."""
    n, t, exponents = len(f), [1] * len(f), []
    f = (f if f[0] >= 0 else [-c for c in f])[::-1]
    for i in range(n):
        if f[i] >= 0:
            continue
        a, candidates = int(math.log(-f[i], 2)), []
        for j in range(i + 1, n):
            if f[j] > 0:
                candidates.append([(t[j] + a - int(math.log(f[j], 2))) // (j - i), j])
        if candidates:
            q = min(candidates)
            t[q[1]] += 1
            exponents.append(q[0])
    return max(exponents) + 1 if exponents else None


def _lower_bound(f) -> int:
    """int of sympy's LMQ lower bound on the positive roots of f, 1 / 2^e."""
    e = _upper_bound_exponent(f[::-1])
    return 1 << -e if e is not None and e <= 0 else 0


def _step(f, m):
    """One refinement step of the positive root in the Mobius image m."""
    a, b, c, d = m
    shift = _lower_bound(f)
    if shift >= 1:
        f = _shift(f, shift)
        b, d = shift * a + b, shift * c + d
    f, g = _shift(f, 1), f
    if _sign_variations(f) == 1:
        return f, (a, a + b, c, c + d)
    return _inverted(g), (b, a + b, d, c + d)


def _refine(f, m, bits):
    """Step until |a/c - b/d| < 2^-bits, the stop test of sympy's refinement."""
    while not m[2]:
        f, m = _step(f, m)
    while abs(m[0] * m[3] - m[1] * m[2]) << bits >= m[2] * m[3]:
        f, m = _step(f, m)
    return m


def _positive_roots(f, bits) -> list:
    """Mobius images (a, b, c, d) of the positive roots, each (a/c, b/d)."""
    k = _sign_variations(f)
    if k <= 1:
        return [_refine(f, (1, 0, 0, 1), bits)] if k else []
    roots, stack = [], [(1, 0, 0, 1, f, k)]
    while stack:
        a, b, c, d, f, k = stack.pop()
        shift = _lower_bound(f)
        if shift >= 1:
            f = _shift(f, shift)
            b, d = shift * a + b, shift * c + d
            k = _sign_variations(f)
            if k <= 1:
                roots += [_refine(f, (a, b, c, d), bits)] if k else []
                continue
        f1 = _shift(f, 1)
        k1, f2 = _sign_variations(f1), None
        k2 = k - k1
        if k2 > 1:
            f2 = _inverted(f)
            k2 = _sign_variations(f2)
        halves = [((a, a + b, c, c + d), f1, k1), ((b, a + b, d, c + d), f2, k2)]
        if k1 < k2:
            halves.reverse()
        for m, g, kk in halves:
            if not kk:
                break
            g = _inverted(f) if g is None else g
            if kk == 1:
                roots.append(_refine(g, m, bits))
            else:
                stack.append(m + (g, kk))
    return roots


def real_root_intervals(f, bits) -> list:
    """Sorted isolating intervals (lo, hi) of the real roots of an
    irreducible f of degree >= 3 (``_roots.isolate_factor_roots`` solves
    lower degrees exactly), each narrower than 2^-bits: sympy 1.14's
    ``Poly(f).intervals(eps=2**-bits)``.  No Mobius image of f vanishes at
    0 or 1, since f has no rational root."""
    f = primitive(f)
    out = []
    for sign, g in ((-1, list(negated(f))), (1, list(f))):
        for a, b, c, d in _positive_roots(g, bits):
            lo, hi = sorted((sign * Fraction(a, c), sign * Fraction(b, d)))
            out.append((lo, hi))
    return sorted(out)
