"""Root isolation: certified boxes of real roots from the port of sympy's
real intervals and of non-real roots from mpmath seeds, checked against
sympy's real count and coarse complex rectangles; factoring and the real
intervals against sympy's own; one factoring per polynomial and bounded
caches.  sympy is the oracle of these tests only."""

import functools
import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import Poly, Rational, Symbol, im, re

from recdiff import _roots, spectral
from recdiff._zpoly import real_root_intervals
from recdiff.errors import NoDominantRoot, PrecisionExhausted, RootNotLargerThanOne
from recdiff.intervals import (
    IntervalField,
    contains_zero,
    interval_inf_fraction,
    interval_sup_fraction,
    intersect,
    is_disjoint,
    is_interior,
    is_subset,
    poly_eval_box,
    width_float,
)
from recdiff.recurrences import LinearRecurrence
from recdiff.spectral import analyze_sequence

X = Symbol("X")
TRIB = (1, -1, -1, -1)
TETRA = (1, -1, -1, -1, -1)


def kbonacci(k):
    """x^k - x^(k-1) - ... - 1, the characteristic polynomial of k-bonacci."""
    return (1,) + (-1,) * k


COMPLEX_PAIRS = [TRIB, TETRA,
                 (1, 0, 0, 0, -1, -1),     # x^5 - x - 1: two complex pairs
                 (1, 0, 0, -2),
                 (1, -3, 0, 0, -1),
                 kbonacci(5), kbonacci(8)]
ON_SPLIT_LINE = (1, 0, 3, 0, 1)      # x^4 + 3x^2 + 1: roots on Re = 0


@functools.lru_cache(maxsize=None)
def sympy_coarse_rectangles(coeffs):
    """sympy's coarse isolating rectangles of the non-real roots, as
    (re_lo, re_hi, im_lo, im_hi); the oracle of these tests only."""
    rects = []
    for (c1, c2), _ in Poly(list(coeffs), X).intervals(all=True)[1]:
        res = sorted(Fraction(str(re(c))) for c in (c1, c2))
        ims = sorted(Fraction(str(im(c))) for c in (c1, c2))
        rects.append((res[0], res[1], ims[0], ims[1]))
    return rects


def newton_step_lands_inside(coeffs, box, prec):
    """One interval Newton step N(box) = mid - f(mid) / f'(box) lies in box.
    The step runs at 2 prec bits: a box that Newton took down to the floor
    of prec is a few units in the last place wide, as wide as the rounding
    of a step at prec."""
    box = _roots._rect_box(IntervalField(2 * prec), endpoints(box))
    mid = box.midpoint_box()
    step = mid - poly_eval_box(coeffs, mid) / poly_eval_box(_roots._derivative(list(coeffs)), box)
    return is_subset(step.re, box.re) and is_subset(step.im, box.im)


def in_rectangle(box, rect):
    re_lo, re_hi, im_lo, im_hi = endpoints(box)
    return rect[0] <= re_lo and re_hi <= rect[1] and rect[2] <= im_lo and im_hi <= rect[3]


@pytest.mark.parametrize("coeffs,prec", [(c, p) for c in COMPLEX_PAIRS for p in (128, 256)]
                         + [(TRIB, 512), (TETRA, 512)])
def test_boxes_are_certified_and_match_sympy(coeffs, prec):
    # deg disjoint, conjugate-symmetric boxes, sympy's real count, the
    # non-real pairs in the (re, im) order of their upper roots, each box
    # mapped into itself by a Newton step, and one box per coarse rectangle
    roots = _roots.isolate_factor_roots(IntervalField(prec), coeffs)
    assert roots is not None and len(roots) == len(coeffs) - 1
    assert _roots.all_pairwise_disjoint(roots)
    boxes = [endpoints(r.box) for r in roots]
    assert sorted(conjugate_endpoints(r.box) for r in roots) == sorted(boxes)
    real = [r for r in roots if r.is_real]
    assert len(real) == Poly(list(coeffs), X).count_roots()
    non_real = roots[len(real):]
    assert not any(r.is_real for r in non_real)
    lower, upper = non_real[0::2], non_real[1::2]
    assert [endpoints(r.box) for r in lower] == [conjugate_endpoints(r.box) for r in upper]
    centres = [(float(r.box.re.mid), float(r.box.im.mid)) for r in upper]
    assert all(c[1] > 0 for c in centres) and centres == sorted(centres)
    assert all(newton_step_lands_inside(coeffs, r.box, prec) for r in roots)
    rects = sympy_coarse_rectangles(coeffs)
    holders = [[i for i, rect in enumerate(rects) if in_rectangle(r.box, rect)] for r in non_real]
    assert all(len(h) == 1 for h in holders)
    assert sorted(h[0] for h in holders) == list(range(len(rects)))


NEAR_REAL = [(1, 0, 131072, -1024, 2),          # x^4 + 2(256x - 1)^2: Im ~ 4.2e-8
             (1, 0, 33554432, -16384, 2)]       # x^4 + 2(4096x - 1)^2: Im ~ 1e-11


def no_complex_isolation(monkeypatch):
    """Spy on ``rep.intervals``, to which ``Poly.intervals`` hands the
    isolation; the returned list collects every call that asks for the
    complex roots."""
    complex_calls, rep = [], type(Poly(X, X).rep)
    intervals = rep.intervals

    def spy(poly, *args, **kwargs):
        if kwargs.get("all", False):
            complex_calls.append(tuple(poly.to_list()))
        return intervals(poly, *args, **kwargs)

    monkeypatch.setattr(rep, "intervals", spy)
    return complex_calls


def conjugate_endpoints(box):
    re_lo, re_hi, im_lo, im_hi = endpoints(box)
    return [re_lo, re_hi, -im_hi, -im_lo]


@pytest.mark.parametrize("prec", [256, 512, 1024])
@pytest.mark.parametrize("coeffs", [ON_SPLIT_LINE] + NEAR_REAL)
def test_seed_path_certifies_roots_on_a_split_line_and_near_the_axis(monkeypatch, coeffs, prec):
    complex_calls = no_complex_isolation(monkeypatch)
    seed_paths, seed_boxes = [], _roots._seed_boxes

    def spy(*args):
        seed_paths.append(seed_boxes(*args))
        return seed_paths[-1]

    monkeypatch.setattr(_roots, "_seed_boxes", spy)
    roots = _roots.isolate_factor_roots(IntervalField(prec), coeffs)
    assert roots is not None and len(roots) == 4
    assert _roots.all_pairwise_disjoint(roots)
    assert not any(r.is_real for r in roots)
    boxes = [endpoints(r.box) for r in roots]
    assert sorted(conjugate_endpoints(r.box) for r in roots) == sorted(boxes)
    assert complex_calls == []
    assert seed_paths and None not in seed_paths
    if coeffs == ON_SPLIT_LINE:
        # in the (re, im) order of the upper roots, which is sympy's order:
        # -i/phi, i/phi, -i*phi, i*phi
        ims = [float(r.box.im.mid) for r in roots]
        assert ims == sorted(ims, key=lambda v: (abs(v), v))


LARGE_ROOTS = [(1, -10**6, 0, -1),             # a real root ~1e6 beside a pair ~ +-0.001i
               (1, -10**9, 0, -1),
               (1, -10**6, 0, 0, -1),          # a real root ~1e6 beside two pairs ~ 0.01
               (1, -10**40, 0, -1),            # a pair ~ +-1e-20i
               (1, 5, -8, 10**30, -3, -6, -2, 5)]  # three roots ~1e10, four ~5e-8


@pytest.mark.parametrize("coeffs", LARGE_ROOTS)
def test_seeds_do_not_depend_on_the_size_of_the_roots(coeffs):
    # polyroots stops on an absolute error; with its precision, steps and
    # extra bits fixed, a root above ~2^12 never converged and the seed path
    # refused every rung, and a seed box as wide as 2^-20 met the other
    # roots near 0.  Every spectral rung from 512 bits certifies, as with
    # sympy's complex isolation (10^40 misses 256 bits there too).
    for prec in (512, 1024, 2048, 4096):
        roots = _roots.isolate_factor_roots(IntervalField(prec), coeffs)
        assert roots is not None and len(roots) == len(coeffs) - 1
        assert _roots.all_pairwise_disjoint(roots)
        assert sum(r.is_real for r in roots) == Poly(list(coeffs), X).count_roots()


def test_large_real_root_beside_a_non_real_pair_certifies_at_the_first_rung():
    # x^3 - 10^6 x^2 - 1; its full analysis needs more than the 4096-bit cap
    # for the Binet check at n = 200, with or without sympy's isolation
    seq = LinearRecurrence("big", (10**6, 0, 1), (0, 0, 1))
    spectrum = spectral._spectrum_at(seq, IntervalField(256))
    assert spectrum is not None and spectrum.roots[0].is_real
    assert interval_inf_fraction(spectrum.roots[0].box.re) > 10**6


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=3, max_size=8), st.integers(1, 3))
def test_random_irreducible_polynomials_get_deg_disjoint_boxes(tail, lead):
    # the real count is sympy's; the seed path gives the other roots in
    # disjoint certified boxes
    coeffs = (lead,) + tuple(tail)
    assume(_roots._factor(coeffs) == ((coeffs, 1),))
    roots = _roots.isolate_factor_roots(IntervalField(512), coeffs)
    assert roots is not None and len(roots) == len(coeffs) - 1
    assert _roots.all_pairwise_disjoint(roots)
    assert sum(r.is_real for r in roots) == Poly(list(coeffs), X).count_roots()


def endpoints(box):
    return [f(part) for part in (box.re, box.im)
            for f in (interval_inf_fraction, interval_sup_fraction)]


def real_newton(field, coeffs, dcoeffs, lo, hi, target):
    """Interval Newton on the real line from [lo, hi], on mpmath's interval
    objects; None unless certified.  The library refines real roots with its
    box Newton on the real axis; this separate copy is the reference."""
    def horner(cs, x):
        acc = field.real(cs[0])
        for c in cs[1:]:
            acc = acc * x + field.real(c)
        return acc

    x = field.from_endpoints(field.real(lo), field.real(hi))
    certified = False
    for _ in range(64):
        fp = horner(dcoeffs, x)
        if contains_zero(fp):
            return None
        mid = +x.mid
        n = mid - horner(coeffs, mid) / fp
        if is_disjoint(n, x):
            return None
        certified = certified or is_interior(n, x)
        x = intersect(field, n, x)
        if certified and width_float(x) <= target:
            return x
    return x if certified else None


def all_sympy_boxes(field, coeffs, eps_bits):
    """The boxes of the all-sympy path: sympy's fine eps-intervals, each
    refined by ``real_newton``, and eps-rectangles, each refined by the box
    Newton, to 2^-max(32, prec // 2); None when Newton leaves a box
    uncertified.  The oracle of these tests only."""
    dcoeffs = _roots._derivative(list(coeffs))
    target = 2.0 ** (-max(32, field.prec // 2))
    real_parts, complex_parts = Poly(list(coeffs), X).intervals(
        all=True, eps=Rational(1, 2 ** eps_bits))
    boxes = []
    for (lo, hi), _ in real_parts:
        lo, hi = sorted((Fraction(str(lo)), Fraction(str(hi))))
        x = real_newton(field, list(coeffs), dcoeffs, lo, hi, target)
        boxes.append(None if x is None else field.box_from_intervals(x, field.real(0)))
    for (c1, c2), _ in complex_parts:
        res = sorted(Fraction(str(re(c))) for c in (c1, c2))
        ims = sorted(Fraction(str(im(c))) for c in (c1, c2))
        boxes.append(_roots._newton_refine_box(list(coeffs), dcoeffs,
                                               _roots._rect_box(field, res + ims), target))
    return None if None in boxes else [endpoints(b) for b in boxes]


@pytest.mark.parametrize("coeffs,prec", [(c, 256) for c in COMPLEX_PAIRS[:5]]
                         + [(TRIB, 512), (TETRA, 512)]
                         + [(c, 256) for c in COMPLEX_PAIRS[5:]])
def test_boxes_equal_the_all_sympy_path(coeffs, prec):
    # the real boxes equal those of the all-sympy path; each non-real box,
    # refined from its seed to 2^-(prec - 32), lies in the all-sympy box of
    # the same position, refined from sympy's rectangle to 2^-(prec // 2)
    eps_bits = max(32, min(prec // 4, 256))      # the rung's eps
    field = IntervalField(prec)
    roots = _roots.isolate_factor_roots(field, coeffs)
    oracle = all_sympy_boxes(field, coeffs, eps_bits)
    assert roots is not None and oracle is not None and len(roots) == len(oracle)
    real = sum(r.is_real for r in roots)
    boxes = [endpoints(r.box) for r in roots]
    assert boxes[:real] == oracle[:real]
    assert all(rect[0] <= box[0] and box[1] <= rect[1] and rect[2] <= box[2] and box[3] <= rect[3]
               for box, rect in zip(boxes[real:], oracle[real:]))


IMAG3 = LinearRecurrence("imag3", (3, -3, 9, -1, 3), (0, 0, 0, 0, 1))   # (x - 3)(x^4 + 3x^2 + 1)


def test_cold_analyses_isolate_and_factor_each_polynomial_once(monkeypatch):
    # the seeds replace sympy's complex isolation, also for roots on Re = 0:
    # no complex intervals call; each characteristic polynomial, of any
    # degree, meets the square-free split, the first step of factoring, once
    spectral._cached_analysis.cache_clear()
    _roots._factor.cache_clear()
    _roots._seed_rectangles.cache_clear()
    factored, square_free = Counter(), _roots.square_free
    complex_calls = no_complex_isolation(monkeypatch)

    def factor_spy(coeffs):
        factored[tuple(coeffs)] += 1
        return square_free(coeffs)

    monkeypatch.setattr(_roots, "square_free", factor_spy)
    analyze_sequence(LinearRecurrence("fib", (1, 1), (0, 1)))
    analyze_sequence(LinearRecurrence("trib_a", (1, 1, 1), (0, 0, 1)))
    analyze_sequence(LinearRecurrence("trib_b", (1, 1, 1), (1, 1, 1)))
    analyze_sequence(LinearRecurrence("tetra", (1, 1, 1, 1), (0, 0, 0, 1)))
    for k in (5, 8, 12):
        analyze_sequence(LinearRecurrence("k%d" % k, (1,) * k, (0,) * (k - 1) + (1,)))
    analyze_sequence(IMAG3)

    assert factored == Counter({(1, -1, -1): 1, TRIB: 1, TETRA: 1, kbonacci(5): 1,
                                kbonacci(8): 1, kbonacci(12): 1, (1, -3, 3, -9, 1, -3): 1})
    assert complex_calls == []


def overfill(cached, keys, *rest):
    """Fill an lru_cache with len(keys) > maxsize entries, each called as
    ``cached(key, *rest)``, and check that the oldest was evicted while the
    newest stayed."""
    cached.cache_clear()
    for key in keys:
        cached(key, *rest)
    assert cached.cache_info().currsize == cached.cache_parameters()["maxsize"]
    hits, misses = cached.cache_info().hits, cached.cache_info().misses
    cached(keys[-1], *rest)
    assert cached.cache_info().hits == hits + 1
    cached(keys[0], *rest)
    assert cached.cache_info().misses == misses + 1


def test_factor_cache_evicts_the_oldest():
    overfill(_roots._factor, [(1, -k) for k in range(_roots._CACHE_SIZE + 1)])


def test_seed_cache_evicts_the_oldest():
    overfill(_roots._seed_rectangles, [(1, -k) for k in range(_roots._CACHE_SIZE + 1)], 64)


def test_analysis_cache_evicts_the_oldest_and_keeps_errors(monkeypatch):
    cached = spectral._cached_analysis
    assert cached.cache_info().maxsize == 64
    overfill(cached, [LinearRecurrence("g%d" % k, (2,), (k,)) for k in range(1, 66)])
    runs, uncached = [], spectral._analyze_uncached

    def spy(seq):
        runs.append(seq)
        return uncached(seq)

    monkeypatch.setattr(spectral, "_analyze_uncached", spy)
    # equally defined sequences under other names: one analysis each, and
    # each refusal names its own sequence; a second call runs no analysis
    first, second = (LinearRecurrence(name, (0, 4), (1, 1)) for name in ("first", "second"))
    flat = LinearRecurrence("flat", (1,), (1,))
    for seq, refusal in ((first, NoDominantRoot), (second, NoDominantRoot),
                         (flat, RootNotLargerThanOne)):
        for _ in range(2):
            with pytest.raises(refusal, match=repr(seq.name)):
                analyze_sequence(seq)
    g, h = (LinearRecurrence(name, (2,), (1,)) for name in ("g", "h"))
    assert analyze_sequence(g).sequence is g and analyze_sequence(h).sequence is h
    assert analyze_sequence(g) is analyze_sequence(g)
    assert runs == [first, second, flat, g, h]


IMAG = LinearRecurrence("imag", (0, -3, 0, -1), (0, 0, 0, 1))         # x^4 + 3x^2 + 1


def test_purely_imaginary_roots_certify_and_tie():
    # the roots +-i*phi, +-i/phi lie on Re = 0, a line on which sympy's
    # bisection splits; the seed boxes certify them, and the tie is found,
    # not a precision cap
    roots = _roots.isolate_factor_roots(IntervalField(192), ON_SPLIT_LINE)
    assert roots is not None and len(roots) == 4
    assert all(r.box.re.a <= 0 <= r.box.re.b for r in roots)
    with pytest.raises(NoDominantRoot):
        analyze_sequence(IMAG)


def test_imaginary_factor_beside_a_dominant_root():
    # (x - 3)(x^4 + 3x^2 + 1)
    seq = LinearRecurrence("imag3", (3, -3, 9, -1, 3), (0, 0, 0, 0, 1))
    cert = analyze_sequence(seq).certificate
    assert cert.root.min_poly == (1, -3)
    assert interval_inf_fraction(cert.modulus()) <= 3 <= interval_sup_fraction(cert.modulus())
    assert cert.decomposition.spectrum.precision_bits == 512


def test_kbonacci_8_certifies_at_512_bits():
    # its three complex pairs get seed boxes of width 2^-480 at 512 bits, far
    # narrower than Newton steps from sympy's eps-rectangles gave, so the
    # Binet check at n = 200 passes without climbing to 1024 bits
    seq = LinearRecurrence("kbonacci-8", (1,) * 8, (0,) * 7 + (1,))
    assert analyze_sequence(seq).spectrum.precision_bits == 512


def _sympy_factor_list(coeffs):
    """sympy's factor_list, normalised as ``factor_integer_poly`` returns it."""
    _, factors = Poly(list(coeffs), X, domain="ZZ").factor_list()
    out = []
    for g, mult in factors:
        gc = [int(c) for c in g.all_coeffs()]
        out.append((tuple(gc if gc[0] > 0 else [-c for c in gc]), int(mult)))
    return sorted(out)


def test_low_degree_factoring_matches_sympy():
    # every coefficient tuple of length <= 3 in -12..12: leading zeros, zero
    # and constant polynomials, contents, square discriminants and repeated
    # linear factors (x^2 - 2x + 1 = (x - 1)^2) take the one factoring path,
    # Yun's split and Berlekamp–Zassenhaus, as every degree does
    for length in (1, 2, 3):
        for coeffs in itertools.product(range(-12, 13), repeat=length):
            assert _roots._factor.__wrapped__(coeffs) == tuple(_sympy_factor_list(coeffs)), coeffs
    assert _roots._factor.__wrapped__((3, -6, 3)) == (((1, -1), 2),)
    assert _roots._factor.__wrapped__((4, 0, -9)) == (((2, -3), 1), ((2, 3), 1))


def _poly_product(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(out)


_FACTORS = st.lists(st.integers(-6, 6), min_size=2, max_size=5).filter(lambda f: f[0] != 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_FACTORS, st.integers(1, 3)), min_size=1, max_size=4),
       st.integers(-12, 12).filter(bool))
def test_factoring_matches_sympy(parts, content):
    # products of drawn polynomials of degree 1-4, some repeated, times a
    # content that may be negative, so most leading coefficients are not
    # units; degree up to 12
    coeffs = (content,)
    for factor, mult in parts:
        for _ in range(mult):
            if len(coeffs) + len(factor) - 2 <= 12:
                coeffs = _poly_product(coeffs, factor)
    assert _roots.factor_integer_poly(coeffs) == _sympy_factor_list(coeffs), coeffs


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=3, max_size=8), st.integers(1, 4),
       st.sampled_from([32, 64, 100, 128, 192, 256]))
def test_real_root_intervals_equal_sympys(tail, lead, bits):
    # the ported VAS isolation gives sympy's intervals, endpoint for endpoint,
    # on irreducible polynomials of degree 3-8
    coeffs = (lead,) + tuple(tail)
    assume(_roots._factor(coeffs) == ((coeffs, 1),))
    oracle = [tuple(sorted(Fraction(str(e)) for e in pair))
              for pair, _ in Poly(list(coeffs), X).intervals(eps=Rational(1, 2 ** bits))]
    assert real_root_intervals(coeffs, bits) == oracle


def test_from_min_poly_climbs_the_ladder(monkeypatch):
    # x^3 - 2(10^10 x - 1)^2 has two roots about 1e-25 apart: they do not
    # isolate at 192 bits, the first rung, but do further up
    coeffs = (1, -2 * 10 ** 20, 4 * 10 ** 10, -2)
    assert _roots.isolate_factor_roots(IntervalField(192), coeffs) is None
    small = [_roots.AlgebraicNumber.from_min_poly(coeffs, i) for i in (1, 2)]
    assert small[0].box.is_disjoint_from(small[1].box)
    assert all(0 < interval_inf_fraction(r.box.re) < Fraction(1, 10 ** 9) for r in small)
    monkeypatch.setenv("RECDIFF_PRECISION_BITS", "256")
    with pytest.raises(PrecisionExhausted) as refused:
        _roots.AlgebraicNumber.from_min_poly(coeffs)
    assert refused.value.bits == 256
