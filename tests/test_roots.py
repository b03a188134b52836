"""Root isolation: sympy's eps-rectangles rebuilt from certified Newton boxes
around mpmath seeds, boxes equal to the all-sympy path, certified seed boxes
where the rebuild is uncertain, call counts of sympy and bounded caches."""

import functools
import itertools
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import Poly, Rational, Symbol, im, re

from recdiff import _roots, spectral
from recdiff.errors import NoDominantRoot, RootNotLargerThanOne
from recdiff.intervals import IntervalField, interval_inf_fraction, interval_sup_fraction
from recdiff.recurrences import LinearRecurrence
from recdiff.spectral import analyze_sequence

X = Symbol("X")
TRIB = (1, -1, -1, -1)
TETRA = (1, -1, -1, -1, -1)


def kbonacci(k):
    """x^k - x^(k-1) - ... - 1, the characteristic polynomial of k-bonacci."""
    return (1,) + (-1,) * k


REBUILT = [TRIB, TETRA,
           (1, 0, 0, 0, -1, -1),     # x^5 - x - 1: two complex pairs
           (1, 0, 0, -2),
           (1, -3, 0, 0, -1),
           kbonacci(5), kbonacci(8)]
ON_SPLIT_LINE = (1, 0, 3, 0, 1)      # x^4 + 3x^2 + 1: roots on Re = 0


@functools.lru_cache(maxsize=None)
def sympy_fine(coeffs, eps_bits):
    """Poly.intervals(all=True, eps) for one polynomial, once per test run."""
    return Poly(list(coeffs), X).intervals(all=True, eps=Rational(1, 2 ** eps_bits))


def sympy_rectangles(coeffs, eps_bits):
    rects = []
    for (c1, c2), _ in sympy_fine(coeffs, eps_bits)[1]:
        res = sorted(Fraction(str(re(c))) for c in (c1, c2))
        ims = sorted(Fraction(str(im(c))) for c in (c1, c2))
        rects.append((res[0], res[1], ims[0], ims[1]))
    return rects


def rebuild(coeffs, eps_bits):
    pairs = (len(coeffs) - 1 - len(sympy_fine(coeffs, eps_bits)[0])) // 2
    rects = _roots._rebuilt_rectangles.__wrapped__(tuple(coeffs), eps_bits, pairs)
    return None if rects is None else list(rects)


@pytest.mark.parametrize("eps_bits", [32, 64])
@pytest.mark.parametrize("coeffs", REBUILT)
def test_rebuilt_rectangles_equal_sympy(coeffs, eps_bits):
    assert rebuild(coeffs, eps_bits) == sympy_rectangles(coeffs, eps_bits)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=3, max_size=6),
       st.integers(1, 3))
def test_rebuilt_rectangles_equal_sympy_on_random_polynomials(tail, lead):
    # an irreducible integer polynomial of degree 3-6: whenever the replay
    # decides, it must give sympy's fine rectangles
    coeffs = (lead,) + tuple(tail)
    assume(_roots._factor(coeffs) == ((coeffs, 1),))
    rects = rebuild(coeffs, 32)
    assert rects is None or rects == sympy_rectangles(coeffs, 32)


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
    eps_bits = max(32, min(prec // 4, 256))      # spectral's eps at this rung
    roots = _roots.isolate_factor_roots(IntervalField(prec), coeffs, eps_bits=eps_bits)
    assert roots is not None and len(roots) == 4
    assert _roots.all_pairwise_disjoint(roots)
    assert not any(r.is_real for r in roots)
    boxes = [endpoints(r.box) for r in roots]
    assert sorted(conjugate_endpoints(r.box) for r in roots) == sorted(boxes)
    assert complex_calls == []
    if coeffs == ON_SPLIT_LINE:     # the rebuild gives up on Re = 0, the seeds do not
        assert seed_paths and None not in seed_paths
        # in (re, im) order of the upper roots, as sympy's rectangles were:
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
        eps_bits = max(32, min(prec // 4, 256))
        roots = _roots.isolate_factor_roots(IntervalField(prec), coeffs, eps_bits=eps_bits)
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
    # the real count is sympy's; the rebuild and the seed path each give the
    # other roots in disjoint certified boxes
    coeffs = (lead,) + tuple(tail)
    assume(_roots._factor(coeffs) == ((coeffs, 1),))
    real = Poly(list(coeffs), X).count_roots()
    for rebuilt in (_roots._rebuilt_rectangles, lambda *args: None):
        with mock.patch.object(_roots, "_rebuilt_rectangles", rebuilt):
            roots = _roots.isolate_factor_roots(IntervalField(512), coeffs, eps_bits=128)
        assert roots is not None and len(roots) == len(coeffs) - 1
        assert _roots.all_pairwise_disjoint(roots)
        assert sum(r.is_real for r in roots) == real


def all_sympy_boxes(field, coeffs, eps_bits):
    """The boxes of the all-sympy path: fine sympy intervals, then Newton;
    None when Newton leaves a box uncertified."""
    dcoeffs = _roots._derivative(list(coeffs))
    target = 2.0 ** (-max(32, field.prec // 2))
    real_parts, _ = sympy_fine(coeffs, eps_bits)
    boxes = []
    for (lo, hi), _ in real_parts:
        lo, hi = sorted((Fraction(str(lo)), Fraction(str(hi))))
        x = _roots._newton_refine_real(field, list(coeffs), dcoeffs, lo, hi, target)
        boxes.append(None if x is None else field.box_from_intervals(x, field.real(0)))
    for rect in sympy_rectangles(coeffs, eps_bits):
        boxes.append(_roots._newton_refine_box(list(coeffs), dcoeffs,
                                               _roots._rect_box(field, rect), target))
    return None if None in boxes else [endpoints(b) for b in boxes]


def endpoints(box):
    return [f(part) for part in (box.re, box.im)
            for f in (interval_inf_fraction, interval_sup_fraction)]


@pytest.mark.parametrize("coeffs,prec", [(c, 256) for c in REBUILT[:5]]
                         + [(TRIB, 512), (TETRA, 512)]
                         + [(c, 256) for c in REBUILT[5:]])
def test_boxes_equal_the_all_sympy_path(coeffs, prec):
    eps_bits = max(32, min(prec // 4, 256))      # spectral's eps at this rung
    field = IntervalField(prec)
    roots = _roots.isolate_factor_roots(field, coeffs, eps_bits=eps_bits)
    boxes = None if roots is None else [endpoints(r.box) for r in roots]
    assert boxes == all_sympy_boxes(field, coeffs, eps_bits)


IMAG3 = LinearRecurrence("imag3", (3, -3, 9, -1, 3), (0, 0, 0, 0, 1))   # (x - 3)(x^4 + 3x^2 + 1)


def test_cold_analyses_isolate_and_factor_each_polynomial_once(monkeypatch):
    # the seeds replace sympy's complex isolation, also for roots on Re = 0:
    # no complex intervals call
    spectral._cached_analysis.cache_clear()
    _roots._factor.cache_clear()
    _roots._seed_rectangles.cache_clear()
    _roots._rebuilt_rectangles.cache_clear()
    factored, factor_list = Counter(), Poly.factor_list
    complex_calls = no_complex_isolation(monkeypatch)

    def factor_spy(poly, *args, **kwargs):
        factored[tuple(poly.all_coeffs())] += 1
        return factor_list(poly, *args, **kwargs)

    monkeypatch.setattr(Poly, "factor_list", factor_spy)
    analyze_sequence(LinearRecurrence("trib_a", (1, 1, 1), (0, 0, 1)))
    analyze_sequence(LinearRecurrence("trib_b", (1, 1, 1), (1, 1, 1)))
    analyze_sequence(LinearRecurrence("tetra", (1, 1, 1, 1), (0, 0, 0, 1)))
    for k in (5, 8, 12):
        analyze_sequence(LinearRecurrence("k%d" % k, (1,) * k, (0,) * (k - 1) + (1,)))
    analyze_sequence(IMAG3)

    assert factored == Counter({TRIB: 1, TETRA: 1, kbonacci(5): 1, kbonacci(8): 1,
                                kbonacci(12): 1, (1, -3, 3, -9, 1, -3): 1})
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
    # the roots +-i*phi, +-i/phi sit on the edge Re = 0 of sympy's rectangles,
    # so the rebuild gives up; the seed boxes certify them, and the tie is
    # found, not a precision cap
    roots = _roots.isolate_factor_roots(IntervalField(192), ON_SPLIT_LINE, eps_bits=48)
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
    # linear factors (x^2 - 2x + 1 = (x - 1)^2) all take the exact path
    for length in (1, 2, 3):
        for coeffs in itertools.product(range(-12, 13), repeat=length):
            assert _roots._factor.__wrapped__(coeffs) == tuple(_sympy_factor_list(coeffs)), coeffs
    assert _roots._factor.__wrapped__((3, -6, 3)) == (((1, -1), 2),)
    assert _roots._factor.__wrapped__((4, 0, -9)) == (((2, -3), 1), ((2, 3), 1))
