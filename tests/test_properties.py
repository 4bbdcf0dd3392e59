"""Property suites (hypothesis, 200 derandomized cases each)."""

from fractions import Fraction
from math import floor, gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from mldelab import forms as F
from mldelab.mlde import build_flat, flat_weighted_apply, serre_derivation
from mldelab.series import InsufficientOrder, LogSeries, PuiseuxSeries, Q, rat_str

SET = settings(max_examples=200, deadline=None, derandomize=True)

small_rational = st.fractions(min_value=Fraction(-4), max_value=Fraction(4),
                              max_denominator=6)
coeff_lists = st.lists(small_rational, min_size=1, max_size=8)


def mk(base, coeffs):
    return PuiseuxSeries.make(base, coeffs)


def eq(a: PuiseuxSeries, b: PuiseuxSeries) -> bool:
    t = min(a.truncation, b.truncation)
    return (a.truncate(t) - b.truncate(t)).is_zero_to_truncation()


# -- suite 1: ring axioms ---------------------------------------------

@SET
@given(small_rational, coeff_lists, coeff_lists, coeff_lists)
def test_ring_axioms(base, xs, ys, zs):
    f, g, h = mk(base, xs), mk(base, ys), mk(base, zs)
    assert eq(f + g, g + f)
    assert eq((f + g) + h, f + (g + h))
    assert eq(f * g, g * f)
    assert eq((f * g) * h, f * (g * h))
    assert eq(f * (g + h), f * g + f * h)
    zero = f - f
    assert zero.is_zero_to_truncation()
    assert eq(f + zero, f)
    one = PuiseuxSeries.one(len(xs) + 2)
    assert (f * one).coefficient(f.base) == xs[0]


# -- suite 2: Leibniz rule for the Euler derivative -------------------

@SET
@given(small_rational, coeff_lists, coeff_lists)
def test_leibniz_rule(base, xs, ys):
    f, g = mk(base, xs), mk(base, ys)
    lhs = (f * g).euler_derivative()
    rhs = f.euler_derivative() * g + f * g.euler_derivative()
    assert eq(lhs, rhs)


# -- suite 3: rational power additivity -------------------------------

unit_tails = st.lists(small_rational, min_size=0, max_size=6)
exponents = st.fractions(min_value=Fraction(-3), max_value=Fraction(3),
                         max_denominator=4)


@SET
@given(unit_tails, exponents, exponents)
def test_pow_additivity(tail, a, b):
    f = mk(0, [Q(1)] + list(tail))
    lhs = f.pow(a) * f.pow(b)
    rhs = f.pow(a + b)
    assert eq(lhs, rhs)


# -- suite 4: eta-conjugation of the Serre derivation -----------------

weights = st.fractions(min_value=Fraction(-3), max_value=Fraction(3),
                       max_denominator=5)
_ETA = F.eta(14)


@SET
@given(small_rational, coeff_lists, weights, weights)
def test_eta_conjugation(base, xs, k, ell):
    f = mk(base, xs)
    eta2l = _ETA.pow(2 * ell)
    lhs = serre_derivation(eta2l * f, k)
    rhs = eta2l * serre_derivation(f, k - ell)
    assert eq(lhs, rhs)


# -- suite 5: the weight-0 operator equals the base operator ----------

params = st.fractions(min_value=Fraction(-15), max_value=Fraction(15),
                      max_denominator=5)

#: L(q^b) = sum_j c_j b^j q^b: five distinct bases pin all five c_j
probe_bases = (Q(0), Q(1, 5), Q(-1, 2), Q(4, 3), Q(-7, 4))


@SET
@given(params)
def test_weighted_at_zero_matches(s):
    op = build_flat(s, 8)
    for b in probe_bases:
        f = PuiseuxSeries.q_power(b, 8)
        assert eq(flat_weighted_apply(s, 0, f), op.apply(f))


# -- suite 5b: first_nonzero against truncate-then-scan ---------------
#
# The reference cuts the series at `below` with truncate (which refuses a
# cut past the truncation, and one at or below the base, where nothing is
# left to scan) and scans what is left; it shares no scan with
# first_nonzero.

def first_nonzero_by_truncation(s: PuiseuxSeries, below: Fraction):
    if below <= s.base:
        return None
    t = s.truncate(below)
    return next(((t.base + Q(i, t.grid), c) for i, c in enumerate(t.coeffs) if c), None)


sparse_coeffs = st.lists(st.sampled_from([Fraction(0)] * 3 + [Fraction(1), Fraction(-2, 3)]),
                         min_size=1, max_size=8)


@SET
@given(small_rational, st.sampled_from([1, 2, 3]), sparse_coeffs, small_rational)
def test_first_nonzero_matches_truncation(base, grid, xs, offset):
    s = PuiseuxSeries.make(base, xs, grid)
    below = s.base + offset + 1
    if below > s.truncation:
        with pytest.raises(InsufficientOrder):
            s.first_nonzero(below)
    else:
        assert s.first_nonzero(below) == first_nonzero_by_truncation(s, below)
    assert s.first_nonzero() == first_nonzero_by_truncation(s, s.truncation)


# -- suite 5c: first_non_counting against a term-by-term scan ---------
#
# The reference reads the Fraction view term by term; it shares no scan
# with first_non_counting, which works on the integer numerators.

def first_non_counting_by_terms(s: PuiseuxSeries, below: Fraction):
    terms = ((s.base + Q(i, s.grid), c) for i, c in enumerate(s.coeffs))
    return next(((e, c) for e, c in terms
                 if e < below and (c.denominator != 1 or c < 0)), None)


counting_coeffs = st.lists(st.sampled_from([Fraction(n) for n in (0, 0, 1, 2, 7)]
                                           + [Fraction(-1), Fraction(1, 2), Fraction(-2, 3)]),
                           min_size=1, max_size=8)


@SET
@given(small_rational, st.sampled_from([1, 2, 3]), counting_coeffs, st.integers(1, 6),
       small_rational)
def test_first_non_counting_matches_terms(base, grid, xs, k, offset):
    s = PuiseuxSeries.make(base, xs, grid).scale(k)
    below = s.base + offset + 1
    if below > s.truncation:
        with pytest.raises(InsufficientOrder):
            s.first_non_counting(below)
    else:
        assert s.first_non_counting(below) == first_non_counting_by_terms(s, below)
    assert s.first_non_counting() == first_non_counting_by_terms(s, s.truncation)


# -- suite 6: the integer kernel against a Fraction schoolbook --------
#
# The references below work term by term on exponents with Fraction
# arithmetic only, so they share no code with the integer-numerator
# kernel in mldelab.series.

grids = st.sampled_from([1, 2, 3, 5])
# denominators up to 5^8, with small cofactors
kernel_coeff = st.builds(lambda n, k, m: Fraction(n, 5 ** k * m),
                         st.integers(-60, 60), st.integers(0, 8),
                         st.sampled_from([1, 2, 3, 7]))
kernel_coeffs = st.lists(kernel_coeff, min_size=1, max_size=9)
nonzero_coeff = kernel_coeff.filter(bool)


def terms(s: PuiseuxSeries):
    """(nonzero exponent -> coefficient, base, truncation) of a series."""
    return ({s.base + Fraction(i, s.grid): c for i, c in enumerate(s.coeffs) if c},
            s.base, s.truncation)


def ref_mul(a, b):
    (ta, base_a, trunc_a), (tb, base_b, trunc_b) = a, b
    trunc = min(trunc_a + base_b, trunc_b + base_a)
    out = {}
    for ea, x in ta.items():
        for eb, y in tb.items():
            if ea + eb < trunc:
                out[ea + eb] = out.get(ea + eb, 0) + x * y
    return {e: c for e, c in out.items() if c}, base_a + base_b, trunc


def ref_invert(s: PuiseuxSeries):
    cs = s.coeffs
    inv = [1 / cs[0]]
    for k in range(1, len(cs)):
        inv.append(-sum(cs[i] * inv[k - i] for i in range(1, k + 1)) / cs[0])
    return terms(PuiseuxSeries(-s.base, s.grid, tuple(inv)))


def ref_pow_unit(s: PuiseuxSeries, r: Fraction):
    """s^r for constant term 1, from s*g' = r*s'*g term by term."""
    cs = s.coeffs
    g = [Fraction(1)]
    for m in range(1, len(cs)):
        g.append(sum(((r + 1) * i - m) * cs[i] * g[m - i] for i in range(1, m + 1)) / m)
    return terms(PuiseuxSeries(r * s.base, s.grid, tuple(g)))


def ref_pow_int(s: PuiseuxSeries, k: int):
    factor = terms(s) if k >= 0 else ref_invert(s)
    out = terms(PuiseuxSeries.one(len(s.coeffs) - 1))
    for _ in range(abs(k)):
        out = ref_mul(out, factor)
    return out


def series(base, grid, cs) -> PuiseuxSeries:
    return PuiseuxSeries(base, grid, tuple(cs))


@SET
@given(small_rational, grids, kernel_coeffs, small_rational, grids, kernel_coeffs)
def test_mul_matches_reference(b1, g1, xs, b2, g2, ys):
    f, g = series(b1, g1, xs), series(b2, g2, ys)
    assert terms(f * g) == ref_mul(terms(f), terms(g))


@SET
@given(small_rational, grids, nonzero_coeff, kernel_coeffs)
def test_invert_matches_reference(base, grid, c0, tail):
    f = series(base, grid, [c0] + tail)
    assert terms(f.invert()) == ref_invert(f)


@SET
@given(small_rational, grids, nonzero_coeff, kernel_coeffs, st.integers(-3, 4))
def test_integer_pow_matches_reference(base, grid, c0, tail, k):
    f = series(base, grid, [c0] + tail)
    assert terms(f.pow(k)) == ref_pow_int(f, k)


@SET
@given(small_rational, grids, kernel_coeffs, exponents.filter(bool))
def test_rational_pow_matches_reference(base, grid, tail, r):
    f = series(base, grid, [Fraction(1)] + tail)
    assert terms(f.pow(r)) == ref_pow_unit(f, r)


# -- suite 7: truncation honesty of the kernel ------------------------

@SET
@given(small_rational, grids, nonzero_coeff, kernel_coeffs, kernel_coeffs,
       small_rational, grids, kernel_coeffs, kernel_coeffs, exponents,
       st.integers(1, 4), kernel_coeff)
def test_truncation_honesty(b1, g1, c0, xs, more_x, b2, g2, ys, more_y, r, m, k):
    """Coefficients below a result's truncation do not move when the
    inputs carry more terms."""
    f, g = series(b1, g1, [c0] + xs), series(b2, g2, ys)
    f_long, g_long = series(b1, g1, [c0] + xs + more_x), series(b2, g2, ys + more_y)
    unit, unit_long = f.scale(1 / c0), f_long.scale(1 / c0)
    # a constant can only be added to a series that is exact past q^0
    lift = max(0, 1 - floor(f.truncation))
    for short, long_ in ((f * g, f_long * g_long),
                         (f.invert(), f_long.invert()),
                         (f.pow(3), f_long.pow(3)),
                         (f.pow(-2), f_long.pow(-2)),
                         (unit.pow(r), unit_long.pow(r)),
                         (f + g, f_long + g_long),
                         (f.euler_derivative(), f_long.euler_derivative()),
                         (f.substitute_power(m), f_long.substitute_power(m)),
                         (f.shift(lift) + k, f_long.shift(lift) + k)):
        assert long_.truncation >= short.truncation
        assert terms(long_.truncate(short.truncation)) == terms(short)


def test_high_denominator_inverse():
    """psi1 carries a ~580-bit common denominator at order 200."""
    psi = F.psi1(200)
    one = psi.invert() * psi
    assert one.truncation == 201
    assert (one - 1).is_zero_to_truncation()


# -- suite 8: canonical integer storage -------------------------------
#
# Every kernel result stores integer numerators over one denominator in
# lowest terms, its Fraction view matches a term-by-term reference, and the
# rational constructor gives an equal, equally hashed series.

def ref_add(a, b):
    (ta, base_a, trunc_a), (tb, base_b, trunc_b) = a, b
    trunc = min(trunc_a, trunc_b)
    out = {}
    for e, c in list(ta.items()) + list(tb.items()):
        if e < trunc:
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}, min(base_a, base_b), trunc


def ref_scale(a, k):
    t, base, trunc = a
    return {e: k * c for e, c in t.items() if k}, base, trunc


def ref_euler(a):
    t, base, trunc = a
    return {e: e * c for e, c in t.items() if e}, base, trunc


def ref_substitute(a, m):
    t, base, trunc = a
    return {m * e: c for e, c in t.items()}, m * base, m * trunc


def ref_truncate(a, cut):
    t, base, _ = a
    return {e: c for e, c in t.items() if e < cut}, base, cut


def canonical(s: PuiseuxSeries) -> bool:
    return (type(s.den) is int and s.den > 0 and all(type(x) is int for x in s.nums)
            and gcd(s.den, *s.nums) == 1)


@SET
@given(small_rational, grids, nonzero_coeff, kernel_coeffs, small_rational, st.booleans(),
       grids, kernel_coeffs, exponents.filter(bool), st.integers(-3, 4), st.integers(1, 4),
       kernel_coeff, st.integers(1, 8))
def test_results_are_canonical(b1, g1, c0, xs, b2, same_base, g2, ys, r, k, m, c, cut):
    # equal bases take the kernel's aligned path without a Fraction offset
    f, g = series(b1, g1, [c0] + xs), series(b1 if same_base else b2, g2, ys)
    unit = f.scale(1 / c0)
    lifted = f.shift(max(0, 1 - floor(f.truncation)))
    const = ({Fraction(0): c} if c else {}, Fraction(0), lifted.truncation)
    cut = f.base + (f.truncation - f.base) * Fraction(cut, 8)
    cases = [
        (f + g, ref_add(terms(f), terms(g))),
        (f - g, ref_add(terms(f), ref_scale(terms(g), -1))),
        (-f, ref_scale(terms(f), -1)),
        (f.scale(c), ref_scale(terms(f), c)),
        (f * g, ref_mul(terms(f), terms(g))),
        (f.pow(k), ref_pow_int(f, k)),
        (unit.pow(r), ref_pow_unit(unit, r)),
        (f.invert(), ref_invert(f)),
        (f.euler_derivative(), ref_euler(terms(f))),
        (f.substitute_power(m), ref_substitute(terms(f), m)),
        (f.truncate(cut), ref_truncate(terms(f), cut)),
        (lifted + c, ref_add(terms(lifted), const)),
    ]
    for out, want in cases:
        assert canonical(out)
        assert terms(out) == want
        # the same series from the reference's Fractions
        dense = tuple(want[0].get(out.base + Fraction(i, out.grid), Fraction(0))
                      for i in range(out.order + 1))
        built = PuiseuxSeries(out.base, out.grid, dense)
        assert built == out and hash(built) == hash(out)


# -- suite 9: coefficient against the reference's terms ---------------

@SET
@given(small_rational, grids, kernel_coeffs, small_rational, grids, kernel_coeffs,
       st.fractions(min_value=0, max_value=1, max_denominator=7).filter(bool))
def test_coefficient_matches_reference(b1, g1, xs, b2, g2, ys, gap):
    """On-grid, off-grid, below-base and past-truncation exponents over
    series of mixed bases and grids."""
    f, g = series(b1, g1, xs), series(b2, g2, ys)
    for s in (f, g, f * g):
        nonzero, base, trunc = terms(s)
        on_grid = [base + Fraction(i, s.grid) for i in range(s.order + 2)]
        probes = on_grid + [e + gap / s.grid for e in on_grid] + [base - gap, base - 1]
        for e in probes:
            if e >= trunc:
                with pytest.raises(InsufficientOrder):
                    s.coefficient(e)
            else:
                got = s.coefficient(e)
                assert type(got) is Fraction and got == nonzero.get(e, 0)


# -- suite 10: log-series serialization against a Fraction regrid -----

def ref_log_json(f: LogSeries) -> dict:
    """Both parts laid out on the finest grid that holds them, from the
    smaller base up to the common truncation."""
    base = f.base
    grid = lcm(f.plain.grid, f.log_part.grid,
               (f.plain.base - base).denominator, (f.log_part.base - base).denominator)
    n = int((f.truncation - base) * grid)

    def regrid(s: PuiseuxSeries) -> list[str]:
        out = ["0"] * n
        off = int((s.base - base) * grid)
        step = grid // s.grid
        for i, c in enumerate(s.coeffs):
            if off + i * step < n:
                out[off + i * step] = rat_str(c)
        return out

    return {"base_exponent": rat_str(base), "grid": grid, "order": n - 1,
            "coeffs": regrid(f.plain), "log_coeffs": regrid(f.log_part)}


@SET
@given(small_rational, grids, kernel_coeffs, small_rational, grids, kernel_coeffs)
def test_log_json_matches_reference(b1, g1, xs, b2, g2, ys):
    f = LogSeries(series(b1, g1, xs), series(b2, g2, ys))
    assert f.to_json_dict() == ref_log_json(f)
