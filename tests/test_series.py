from fractions import Fraction

import pytest

from mldelab.series import (ConstantTermPresent, InsufficientOrder, LogSeries,
                            NonUnitBase, PuiseuxSeries, Q, SeriesError,
                            ZeroLeadingCoefficient, rat, rat_str,
                            series_from_json_dict)


def test_rat_parsing():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-7") == -7
    assert rat(Fraction(1, 3)) == Fraction(1, 3)
    assert rat(5) == 5
    assert rat_str(Fraction(-2, 3)) == "-2/3"
    assert rat_str(Fraction(4, 1)) == "4"


def test_make_and_truncation():
    f = PuiseuxSeries.make(Q(1, 2), [1, 2, 3])
    assert f.base == Q(1, 2)
    assert f.truncation == Q(1, 2) + 3
    assert f.coefficient(Q(1, 2)) == 1
    assert f.coefficient(Q(5, 2)) == 3
    assert f.coefficient(Q(3, 4)) == 0  # off-grid exponent
    with pytest.raises(InsufficientOrder):
        f.coefficient(Q(1, 2) + 3)


def test_arithmetic_basics():
    f = PuiseuxSeries.make(0, [1, 1])
    g = PuiseuxSeries.make(0, [1, -1])
    assert (f * g).coefficient(1) == 0
    assert (f * g).coefficient(0) == 1
    assert (f + g).coefficient(0) == 2
    assert (f - f).is_zero_to_truncation()
    assert (2 * f).coefficient(0) == 2
    assert (f / g).coefficient(1) == 2


def test_invert_and_errors():
    g = PuiseuxSeries.make(0, [1, -1, 0, 0])
    h = g.invert()
    assert [h.coefficient(k) for k in range(4)] == [1, 1, 1, 1]
    zero = PuiseuxSeries.make(0, [0, 1])
    with pytest.raises(ZeroLeadingCoefficient):
        zero.invert()


def test_pow_rational():
    g = PuiseuxSeries.make(0, [1, 4, 6, 4, 1])     # (1+q)^4
    r = g.pow(Q(1, 2))
    assert [r.coefficient(k) for k in range(3)] == [1, 2, 1]
    neg = g.pow(-1)
    assert neg.coefficient(1) == -4
    bad = PuiseuxSeries.make(0, [2, 1])
    with pytest.raises(NonUnitBase):
        bad.pow(Q(1, 2))


def test_pow_of_vanishing_constant_term():
    # the stored leading coefficient is 0: a positive integer power is the
    # repeated product, and a fractional one has no unit to expand around
    f = PuiseuxSeries.make(0, [0, 1, 2])
    assert f.pow(1) == f
    assert f.pow(3) == f * f * f
    assert f.pow(Q(4)) == f * f * f * f
    for r in (Q(1, 2), Q(-2, 3)):
        with pytest.raises(NonUnitBase):
            f.pow(r)


def test_q_power_and_shift():
    m = PuiseuxSeries.q_power(Q(5, 3), 4)
    assert m.leading() == (Q(5, 3), 1)
    f = PuiseuxSeries.make(0, [1, 1]).shift(Q(1, 6))
    assert f.base == Q(1, 6)


def test_substitute_power():
    f = PuiseuxSeries.make(0, [1, 2, 3])
    g = f.substitute_power(2)
    assert g.coefficient(0) == 1
    assert g.coefficient(2) == 2
    assert g.coefficient(1) == 0


def test_euler_derivative_and_integrate():
    f = PuiseuxSeries.make(Q(1, 3), [1, 5])
    d = f.euler_derivative()
    assert d.coefficient(Q(1, 3)) == Q(1, 3)
    assert d.coefficient(Q(4, 3)) == 5 * Q(4, 3)
    assert (d.integrate_q() - f).is_zero_to_truncation()
    const = PuiseuxSeries.make(0, [1, 1])
    with pytest.raises(ConstantTermPresent):
        const.integrate_q()


def test_leading_zero_series():
    z = PuiseuxSeries.zero(5)
    with pytest.raises(SeriesError):
        z.leading()
    assert z.is_zero_to_truncation()


def test_first_nonzero_edges():
    assert PuiseuxSeries.zero(5).first_nonzero() is None
    assert PuiseuxSeries.zero(5).first_nonzero(3) is None
    f = PuiseuxSeries.make(Q(1, 2), [0, 0, 7, 1], grid=2)   # 7 q^(3/2) + q^2
    assert f.truncation == Q(5, 2)
    assert f.first_nonzero() == (Q(3, 2), 7)
    assert f.first_nonzero(Q(-4)) is None          # below the base
    assert f.first_nonzero(1) is None              # before the first term
    assert f.first_nonzero(Q(3, 2)) is None        # at it: `below` is strict
    assert f.first_nonzero(Q(8, 5)) == (Q(3, 2), 7)
    assert f.first_nonzero(Q(5, 2)) == (Q(3, 2), 7)   # at the truncation
    with pytest.raises(InsufficientOrder):
        f.first_nonzero(Q(13, 5))                  # past the truncation
    assert f.leading() == f.first_nonzero()


def test_log_first_nonzero_takes_the_earlier_part():
    plain = PuiseuxSeries.make(1, [2, 1])
    early = PuiseuxSeries.make(Q(1, 2), [5, 0, 0])
    assert LogSeries(plain, early).first_nonzero() == (Q(1, 2), 5)
    assert LogSeries(early, plain).first_nonzero() == (Q(1, 2), 5)
    # on a tie the plain part is reported
    assert LogSeries(plain, plain.scale(3)).first_nonzero() == (1, 2)
    assert LogSeries(plain.scale(3), plain).first_nonzero() == (1, 6)
    assert LogSeries(plain, early).first_nonzero(Q(1, 2)) is None
    zero = PuiseuxSeries.zero(3)
    assert LogSeries(zero, zero).first_nonzero() is None
    with pytest.raises(InsufficientOrder):
        LogSeries(plain, early).first_nonzero(4)


def test_cft_type():
    good = PuiseuxSeries.make(Q(-1, 10), [1, 8, 23, 68])
    assert good.first_non_counting() is None
    frac = PuiseuxSeries.make(0, [1, Q(1, 2), 1, 1])
    assert frac.first_non_counting() == (1, Q(1, 2))
    assert frac.first_non_counting(1) is None      # `below` is strict
    neg = PuiseuxSeries.make(0, [1, -1, 1, 1])
    assert neg.first_non_counting() == (1, -1)
    with pytest.raises(InsufficientOrder):
        neg.first_non_counting(5)                  # past the truncation


def test_json_round_trip_plain():
    f = PuiseuxSeries.make(Q(-1, 10), [1, 8, Q(23, 7)])
    back = series_from_json_dict(f.to_json_dict())
    assert isinstance(back, PuiseuxSeries)
    assert (back - f).is_zero_to_truncation()
    assert back.base == f.base


def test_json_round_trip_log():
    f = LogSeries(PuiseuxSeries.make(Q(1, 2), [0, 3, Q(5, 2)]),
                  PuiseuxSeries.make(Q(1, 2), [1, 2, 3]))
    back = series_from_json_dict(f.to_json_dict())
    assert isinstance(back, LogSeries)
    assert (back.plain - f.plain).is_zero_to_truncation()
    assert (back.log_part - f.log_part).is_zero_to_truncation()


def test_log_series_euler_derivative():
    # D(f0 + ell*f1) = D(f0) + f1 + ell*D(f1)
    f0 = PuiseuxSeries.make(0, [0, 1, 1])
    f1 = PuiseuxSeries.make(0, [1, 1, 1])
    d = LogSeries(f0, f1).euler_derivative()
    assert d.plain.coefficient(0) == 1      # the +f1 cross term
    assert d.log_part.coefficient(1) == 1


def test_truncate_cannot_extend():
    f = PuiseuxSeries.make(0, [1, 2])
    with pytest.raises(InsufficientOrder):
        f.truncate(10)
    g = f.truncate(1)
    assert g.truncation == 1


def test_truncate_between_grid_points():
    # a cut off the grid refines it, even when its denominator divides the grid
    f = PuiseuxSeries.make(0, [1, 2, 3, 4], grid=2)
    g = f.truncate(Q(5, 4))
    assert g.truncation == Q(5, 4)
    assert g.coefficient(1) == 3
    assert f.truncate(Q(1, 4)).coefficient(0) == 1


def test_storage_is_canonical_integers():
    """Numerators over one positive denominator in lowest terms; the
    rational constructor and a kernel op give equal, equally hashed series."""
    f = PuiseuxSeries.make(0, [2, 4, 6]).scale(Q(1, 2))
    assert (f.nums, f.den) == ((1, 2, 3), 1)
    g = PuiseuxSeries.make(Q(1, 3), [3, 2]).scale(Q(1, 6))
    assert (g.nums, g.den) == ((3, 2), 6)
    assert g.coeffs == (Q(1, 2), Q(1, 3))
    built = PuiseuxSeries(Q(1, 3), 1, (Q(1, 2), Q(1, 3)))
    assert built == g and hash(built) == hash(g)
    assert {built: "x"}[g] == "x"
    assert PuiseuxSeries(0, 1, (1, 2, 3)) == f
    flipped = PuiseuxSeries.from_ints(0, 1, [2, -4], -6)
    assert (flipped.nums, flipped.den) == ((-1, 2), 3)
    zero = f - f
    assert (zero.nums, zero.den) == ((0, 0, 0), 1)


def test_series_is_immutable():
    f = PuiseuxSeries.make(0, [1, Q(1, 2)])
    for name, value in (("nums", (0, 0)), ("den", 3), ("base", Q(1)), ("grid", 2),
                        ("coeffs", ()), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(f, name, value)
    with pytest.raises(AttributeError):
        del f.nums
    assert (f.nums, f.den) == ((2, 1), 2)
    assert f.coeffs == (Q(1), Q(1, 2))
