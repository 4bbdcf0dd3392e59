import random

import pytest

from mldelab import forms as F
from mldelab.catalog import aux_third_order, catalogued_parameters
from mldelab.classify import CASES, enumerate_case
from mldelab.mlde import (SHARP_FACTORIZATIONS, InconsistentResonance,
                          _operator_tables, _rational_roots,
                          MLDEOperator, NoLogNeeded, NotIndicialRoot,
                          Resonance, alphas, build_custom,
                          build_flat, build_sharp, divisors, factored_apply,
                          flat_indicial_roots, flat_weighted_apply,
                          frobenius_solve, frobenius_solve_log, indicial,
                          log_upper_root, modular_wronskian, mu,
                          serre_derivation)
from mldelab.series import InsufficientOrder, LogSeries, PuiseuxSeries, Q


def test_mu_values():
    assert mu(Q(19, 5)) == Q(551, 3600)
    assert mu(Q(1, 5)) == Q(11, 3600)
    assert mu(0) == 0


def test_alphas_special_roots():
    # the cubic coefficient vanishes at its printed roots
    assert alphas(18)[2] == 0
    assert alphas(-6)[2] == 0
    assert alphas(Q(-6, 5))[1] == 0
    assert alphas(Q(-6, 5))[2] == 0


def test_indicial_roots_fixtures():
    assert set(flat_indicial_roots(Q(6, 5))) == {Q(-1, 10), Q(7, 10), Q(3, 10), Q(1, 10)}
    assert set(flat_indicial_roots(Q(-3, 5))) == {Q(31, 40), Q(9, 40), Q(1, 40), Q(-1, 40)}


def test_indicial_root_sum_is_one():
    for s in (Q(6, 5), Q(-3, 5), Q(32, 5), Q(-8, 5), Q(17, 3)):
        assert sum(flat_indicial_roots(s)) == 1
        rep = indicial(build_flat(s, 4))
        assert sorted(rep.roots) == sorted(flat_indicial_roots(s))


def test_closed_form_roots_factor_the_indicial_polynomial():
    # each coefficient of P(x; s) and of prod (x - r) over the closed-form
    # roots is a polynomial of degree <= 4 in s, so agreement at five
    # distinct s is agreement at every s
    for s in (Q(0), Q(1), Q(-3, 5), Q(17, 3), Q(-1234, 997)):
        prod = [Q(1)]  # coefficients, lowest degree first
        for r in flat_indicial_roots(s):
            prod = [a - r * b for a, b in zip([Q(0)] + prod, prod + [Q(0)])]
        assert tuple(prod) == build_flat(s, 0).indicial_coefficients(), s


@pytest.mark.parametrize("p", list(range(-300, 301, 7)) + [-209, -149, 137, 223, 247, 293])
def test_generic_roots_match_the_closed_form(p):
    # the candidate search finds every closed-form root with multiplicity
    # at s = p/5 (the listed extra p were the slowest before one pass)
    s = Q(p, 5)
    roots, rest = _rational_roots(build_flat(s, 0).indicial_coefficients())
    assert sorted(roots) == sorted(flat_indicial_roots(s))
    assert len(rest) == 1


def test_generic_roots_keep_an_irreducible_factor():
    # x^2 (x^2 + 1) (3x - 2)^2 (x + 5): a double root at 0, an irreducible
    # quadratic that stays behind, and a double non-integer root
    poly = [Q(1)]
    for factor in ([0, 1], [0, 1], [1, 0, 1], [-2, 3], [-2, 3], [5, 1]):
        poly = [sum(poly[i] * factor[j - i] for i in range(len(poly)) if 0 <= j - i < len(factor))
                for j in range(len(poly) + len(factor) - 1)]
    roots, rest = _rational_roots(poly)
    assert sorted(roots) == [-5, 0, 0, Q(2, 3), Q(2, 3)]
    assert rest == [1, 0, 1]


def test_divisors_match_a_scan():
    for n in list(range(1, 501)) + list(range(-500, 0)):
        assert divisors(n) == [d for d in range(1, abs(n) + 1) if n % d == 0], n


def _upper_by_parent_rule(roots, alpha):
    """The upper index as frobenius_solve_log chose it before log_upper_root."""
    if alpha not in roots:
        return NotIndicialRoot
    uppers = sorted({r for r in roots if r >= alpha and (r - alpha).denominator == 1})
    if roots.count(alpha) >= 2:
        return alpha
    if len(uppers) >= 2:
        return uppers[-1]
    return NoLogNeeded


def test_log_upper_root_keeps_the_rule():
    params = set(catalogued_parameters())
    for case in CASES.values():
        params.update(s for s, _ in enumerate_case(case))
    for s in sorted(params):
        roots = flat_indicial_roots(s)
        for alpha in roots:
            want = _upper_by_parent_rule(roots, alpha)
            if isinstance(want, type):
                with pytest.raises(want):
                    log_upper_root(roots, alpha)
            else:
                assert log_upper_root(roots, alpha) == want, (s, alpha)
    with pytest.raises(NotIndicialRoot):
        log_upper_root(flat_indicial_roots(Q(6, 5)), Q(1, 2))


def test_multiple_roots_have_no_root_an_integer_below():
    """The roots of flat(s) are affine in s, so a pair of them meets at one
    s at most: the four meetings are -18/5, -6/5, 6 and 42/5.  At none of
    them does a root lie a positive integer below the multiple one, so the
    upper root of a log solve based below it is simple, and the residual
    -P'(upper) of its particular part pins the free coefficient."""
    r0, r1 = flat_indicial_roots(0), flat_indicial_roots(1)
    meets = set()
    for i in range(4):
        for j in range(i + 1, 4):
            slope = (r1[i] - r0[i]) - (r1[j] - r0[j])
            assert slope or r0[i] != r0[j]
            if slope:
                meets.add((r0[j] - r0[i]) / slope)
    assert meets == {Q(-18, 5), Q(-6, 5), 6, Q(42, 5)}
    for s in meets:
        roots = flat_indicial_roots(s)
        multiple = {u for u in roots if roots.count(u) > 1}
        assert len(multiple) == 1
        assert not [r for r in roots for u in multiple if u > r and (u - r).denominator == 1]


def test_frobenius_fixtures():
    f = frobenius_solve(build_flat(Q(6, 5), 5), Q(-1, 10), 3)
    assert [f.coefficient(Q(-1, 10) + k) for k in range(4)] == [1, 8, 23, 68]
    g = frobenius_solve(build_flat(Q(2, 5), 6), Q(-1, 15), 4)
    assert [g.coefficient(Q(-1, 15) + k) for k in range(5)] == [1, 4, 8, 20, 37]
    h = frobenius_solve(build_flat(Q(-3, 5), 6), Q(-1, 40), 4)
    assert [h.coefficient(Q(-1, 40) + k) for k in range(5)] == [1, 1, 1, 2, 3]


def test_frobenius_errors():
    op = build_flat(Q(6, 5), 6)
    with pytest.raises(NotIndicialRoot):
        frobenius_solve(op, Q(1, 2), 4)
    # s = -6 has roots 0 and 1 differing by an integer -> resonance at n = 1
    op6 = build_flat(-6, 6)
    with pytest.raises(Resonance):
        frobenius_solve(op6, 0, 4)


def test_log_solution_s6_plain_part():
    op = build_flat(6, 10)
    sol = frobenius_solve_log(op, Q(1, 2), 6)
    assert isinstance(sol, LogSeries)
    # gauge: coefficient of the upper index in the plain part is zero
    assert sol.plain.coefficient(Q(1, 2)) == 0
    got = [sol.plain.coefficient(Q(3, 2) + k) for k in range(3)]
    assert got == [Q(-2530, 81), Q(-191600, 693), Q(-8906965, 4788)]
    # a log solution is still a solution
    res = op.apply(sol)
    assert res.plain.truncate(5).is_zero_to_truncation()
    assert res.log_part.truncate(5).is_zero_to_truncation()


def _reference_solve_log(op, alpha, order):
    """frobenius_solve_log as a Fraction sweep over b_n = part_n + x*hom_n,
    with part re-based as soon as the free coefficient x is pinned."""
    roots = indicial(op).roots
    uppers = sorted({r for r in roots if r >= alpha and (r - alpha).denominator == 1})
    upper = alpha if roots.count(alpha) >= 2 else uppers[-1]
    f1 = frobenius_solve(op, upper, order + int(upper - alpha))
    t = None
    df = f1
    for j, c in enumerate(op.coefficients):
        if j >= 2:
            df = df.euler_derivative()
        if j >= 1:
            term = (c * df).scale(j)
            t = term if t is None else t + term
    table = [[c.coefficient(i) for i in range(order + 1)] for c in op.coefficients]

    def coef(i, x):
        return sum(row[i] * x ** j for j, row in enumerate(table))

    part, hom, x_val = [], [], None
    for n in range(order + 1):
        rhs_p = -t.coefficient(alpha + n)
        rhs_h = Q(0)
        for i in range(1, n + 1):
            c = coef(i, alpha + n - i)
            rhs_p -= c * part[n - i]
            rhs_h -= c * hom[n - i]
        den = coef(0, alpha + n)
        if den:
            part.append(rhs_p / den)
            hom.append(rhs_h / den)
            continue
        if n == 0:
            if rhs_p:
                raise InconsistentResonance("no log solution: inconsistent leading resonance")
            part.append(Q(0))
            hom.append(Q(0) if upper == alpha else Q(1))
            x_val = Q(0) if upper == alpha else None
            continue
        if x_val is None and rhs_h:
            x_val = -rhs_p / rhs_h
            part = [a + x_val * b for a, b in zip(part, hom)]
            hom = [Q(0)] * len(hom)
            rhs_p = rhs_h = Q(0)
        if rhs_p or rhs_h:
            raise InconsistentResonance(f"no log solution: inconsistent resonance at step {n}")
        part.append(Q(0))
        hom.append(Q(0))
    if x_val is None:
        part = [a + b for a, b in zip(part, hom)]
    f0 = PuiseuxSeries(alpha, 1, tuple(part))
    return LogSeries(f0, f1.truncate(f0.truncation))


#: the log solves of the benchmark session (perfbench/inputs.py): raw and
#: classified parameters whose upper root lies at most two steps above alpha
LOG_POOL = [(Q(-138, 5), Q(-9, 10)), (Q(-78, 5), Q(-3, 5)), (Q(-78, 5), Q(-2, 5)),
            (Q(-18, 5), Q(1, 10)), (Q(-18, 5), Q(-1, 10)), (Q(-6, 5), Q(0)),
            (Q(6), Q(1, 2)), (Q(42, 5), Q(2, 5)), (Q(42, 5), Q(-2, 5)),
            (Q(162, 5), Q(-3, 5))]


def test_log_solve_matches_fraction_reference():
    for s, alpha in LOG_POOL:
        op = build_flat(s, 42)
        got = frobenius_solve_log(op, alpha, 40).to_json_dict()
        assert got == _reference_solve_log(op, alpha, 40).to_json_dict(), (s, alpha)


def test_log_solution_pins_free_coefficient():
    # roots -7/5, -3/5, 7/5, 8/5: the homogeneous part is resonant at
    # step 2, which fixes the coefficient of q^(-3/5)
    op = build_flat(Q(162, 5), 12)
    sol = frobenius_solve_log(op, Q(-3, 5), 10)
    got = [sol.plain.coefficient(Q(-3, 5) + k) for k in range(4)]
    assert got == [Q(-1, 102960), Q(343, 77220), 0, Q(-1275622, 6435)]
    assert sol.log_part.leading() == (Q(7, 5), 1)
    assert op.apply(sol).is_zero_to_truncation()


def test_log_solution_double_root():
    op = build_flat(Q(-6, 5), 12)
    sol = frobenius_solve_log(op, 0, 10)
    assert [sol.plain.coefficient(k) for k in range(4)] == [0, -30, -10, Q(-40, 3)]
    assert sol.log_part.leading() == (0, 1)
    assert op.apply(sol).is_zero_to_truncation()


def test_log_solution_inconsistent_at_step_2():
    with pytest.raises(InconsistentResonance, match="at step 2"):
        frobenius_solve_log(build_flat(-18, 12), Q(-1, 2), 10)


#: (s, alpha) with the upper root 3, 2, 0 and 0 steps above alpha
SHORT_LOG = [(Q(-138, 5), Q(-11, 10)), (Q(162, 5), Q(-3, 5)), (Q(6), Q(1, 2)),
             (Q(-6, 5), Q(0))]


@pytest.mark.parametrize("s, alpha", SHORT_LOG)
def test_log_solution_at_every_order_truncates_a_longer_one(s, alpha):
    # below the gap to the upper root the log part is zero, and the free
    # coefficient of f0 is still the one the resonant step pins
    gap = max(int(r - alpha) for r in flat_indicial_roots(s)
              if r >= alpha and (r - alpha).denominator == 1)
    longer = frobenius_solve_log(build_flat(s, 8), alpha, 8)
    for order in range(8):
        reach = max(order, gap)
        sol = frobenius_solve_log(build_flat(s, reach), alpha, order)
        assert sol.truncation == alpha + order + 1
        for part in ("plain", "log_part"):
            got, want = getattr(sol, part), getattr(longer, part)
            assert got.truncation == sol.truncation, (order, part)
            assert [got.coefficient(alpha + k) for k in range(order + 1)] == \
                [want.coefficient(alpha + k) for k in range(order + 1)], (order, part)
        if reach:
            with pytest.raises(InsufficientOrder):
                frobenius_solve_log(build_flat(s, reach - 1), alpha, order)


def test_no_log_needed():
    op = build_flat(Q(6, 5), 6)
    with pytest.raises(NoLogNeeded):
        frobenius_solve_log(op, Q(-1, 10), 4)


def test_apply_indicial_polynomial():
    op = build_flat(Q(6, 5), 6)
    f = PuiseuxSeries.q_power(Q(1, 3), 5)
    lead = op.apply(f).leading()
    assert lead[0] == Q(1, 3)


#: five distinct bases: agreeing on q^b for each pins all five coefficient
#: series c_j of sum c_j D^j, since L(q^b) = sum_j c_j b^j q^b
WEIGHT_PROBES = (Q(0), Q(1, 5), Q(-1, 2), Q(4, 3), Q(-7, 4))


def test_weighted_equals_plain_at_k0():
    op = build_flat(Q(6, 5), 12)
    for b in WEIGHT_PROBES:
        f = PuiseuxSeries.q_power(b, 12)
        diff = flat_weighted_apply(Q(6, 5), 0, f) - op.apply(f)
        assert diff.first_nonzero() is None, b


def test_weighted_annihilates_level5_solution():
    # weight-6/5 solution psi1(psi1^5 + 2 psi2^5)
    p1, p2 = F.psi1(30), F.psi2(30)
    f = p1 * (p1.pow(5) + p2.pow(5).scale(2))
    assert flat_weighted_apply(Q(6, 5), Q(6, 5), f).first_nonzero(24) is None


def test_serre_derivation_basics():
    one = PuiseuxSeries.one(10)
    assert serre_derivation(one, 0).is_zero_to_truncation()
    # theta_k(eta^2k * f) = eta^2k * theta_{k-l}... spot check l = k
    f = PuiseuxSeries.make(0, [1, 3, 1, 4, 1, 5, 9, 2, 6])
    k = Q(3, 2)
    eta2k = F.eta(12).pow(2 * k)
    lhs = serre_derivation(eta2k * f, k)
    rhs = eta2k * serre_derivation(f, 0)
    t = min(lhs.truncation, rhs.truncation)
    assert (lhs.truncate(t) - rhs.truncate(t)).is_zero_to_truncation()


def test_third_order_auxiliary():
    # the auxiliary cubic operator annihilates its closed-form solution
    from mldelab.catalog import aux_third_order
    op = aux_third_order(34)
    p1, p2 = F.psi1(40), F.psi2(40)
    f = (p1.pow(10) - p1.pow(5) * p2.pow(5).scale(36) - p2.pow(10)) / F.eta(40).pow(4)
    res = op.apply(f)
    assert res.truncate(f.leading()[0] + 30).is_zero_to_truncation()


def test_modular_wronskian_degenerate_cases():
    f = PuiseuxSeries.make(0, [1, 2, 3, 4, 5, 6])
    g = PuiseuxSeries.make(0, [1, 1, 2, 3, 5, 8])
    assert (modular_wronskian([f]) - f).is_zero_to_truncation()
    w = modular_wronskian([f, f])
    assert w.is_zero_to_truncation()
    assert not modular_wronskian([f, g]).is_zero_to_truncation()


def test_factored_apply_matches_flat():
    rng = random.Random(20240824)
    for s in SHARP_FACTORIZATIONS:
        op = build_flat(s, 36)
        for _ in range(3):
            f = PuiseuxSeries.make(
                Q(rng.randint(-6, 6), rng.randint(1, 10)),
                [Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(33)])
            a, b = op.apply(f), factored_apply(s, f)
            t = min(a.truncation, b.truncation)
            assert t - f.base >= 30
            assert (a.truncate(t) - b.truncate(t)).is_zero_to_truncation()
    with pytest.raises(KeyError):
        factored_apply(Q(6, 5), PuiseuxSeries.one(5))


def test_build_custom_monic_requirement():
    ident = PuiseuxSeries.one(8)
    op = build_custom((PuiseuxSeries.zero(8), ident))
    assert op.order == 1
    with pytest.raises(ValueError, match="monic"):
        build_custom((ident, ident.scale(2)))
    # a coefficient off q^0 or off the integer grid is no power series in q
    for c in (PuiseuxSeries.zero(8, Q(1, 2)), PuiseuxSeries.zero(8, 0, 2)):
        with pytest.raises(ValueError, match="power series"):
            build_custom((c, ident))


def test_operator_tables_read_the_coefficients():
    """The direct read of each coefficient's numerators agrees with its
    coefficients at q^0..q^6 over its denominator, and stops at q^7."""
    ops = (build_flat(Q(6, 5), 6), build_flat(18, 6), build_sharp(mu(Q(19, 5)), 6),
           aux_third_order(6))
    for op in ops:
        assert [(list(ns), den) for ns, den in _operator_tables(op, 6)] == \
            [([c.coefficient(i) * c.den for i in range(7)], c.den) for c in op.coefficients]
        with pytest.raises(InsufficientOrder, match=r"justified to q\^7, need > 7"):
            _operator_tables(op, 7)


def test_indicial_covers_flat_only():
    with pytest.raises(ValueError):
        indicial(build_sharp(mu(Q(19, 5)), 4))


def test_sharp_operator():
    # the second-order family at mu(19/5) annihilates the E8-type solution
    op = build_sharp(mu(Q(19, 5)), 30)
    f = frobenius_solve(op, Q(-19, 60), 25)
    assert [f.coefficient(Q(-19, 60) + k) for k in range(3)] == [1, 190, 2831]
