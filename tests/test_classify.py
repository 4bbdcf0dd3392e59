from fractions import Fraction as Fr

from hypothesis import assume, given, settings, strategies as st

from mldelab import catalog
from mldelab.classify import (CASES, QUASIMODULAR_VALUES, classify_all,
                              enumerate_case, filter_candidates,
                              strictly_modular_candidates)
from mldelab.mlde import build_flat, divisors, flat_indicial_roots, frobenius_solve
from mldelab.series import Q, rat


def _fr(*nums):
    return {Fr(n) if isinstance(n, int) else Fr(*n) for n in nums}


#: the printed raw divisor-enumeration set for case 1 (42 values)
RAW_CASE_1 = _fr(
    (-2838, 5), (-1398, 5), (-918, 5), (-678, 5), (-534, 5), (-438, 5),
    (-318, 5), (-278, 5), (-246, 5), (-198, 5), -30, (-138, 5), (-118, 5),
    (-102, 5), (-78, 5), (-54, 5), (-48, 5), (-38, 5), -6, (-22, 5),
    (-18, 5), (-6, 5), (-3, 5), (2, 5), (6, 5), 2, (12, 5), (18, 5),
    (22, 5), (24, 5), (26, 5), (27, 5), 6, (32, 5), (33, 5), (34, 5),
    (36, 5), (37, 5), (38, 5), (39, 5), 8, (41, 5))

#: the printed raw set for case 4 (18 values)
RAW_CASE_4 = _fr(
    (-17, 5), (-16, 5), -3, (-14, 5), (-13, 5), (-12, 5), (-9, 5),
    (-8, 5), (-6, 5), (-3, 5), 0, (2, 5), (12, 5), (18, 5), (27, 5),
    (42, 5), (72, 5), (162, 5))

#: filtered sets at the per-case depths
FINAL_CASE_1 = _fr(
    (-318, 5), (-198, 5), (-138, 5), (-78, 5), (-48, 5), (-38, 5),
    (-18, 5), (-6, 5), (-3, 5), (2, 5), (6, 5), (12, 5), (18, 5),
    (22, 5), (27, 5), 6, (32, 5))
FINAL_CASE_2 = _fr((-3, 5), (6, 5), (42, 5))
FINAL_CASE_3 = _fr((-66, 5), (-18, 5), (-8, 5), (-3, 5), (6, 5))
FINAL_CASE_4 = _fr((-8, 5), (-6, 5), (-3, 5), (2, 5), (12, 5), (42, 5))

#: the 23-element combined list
FINAL_ALL = FINAL_CASE_1 | {Fr(42, 5), Fr(54, 5), Fr(18), Fr(-66, 5),
                            Fr(-6), Fr(-8, 5)}


def test_raw_sets_exact():
    assert {s for s, _ in enumerate_case(CASES[1])} == RAW_CASE_1
    assert {s for s, _ in enumerate_case(CASES[4])} == RAW_CASE_4


def test_case_finals():
    assert set(filter_candidates(CASES[1], depth=4).final) == FINAL_CASE_1
    assert set(filter_candidates(CASES[2], depth=32).final) == FINAL_CASE_2
    assert set(filter_candidates(CASES[3], depth=23).final) == FINAL_CASE_3
    assert set(filter_candidates(CASES[4], depth=3).final) == FINAL_CASE_4


def test_classify_all_23():
    final = classify_all()
    assert set(final) == FINAL_ALL
    assert len(final) == 23


def test_strictly_modular_17():
    vals = strictly_modular_candidates()
    assert len(vals) == 17
    assert set(vals) == FINAL_ALL - set(QUASIMODULAR_VALUES)


def test_excluded_linear_roots():
    assert [CASES[c].excluded_linear_root for c in (1, 2, 3, 4)] == \
        [Fr(54, 5), Fr(18), Fr(-6), Fr(-66, 5)]


# -- the printed Diophantine table against the derived constraints -------

#: the printed n = 1 analysis, case by case: t = m*s = d + d_offset for a
#: divisor d of C, the a1 that d induces, and the excluded linear root
PRINTED_CASES = {
    1: dict(m=5, constant=-2880, d_offset=42,
            a1_of_d=lambda d: Q(-2880, d) - d - 108, excluded_linear_root=Q(54, 5)),
    2: dict(m=15, constant=100800, d_offset=306,
            a1_of_d=lambda d: (Q(-100800, d) - d - 632) / 3, excluded_linear_root=Q(18)),
    3: dict(m=5, constant=4200, d_offset=-78,
            a1_of_d=lambda d: d - 130 + Q(4200, d), excluded_linear_root=Q(-6)),
    4: dict(m=5, constant=180, d_offset=-18,
            a1_of_d=lambda d: d - 27 + Q(180, d), excluded_linear_root=Q(-66, 5)),
}


def test_derived_constraints_match_the_printed_table():
    for cid, printed in PRINTED_CASES.items():
        n1 = CASES[cid].n1
        assert (n1.m, n1.d_offset, n1.excluded_linear_root) == \
            (printed["m"], printed["d_offset"], printed["excluded_linear_root"]), cid
        # C enters only through its divisors, and the printed table writes
        # case 1's equation d * (cofactor) = C with the other sign
        assert abs(n1.constant) == abs(printed["constant"]), cid
        for d in (sign * p for p in divisors(n1.constant) for sign in (1, -1)):
            assert n1.a1(d) == printed["a1_of_d"](d), (cid, d)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from((1, 2, 3, 4)), st.integers(-400, 400), st.integers(1, 30))
def test_derived_a1_is_the_recursion_step(cid, p, q):
    # away from the pole and the excluded root, the derived constraint gives
    # the recursion's own first coefficient, which solves the printed n = 1
    # polynomial
    n1, s = CASES[cid].n1, Q(p, q)
    d = n1.m * s - n1.d_offset
    assume(d != 0 and s != n1.excluded_linear_root)
    alpha = flat_indicial_roots(s)[cid - 1]
    a1 = frobenius_solve(build_flat(s, 1), alpha, 1).coefficient(alpha + 1)
    assert n1.a1(d) == a1
    assert n1_polynomial_fixture(cid, s, a1) == 0


# -- the printed n = 1 and n = 2 polynomials ----------------------------

def n1_polynomial_fixture(case_id, s, a1):
    """The factored n = 1 polynomial of the given case, evaluated at (s, a1)."""
    s, a1 = rat(s), rat(a1)
    if case_id == 1:
        return (5 * s - 54) * (25 * s * s + 5 * s * a1 + 120 * s - 42 * a1 + 108)
    if case_id == 2:
        return (s - 18) * (75 * s * s + 15 * s * a1 + 100 * s - 306 * a1 + 348)
    if case_id == 3:
        return (s + 6) * (25 * s * s - 5 * s * a1 + 130 * s - 78 * a1 + 144)
    if case_id == 4:
        return (5 * s + 66) * (25 * s * s - 5 * s * a1 + 45 * s - 18 * a1 + 18)
    raise KeyError(f"unknown case {case_id}")


def n2_polynomial_fixture(case_id, s, a1, a2):
    """The expanded n = 2 polynomial of the given case, evaluated at (s, a1, a2)."""
    s, a1, a2 = rat(s), rat(a1), rat(a2)
    if case_id == 1:
        return (-386208 - 720360 * s - 355500 * s**2 - 15750 * s**3 + 3125 * s**4
                - 72792 * a1 - 22140 * s * a1 - 26250 * s**2 * a1 + 1375 * s**3 * a1
                + 139536 * a2 - 12960 * s * a2 + 300 * s**2 * a2)
    if case_id == 2:
        return (625 * s**4 - 1350 * s**3 + 475 * a1 * s**3 - 155340 * s**2
                - 13650 * a1 * s**2 + 140 * a2 * s**2 - 385128 * s - 1836 * a1 * s
                - 8736 * a2 * s - 474336 + 161352 * a1 + 136080 * a2)
    if case_id == 3:
        return (-245592 - 295812 * s - 124830 * s**2 - 9975 * s**3 + 625 * s**4
                + 15120 * a1 + 9216 * s * a1 - 6180 * s**2 * a1 - 400 * s**3 * a1
                + 54648 * a2 + 5016 * s * a2 + 110 * s**2 * a2)
    if case_id == 4:
        return (-661608 - 1138860 * s - 551250 * s**2 - 47625 * s**3 + 3125 * s**4
                - 41472 * a1 + 11160 * s * a1 - 24000 * s**2 * a1 - 1750 * s**3 * a1
                + 176904 * a2 + 18360 * s * a2 + 450 * s**2 * a2)
    raise KeyError(f"unknown case {case_id}")


def test_n1_polynomial_vanishes_on_candidates():
    for cid in (1, 2, 3, 4):
        for s, a1 in enumerate_case(CASES[cid]):
            assert n1_polynomial_fixture(cid, s, a1) == 0


def test_n2_polynomial_vanishes_with_recursion():
    from mldelab.mlde import Resonance
    for cid in (1, 4):
        case = CASES[cid]
        for s, a1 in enumerate_case(case)[:8]:
            alpha = flat_indicial_roots(s)[cid - 1]
            try:
                f = frobenius_solve(build_flat(s, 4), alpha, 2)
            except Resonance:
                continue
            a2 = f.coefficient(alpha + 2)
            assert n2_polynomial_fixture(cid, s, a1, a2) == 0


def test_quasimodular_values():
    assert set(QUASIMODULAR_VALUES) == _fr(
        (-318, 5), (-198, 5), (-138, 5), (-78, 5), (-18, 5), (42, 5))


def test_filter_depth_is_the_deepest_witness():
    # a candidate's witness is the first coefficient of its Frobenius
    # solution, to depth 32, that is not a non-negative integer: every
    # survivor has none, and each case's depth is its rejects' deepest one
    for cid, case in CASES.items():
        final = set(filter_candidates(case).final)
        deepest = 0
        for s, _ in enumerate_case(case):
            alpha = flat_indicial_roots(s)[cid - 1]
            bad = frobenius_solve(build_flat(s, 33), alpha, 32).first_non_counting()
            assert (bad is None) == (s in final), (cid, s)
            if bad is not None:
                deepest = max(deepest, bad[0] - alpha)
        assert deepest == case.filter_depth, cid
    assert [CASES[c].filter_depth for c in (1, 2, 3, 4)] == [4, 32, 23, 3]


def test_no_candidate_is_resonant():
    # a resonant step would raise Resonance from the solve to the case depth
    for cid, case in CASES.items():
        depth = case.filter_depth
        for s, _ in enumerate_case(case):
            alpha = flat_indicial_roots(s)[cid - 1]
            frobenius_solve(build_flat(s, depth), alpha, depth)


def test_classification_is_the_catalogued_parameters():
    assert classify_all() == catalog.catalogued_parameters()
