"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

These tests compute everything fresh and enforce the stated runtime
budgets, so this file is meant to run first in the session (pytest's
default alphabetical collection does that).
"""

import functools
import random
import time
from fractions import Fraction as Fr

from mldelab import catalog, characters, classify, relations
from mldelab.mlde import (SHARP_FACTORIZATIONS, Resonance, build_flat,
                          factored_apply, frobenius_solve,
                          frobenius_solve_log)
from mldelab.series import PuiseuxSeries, Q


def criterion(n, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {n:2d} ({desc}): FAIL")
                raise
            print(f"criterion {n:2d} ({desc}): PASS")
        return wrapped
    return deco


def _fr(*nums):
    return {Fr(n) if isinstance(n, int) else Fr(*n) for n in nums}


FINAL_CASE_1 = _fr((-318, 5), (-198, 5), (-138, 5), (-78, 5), (-48, 5),
                   (-38, 5), (-18, 5), (-6, 5), (-3, 5), (2, 5), (6, 5),
                   (12, 5), (18, 5), (22, 5), (27, 5), 6, (32, 5))
FINAL_CASE_2 = _fr((-3, 5), (6, 5), (42, 5))
FINAL_CASE_3 = _fr((-66, 5), (-18, 5), (-8, 5), (-3, 5), (6, 5))
FINAL_CASE_4 = _fr((-8, 5), (-6, 5), (-3, 5), (2, 5), (12, 5), (42, 5))
FINAL_ALL = FINAL_CASE_1 | {Fr(42, 5), Fr(54, 5), Fr(18), Fr(-66, 5),
                            Fr(-6), Fr(-8, 5)}
RAW_CASE_1 = _fr((-2838, 5), (-1398, 5), (-918, 5), (-678, 5), (-534, 5),
                 (-438, 5), (-318, 5), (-278, 5), (-246, 5), (-198, 5), -30,
                 (-138, 5), (-118, 5), (-102, 5), (-78, 5), (-54, 5),
                 (-48, 5), (-38, 5), -6, (-22, 5), (-18, 5), (-6, 5),
                 (-3, 5), (2, 5), (6, 5), 2, (12, 5), (18, 5), (22, 5),
                 (24, 5), (26, 5), (27, 5), 6, (32, 5), (33, 5), (34, 5),
                 (36, 5), (37, 5), (38, 5), (39, 5), 8, (41, 5))
RAW_CASE_4 = _fr((-17, 5), (-16, 5), -3, (-14, 5), (-13, 5), (-12, 5),
                 (-9, 5), (-8, 5), (-6, 5), (-3, 5), 0, (2, 5), (12, 5),
                 (18, 5), (27, 5), (42, 5), (72, 5), (162, 5))


@criterion(1, "classification reproduction")
def test_criterion_01_classification():
    t0 = time.monotonic()
    assert set(classify.filter_candidates(classify.CASES[1], depth=4).final) \
        == FINAL_CASE_1
    assert set(classify.filter_candidates(classify.CASES[2], depth=32).final) \
        == FINAL_CASE_2
    assert set(classify.filter_candidates(classify.CASES[3], depth=23).final) \
        == FINAL_CASE_3
    assert set(classify.filter_candidates(classify.CASES[4], depth=3).final) \
        == FINAL_CASE_4
    final = classify.classify_all()
    assert set(final) == FINAL_ALL and len(final) == 23
    assert time.monotonic() - t0 < 60


@criterion(2, "raw Diophantine sets")
def test_criterion_02_raw_sets():
    assert {s for s, _ in classify.enumerate_case(classify.CASES[1])} == RAW_CASE_1
    assert {s for s, _ in classify.enumerate_case(classify.CASES[4])} == RAW_CASE_4


#: catalog sections whose printed expansions serve as Frobenius fixtures
_FIXTURE_SECTIONS = ("B.a", "B.d", "B.e", "B.f", "B.h", "B.l", "B.q",
                     "C.e", "C.f")


@criterion(3, "Frobenius fixtures from printed expansions")
def test_criterion_03_frobenius_fixtures():
    fixtures = 0
    coefficients = 0
    for label in catalog.labels():
        e = catalog.entry(label)
        if (e.section not in _FIXTURE_SECTIONS or e.operator != "flat"
                or not e.printed_prefix or e.printed_prefix[0] != 1):
            continue
        n = len(e.printed_prefix)
        try:
            f = frobenius_solve(build_flat(e.s, n + 2), e.exponent, n)
        except Resonance:
            continue
        got = [f.coefficient(e.exponent + k) for k in range(n)]
        assert got == list(e.printed_prefix), label
        fixtures += 1
        coefficients += n
    assert fixtures >= 9, fixtures
    assert coefficients >= 40, coefficients


@criterion(4, "differential/functional relations with exact quarantine")
def test_criterion_04_relations():
    t0 = time.monotonic()
    reports = relations.verify_all()   # groups a-d at 50, e-g at 25
    failed = [r["label"] for r in reports if r["status"] == "failed"]
    assert failed == []
    quarantined = sorted(r["label"] for r in reports
                         if r["status"].startswith("quarantined"))
    assert quarantined == ["e.5", "f.8"]
    assert time.monotonic() - t0 < 120


@criterion(5, "catalog annihilation + printed prefixes + log fixture")
def test_criterion_05_catalog():
    reports = catalog.verify_all()   # order >= 25 per entry
    failed = [r["label"] for r in reports if r["status"] == "failed"]
    assert failed == []
    assert len(reports) == 92
    sol = frobenius_solve_log(build_flat(6, 10), Q(1, 2), 6)
    got = [abs(sol.plain.coefficient(Q(3, 2) + k)) for k in range(3)]
    assert got == [Q(2530, 81), Q(191600, 693), Q(8906965, 4788)]


@criterion(6, "operator factorization identities on random series")
def test_criterion_06_factorizations():
    rng = random.Random(8_2024)
    assert set(SHARP_FACTORIZATIONS) == {Q(32, 5), Q(-8, 5)}
    assert SHARP_FACTORIZATIONS[Q(32, 5)][1] == Q(11, 3600)
    assert SHARP_FACTORIZATIONS[Q(-8, 5)][1] == Q(551, 3600)
    for s in SHARP_FACTORIZATIONS:
        op = build_flat(s, 36)
        for _ in range(20):
            f = PuiseuxSeries.make(
                Q(rng.randint(-8, 8), rng.randint(1, 12)),
                [Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(33)])
            a, b = op.apply(f), factored_apply(s, f)
            t = min(a.truncation, b.truncation)
            assert t - f.base >= 30
            assert (a.truncate(t) - b.truncate(t)).is_zero_to_truncation()


@criterion(7, "Wronskian constants and exponent sums")
def test_criterion_07_wronskian():
    checked = 0
    for s in catalog.catalogued_parameters():
        if not catalog.has_plain_system(s):
            continue
        assert catalog.exponent_sum(s) == 1, s
        const, ok = catalog.wronskian_over_eta24(s, 25)
        assert ok and const != 0, s
        checked += 1
    assert checked >= 15


@criterion(8, "Ramond character cross-checks")
def test_criterion_08_characters():
    t0 = time.monotonic()
    for name in ("A2", "G2", "D4", "F4", "E6", "E7", "E8"):
        rep = characters.verify_case(name, 25)
        assert rep["status"] == "verified", (name, rep)
    by_name = {d.name: d for d in characters.deligne_table()}
    assert by_name["A2"].ramond_exponents == (
        Fr(-1, 15), Fr(1, 15), Fr(4, 15), Fr(11, 15))
    assert by_name["E8"].ramond_exponents == (Fr(-19, 60), Fr(29, 60))
    assert time.monotonic() - t0 < 300


@criterion(9, "non-negative integer expansions at the four formal parameters")
def test_criterion_09_remark():
    assert catalog.REMARK_PARAMETERS == (
        Q(-33, 5), Q(-58, 5), Q(-108, 5), Q(-258, 5))
    for s in catalog.REMARK_PARAMETERS:
        assert catalog.remark_holds(s, order=99), s


@criterion(10, "property suites present and sized")
def test_criterion_10_property_suites():
    # the suites themselves run in test_properties.py; here we assert the
    # harness is configured for >= 200 random cases per suite
    import test_properties as tp
    assert tp.SET.max_examples >= 200
    suites = [name for name in dir(tp) if name.startswith("test_")]
    assert len(suites) >= 5
