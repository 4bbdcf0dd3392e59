"""Diophantine classification of parameters s admitting a CFT-type solution.

For each of the four indicial roots of the fourth-order family, the n = 1
step of the Frobenius recursion is a quadratic Diophantine constraint
linking t = m*s to the first Fourier coefficient a1.  Writing the
constraint as (first factor d) * (cofactor) = C, every admissible t comes
from a divisor d of C with the induced a1 a non-negative integer.  The
surviving candidates are then filtered by demanding that the full
Frobenius expansion stays of CFT type up to a per-case depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import catalog
from .mlde import Resonance, build_flat, divisors, flat_indicial_roots, frobenius_solve
from .series import Q


@dataclass(frozen=True)
class CaseSpec:
    """One indicial-root case of the n = 1 Diophantine analysis."""

    case_id: int
    m: int                              # substitution t = m*s
    constant: int                       # C in (d) * (cofactor) = C
    d_offset: int                       # t = d + d_offset
    a1_of_d: Callable[[int], Fraction]  # a1 induced by the divisor d
    excluded_linear_root: Fraction
    filter_depth: int


CASES: dict[int, CaseSpec] = {
    1: CaseSpec(
        case_id=1, m=5, constant=-2880, d_offset=42,
        a1_of_d=lambda d: Q(-2880, d) - d - 108,
        excluded_linear_root=Q(54, 5), filter_depth=4),
    2: CaseSpec(
        case_id=2, m=15, constant=100800, d_offset=306,
        a1_of_d=lambda d: (Q(-100800, d) - d - 632) / 3,
        excluded_linear_root=Q(18), filter_depth=32),
    3: CaseSpec(
        case_id=3, m=5, constant=4200, d_offset=-78,
        a1_of_d=lambda d: d - 130 + Q(4200, d),
        excluded_linear_root=Q(-6), filter_depth=23),
    4: CaseSpec(
        case_id=4, m=5, constant=180, d_offset=-18,
        a1_of_d=lambda d: d - 27 + Q(180, d),
        excluded_linear_root=Q(-66, 5), filter_depth=3),
}

#: values whose CFT-type solutions are quasimodular of positive depth: the
#: parameters of the catalog's C sections
QUASIMODULAR_VALUES: tuple[Fraction, ...] = tuple(sorted(
    {e.s for e in catalog.ENTRIES.values() if e.section.startswith("C.")}))


def enumerate_case(case: CaseSpec) -> list[tuple[Fraction, int]]:
    """All (s, a1) with a1 a non-negative integer, sorted by s."""
    out = []
    for d in (sign * p for p in divisors(case.constant) for sign in (1, -1)):
        a1 = case.a1_of_d(d)
        if a1.denominator != 1 or a1 < 0:
            continue
        t = d + case.d_offset
        out.append((Q(t, case.m), int(a1)))
    return sorted(out)


@dataclass(frozen=True)
class CandidateReport:
    case_id: int
    raw_candidates: tuple[tuple[Fraction, int], ...]
    survivors_by_depth: dict[int, tuple[Fraction, ...]]
    final: tuple[Fraction, ...]
    resonant: tuple[Fraction, ...] = ()


def filter_candidates(case: CaseSpec, depth: Optional[int] = None) -> CandidateReport:
    """Keep s iff the Frobenius solution at the case root is CFT type to depth:
    s passes depth n when its first non-counting coefficient, if any, lies
    past q^(alpha + n).

    Also cross-checks the Diophantine a1 against the recursion's a1.
    """
    candidates = enumerate_case(case)
    depth = depth if depth is not None else case.filter_depth
    passed_upto: dict[Fraction, int] = {}
    resonant: list[Fraction] = []
    for s, a1 in candidates:
        alpha = flat_indicial_roots(s)[case.case_id - 1]
        op = build_flat(s, depth)
        try:
            f = frobenius_solve(op, alpha, depth)
        except Resonance:
            resonant.append(s)
            passed_upto[s] = 0
            continue
        a1_rec = f.coefficient(alpha + 1)
        if a1_rec != a1:
            raise AssertionError(
                f"case {case.case_id}, s={s}: Diophantine a1={a1} but recursion a1={a1_rec}")
        bad = f.first_non_counting()
        passed_upto[s] = depth if bad is None else int(bad[0] - alpha) - 1
    survivors_by_depth = {
        k: tuple(s for s, _ in candidates if passed_upto[s] >= k)
        for k in range(1, depth + 1)
    }
    return CandidateReport(
        case_id=case.case_id,
        raw_candidates=tuple(candidates),
        survivors_by_depth=survivors_by_depth,
        final=survivors_by_depth[depth],
        resonant=tuple(resonant))


def classify_all() -> tuple[Fraction, ...]:
    """Union of the four filtered cases plus the excluded linear roots."""
    values: set[Fraction] = set()
    for case in CASES.values():
        values.update(filter_candidates(case).final)
        values.add(case.excluded_linear_root)
    return tuple(sorted(values))


def strictly_modular_candidates() -> tuple[Fraction, ...]:
    """The classification minus the six quasimodular values (17 numbers)."""
    return tuple(s for s in classify_all() if s not in QUASIMODULAR_VALUES)

