"""Diophantine classification of parameters s admitting a CFT-type solution.

At each indicial root alpha(s), the n = 1 Frobenius step gives a1 =
-sum_j c_{j,1} alpha^j / P(alpha + 1) (Mathur, Mukhi and Sen).  P(alpha + 1)
vanishes at the excluded linear root, where the step's right-hand side does
too, and at a pole s*.  Both points, and a1 = A*u + B + K/u at u = s - s*,
are read off the step.  With g the lcm of the denominators of A, B and K,
signed like A, and m = g*A, an integer a1 makes d = m*u an integer divisor
of C = g*K*m.  Those candidates are kept if their Frobenius expansion stays
of CFT type to a per-case depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Optional

from . import catalog
from .mlde import (_frobenius_sweep, _operator_tables, build_flat, divisors,
                   flat_indicial_roots, frobenius_solve)
from .series import Q


def _n1_step(i: int, s: Fraction) -> tuple[Fraction, Optional[Fraction]]:
    """(a1, residual) of the n = 1 Frobenius step at the i-th root."""
    alpha = flat_indicial_roots(s)[i]
    a, residuals = _frobenius_sweep(_operator_tables(build_flat(s, 1), 1), alpha, 1, Q(1))
    return Q(a.nums[1], a.den), residuals.get(1)


@dataclass(frozen=True)
class N1Constraint:
    """g*a1*d = d^2 + shift*d + constant at s = (d + d_offset)/m."""

    excluded_linear_root: Fraction
    m: int
    d_offset: Fraction
    g: int
    shift: int
    constant: int

    def a1(self, d: Fraction) -> Fraction:
        return Q((d + self.shift) * d + self.constant, self.g * d)


def _derive(i: int) -> N1Constraint:
    # the roots in s of the differences alpha_i + 1 - alpha_j, affine in s
    r0, r1 = flat_indicial_roots(0), flat_indicial_roots(1)
    points = [(r0[j] - r0[i] - 1) / slope for j in range(4)
              if (slope := r1[i] - r0[i] - r1[j] + r0[j])]
    is_pole = {p: _n1_step(i, p)[1] != 0 for p in points}
    if sorted(is_pole.values()) != [False, True]:
        raise ArithmeticError(f"case {i + 1}: P(alpha + 1) vanishes at {points}")
    excluded, pole = sorted(is_pole, key=is_pole.get)
    # h(u) = u*a1(pole + u) = A u^2 + B u + K is at most cubic (the step's
    # numerator is at most quartic): h(+-1) and h(+-2) pin it and its u^3 term
    steps = [_n1_step(i, pole + u) for u in (1, -1, 2, -2)]
    h1, hm1, h2, hm2 = (u * a1 for u, (a1, _) in zip((1, -1, 2, -2), steps))
    A, B, K = (h2 + hm2 - h1 - hm1) / 6, (h1 - hm1) / 2, (4 * (h1 + hm1) - h2 - hm2) / 6
    if not A or not K or h2 - hm2 != 4 * B or any(r is not None for _, r in steps):
        raise ArithmeticError(f"case {i + 1}: a1 is not quadratic over linear in s")
    # u is a root of g*A*u^2 - g*(a1 - B)*u + g*K, so its denominator divides m
    g = lcm(A.denominator, B.denominator, K.denominator) * (1 if A > 0 else -1)
    m = int(g * A)
    return N1Constraint(excluded, m, m * pole, g, int(g * B), int(g * K * m))


@dataclass(frozen=True)
class CaseSpec:
    """One indicial-root case; its n = 1 constraint is derived on first use."""

    case_id: int
    filter_depth: int

    @cached_property
    def n1(self) -> N1Constraint:
        return _derive(self.case_id - 1)

    @property
    def excluded_linear_root(self) -> Fraction:
        return self.n1.excluded_linear_root


CASES: dict[int, CaseSpec] = {i: CaseSpec(i, d) for i, d in enumerate((4, 32, 23, 3), 1)}

#: values whose CFT-type solutions are quasimodular of positive depth: the
#: parameters of the catalog's C sections
QUASIMODULAR_VALUES: tuple[Fraction, ...] = tuple(sorted(
    {e.s for section, es in catalog.SECTIONS.items() if section.startswith("C.") for e in es}))


def enumerate_case(case: CaseSpec) -> list[tuple[Fraction, int]]:
    """All (s, a1) with a1 a non-negative integer, sorted by s."""
    n1 = case.n1
    a1s = {d: n1.a1(d) for p in divisors(n1.constant) for d in (p, -p)}
    return sorted(((d + n1.d_offset) / n1.m, int(a1)) for d, a1 in a1s.items()
                  if a1.denominator == 1 and a1 >= 0)


@dataclass(frozen=True)
class CandidateReport:
    case_id: int
    raw_candidates: tuple[tuple[Fraction, int], ...]
    survivors_by_depth: dict[int, tuple[Fraction, ...]]
    final: tuple[Fraction, ...]


def filter_candidates(case: CaseSpec, depth: Optional[int] = None) -> CandidateReport:
    """Keep s iff the Frobenius solution at the case root is CFT type to depth:
    s passes depth n when its first non-counting coefficient, if any, lies
    past q^(alpha + n)."""
    candidates = enumerate_case(case)
    depth = depth if depth is not None else case.filter_depth
    passed_upto: dict[Fraction, int] = {}
    for s, _ in candidates:
        alpha = flat_indicial_roots(s)[case.case_id - 1]
        bad = frobenius_solve(build_flat(s, depth), alpha, depth).first_non_counting()
        passed_upto[s] = depth if bad is None else int(bad[0] - alpha) - 1
    survivors_by_depth = {
        k: tuple(s for s, _ in candidates if passed_upto[s] >= k)
        for k in range(1, depth + 1)
    }
    return CandidateReport(case.case_id, tuple(candidates), survivors_by_depth,
                           survivors_by_depth[depth])


def case_values(case: CaseSpec) -> frozenset[Fraction]:
    """One case's share of the classification: its filtered candidates and
    its excluded linear root."""
    return frozenset(filter_candidates(case).final) | {case.excluded_linear_root}


def classify_all() -> tuple[Fraction, ...]:
    """Union of the four cases' values (``case_values``), sorted."""
    return tuple(sorted(frozenset().union(*map(case_values, CASES.values()))))


def strictly_modular_candidates() -> tuple[Fraction, ...]:
    """The classification minus the six quasimodular values (17 numbers)."""
    return tuple(s for s in classify_all() if s not in QUASIMODULAR_VALUES)
