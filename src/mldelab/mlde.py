"""Modular linear differential operators in the Euler derivative D = q d/dq.

An operator is a monic polynomial sum(c_j(q) * D^j); the two built-in
one-parameter families are

  flat(s):  D^4 - E2*D^3 + (3*D(E2) + a1*E4)*D^2
            - (D^2(E2) + (a1/2)*D(E4) - a2*E6)*D + a3*E8,

with a1 = (-25s^2+120s+1332)/7200, a2 = (5s+6)^2/14400,
a3 = (s-18)(s+6)(5s+6)^2/8294400, and the second-order family

  sharp(s): D^2 - (1/6)*E2*D - s*E4.

The weight-k variant flat(s, k) is applied, not expanded: iterated Serre
derivations of the input plus Eisenstein multiples (``flat_weighted_apply``);
at k = 0 it equals flat(s).

Solving is by the Frobenius recursion: writing f = q^alpha sum a_n q^n and
collecting the coefficient of q^(alpha+n) gives

  P(alpha+n) a_n = - sum_{i=1}^{n} sum_j c_{j,i} (alpha+n-i)^j a_{n-i},

where P is the indicial polynomial P(x) = sum_j c_j(0) x^j and c_{j,i} is
the q^i-coefficient of c_j.  One sweep of this recursion, on integer
numerators over a running denominator, serves every solve.  At a resonant
index (P(alpha+n) = 0) it sets a_n = 0 and reports the right-hand side
there.  A plain solve raises on the first such report.  Degenerate or
resonant indices produce depth-1 logarithmic solutions: the sweep runs once
for a particular part, forced by the logarithmic term and started at 0, and
once for the homogeneous part started at 1.  By linearity the solution is
part + x*hom, and the one free coefficient x is pinned from the two parts'
resonance residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, gcd, lcm
from typing import Optional, Sequence

from . import forms as F
from .series import (DEFAULT_ORDER, InsufficientOrder, LogSeries,
                     PuiseuxSeries, Q, rat, QLike, SeriesLike, _RunningDenominator)


class NotIndicialRoot(ValueError):
    pass


class Resonance(ArithmeticError):
    """P(alpha + n) = 0 hit during a plain Frobenius solve."""

    def __init__(self, n: int, message: str = ""):
        self.n = n
        super().__init__(message or f"resonance at step n = {n}")


class NoLogNeeded(ValueError):
    pass


class InconsistentResonance(ArithmeticError):
    """A log solve meets a resonant index whose equation cannot hold, so
    there is no depth-1 logarithmic solution based at the requested root."""


def mu(t: QLike) -> Fraction:
    """The scalar map t -> t(t+2)/144."""
    t = rat(t)
    return t * (t + 2) / 144


def alphas(s: QLike) -> tuple[Fraction, Fraction, Fraction]:
    """(a1, a2, a3) of the fourth-order family at parameter s = p/q."""
    s = rat(s)
    p, q = s.numerator, s.denominator
    w = (5 * p + 6 * q) ** 2
    return (Q(-25 * p * p + 120 * p * q + 1332 * q * q, 7200 * q * q), Q(w, 14400 * q * q),
            Q((p - 18 * q) * (p + 6 * q) * w, 8294400 * q ** 4))


def flat_indicial_roots(s: QLike) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Closed-form indicial roots of flat(s), in the conventional order."""
    s = rat(s)
    p, q = 5 * s.numerator, 120 * s.denominator  # s/24 = p/q
    return Q(-p - q // 20, q), Q(3 * q // 4 - p, q), Q(p + q // 4, q), Q(p + q // 20, q)


@dataclass(frozen=True)
class MLDEOperator:
    """sum(coefficients[j] * D^j); monic: coefficients[-1] == 1.  Each
    coefficient is a power series in q (base 0, grid 1)."""

    coefficients: tuple[PuiseuxSeries, ...]
    provenance: str = "custom"
    parameter: Optional[tuple] = None

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def apply(self, f: SeriesLike) -> SeriesLike:
        """sum c_j * D^j(f)."""
        out = None
        df = f
        for j, c in enumerate(self.coefficients):
            if j > 0:
                df = df.euler_derivative()
            term = c * df
            out = term if out is None else out + term
        return out

    def indicial_coefficients(self) -> tuple[Fraction, ...]:
        """P(x) = sum p_j x^j with p_j the constant term of c_j."""
        return tuple(c.coefficient(0) for c in self.coefficients)


def build_sharp(s: QLike, order: int = DEFAULT_ORDER) -> MLDEOperator:
    """The second-order operator D^2 - (1/6)E2*D - s*E4."""
    s = rat(s)
    return MLDEOperator(
        (F.eisenstein_e4(order).scale(-s),
         F.eisenstein_e2(order).scale(Q(-1, 6)),
         PuiseuxSeries.one(order)))


@lru_cache(maxsize=64)
def build_flat(s: QLike, order: int = DEFAULT_ORDER) -> MLDEOperator:
    """The fourth-order operator flat(s).  Memoised: an operator is a
    frozen tuple of frozen series, so callers share one safely."""
    s = rat(s)
    a1, a2, a3 = alphas(s)
    e2 = F.eisenstein_e2(order)
    e4 = F.eisenstein_e4(order)
    e6 = F.eisenstein_e6(order)
    e8 = F.eisenstein_e8(order)
    c3 = -e2
    c2 = e2.euler_derivative().scale(3) + e4.scale(a1)
    c1 = -(e2.euler_derivative().euler_derivative()
           + e4.euler_derivative().scale(a1 / 2) - e6.scale(a2))
    c0 = e8.scale(a3)
    return MLDEOperator((c0, c1, c2, c3, PuiseuxSeries.one(order)),
                        provenance="flat_s", parameter=(s,))


def build_custom(coefficients: Sequence[PuiseuxSeries]) -> MLDEOperator:
    """Monic operator of order <= 4 from explicit coefficient series."""
    cs = tuple(coefficients)
    if len(cs) - 1 > 4:
        raise ValueError("operators of order > 4 are out of scope")
    if any(c.base or c.grid != 1 for c in cs):
        raise ValueError("operator coefficients must be power series in q")
    top = cs[-1]
    if top.coefficient(0) != 1 or any(top.nums[1:]):
        raise ValueError("operator must be monic in the top D-power")
    return MLDEOperator(cs)


def _reach(f: SeriesLike) -> int:
    """The order an Eisenstein factor of f is built to: a form built to n is
    exact n + 1 steps past its base q^0, so its product with f is exact as
    far as f is once n + 1 >= f.truncation - f.base."""
    return ceil(f.truncation - f.base) - 1


def serre_derivation(f: SeriesLike, k: QLike, iterations: int = 1) -> SeriesLike:
    """theta_k(f) = D(f) - (k/12)*E2*f; iterates step the weight by 2."""
    k = rat(k)
    for _ in range(iterations):
        f = f.euler_derivative() - (F.eisenstein_e2(_reach(f)) * f).scale(k / 12)
        k += 2
    return f


def flat_weighted_apply(s: QLike, k: QLike, f: SeriesLike) -> SeriesLike:
    """The weight-k form of flat(s) applied to f:

      theta^4(f) + (a1 - 11/36)*E4*theta^2(f)
      + ((36*a1 + 216*a2 - 5)/216)*E6*theta(f) + a3*E8*f,

    with theta^n the n-fold Serre derivation from weight k; at k = 0 it
    equals build_flat(s).apply(f) identically."""
    s, k = rat(s), rat(k)
    a1, a2, a3 = alphas(s)
    order = _reach(f)
    t1 = serre_derivation(f, k)
    t2 = serre_derivation(t1, k + 2)
    t4 = serre_derivation(t2, k + 4, 2)
    return (t4 + (F.eisenstein_e4(order) * t2).scale(a1 - Q(11, 36))
            + (F.eisenstein_e6(order) * t1).scale((36 * a1 + 216 * a2 - 5) / 216)
            + (F.eisenstein_e8(order) * f).scale(a3))


# -- indicial analysis ------------------------------------------------


def divisors(n: int) -> list[int]:
    """The positive divisors of |n| in increasing order, by trial division
    up to its square root; none for n = 0."""
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def _rational_roots(coeffs: Sequence[Fraction]) -> tuple[list[Fraction], list[int]]:
    """(roots with multiplicity, remaining integer polynomial) of sum c_j x^j.

    Each candidate +-p/q in lowest terms, with p dividing the constant term
    and q the leading coefficient, is tried once by the homogeneous integer
    Horner form q^d * P(p/q), and divided out while it stays a root."""
    cs = [rat(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    den = lcm(*(c.denominator for c in cs))
    ints = [int(c * den) for c in cs]
    roots: list[Fraction] = []
    while len(ints) > 1 and ints[0] == 0:
        roots.append(Q(0))
        ints = ints[1:]
    if len(ints) <= 1:
        return roots, ints
    for p in divisors(ints[0]):
        for q in divisors(ints[-1]):
            if gcd(p, q) == 1:
                for x in (p, -p):
                    while len(ints) > 1 and _homogeneous_value(ints, x, q) == 0:
                        roots.append(Q(x, q))
                        ints = _divide_linear(ints, x, q)
    return roots, ints


def _homogeneous_value(ints: Sequence[int], p: int, q: int) -> int:
    """q^d * P(p/q) for P = sum ints[j] x^j of degree d."""
    acc, qk = 0, 1
    for c in reversed(ints):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _divide_linear(ints: Sequence[int], p: int, q: int) -> list[int]:
    """P / (q x - p) for a root p/q of P, whose quotient has integer
    coefficients (Gauss's lemma)."""
    out, r = [], 0
    for c in reversed(ints[1:]):
        r = (c + p * r) // q
        out.append(r)
    return out[::-1]


@dataclass(frozen=True)
class IndicialReport:
    roots: tuple[Fraction, ...]
    degenerate: tuple[tuple[Fraction, Fraction], ...]
    resonant: tuple[tuple[Fraction, Fraction], ...]


def _flat_roots(op: MLDEOperator) -> tuple[Fraction, ...]:
    """The closed-form indicial roots of flat(s); any other operator raises
    ValueError."""
    if op.provenance != "flat_s":
        raise ValueError(f"indicial analysis covers flat(s) only, not {op.provenance}")
    return flat_indicial_roots(op.parameter[0])


def indicial(op: MLDEOperator) -> IndicialReport:
    """Roots (with multiplicity) of P for flat(s), plus degeneracy/resonance
    flags.  The roots are the closed form ``flat_indicial_roots``; any other
    operator raises ValueError."""
    roots = _flat_roots(op)
    # cross-check the closed form against the generic extraction
    generic, rem = _rational_roots(op.indicial_coefficients())
    if rem and len(rem) > 1 or sorted(generic) != sorted(roots):
        raise AssertionError("closed-form and generic indicial roots disagree")
    degenerate = []
    resonant = []
    for i, a in enumerate(roots):
        for j, b in enumerate(roots):
            if i < j:
                if a == b:
                    degenerate.append((a, b))
                elif (a - b).denominator == 1:
                    resonant.append((max(a, b), min(a, b)))
    return IndicialReport(roots, tuple(degenerate), tuple(resonant))


# -- Frobenius solving ------------------------------------------------


def _operator_tables(op: MLDEOperator, order: int) -> list[tuple[Sequence[int], int]]:
    """(numerators of c_j at q^0..q^order, c_j.den) for each power series c_j."""
    for c in op.coefficients:
        if len(c.nums) <= order:
            raise InsufficientOrder(
                f"operator coefficients only justified to q^{c.truncation}, need > {order}")
    return [(c.nums[:order + 1], c.den) for c in op.coefficients]


def _poly_eval(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Q(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _frobenius_sweep(table: Sequence[tuple[Sequence[int], int]], alpha: Fraction,
                     order: int, first: Fraction,
                     forcing: Optional[tuple[Sequence[int], int]] = None
                     ) -> tuple[_RunningDenominator, dict[int, Fraction]]:
    """b_0 = first and, for 1 <= n <= order,

      P(alpha+n) b_n = forcing[n] - sum_{i=1}^{n} sum_j c_{j,i} (alpha+n-i)^j b_{n-i}.

    table[j] holds the numerators of c_{j,0..order} over one denominator,
    and forcing its numerators over one denominator likewise.  Returns
    (b, residuals): b_n = b.nums[n] / b.den, and at each resonant n
    (P(alpha+n) = 0) b_n is set to 0 and residuals[n] is the right-hand
    side there, in increasing n.
    """
    # coef(i, x) = sum_j c_{j,i} x^j equals K_i(X) / (t * aq^top) at
    # X = x * aq, where K_i has the integer Horner weights ws; K_0 gives P
    ap, aq = alpha.numerator, alpha.denominator
    top = len(table) - 1
    t = lcm(*(den for _, den in table))
    factors = [(nums, t // den * aq ** (top - j))
               for j, (nums, den) in reversed(list(enumerate(table)))]
    weights = [[nums[i] * f for nums, f in factors] for i in range(order + 1)]
    rows = [(i, ws) for i, ws in enumerate(weights) if i and any(ws)]
    scale = t * aq ** top
    fn, fd = forcing if forcing is not None else ([0] * (order + 1), 1)
    b = _RunningDenominator()
    b.append(first.numerator, first.denominator)
    nums = b.nums
    residuals: dict[int, Fraction] = {}
    for n in range(1, order + 1):
        acc = 0
        for i, ws in rows:
            if i > n:
                break
            x = ap + aq * (n - i)
            k = 0
            for w in ws:
                k = k * x + w
            acc += k * nums[n - i]
        x = ap + aq * n
        p = 0
        for w in weights[0]:
            p = p * x + w
        # rhs = fn[n] / fd - acc / (scale * den) and P(alpha+n) = p / scale
        num = fn[n] * scale * b.den - acc * fd
        if p == 0:
            residuals[n] = Fraction(num, fd * scale * b.den)
            b.append(0, 1)
        else:
            b.append(num, fd * b.den * p)
    return b, residuals


def frobenius_solve(op: MLDEOperator, alpha: QLike, order: int = DEFAULT_ORDER
                    ) -> PuiseuxSeries:
    """The unique solution q^alpha(1 + a_1 q + ...); raises Resonance if
    P(alpha+n) vanishes for some 1 <= n <= order."""
    alpha = rat(alpha)
    table = _operator_tables(op, order)
    p = _poly_eval(op.indicial_coefficients(), alpha)
    if p != 0:
        raise NotIndicialRoot(f"P({alpha}) = {p} != 0")
    return _series_solution(table, alpha, order)


def _series_solution(table: Sequence[tuple[Sequence[int], int]], alpha: Fraction,
                     order: int) -> PuiseuxSeries:
    a, residuals = _frobenius_sweep(table, alpha, order, Q(1))
    if residuals:
        raise Resonance(next(iter(residuals)))
    return PuiseuxSeries.from_ints(alpha, 1, a.nums, a.den)


def log_upper_root(roots: Sequence[Fraction], alpha: Fraction) -> Fraction:
    """The upper index u of the depth-1 log solution based at the root alpha:
    alpha itself when it is a double root, else the largest root a positive
    integer above it.  Raises NotIndicialRoot if alpha is not among roots
    and NoLogNeeded if it is simple and non-resonant."""
    if alpha not in roots:
        raise NotIndicialRoot(f"{alpha} is not an indicial root")
    if roots.count(alpha) >= 2:
        return alpha
    uppers = [r for r in roots if r > alpha and (r - alpha).denominator == 1]
    if not uppers:
        raise NoLogNeeded(f"{alpha} is a simple, non-resonant root")
    return max(uppers)


def frobenius_solve_log(op: MLDEOperator, alpha: QLike,
                        order: int = DEFAULT_ORDER) -> LogSeries:
    """Depth-1 logarithmic solution f0 + ell*f1 based at alpha, both parts
    exact below q^(alpha + order + 1).

    alpha must be a double indicial root, or the smaller member of a pair
    of roots with positive integer difference.  f1 is the power-series
    solution at the upper index u; f0 solves L(f0) = -sum_j j*c_j*D^(j-1) f1,
    normalized so the coefficient of q^u in f0 is zero.  The sweep for f0
    runs through the last resonant step u - alpha whatever the order, since
    that step pins f0's free coefficient, so op must reach
    max(order, u - alpha).  Below q^u the log part is zero.
    """
    alpha = rat(alpha)
    upper = log_upper_root(_flat_roots(op), alpha)

    # f0 is swept through step top; f1 only as far as f0 reads it
    gap = int(upper - alpha)
    top = max(order, gap)
    table = _operator_tables(op, top)
    f1 = _series_solution(table, upper, top - gap)
    # T = sum_j j * c_j * D^(j-1) f1, the ell-interaction term
    t = MLDEOperator(tuple(c.scale(j) for j, c in enumerate(op.coefficients) if j)).apply(f1)
    if t.truncation <= alpha + top:
        raise InsufficientOrder(
            f"operator coefficients only justified to q^{t.truncation}, need > {alpha + top}")
    # T is based at q^upper on grid 1, gap steps past q^alpha
    forcing = [0] * gap + [-x for x in t.nums[:top - gap + 1]]
    if forcing[0]:
        raise InconsistentResonance("no log solution: inconsistent leading resonance")
    # f0 = part + x * hom, with x the coefficient of q^alpha
    part, part_res = _frobenius_sweep(table, alpha, top, Q(0), (forcing, t.den))
    if upper == alpha:
        # q^alpha is q^u, whose coefficient is gauged to zero
        x, hom, hom_res = Q(0), None, dict.fromkeys(part_res, Q(0))
    else:
        x = None  # pinned or raised on at n = gap, where part's residual is -P'(upper) != 0
        hom, hom_res = _frobenius_sweep(table, alpha, top, Q(1))
    for n, rp in part_res.items():
        rh = hom_res[n]
        if x is None and rh:
            x = -rp / rh
        if rp + (x or 0) * rh:
            raise InconsistentResonance(f"no log solution: inconsistent resonance at step {n}")
    f0 = PuiseuxSeries.from_ints(alpha, 1, part.nums, part.den)
    if x:
        f0 += PuiseuxSeries.from_ints(alpha, 1, hom.nums, hom.den).scale(x)
    cut = alpha + order + 1
    f1 = f1.truncate(cut) if cut > upper else PuiseuxSeries.zero(order, alpha)
    return LogSeries(f0.truncate(cut), f1)


def modular_wronskian(system: Sequence[PuiseuxSeries]) -> PuiseuxSeries:
    """det(F, theta_0 F, theta_2 theta_0 F, ...) over the given solutions."""
    n = len(system)
    rows: list[list[PuiseuxSeries]] = [list(system)]
    w = Q(0)
    for _ in range(n - 1):
        rows.append([serre_derivation(f, w) for f in rows[-1]])
        w += 2

    def det(mat: list[list[PuiseuxSeries]]) -> PuiseuxSeries:
        if len(mat) == 1:
            return mat[0][0]
        acc = None
        for j in range(len(mat)):
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            term = mat[0][j] * det(minor)
            if j % 2:
                term = -term
            acc = term if acc is None else acc + term
        return acc

    return det(rows)


#: fourth-order parameters whose operator rewrites through the second-order
#: family: s -> (inner second-order parameter, outer E4 coefficient)
SHARP_FACTORIZATIONS: dict[Fraction, tuple[Fraction, Fraction]] = {
    Q(32, 5): (mu(Q(19, 5)), Q(11, 3600)),
    Q(-8, 5): (mu(Q(1, 5)), Q(551, 3600)),
}


def factored_apply(s: QLike, f: SeriesLike) -> SeriesLike:
    """theta_6(theta_4(L(f))) - c*E4*L(f), the factored form of the
    fourth-order operator at the two parameters in SHARP_FACTORIZATIONS;
    equals build_flat(s).apply(f) identically."""
    s = rat(s)
    if s not in SHARP_FACTORIZATIONS:
        raise KeyError(f"no factored form catalogued at s = {s}")
    inner, c = SHARP_FACTORIZATIONS[s]
    order = _reach(f)
    g = build_sharp(inner, order).apply(f)
    return serre_derivation(g, 4, 2) - (F.eisenstein_e4(order) * g).scale(c)
