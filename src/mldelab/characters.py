"""Characters of the Ramond-twisted modules of the minimal W-algebras.

Three ingredients are computed exactly and then assembled:

* the four irreducible characters of the (3,5) Virasoro minimal model at
  central charge -3/5, via the two-sided alternating (BGG resolution) sum
  over the Verma character q^(h - c/24) / prod(1 - q^n);
* theta series of positive-definite integral lattices and their cosets.
  One fraction-free (Bareiss) elimination of the Gram matrix gives its
  leading principal minors and pivot columns, all integers.  The
  enumeration reads the integer scales of G = L D L^T from them, and the
  fundamental coweights are solved over the same elimination, so no
  floating point is used anywhere and no Fraction before the results.
  The enumeration is a sweep that chooses one coordinate per level, top
  level first, over a frontier of states: the integer centres of the
  levels still to choose and the norm accumulated so far, each with the
  number of partial vectors that reach it.  Moving an unchosen coordinate
  by a whole number only re-indexes the vectors below, so each centre is
  reduced into one period and equal states merge.  The moves out of a
  state (each coordinate's cost and the reduced centres it leaves) depend
  on its centres alone, so they are computed once per centre tuple and
  shared by every accumulated norm there.  For the E8 cosets at order 29
  the frontier never holds more than 6 centre tuples and 175 states, and
  the sweep computes 717 moves, which its states take 10,900 times, while
  the series counts 10,337,539 vectors;
* the extension characters chi_M * chi_h + chi_{M x P} * chi_{h'} where
  h' is the image of h under fusion with the weight-3/4 module.

``verify_case`` cross-checks each case of the Deligne exceptional series
against the fourth-order family: assembled character exponents must match
the indicial roots, each character must be annihilated by the operator and
agree with the Frobenius solution at its exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import Optional, Sequence

from . import forms as F
from .mlde import (SHARP_FACTORIZATIONS, build_flat, build_sharp, flat_indicial_roots,
                   frobenius_solve)
from .series import PuiseuxSeries, Q, QLike, rat, report_failure


class UnknownWeight(KeyError):
    pass


class NotPositiveDefinite(ArithmeticError):
    pass


class CharacterConstructionUnavailable(ValueError):
    pass


class CosetWeightMismatch(ValueError):
    """A case's coset modules do not have the printed conformal weights."""


# -- Virasoro minimal model at c = -3/5 --------------------------------

MINIMAL_C = Q(-3, 5)

#: h -> (r, s) Kac label of the four irreducible modules
_KAC_LABELS = {
    Q(0): (1, 1),
    Q(-1, 20): (1, 2),
    Q(1, 5): (1, 3),
    Q(3, 4): (1, 4),
}

MINIMAL_WEIGHTS: tuple[Fraction, ...] = tuple(_KAC_LABELS)

#: fusion with the weight-3/4 simple current
FUSION_WITH_3_4 = {
    Q(0): Q(3, 4), Q(3, 4): Q(0),
    Q(-1, 20): Q(1, 5), Q(1, 5): Q(-1, 20),
}


@lru_cache(maxsize=None)
def minimal_character(h: QLike, order: int = 50) -> PuiseuxSeries:
    """Irreducible (3,5)-minimal-model character with leading q^(h+1/40)."""
    h = rat(h)
    if h not in _KAC_LABELS:
        raise UnknownWeight(f"h = {h} is not a weight of the model")
    r, s = _KAC_LABELS[h]
    p, pp = 3, 5
    lam_minus = r * pp - s * p
    lam_plus = r * pp + s * p
    nums = [0] * (order + 1)
    n = 0
    while True:
        hit = False
        for sign in ((1,) if n == 0 else (1, -1)):
            m = sign * n
            a = ((2 * p * pp * m + lam_minus) ** 2 - lam_minus**2) // (4 * p * pp)
            b = ((2 * p * pp * m + lam_plus) ** 2 - lam_plus**2) // (4 * p * pp) \
                + r * s
            if a <= order:
                nums[a] += 1
                hit = True
            if b <= order:
                nums[b] -= 1
                hit = True
        if not hit and n > 0:
            break
        n += 1
    numerator = PuiseuxSeries.from_ints(0, 1, nums)
    series = (numerator * F.partition_product({0, 1, 2, 3, 4}, order)).shift(h - MINIMAL_C / 24)
    return series.truncate(h - MINIMAL_C / 24 + order)


# -- lattice theta series ---------------------------------------------

@dataclass(frozen=True)
class IntegralLattice:
    rank: int
    gram: tuple[tuple[int, ...], ...]
    coset_offset: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.gram) != self.rank or len(self.coset_offset) != self.rank:
            raise ValueError("rank/gram/offset size mismatch")
        for i in range(self.rank):
            for j in range(self.rank):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("gram must be symmetric")


def bareiss(gram: Sequence[Sequence[int]]) -> list[list[int]]:
    """Fraction-free (Bareiss) elimination of a symmetric Gram matrix G.

    Row i of the result holds a[i][0..i].  The diagonal a[k][k] is the
    leading principal minor Delta_{k+1} of size k + 1 (Delta_0 = 1), and
    a[i][k], i > k, is column k of the matrix at step k, when row k is the
    pivot row.  Every entry is an integer minor of G.  With them
    G = L D L^T, where D_k = Delta_{k+1} / Delta_k and
    L_ik = a[i][k] / Delta_{k+1}.  A minor <= 0 means G is not positive
    definite (Sylvester's criterion) and raises NotPositiveDefinite."""
    n = len(gram)
    a = [[int(gram[i][j]) for j in range(i + 1)] for i in range(n)]
    prev = 1
    for k in range(n):
        p = a[k][k]
        if p <= 0:
            raise NotPositiveDefinite(f"pivot {k} is {Q(p, prev)}")
        # the step stays symmetric, so only the lower triangle is kept
        for i in range(k + 1, n):
            row, aik = a[i], a[i][k]
            for j in range(k + 1, i + 1):
                row[j] = (p * row[j] - aik * a[j][k]) // prev
        prev = p
    return a


def lattice(gram: Sequence[Sequence[int]],
            offset: Optional[Sequence[QLike]] = None) -> IntegralLattice:
    g = tuple(tuple(int(x) for x in row) for row in gram)
    n = len(g)
    off = tuple(rat(x) for x in (offset or [0] * n))
    return IntegralLattice(rank=n, gram=g, coset_offset=off)


def lattice_theta(lat: IntegralLattice, order: int) -> PuiseuxSeries:
    """Sum of q^(<v,v>/2) over v in (Z^n + offset), complete through q^order.

    With v = x + c, <v,v>/2 - <c,c>/2 = sum_i G_ii x_i^2 / 2
    + sum_{i<j} G_ij x_i x_j + <x, G c>, so every exponent lies on the grid
    of step 1/g past the lowest, g = lcm(2 if some G_ii is odd else 1, the
    denominators of G c); the series is exact to the first grid point
    past q^order."""
    a = bareiss(lat.gram)       # raises NotPositiveDefinite
    n = lat.rank
    delta = [1] + [a[k][k] for k in range(n)]        # Delta_0..Delta_n
    c = lat.coset_offset
    # Everything is integer arithmetic: coordinates are scaled by
    # M (offset denominator) * Lam (denominator of L), and the quadratic
    # form by K, so neither the set-up nor the sweep touches Fractions.
    M = lcm(*(x.denominator for x in c), 1)
    moff = [x.numerator * (M // x.denominator) for x in c]      # M * c_i
    # L_ji = a[j][i] / Delta_{i+1} has denominator Delta_{i+1} / gcd
    Lam = lcm(*(delta[i + 1] // gcd(a[j][i], delta[i + 1])
                for i in range(n) for j in range(i + 1, n)), 1)
    ML = M * Lam
    # D_k = Delta_{k+1} / Delta_k has denominator Delta_k / gcd
    dden = lcm(*(delta[k] // gcd(delta[k + 1], delta[k]) for k in range(n)))
    K = dden * ML * ML
    # cost of level i is P[i] * Y_i^2 with Y_i = ML * y_i, in units of 1/K
    assert all(delta[k + 1] * dden % delta[k] == 0 for k in range(n))
    P = [delta[k + 1] * dden // delta[k] for k in range(n)]
    # Y_i = x_i * ML + t_i, where the centre t_i = ML * c_i
    # + sum_{j>i} cols[i][j] * M * (x_j + c_j) is fixed once x_j, j > i,
    # are chosen; cols[i][j] = Lam * L[j][i]
    cols = [[Lam * a[j][i] // delta[i + 1] if j > i else 0 for j in range(n)]
            for i in range(n)]
    bound = 2 * order * K
    # Level sweep from i = n-1 down to 0.  A state is (t_0..t_i, acc) with
    # acc the cost of the levels already chosen; its value is the number
    # of partial vectors that reach it.  Shifting an unchosen x_j by m
    # moves t_j by m * ML and each t_k, k < j, by cols[k][j] * m * M, and
    # only re-indexes the subtree, so lower centres are reduced into
    # [0, ML) and equal states merge.  The frontier maps the centres t to
    # {acc: count}: the moves from t (the cost of each x_i and the reduced
    # centres it leaves) do not depend on acc, so they are built once, for
    # the smallest acc, sorted by cost, and each acc takes the prefix with
    # cost <= bound - acc, the same x_i as |Y_i| <= isqrt((bound - acc) // pi).
    frontier = {tuple(Lam * mc for mc in moff): {0: 1}}
    for i in range(n - 1, -1, -1):
        pi, mi = P[i], moff[i]
        nxt: dict[tuple[int, ...], dict[int, int]] = {}
        for t, accs in frontier.items():
            ti = t[i]
            r = isqrt((bound - min(accs)) // pi)     # |Y_i| <= r
            moves = []
            for x in range(-((r + ti) // ML), (r - ti) // ML + 1):
                y = x * ML + ti
                sh = x * M + mi                      # M * (x_i + c_i)
                lower = [t[k] + cols[k][i] * sh for k in range(i)]
                for j in range(i - 1, -1, -1):
                    m, lower[j] = divmod(lower[j], ML)
                    if m:
                        mm = m * M
                        for k in range(j):
                            lower[k] -= cols[k][j] * mm
                moves.append((pi * y * y, nxt.setdefault(tuple(lower), {})))
            moves.sort(key=lambda move: move[0])
            for acc, mult in accs.items():
                room = bound - acc
                for cost, below in moves:
                    if cost > room:
                        break
                    key = acc + cost
                    below[key] = below.get(key, 0) + mult
        frontier = nxt
    counts = frontier.get((), {})
    if not counts:
        raise ArithmeticError("empty coset enumeration")
    low = min(counts)
    odd = any(lat.gram[i][i] % 2 for i in range(n))
    # the denominators of G c, whose entries are sum_j G_ij (M c_j) / M
    grid = lcm(2 if odd else 1,
               *(M // gcd(M, sum(g * mc for g, mc in zip(row, moff)))
                 for row in lat.gram))
    # the norm acc / 2K lies (acc - low) * grid / 2K grid steps past the base
    nums = [0] * ((bound - low) * grid // (2 * K) + 1)
    for acc, k in counts.items():
        nums[(acc - low) * grid // (2 * K)] = k
    return PuiseuxSeries.from_ints(Q(low, 2 * K), grid, nums)


def lattice_voa_character(lat: IntegralLattice, order: int) -> PuiseuxSeries:
    """theta / eta^rank, the character of the corresponding lattice module,
    exact below q^(lead + order).  Both factors reach that far: eta built to
    order is exact order + 1 steps past its base, and theta, enumerated
    through q^(order + 1), is exact order steps past a lowest weight below 1
    (a higher one raises InsufficientOrder)."""
    theta = lattice_theta(lat, order + 1)
    return (theta * F.eta(order).pow(-lat.rank)).truncate(
        theta.leading()[0] - Q(lat.rank, 24) + order)


def assemble_L_character(chi_M: PuiseuxSeries, chi_MP: PuiseuxSeries,
                         h: QLike, order: int = 50) -> PuiseuxSeries:
    """chi_M * chi_h + chi_{M x P} * chi_{h fused with 3/4}."""
    h = rat(h)
    if h not in FUSION_WITH_3_4:
        raise UnknownWeight(f"h = {h} is not a weight of the model")
    a = chi_M * minimal_character(h, order)
    b = chi_MP * minimal_character(FUSION_WITH_3_4[h], order)
    return a + b


# -- root-lattice fixtures --------------------------------------------

def _cartan(n: int, edges: Sequence[tuple[int, int]]) -> list[list[int]]:
    """The Cartan matrix of the simply-laced diagram on nodes 1..n."""
    g = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for a, b in edges:
        g[a - 1][b - 1] = g[b - 1][a - 1] = -1
    return g


def fundamental_coweight(gram: Sequence[Sequence[int]], node: int) -> list[Fraction]:
    """Coordinates (in the lattice basis) of the dual basis vector at node:
    the solution x of gram * x = e_node.  The right-hand side is carried
    through the Bareiss elimination of gram, and X = det(gram) * x, whose
    entries are integers by Cramer's rule, is back-substituted exactly."""
    a = bareiss(gram)
    n = len(gram)
    b = [int(i == node - 1) for i in range(n)]
    prev = 1
    for k in range(n):                       # the elimination steps, on b
        p = a[k][k]
        for i in range(k + 1, n):
            b[i] = (p * b[i] - a[i][k] * b[k]) // prev
        prev = p
    det = prev
    X = [0] * n
    for i in reversed(range(n)):             # row i of step i is a[j][i], j >= i
        X[i] = (det * b[i] - sum(a[j][i] * X[j] for j in range(i + 1, n))) // a[i][i]
    return [Q(x, det) for x in X]


# -- the Deligne exceptional series -----------------------------------

@dataclass(frozen=True)
class DeligneDatum:
    name: str
    h_vee: Fraction
    s: Fraction
    central_charge_W: Fraction
    ramond_exponents: tuple[Fraction, ...]
    dim_g: Optional[int] = None
    verification: str = "full"   # full | exponents


def _s_of(h: QLike) -> Fraction:
    h = rat(h)
    return 6 * (7 * h - 18) / (5 * (h + 6))


def _dim_of(h: QLike) -> Fraction:
    h = rat(h)
    return 2 * (5 * h - 6) * (h + 1) / (h + 6)


_SERIES_ROWS = [
    # name, h_vee, dim, verification
    ("A1", Q(2), 3, "full"),
    ("A2", Q(3), 8, "full"),
    ("G2", Q(4), 14, "exponents"),
    ("D4", Q(6), 28, "full"),
    ("F4", Q(9), 52, "exponents"),
    ("E6", Q(12), 78, "full"),
    ("E7", Q(18), 133, "full"),
    ("E8", Q(30), 248, "full"),
    ("formal24", Q(24), None, "formal"),
    ("formal3/2", Q(3, 2), None, "formal"),
]


@lru_cache(maxsize=1)
def deligne_table() -> tuple[DeligneDatum, ...]:
    out = []
    for name, h, dim, mode in _SERIES_ROWS:
        s = _s_of(h)
        if dim is not None:
            assert _dim_of(h) == dim
        exps = tuple(sorted(set(flat_indicial_roots(s))))
        if s in SHARP_FACTORIZATIONS:
            # only the characters of the sharp(t) factor arise: its roots r^2 - r/6 = t
            exps = tuple(r for r in exps if r * r - r / 6 == SHARP_FACTORIZATIONS[s][0])
        out.append(DeligneDatum(
            name=name, h_vee=h, s=s, central_charge_W=s,
            ramond_exponents=exps, dim_g=dim, verification=mode))
    return tuple(out)


def datum(name: str) -> DeligneDatum:
    table = deligne_table()
    for d in table:
        if d.name == name:
            return d
    raise KeyError(f"unknown algebra {name!r}; known: {[d.name for d in table]}")


# -- case wiring: lattice realization + extension basis ----------------
# Each full non-A1 case: (gram builder, coset offsets as vectors, and the
# Ramond basis as (module index, minimal weight, fusion partner index)).

def _case_data(name: str):
    if name == "A2":
        gram = [[6]]
        cosets = [[Q(k, 6)] for k in range(6)]
        basis = [(0, Q(-1, 20), 3), (4, Q(3, 4), 1),
                 (2, Q(-1, 20), 5), (0, Q(3, 4), 3)]
    elif name == "D4":
        gram = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
        keys = [(0, 0, 0), (0, 1, 1), (1, 1, 0),
                (1, 1, 1), (1, 0, 0), (0, 0, 1)]
        cosets = [[Q(a, 2), Q(b, 2), Q(c, 2)] for a, b, c in keys]
        # basis pairs: complement under the simple-current fusion k -> 1-k
        basis = [(0, Q(-1, 20), 3), (1, Q(3, 4), 4),
                 (2, Q(-1, 20), 5), (0, Q(3, 4), 3)]
    elif name == "E6":
        gram = _cartan(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
        w1 = fundamental_coweight(gram, 1)
        cosets = [[k * x for x in w1] for k in range(6)]
        basis = [(0, Q(-1, 20), 3), (4, Q(3, 4), 1),
                 (2, Q(-1, 20), 5), (0, Q(3, 4), 3)]
    elif name == "E7":
        # D6: chain 1..5 with node 6 attached to node 4
        gram = _cartan(6, [(1, 2), (2, 3), (3, 4), (4, 5), (4, 6)])
        cosets = [[Q(0)] * 6,
                  fundamental_coweight(gram, 1),
                  fundamental_coweight(gram, 5),
                  fundamental_coweight(gram, 6)]
        basis = [(0, Q(-1, 20), 3), (2, Q(3, 4), 1),
                 (2, Q(-1, 20), 1), (0, Q(3, 4), 3)]
    elif name == "E8":
        # E7 (Bourbaki): chain 1-3-4-5-6-7 with node 2 attached to node 4
        gram = _cartan(7, [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)])
        cosets = [[Q(0)] * 7, fundamental_coweight(gram, 7)]
        basis = [(0, Q(-1, 20), 1), (0, Q(3, 4), 1)]
    else:
        raise CharacterConstructionUnavailable(name)
    return gram, cosets, basis


#: printed conformal weights of the lattice modules, checked in verify
_COSET_WEIGHTS = {
    "A2": [Q(0), Q(1, 12), Q(1, 3), Q(3, 4), Q(1, 3), Q(1, 12)],
    "D4": [Q(0), Q(1, 2), Q(1, 2), Q(3, 4), Q(1, 4), Q(1, 4)],
    "E6": [Q(0), Q(5, 12), Q(2, 3), Q(3, 4), Q(2, 3), Q(5, 12)],
    "E7": [Q(0), Q(1, 2), Q(3, 4), Q(3, 4)],
    "E8": [Q(0), Q(3, 4)],
}


def ramond_character_basis(name: str, order: int = 25
                           ) -> list[tuple[Fraction, PuiseuxSeries]]:
    """(leading exponent, character) for the Ramond basis of the case.
    The basis pairs coset modules by index, so each coset's conformal
    weight (its character's lead plus rank/24) is checked against the
    printed list first; a mismatch raises CosetWeightMismatch."""
    if name == "A1":
        return [(h - MINIMAL_C / 24, minimal_character(h, order + 1))
                for h in MINIMAL_WEIGHTS]
    gram, cosets, basis = _case_data(name)
    # each product is exact below its lead + (order + 1), so the sum is
    # exact below e + order + 1, past the e + order + 1/2 it is cut at
    chis = [lattice_voa_character(lattice(gram, c), order + 1) for c in cosets]
    weights = [chi.leading()[0] + Q(len(gram), 24) for chi in chis]
    if weights != _COSET_WEIGHTS[name]:
        raise CosetWeightMismatch(weights)
    out = []
    for mi, h, pi in basis:
        chi = assemble_L_character(chis[mi], chis[pi], h, order + 1)
        e, _ = chi.leading()
        out.append((e, chi.truncate(e + order + Q(1, 2))))
    return out


#: the leading terms whose denominators fix a solution's integer rescale
_SETTLED_TERMS = 6


def _non_counting_after_rescale(f: PuiseuxSeries, below: Optional[Fraction] = None
                                ) -> Optional[tuple[Fraction, Fraction]]:
    """The first term of f below q^below (the truncation if omitted),
    rescaled by the lcm of the denominators of its first six terms, that is
    not a non-negative integer, or None.  A character-type solution is
    non-negative with denominators that settle that early, so one integer
    rescale (the unknown leading multiplicity) clears them all; a
    denominator first met later is a verdict against f."""
    settled = f.truncate(min(f.base + _SETTLED_TERMS, f.truncation)).den
    return f.scale(settled).first_non_counting(below)


def verify_case(name: str, order: int = 25,
                basis: Optional[list[tuple[Fraction, PuiseuxSeries]]] = None
                ) -> dict:
    """Cross-check one case against the fourth-order family.  Every series
    check reads a solution or character with leading exponent e through
    q^(e + order), below q^(e + order + 1/2), and its operands are built to
    exactly that window.  A failed report carries a detail line and, when a
    series check failed, the first bad exponent and the residual there.
    A caller that already holds ``ramond_character_basis(name, order)``
    passes it as ``basis``, and its cosets are not enumerated again."""
    d = datum(name)
    report = {"name": name, "s": str(d.s), "order": order}
    roots = flat_indicial_roots(d.s)
    if d.verification in ("exponents", "formal"):
        # exponent-only: indicial roots match the tabulated exponents and the
        # roots carry character-type series solutions (all roots for genuine
        # algebras; at least one for the two formal parameters, where the
        # remaining solutions belong to a second-order factor instead)
        distinct = tuple(sorted(set(roots)))
        ok = distinct == d.ramond_exponents
        op = build_flat(d.s, order)
        failing = []
        for r in distinct:
            bad = _non_counting_after_rescale(frobenius_solve(op, r, order),
                                              r + order + Q(1, 2))
            if bad is not None:
                failing.append((r, bad))
        cft = len(failing) < len(distinct) if d.verification == "formal" else not failing
        report["exponents_match"] = ok
        report["cft_type"] = cft
        if not cft:
            r, bad = failing[0]
            return report_failure(report, bad, f"solution at {r} has non-counting coefficients")
        report["status"] = "verified" if ok else "failed"
        return report
    try:
        chars = basis if basis is not None else ramond_character_basis(name, order)
    except CosetWeightMismatch as exc:
        return report_failure(report, detail=f"coset weights {exc.args[0]} != printed")
    exps = sorted(e for e, _ in chars)
    report["exponents"] = [str(e) for e in exps]
    if exps != list(d.ramond_exponents) or not set(exps) <= set(roots):
        return report_failure(report, detail=f"exponents {exps} != tabulated {d.ramond_exponents}")
    op = build_flat(d.s, order)
    ops = [("flat", op)]
    if d.s in SHARP_FACTORIZATIONS:
        ops.append(("sharp", build_sharp(SHARP_FACTORIZATIONS[d.s][0], order)))
    for e, chi in chars:
        window = e + order + Q(1, 2)
        lead = chi.coefficient(e)
        for tag, o in ops:
            bad = o.apply(chi).first_nonzero(window)
            if bad is not None:
                return report_failure(report, bad, f"character at {e} not annihilated ({tag})")
        f = frobenius_solve(op, e, order)
        bad = (chi.scale(1 / lead) - f).first_nonzero(window)
        if bad is not None:
            return report_failure(report, bad, f"character at {e} differs from series solution")
        bad = chi.first_non_counting(window)
        if bad is not None:
            return report_failure(report, bad, f"character at {e} has non-counting coefficients")
    report["status"] = "verified"
    return report
