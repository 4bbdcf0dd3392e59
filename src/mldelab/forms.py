"""Classical q-expansions: Eisenstein series, the eta function, and the
level 2-15 forms used throughout the package.

Every builder takes a truncation `order` (number of integer q-steps past
the leading exponent that are exact) and returns a
:class:`~mldelab.series.PuiseuxSeries`.  Results are cached per order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .series import DEFAULT_ORDER, PuiseuxSeries, Q


def _divisor_sums(weight: Callable[[int], int], order: int) -> PuiseuxSeries:
    """1 + sum_{n=1}^{order} (sum over d | n of weight(d)) q^n."""
    cs = [1] + [0] * order
    for d in range(1, order + 1):
        w = weight(d)
        if w:
            cs[d::d] = [x + w for x in cs[d::d]]
    return PuiseuxSeries.from_ints(0, 1, cs)


@lru_cache(maxsize=None)
def eisenstein_e2(order: int = DEFAULT_ORDER) -> PuiseuxSeries:
    """E2 = 1 - 24 sum sigma_1(n) q^n (quasimodular, weight 2)."""
    return _divisor_sums(lambda d: -24 * d, order)


@lru_cache(maxsize=None)
def eisenstein_e4(order: int = DEFAULT_ORDER) -> PuiseuxSeries:
    """E4 = 1 + 240 sum sigma_3(n) q^n."""
    return _divisor_sums(lambda d: 240 * d**3, order)


@lru_cache(maxsize=None)
def eisenstein_e6(order: int = DEFAULT_ORDER) -> PuiseuxSeries:
    """E6 = 1 - 504 sum sigma_5(n) q^n."""
    return _divisor_sums(lambda d: -504 * d**5, order)


@lru_cache(maxsize=None)
def eisenstein_e8(order: int = DEFAULT_ORDER) -> PuiseuxSeries:
    """E8 = 1 + 480 sum sigma_7(n) q^n (= E4^2)."""
    return _divisor_sums(lambda d: 480 * d**7, order)


@lru_cache(maxsize=None)
def eta(order: int = DEFAULT_ORDER) -> PuiseuxSeries:
    """Dedekind eta = q^(1/24) prod (1-q^n), via the pentagonal number theorem."""
    cs = [0] * (order + 1)
    k = 0
    while True:
        done = True
        for kk in (k, -k) if k else (0,):
            e = kk * (3 * kk - 1) // 2
            if e <= order:
                cs[e] += (-1) ** (kk % 2)
                done = False
        if done:
            break
        k += 1
    return PuiseuxSeries.from_ints(Q(1, 24), 1, cs)


def eta_quotient(factors: dict[int, Fraction | int], order: int = DEFAULT_ORDER) -> PuiseuxSeries:
    """prod_m eta(q^m)^e for {m: e}; exponents may be rational."""
    out = None
    base_eta = eta(order)
    for m, e in sorted(factors.items()):
        piece = base_eta.substitute_power(m).pow(e)
        out = piece if out is None else out * piece
    if out is None:
        raise ValueError("empty eta quotient")
    return out


@lru_cache(maxsize=None)
def h2(order: int = DEFAULT_ORDER) -> PuiseuxSeries:
    """Weight-2 level-2 form 1 + 24 sum (sum of odd divisors of n) q^n."""
    return _divisor_sums(lambda d: 24 * d if d % 2 else 0, order)


@lru_cache(maxsize=None)
def delta2(order: int = DEFAULT_ORDER) -> PuiseuxSeries:
    """eta(q^2)^8 / eta(q)^4 (weight 2, level 2); leading term q^(1/2).

    The exponents 8 and 4 (rather than 16 and 8) are forced by the weight:
    only this quotient has weight 2 and satisfies the level-2 relations
    E4 = H2^2 + 192*Delta2^2 and 6*Delta2' = (E2 + 2*H2)*Delta2.
    """
    return eta_quotient({2: 8, 1: -4}, order)


@lru_cache(maxsize=None)
def i3(order: int = DEFAULT_ORDER) -> PuiseuxSeries:
    """Weight-1 level-3 form 1 + 6 sum (sum over d|n of Legendre(d|3)) q^n."""
    return _divisor_sums(lambda d: (0, 6, -6)[d % 3], order)


@lru_cache(maxsize=None)
def delta3(order: int = DEFAULT_ORDER) -> PuiseuxSeries:
    """eta(q^3)^3 / eta(q) (weight 1, level 3); leading term q^(1/3)."""
    return eta_quotient({3: 3, 1: -1}, order)


@lru_cache(maxsize=None)
def theta(order: int = DEFAULT_ORDER) -> PuiseuxSeries:
    """theta = sum over all integers n of q^(n^2) (weight 1/2, level 4)."""
    cs = [1] + [0] * order
    n = 1
    while n * n <= order:
        cs[n * n] = 2
        n += 1
    return PuiseuxSeries.from_ints(0, 1, cs)


@lru_cache(maxsize=None)
def delta4(order: int = DEFAULT_ORDER) -> PuiseuxSeries:
    """eta(q^4)^2 / eta(q^2) (weight 1/2, level 4); leading term q^(1/4)."""
    return eta_quotient({4: 2, 2: -1}, order)


def partition_product(residues: set[int], order: int) -> PuiseuxSeries:
    """prod over n > 0 with n mod 5 in `residues` of (1 - q^n)^(-1); with
    all five residues, 1 / prod (1 - q^n), the partition numbers."""
    cs = [1] + [0] * order
    for n in range(1, order + 1):
        if n % 5 in residues:
            for j in range(n, order + 1):
                cs[j] += cs[j - n]
    return PuiseuxSeries.from_ints(0, 1, cs)


@lru_cache(maxsize=None)
def psi1(order: int = DEFAULT_ORDER) -> PuiseuxSeries:
    """Weight-1/5 level-5 form with leading exponent 0.

    eta^(2/5) * q^(-1/60) * prod over n not = 0, +-2 mod 5 of (1-q^n)^(-1).
    """
    rr = partition_product({1, 4}, order).shift(Q(-1, 60))
    return eta(order).pow(Q(2, 5)) * rr


@lru_cache(maxsize=None)
def psi2(order: int = DEFAULT_ORDER) -> PuiseuxSeries:
    """Weight-1/5 level-5 companion with leading exponent 1/5.

    eta^(2/5) * q^(11/60) * prod over n not = 0, +-1 mod 5 of (1-q^n)^(-1).
    """
    rr = partition_product({2, 3}, order).shift(Q(11, 60))
    return eta(order).pow(Q(2, 5)) * rr


@lru_cache(maxsize=None)
def i15(order: int = DEFAULT_ORDER) -> PuiseuxSeries:
    """eta(q^3)^2 eta(q^5)^2 / (eta(q) eta(q^15)) (weight 1, level 15)."""
    return eta_quotient({3: 2, 5: 2, 1: -1, 15: -1}, order)


@lru_cache(maxsize=None)
def delta15(order: int = DEFAULT_ORDER) -> PuiseuxSeries:
    """eta(q)^2 eta(q^15)^2 / (eta(q^3) eta(q^5)) (weight 1, level 15)."""
    return eta_quotient({1: 2, 15: 2, 3: -1, 5: -1}, order)


#: name -> (builder, weight, level) for the ten catalogued forms
FORM_TABLE = {
    "H2": (h2, Q(2), 2),
    "Delta2": (delta2, Q(2), 2),
    "I3": (i3, Q(1), 3),
    "Delta3": (delta3, Q(1), 3),
    "theta": (theta, Q(1, 2), 4),
    "Delta4": (delta4, Q(1, 2), 4),
    "psi1": (psi1, Q(1, 5), 5),
    "psi2": (psi2, Q(1, 5), 5),
    "I15": (i15, Q(1), 15),
    "Delta15": (delta15, Q(1), 15),
}


def form(name: str, order: int = DEFAULT_ORDER) -> PuiseuxSeries:
    """Look up a catalogued form by name."""
    try:
        builder, _, _ = FORM_TABLE[name]
    except KeyError:
        raise KeyError(f"unknown form {name!r}; known: {sorted(FORM_TABLE)}") from None
    return builder(order)
