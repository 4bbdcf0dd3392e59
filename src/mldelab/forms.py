"""Classical q-expansions: Eisenstein series, the eta function, and the
level 2-15 forms used throughout the package, as one registry.

Each row of :data:`REGISTRY` says how its form is built, and the form's
modular weight and level are read off that construction:

- a divisor sum ``1 + sum_n sum_{d | n} c chi(d) d^p q^n`` has weight
  p + 1 and level the modulus of chi (E2, E4, E6, E8, H2, I3);
- an eta quotient ``prod_m eta(q^m)^e``, written ``{m: e}``, has weight
  sum(e)/2 and level lcm(m) (eta itself is ``{1: 1}``; Delta2, Delta3,
  Delta4, I15, Delta15);
- psi1 and psi2 are eta^(2/5) q^shift times a Rogers-Ramanujan product
  over residues mod 5, which has weight 0: weight 1/5 (the eta power's)
  and level lcm(1, 5) = 5;
- theta, built by its square sieve, is the one row that states its
  weight (1/2) and level (4).

:func:`form` builds a row to a truncation `order`; nothing is built at
import.  A form is exact ``row.steps * (order + 1)`` integer q-steps past
its leading exponent: order + 1, and min(m) * (order + 1) for an eta
quotient, as each eta(q^m) is.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial, reduce
from math import lcm
from operator import mul
from typing import NamedTuple

from .series import DEFAULT_ORDER, PuiseuxSeries, Q

#: the modulus of the residues a partition product runs over
_MODULUS = 5


def _pentagonal(order: int) -> PuiseuxSeries:
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
    if not factors:
        raise ValueError("empty eta quotient")
    base_eta = _pentagonal(order)
    return reduce(mul, (base_eta.substitute_power(m).pow(e) for m, e in sorted(factors.items())))


def partition_product(residues: set[int], order: int) -> PuiseuxSeries:
    """prod over n > 0 with n mod 5 in `residues` of (1 - q^n)^(-1); with
    all five residues, 1 / prod (1 - q^n), the partition numbers."""
    cs = [1] + [0] * order
    for n in range(1, order + 1):
        if n % _MODULUS in residues:
            for j in range(n, order + 1):
                cs[j] += cs[j - n]
    return PuiseuxSeries.from_ints(0, 1, cs)


class DivisorSum(NamedTuple):
    """1 + sum_{n >= 1} sum_{d | n} c * chi[d mod len(chi)] * d^p q^n."""

    c: int
    p: int
    chi: tuple[int, ...] = (1,)
    steps = 1
    weight = property(lambda row: Q(row.p + 1))
    level = property(lambda row: len(row.chi))

    def build(self, order: int) -> PuiseuxSeries:
        cs = [1] + [0] * order
        for d in range(1, order + 1):
            w = self.c * self.chi[d % len(self.chi)] * d**self.p
            if w:
                cs[d::d] = [x + w for x in cs[d::d]]
        return PuiseuxSeries.from_ints(0, 1, cs)


class EtaQuotient(NamedTuple):
    """prod_m eta(q^m)^e for factors {m: e}."""

    factors: dict[int, Fraction | int]
    steps = property(lambda row: min(row.factors))
    weight = property(lambda row: Q(sum(row.factors.values()), 2))
    level = property(lambda row: lcm(*row.factors))

    def build(self, order: int) -> PuiseuxSeries:
        return eta_quotient(self.factors, order)


class Psi(NamedTuple):
    """eta^(2/5) * q^shift * prod over n > 0 with n mod 5 in `residues` of
    (1 - q^n)^(-1)."""

    shift: Fraction
    residues: frozenset[int]
    eta = EtaQuotient({1: Q(2, 5)})
    steps = 1
    weight = property(lambda row: row.eta.weight)
    level = property(lambda row: lcm(row.eta.level, _MODULUS))

    def build(self, order: int) -> PuiseuxSeries:
        return self.eta.build(order) * partition_product(self.residues, order).shift(self.shift)


class Theta(NamedTuple):
    """theta = sum over all integers n of q^(n^2)."""

    steps = 1
    weight = Q(1, 2)
    level = 4

    def build(self, order: int) -> PuiseuxSeries:
        cs = [1] + [0] * order
        n = 1
        while n * n <= order:
            cs[n * n] = 2
            n += 1
        return PuiseuxSeries.from_ints(0, 1, cs)


#: name -> row: how each form is built, and so its weight and level
REGISTRY = {
    "E2": DivisorSum(-24, 1),  # quasimodular
    "E4": DivisorSum(240, 3),
    "E6": DivisorSum(-504, 5),
    "E8": DivisorSum(480, 7),  # = E4^2
    "eta": EtaQuotient({1: 1}),
    "H2": DivisorSum(24, 1, (0, 1)),  # sums of odd divisors
    # exponents 8 and 4 (rather than 16 and 8): only this quotient has weight
    # 2 and satisfies E4 = H2^2 + 192*Delta2^2 and 6*Delta2' = (E2 + 2*H2)*Delta2
    "Delta2": EtaQuotient({2: 8, 1: -4}),
    "I3": DivisorSum(6, 0, (0, 1, -1)),  # chi = the Legendre symbol (d|3)
    "Delta3": EtaQuotient({3: 3, 1: -1}),
    "theta": Theta(),
    "Delta4": EtaQuotient({4: 2, 2: -1}),
    "psi1": Psi(Q(-1, 60), frozenset({1, 4})),  # leading exponent 0
    "psi2": Psi(Q(11, 60), frozenset({2, 3})),  # leading exponent 1/5
    "I15": EtaQuotient({3: 2, 5: 2, 1: -1, 15: -1}),
    "Delta15": EtaQuotient({1: 2, 15: 2, 3: -1, 5: -1}),
}


#: name -> (order, series): each form as built at the highest order asked for
_BUILT: dict[str, tuple[int, PuiseuxSeries]] = {}


def form(name: str, order: int = DEFAULT_ORDER) -> PuiseuxSeries:
    """The registry's form `name`, built to `order`: exact row.steps *
    (order + 1) steps past its base.  Each form is built once per new
    highest order, and a lower order is served by truncating that build."""
    try:
        row = REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown form {name!r}; known: {sorted(REGISTRY)}") from None
    built, f = _BUILT.get(name, (-1, None))
    if order > built:
        built, f = _BUILT[name] = order, row.build(order)
    return f if order == built else f.truncate(f.base + row.steps * (order + 1))


#: name -> (builder, weight, level) for the ten catalogued forms, the
#: generator pairs of levels 2, 3, 4, 5 and 15: the rows of level above 1
FORM_TABLE = {name: (partial(form, name), row.weight, row.level)
              for name, row in REGISTRY.items() if row.level > 1}

eisenstein_e2 = partial(form, "E2")
eisenstein_e4 = partial(form, "E4")
eisenstein_e6 = partial(form, "E6")
eisenstein_e8 = partial(form, "E8")
eta = partial(form, "eta")
psi1 = partial(form, "psi1")
psi2 = partial(form, "psi2")
