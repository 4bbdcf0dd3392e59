"""Independent integer q-expansions of the ten catalogued forms.

Used to check ``forms dump`` output without the package: each form (or,
for psi1/psi2, its fifth power) is an integer series built from divisor
sums and Euler products.  Returns (leading exponent, first n coefficients).
"""

from __future__ import annotations

from fractions import Fraction


def _euler(m: int, k: int, n: int) -> list[int]:
    """prod_{j>=1} (1 - q^(m*j))^k to n terms (k may be negative)."""
    c = [1] + [0] * (n - 1)
    step = m
    while step < n:
        for _ in range(abs(k)):
            if k > 0:
                for i in range(n - 1, step - 1, -1):
                    c[i] -= c[i - step]
            else:
                for i in range(step, n):
                    c[i] += c[i - step]
        step += m
    return c


def _restricted(residues: set[int], k: int, n: int) -> list[int]:
    """prod over j > 0 with j mod 5 in residues of (1 - q^j)^k, k < 0."""
    c = [1] + [0] * (n - 1)
    for j in range(1, n):
        if j % 5 in residues:
            for _ in range(-k):
                for i in range(j, n):
                    c[i] += c[i - j]
    return c


def _mul(*series: list[int]) -> list[int]:
    n = len(series[0])
    out = series[0]
    for b in series[1:]:
        c = [0] * n
        for i, x in enumerate(out):
            if x:
                for j in range(n - i):
                    c[i + j] += x * b[j]
        out = c
    return out


def _divisor_series(weight, n: int) -> list[int]:
    """1 + sum_{m>=1} (sum_{d | m} weight(d)) q^m."""
    c = [1] + [0] * (n - 1)
    for d in range(1, n):
        w = weight(d)
        if w:
            for m in range(d, n, d):
                c[m] += w
    return c


def expansion(name: str, n: int) -> tuple[Fraction, list[int], int]:
    """(leading exponent, first n coefficients, power) of form**power."""
    if name == "H2":
        return Fraction(0), _divisor_series(lambda d: 24 * d if d % 2 else 0, n), 1
    if name == "I3":
        return Fraction(0), _divisor_series(lambda d: 6 * (0, 1, -1)[d % 3], n), 1
    if name == "theta":
        c = [0] * n
        for m in range(-n, n + 1):
            if m * m < n:
                c[m * m] += 1
        return Fraction(0), c, 1
    if name == "Delta2":
        return Fraction(1, 2), _mul(_euler(2, 8, n), _euler(1, -4, n)), 1
    if name == "Delta3":
        return Fraction(1, 3), _mul(_euler(3, 3, n), _euler(1, -1, n)), 1
    if name == "Delta4":
        return Fraction(1, 4), _mul(_euler(4, 2, n), _euler(2, -1, n)), 1
    if name == "I15":
        return Fraction(0), _mul(_euler(3, 2, n), _euler(5, 2, n),
                                 _euler(1, -1, n), _euler(15, -1, n)), 1
    if name == "Delta15":
        return Fraction(1), _mul(_euler(1, 2, n), _euler(15, 2, n),
                                 _euler(3, -1, n), _euler(5, -1, n)), 1
    if name == "psi1":
        return Fraction(0), _mul(_euler(1, 2, n), _restricted({1, 4}, -5, n)), 5
    if name == "psi2":
        return Fraction(1), _mul(_euler(1, 2, n), _restricted({2, 3}, -5, n)), 5
    raise KeyError(name)


def power_prefix(coeffs: list[Fraction], power: int, n: int) -> list[Fraction]:
    """First n coefficients of (sum coeffs[i] q^i)**power."""
    out = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for _ in range(power):
        c = [Fraction(0)] * n
        for i, x in enumerate(out):
            if x:
                for j in range(n - i):
                    c[i + j] += x * coeffs[j]
        out = c
    return out
