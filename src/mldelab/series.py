"""Exact truncated Puiseux series over the rationals.

A series is stored as ``q^base * sum(coeffs[n] * q^(n/grid))`` with an
explicit truncation: the expansion is exact modulo
``q^(base + (order+1)/grid)``.  Coefficients are stored as
:class:`fractions.Fraction`, so nothing is ever rounded.  Products, powers
and inverses run their quadratic loops on Python ints instead: the inputs
are brought to integer numerators over a common denominator once, earlier
outputs of a recurrence are kept over a running denominator (the lcm of
their denominators so far), and each output coefficient is reduced by one
gcd.

A depth-1 logarithmic extension is provided by :class:`LogSeries`,
representing ``plain + ell*log_part`` where ``ell`` is the formal
primitive of 1 under the Euler operator ``D = q d/dq``.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

Q = Fraction

QLike = Union[int, Fraction, str]

DEFAULT_ORDER = 50

#: the largest magnitude of the decimal exponent of a rational string
RAT_EXPONENT_CAP = 100

_DECIMAL_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)")


class SeriesError(ArithmeticError):
    pass


class ZeroLeadingCoefficient(SeriesError):
    """Inversion of a series whose stored leading coefficient vanishes."""


class NonUnitBase(SeriesError):
    """Fractional power of a series whose constant term is not 1."""


class InsufficientOrder(SeriesError):
    """A coefficient beyond the justified truncation order was requested."""


class ConstantTermPresent(SeriesError):
    """dq/q-integration of a series with a term at exponent 0."""


def rat(x: QLike) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact rational."""
    if isinstance(x, Fraction):
        return x
    return Q(x)


def parse_rat(text: str) -> Fraction:
    """The rational a 'p/q' or decimal string spells.  A decimal exponent
    beyond RAT_EXPONENT_CAP in magnitude raises ValueError before the value
    is built: ``1e10000000`` would build a ten-million-digit integer."""
    exponent = _DECIMAL_EXPONENT.search(text)
    if exponent and abs(int(exponent.group(1))) > RAT_EXPONENT_CAP:
        raise ValueError(f"decimal exponent beyond {RAT_EXPONENT_CAP} in magnitude")
    return Q(text)


def rat_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _over_common_denominator(cs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators ns and one denominator d with cs[k] == ns[k] / d."""
    d = lcm(*(c.denominator for c in cs))
    return [c.numerator * (d // c.denominator) for c in cs], d


class _RunningDenominator:
    """The outputs of a recurrence, kept both as reduced Fractions
    (``values``) and as integer numerators ``nums`` over ``den``, the lcm of
    the denominators appended so far.  ``nums`` is rescaled in place only
    when ``den`` grows.

    A fixed denominator chosen up front (say D^m for step m) grows far
    faster than this lcm and makes the integer loops much slower than the
    Fraction ones they replace.
    """

    def __init__(self, first: Fraction):
        self.values = [first]
        self.nums = [first.numerator]
        self.den = first.denominator

    def append(self, num: int, den: int) -> None:
        """Append num/den, reduced by one gcd."""
        v = Fraction(num, den)
        self.values.append(v)
        if self.den % v.denominator:
            grown = lcm(self.den, v.denominator)
            f = grown // self.den
            self.nums[:] = [x * f for x in self.nums]
            self.den = grown
        self.nums.append(v.numerator * (self.den // v.denominator))


@dataclass(frozen=True)
class PuiseuxSeries:
    """Truncated series q^base * (c_0 + c_1 q^(1/grid) + ... + c_N q^(N/grid))."""

    base: Fraction
    grid: int
    coeffs: tuple[Fraction, ...]

    # -- construction -------------------------------------------------

    @staticmethod
    def make(base: QLike, coeffs: Iterable[QLike], grid: int = 1) -> "PuiseuxSeries":
        cs = tuple(rat(c) for c in coeffs)
        if grid < 1:
            raise ValueError("grid must be a positive integer")
        return PuiseuxSeries(rat(base), grid, cs)._normalized()

    @staticmethod
    def zero(order: int = DEFAULT_ORDER, base: QLike = 0, grid: int = 1) -> "PuiseuxSeries":
        return PuiseuxSeries(rat(base), grid, (Q(0),) * (order + 1))

    @staticmethod
    def one(order: int = DEFAULT_ORDER) -> "PuiseuxSeries":
        return PuiseuxSeries(Q(0), 1, (Q(1),) + (Q(0),) * order)

    @staticmethod
    def q_power(e: QLike, order: int = DEFAULT_ORDER) -> "PuiseuxSeries":
        """The monomial q^e, exact to `order` grid steps past e."""
        return PuiseuxSeries(rat(e), 1, (Q(1),) + (Q(0),) * order)

    def _normalized(self) -> "PuiseuxSeries":
        """Reduce the grid to the smallest step actually used (losslessly)."""
        if self.grid == 1:
            return self
        g = self.grid
        for i, c in enumerate(self.coeffs):
            if c:
                g = gcd(g, i)
            if g == 1:
                return self
        if g == 0:  # all-zero series
            g = self.grid
        n = len(self.coeffs)
        if n % g != 0:
            return self  # reducing would shrink the justified truncation
        new_grid = self.grid // g
        return PuiseuxSeries(self.base, new_grid, self.coeffs[::g])

    # -- basic queries -------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def truncation(self) -> Fraction:
        """Exponent t such that the series is exact modulo q^t."""
        return self.base + Q(len(self.coeffs), self.grid)

    def first_nonzero(self, below: Optional[QLike] = None
                      ) -> Optional[tuple[Fraction, Fraction]]:
        """(exponent, coefficient) of the first nonzero stored term below
        `below` (the truncation if omitted), or None if there is none.
        Every check reads its verdict here; a `below` past the truncation
        raises InsufficientOrder, since no coefficient there is justified."""
        below = self.truncation if below is None else rat(below)
        if below > self.truncation:
            raise InsufficientOrder(
                f"no verdict below q^{below}: exact only to q^{self.truncation}")
        for i, c in enumerate(self.coeffs):
            if c:
                e = self.base + Q(i, self.grid)
                return (e, c) if e < below else None
        return None

    def leading(self) -> tuple[Fraction, Fraction]:
        """(exponent, coefficient) of the first nonzero stored term."""
        lead = self.first_nonzero()
        if lead is None:
            raise SeriesError("series is zero to its truncation order")
        return lead

    def coefficient(self, e: QLike) -> Fraction:
        """Exact coefficient of q^e; raises past the truncation."""
        e = rat(e)
        if e >= self.truncation:
            raise InsufficientOrder(f"coefficient at q^{e} is beyond q^{self.truncation}")
        step = (e - self.base) * self.grid
        if step.denominator != 1 or step < 0:
            return Q(0)
        return self.coeffs[int(step)]

    # -- arithmetic ----------------------------------------------------

    def _aligned(self, other: "PuiseuxSeries"):
        base = min(self.base, other.base)
        grid = lcm(self.grid, other.grid)
        grid = lcm(grid, (self.base - base).denominator, (other.base - base).denominator)
        trunc = min(self.truncation, other.truncation)
        n = (trunc - base) * grid
        if n.denominator != 1:
            grid = lcm(grid, n.denominator)
            n = (trunc - base) * grid
        return base, grid, int(n)

    def __add__(self, other) -> "PuiseuxSeries":
        if isinstance(other, (int, Fraction)):
            t = self.truncation
            if t <= 0:
                raise InsufficientOrder("cannot add a constant past the truncation")
            d = t.denominator
            m = int(t * d)
            other = PuiseuxSeries(Q(0), d, (rat(other),) + (Q(0),) * (m - 1))
        base, grid, n = self._aligned(other)
        if n <= 0:
            raise InsufficientOrder("operands share no justified coefficient range")
        cs = [Q(0)] * n
        for s in (self, other):
            off = int((s.base - base) * grid)
            step = grid // s.grid
            for i, c in enumerate(s.coeffs):
                j = off + i * step
                if j < n:
                    cs[j] += c
        return PuiseuxSeries(base, grid, tuple(cs))._normalized()

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "PuiseuxSeries":
        return PuiseuxSeries(self.base, self.grid, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__add__(-rat(other))
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def scale(self, k: QLike) -> "PuiseuxSeries":
        k = rat(k)
        return PuiseuxSeries(self.base, self.grid, tuple(k * c for c in self.coeffs))

    def __mul__(self, other) -> "PuiseuxSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, LogSeries):
            return NotImplemented
        grid = lcm(self.grid, other.grid)
        base = self.base + other.base
        trunc = min(self.truncation + other.base, other.truncation + self.base)
        n = (trunc - base) * grid
        if n.denominator != 1:
            grid = lcm(grid, n.denominator)
            n = (trunc - base) * grid
        n = int(n)
        if n <= 0:
            raise InsufficientOrder("product has no justified coefficients")
        sa = grid // self.grid
        sb = grid // other.grid
        # only the terms that land below n take part
        xs, da = _over_common_denominator(self.coeffs[:(n + sa - 1) // sa])
        ys, db = _over_common_denominator(other.coeffs[:(n + sb - 1) // sb])
        nz = [(j * sb, y) for j, y in enumerate(ys) if y]
        offsets = [jb for jb, _ in nz]
        acc = [0] * n
        for i, x in enumerate(xs):
            if x:
                ia = i * sa
                for jb, y in nz[:bisect_left(offsets, n - ia)]:
                    acc[ia + jb] += x * y
        d = da * db
        return PuiseuxSeries(base, grid, tuple(Fraction(c, d) for c in acc))._normalized()

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def invert(self) -> "PuiseuxSeries":
        if not self.coeffs or not self.coeffs[0]:
            raise ZeroLeadingCoefficient("cannot invert: leading stored coefficient is 0")
        return self.pow(-1)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(Q(1) / rat(other))
        return self * other.invert()

    def pow(self, r: QLike) -> "PuiseuxSeries":
        """a^r via the coefficient recursion from a*g' = r*a'*g."""
        r = rat(r)
        if r == 0:
            return PuiseuxSeries(Q(0), 1, (Q(1),) + (Q(0),) * self.order)
        if not self.coeffs or not self.coeffs[0]:
            if r.denominator == 1 and r > 0:
                # integer power of a series with vanishing constant term
                out = self
                for _ in range(int(r) - 1):
                    out = out * self
                return out
            raise NonUnitBase("fractional power requires unit constant term")
        c0 = self.coeffs[0]
        if c0 != 1:
            if r.denominator != 1:
                raise NonUnitBase("fractional power requires constant term 1")
            k = int(r)
            unit = self.scale(1 / c0)
            return unit.pow(r).scale(c0 ** k)
        # Miller: m g_m = sum_{i=1}^{m} ((r+1) i - m) c_i g_{m-i}; with
        # r = p/q and c_i = ys[i-1]/d the weight is ((p+q) i - q m) / q
        ys, d = _over_common_denominator(self.coeffs[1:])
        p, q = r.numerator, r.denominator
        nz = [(i, (p + q) * i, y) for i, y in enumerate(ys, 1) if y]
        g = _RunningDenominator(Q(1))
        nums = g.nums
        for m in range(1, len(self.coeffs)):
            qm = q * m
            acc = 0
            for i, w, y in nz:
                if i > m:
                    break
                acc += (w - qm) * y * nums[m - i]
            g.append(acc, qm * d * g.den)
        return PuiseuxSeries(r * self.base, self.grid, tuple(g.values))._normalized()

    def __pow__(self, r):
        return self.pow(r)

    def substitute_power(self, m: int) -> "PuiseuxSeries":
        """q -> q^m: every exponent is multiplied by the positive integer m."""
        if m < 1:
            raise ValueError("substitution exponent must be a positive integer")
        if m == 1:
            return self
        n = len(self.coeffs)
        cs = [Q(0)] * (m * n)
        for i, c in enumerate(self.coeffs):
            cs[m * i] = c
        return PuiseuxSeries(m * self.base, self.grid, tuple(cs))._normalized()

    def euler_derivative(self) -> "PuiseuxSeries":
        """D = q d/dq: c*q^e -> c*e*q^e."""
        cs = tuple(c * (self.base + Q(i, self.grid)) for i, c in enumerate(self.coeffs))
        return PuiseuxSeries(self.base, self.grid, cs)._normalized()

    def integrate_q(self) -> "PuiseuxSeries":
        """Formal primitive under D: c*q^e -> (c/e)*q^e; e = 0 must not occur."""
        cs = []
        for i, c in enumerate(self.coeffs):
            e = self.base + Q(i, self.grid)
            if e == 0:
                if c:
                    raise ConstantTermPresent("dq/q integral of a constant term diverges")
                cs.append(Q(0))
            else:
                cs.append(c / e)
        return PuiseuxSeries(self.base, self.grid, tuple(cs))._normalized()

    def shift(self, e: QLike) -> "PuiseuxSeries":
        """Multiply by the exact monomial q^e."""
        return PuiseuxSeries(self.base + rat(e), self.grid, self.coeffs)

    def truncate(self, trunc: QLike) -> "PuiseuxSeries":
        """Restrict the claimed exactness to q^trunc (must not exceed the current one)."""
        trunc = rat(trunc)
        if trunc > self.truncation:
            raise InsufficientOrder("cannot extend a truncation")
        n = (trunc - self.base) * self.grid
        grid = self.grid
        cs = self.coeffs
        if n.denominator != 1:
            grid = self.grid * n.denominator
            step = n.denominator
            expanded = [Q(0)] * (len(cs) * step)
            for i, c in enumerate(cs):
                expanded[i * step] = c
            cs = tuple(expanded)
            n = (trunc - self.base) * grid
        n = int(n)
        if n <= 0:
            raise InsufficientOrder("truncation precedes the base exponent")
        return PuiseuxSeries(self.base, grid, tuple(cs[:n]))._normalized()

    # -- comparisons ---------------------------------------------------

    def is_zero_to_truncation(self) -> bool:
        return not any(self.coeffs)

    def is_cft_type(self, depth: int) -> bool:
        """Leading coefficient 1 and non-negative integer coefficients to `depth`.

        `depth` counts whole powers of q past the leading exponent.
        """
        try:
            e0, c0 = self.leading()
        except SeriesError:
            return False
        if c0 != 1:
            return False
        if self.truncation <= e0 + depth:
            raise InsufficientOrder(f"CFT check to depth {depth} exceeds truncation")
        for ex, c in ((self.base + Q(i, self.grid), c) for i, c in enumerate(self.coeffs)):
            if c and ex <= e0 + depth:
                rel = ex - e0
                if rel.denominator != 1 or c.denominator != 1 or c < 0:
                    return False
        return True

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "base_exponent": rat_str(self.base),
            "grid": self.grid,
            "order": self.order,
            "coeffs": [rat_str(c) for c in self.coeffs],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(d: dict) -> "PuiseuxSeries":
        """Inverse of :meth:`to_json_dict`; raises ValueError on anything
        that method would not have written."""
        if not isinstance(d, dict):
            raise ValueError(f"a series is a JSON object, not {type(d).__name__}")
        missing = [k for k in ("base_exponent", "grid", "order", "coeffs") if k not in d]
        if missing:
            raise ValueError(f"series lacks {', '.join(missing)}")
        grid, order = d["grid"], d["order"]
        if type(grid) is not int or grid < 1:
            raise ValueError(f"grid must be a positive integer, got {grid!r}")
        s = PuiseuxSeries(_json_rat(d["base_exponent"]), grid, _json_rats(d["coeffs"]))
        if type(order) is not int or s.order != order:
            raise ValueError("coeffs length does not match declared order")
        return s

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            e = self.base + Q(i, self.grid)
            parts.append(f"{rat_str(c)}*q^{rat_str(e)}" if e else rat_str(c))
            if len(parts) >= 8:
                parts.append("...")
                break
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class LogSeries:
    """plain + ell*log_part with D(ell) = 1 (ell is log q up to 2*pi*i)."""

    plain: PuiseuxSeries
    log_part: PuiseuxSeries

    @property
    def base(self) -> Fraction:
        """The smaller base exponent of the two parts."""
        return min(self.plain.base, self.log_part.base)

    @property
    def truncation(self) -> Fraction:
        """Exponent t such that both parts are exact modulo q^t."""
        return min(self.plain.truncation, self.log_part.truncation)

    @staticmethod
    def lift(s: PuiseuxSeries) -> "LogSeries":
        return LogSeries(s, PuiseuxSeries.zero(s.order, s.base, s.grid))

    def __add__(self, other):
        if isinstance(other, PuiseuxSeries):
            other = LogSeries.lift(other)
        return LogSeries(self.plain + other.plain, self.log_part + other.log_part)

    def __sub__(self, other):
        if isinstance(other, PuiseuxSeries):
            other = LogSeries.lift(other)
        return LogSeries(self.plain - other.plain, self.log_part - other.log_part)

    def __neg__(self):
        return LogSeries(-self.plain, -self.log_part)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LogSeries(self.plain * other, self.log_part * other)
        if isinstance(other, PuiseuxSeries):
            return LogSeries(self.plain * other, self.log_part * other)
        raise TypeError("LogSeries can only be multiplied by plain series or scalars")

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, k: QLike) -> "LogSeries":
        return LogSeries(self.plain.scale(k), self.log_part.scale(k))

    def euler_derivative(self) -> "LogSeries":
        """D(plain + ell*f1) = D(plain) + f1 + ell*D(f1)."""
        return LogSeries(self.plain.euler_derivative() + self.log_part,
                         self.log_part.euler_derivative())

    def is_zero_to_truncation(self) -> bool:
        return self.plain.is_zero_to_truncation() and self.log_part.is_zero_to_truncation()

    def first_nonzero(self, below: Optional[QLike] = None
                      ) -> Optional[tuple[Fraction, Fraction]]:
        """The earlier of the two parts' first nonzero terms below `below`
        (each part's own truncation if omitted); the plain part's on a tie."""
        leads = [lead for lead in (self.plain.first_nonzero(below),
                                   self.log_part.first_nonzero(below)) if lead]
        return min(leads, key=lambda lead: lead[0]) if leads else None

    def to_json_dict(self) -> dict:
        base = self.base
        grid = lcm(self.plain.grid, self.log_part.grid,
                   (self.plain.base - base).denominator,
                   (self.log_part.base - base).denominator)
        n = int((self.truncation - base) * grid)

        def regrid(s: PuiseuxSeries) -> list[str]:
            out = [Q(0)] * n
            off = int((s.base - base) * grid)
            step = grid // s.grid
            for i, c in enumerate(s.coeffs):
                j = off + i * step
                if j < n:
                    out[j] = c
            return [rat_str(c) for c in out]

        return {
            "base_exponent": rat_str(base),
            "grid": grid,
            "order": n - 1,
            "coeffs": regrid(self.plain),
            "log_coeffs": regrid(self.log_part),
        }


SeriesLike = Union[PuiseuxSeries, LogSeries]


def _json_rat(x) -> Fraction:
    """An exact rational from a JSON int or "p/q" string, else ValueError."""
    if type(x) not in (int, str):
        raise ValueError(f"bad rational {x!r}: not an integer or a string")
    try:
        return Q(x) if type(x) is int else parse_rat(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {x!r}: {exc}") from None


def _json_rats(xs) -> tuple[Fraction, ...]:
    if not isinstance(xs, list) or not xs:
        raise ValueError("coefficients must be a non-empty JSON list")
    return tuple(_json_rat(x) for x in xs)


def series_from_json_dict(d: dict) -> SeriesLike:
    """A PuiseuxSeries, or a LogSeries when ``log_coeffs`` is present;
    raises ValueError on a malformed dict."""
    s = PuiseuxSeries.from_json_dict(d)
    if d.get("log_coeffs") is not None:
        logp = PuiseuxSeries(s.base, s.grid, _json_rats(d["log_coeffs"]))
        if logp.order != s.order:
            raise ValueError("log_coeffs length does not match declared order")
        return LogSeries(s._normalized(), logp._normalized())
    return s
