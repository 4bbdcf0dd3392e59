"""Exact truncated Puiseux series over the rationals.

A series is stored as ``q^base * sum(nums[n]/den * q^(n/grid))`` with an
explicit truncation: the expansion is exact modulo
``q^(base + (order+1)/grid)``.  The coefficients are integer numerators
``nums`` over one positive denominator ``den`` with
``gcd(den, *nums) == 1``, so nothing is ever rounded and the stored form
of a series is unique.  Every operation runs on Python ints: ``+`` is one
lcm and a rescale, ``scale``, ``-`` and ``D`` are integer list operations,
products take the numerators straight into their quadratic loop, and
recurrences (powers, inverses, Frobenius sweeps) keep their earlier
outputs over a running denominator, the lcm of their denominators so far.
Each result is reduced by one gcd.  Exponent bookkeeping runs on ints
too: inside a series ``truncation - base`` is ``len(nums)/grid``, so a
product is exact to ``min(len_a * sa, len_b * sb)`` steps of the common
grid and two operands with the same base align without a ``Fraction``.
``Fraction`` appears only where bases differ and at the boundary: the
``base`` and ``truncation`` of a series, ``coefficient`` (which builds one
for the term it returns), the verdict readers ``first_nonzero`` and
``first_non_counting``, the ``coeffs`` view and the rational constructor.

A depth-1 logarithmic extension is provided by :class:`LogSeries`,
representing ``plain + ell*log_part`` where ``ell`` is the formal
primitive of 1 under the Euler operator ``D = q d/dq``.  Its arithmetic is
what an operator applies to it: ``D``, the sum of two log series and the
product by a plain series on the left.
"""

from __future__ import annotations

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


def report_failure(report: dict, bad: Optional[tuple[Fraction, Fraction]] = None,
                   detail: Optional[str] = None, status: str = "failed") -> dict:
    """The check report, marked with `status`, its `detail` line if given,
    and, for a series check, the first bad exponent and residual of `bad`
    (the pair ``first_nonzero`` or ``first_non_counting`` returned)."""
    report["status"] = status
    if detail is not None:
        report["detail"] = detail
    if bad is not None:
        report.update(first_bad_exponent=rat_str(bad[0]), residual=rat_str(bad[1]))
    return report


def _ratio_str(num: int, den: int) -> str:
    """rat_str of num/den (den > 0), without building the Fraction."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


class _RunningDenominator:
    """The outputs of a recurrence as integer numerators ``nums`` over
    ``den``, the lcm of the reduced denominators appended so far.  ``nums``
    is rescaled in place only when ``den`` grows, so ``nums`` over ``den``
    stays in lowest terms.

    A fixed denominator chosen up front (say D^m for step m) grows far
    faster than this lcm and makes the integer loops slower than plain
    Fraction arithmetic.
    """

    def __init__(self):
        self.nums: list[int] = []
        self.den = 1

    def append(self, num: int, den: int) -> None:
        """Append num/den (den != 0), reduced by one gcd."""
        g = gcd(num, den)
        if den < 0:
            g = -g
        num, den = num // g, den // g
        if self.den % den:
            grown = lcm(self.den, den)
            f = grown // self.den
            self.nums[:] = [x * f for x in self.nums]
            self.den = grown
        self.nums.append(num * (self.den // den))


class PuiseuxSeries:
    """Truncated series q^base * (c_0 + c_1 q^(1/grid) + ... + c_N q^(N/grid))
    with c_k = nums[k] / den.

    The form is canonical: ``den > 0`` and ``gcd(den, *nums) == 1`` (a zero
    series has ``den == 1``), so two series are equal, and hash equal, exactly
    when their base, grid and exact coefficients agree.
    ``PuiseuxSeries(base, grid, coeffs)`` takes rational coefficients;
    :meth:`from_ints` takes numerators over one denominator, and every kernel
    result leaves through it.  ``coeffs`` is a ``Fraction`` view, built on
    each read.  Instances are immutable and hashable.
    """

    __slots__ = ("base", "grid", "nums", "den")
    base: Fraction
    grid: int
    nums: tuple[int, ...]
    den: int

    def __init__(self, base: QLike, grid: int, coeffs: Iterable[Union[int, Fraction]]):
        cs = tuple(coeffs)
        den = lcm(*(c.denominator for c in cs))
        self._assign(base, grid, [c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def from_ints(cls, base: QLike, grid: int, nums: Sequence[int],
                  den: int = 1) -> "PuiseuxSeries":
        """The series with coefficients nums[k] / den (den != 0)."""
        s = object.__new__(cls)
        s._assign(base, grid, nums, den)
        return s

    def _assign(self, base: QLike, grid: int, nums: Sequence[int], den: int) -> None:
        """Set the fields in canonical form, reduced by one gcd."""
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
        assign = object.__setattr__
        assign(self, "base", rat(base))
        assign(self, "grid", grid)
        assign(self, "nums", tuple(nums))
        assign(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError(f"PuiseuxSeries is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PuiseuxSeries is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not PuiseuxSeries:
            return NotImplemented
        return (self.base == other.base and self.grid == other.grid
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.base, self.grid, self.nums, self.den))

    def __repr__(self):
        return (f"PuiseuxSeries(base={self.base!r}, grid={self.grid!r}, "
                f"nums={self.nums!r}, den={self.den!r})")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.nums)

    # -- construction -------------------------------------------------

    @staticmethod
    def make(base: QLike, coeffs: Iterable[QLike], grid: int = 1) -> "PuiseuxSeries":
        cs = [rat(c) for c in coeffs]
        if grid < 1:
            raise ValueError("grid must be a positive integer")
        return PuiseuxSeries(base, grid, cs)._normalized()

    @staticmethod
    def zero(order: int = DEFAULT_ORDER, base: QLike = 0, grid: int = 1) -> "PuiseuxSeries":
        return PuiseuxSeries.from_ints(base, grid, [0] * (order + 1))

    @staticmethod
    def one(order: int = DEFAULT_ORDER) -> "PuiseuxSeries":
        return PuiseuxSeries.q_power(0, order)

    @staticmethod
    def q_power(e: QLike, order: int = DEFAULT_ORDER) -> "PuiseuxSeries":
        """The monomial q^e, exact to `order` grid steps past e."""
        return PuiseuxSeries.from_ints(e, 1, [1] + [0] * order)

    def _normalized(self) -> "PuiseuxSeries":
        """Reduce the grid to the smallest step actually used (losslessly)."""
        if self.grid == 1:
            return self
        g = self.grid
        for i, x in enumerate(self.nums):
            if x:
                g = gcd(g, i)
                if g == 1:
                    return self
        if len(self.nums) % g != 0:
            return self  # reducing would shrink the justified truncation
        return PuiseuxSeries.from_ints(self.base, self.grid // g, self.nums[::g], self.den)

    # -- basic queries -------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    @property
    def truncation(self) -> Fraction:
        """Exponent t such that the series is exact modulo q^t."""
        return self.base + Q(len(self.nums), self.grid)

    def first_nonzero(self, below: Optional[QLike] = None
                      ) -> Optional[tuple[Fraction, Fraction]]:
        """(exponent, coefficient) of the first nonzero stored term below
        `below` (the truncation if omitted), or None if there is none.
        Every zero check reads its verdict here; a `below` past the
        truncation raises InsufficientOrder, since no coefficient there is
        justified."""
        return self._term_below(next((i for i, x in enumerate(self.nums) if x), None), below)

    def first_non_counting(self, below: Optional[QLike] = None
                           ) -> Optional[tuple[Fraction, Fraction]]:
        """(exponent, coefficient) of the first stored term below `below`
        whose coefficient is not a non-negative integer, or None, read like
        :meth:`first_nonzero`.  Every CFT-type check reads its verdict here."""
        den = self.den
        return self._term_below(
            next((i for i, x in enumerate(self.nums) if x < 0 or x % den), None), below)

    def _term_below(self, i: Optional[int], below: Optional[QLike]
                    ) -> Optional[tuple[Fraction, Fraction]]:
        """(exponent, coefficient) of stored term i if it lies below `below`
        (the truncation if omitted), else None; raises InsufficientOrder
        for a `below` past the truncation."""
        if below is not None:
            below = rat(below)
            if below > self.truncation:
                raise InsufficientOrder(
                    f"no verdict below q^{below}: exact only to q^{self.truncation}")
        if i is None:
            return None
        e = self.base + Q(i, self.grid)
        return (e, Fraction(self.nums[i], self.den)) if below is None or e < below else None

    def leading(self) -> tuple[Fraction, Fraction]:
        """(exponent, coefficient) of the first nonzero stored term."""
        lead = self.first_nonzero()
        if lead is None:
            raise SeriesError("series is zero to its truncation order")
        return lead

    def _steps_to(self, e: Fraction) -> tuple[int, int]:
        """(num, den) with den > 0 and num/den = (e - base) * grid, the grid
        steps from the base to q^e."""
        base = self.base
        bd, ed = base.denominator, e.denominator
        return (e.numerator * bd - base.numerator * ed) * self.grid, ed * bd

    def coefficient(self, e: QLike) -> Fraction:
        """Exact coefficient of q^e; raises past the truncation."""
        e = rat(e)
        num, den = self._steps_to(e)
        if num >= len(self.nums) * den:
            raise InsufficientOrder(f"coefficient at q^{e} is beyond q^{self.truncation}")
        if num < 0 or num % den:
            return Q(0)
        return Fraction(self.nums[num // den], self.den)

    # -- arithmetic ----------------------------------------------------

    def _aligned(self, other: "PuiseuxSeries"):
        """(base, grid, n, offsets): the common base and grid of self and
        other, the number n of grid steps both are exact to, and each
        operand's offset in steps from the common base.  Each operand is
        exact len(nums)/grid past its own base, so n is a whole number of
        steps; only unequal bases need a Fraction, their difference."""
        ga, gb = self.grid, other.grid
        if self.base == other.base:
            grid = ga if ga == gb else lcm(ga, gb)
            return (self.base, grid, min(len(self.nums) * (grid // ga),
                                         len(other.nums) * (grid // gb)), (0, 0))
        gap = other.base - self.base
        grid = lcm(ga, gb, gap.denominator)
        shift = abs(gap.numerator) * (grid // gap.denominator)
        base, offsets = (self.base, (0, shift)) if gap > 0 else (other.base, (shift, 0))
        n = min(offsets[0] + len(self.nums) * (grid // ga),
                offsets[1] + len(other.nums) * (grid // gb))
        return base, grid, n, offsets

    def __add__(self, other) -> "PuiseuxSeries":
        if isinstance(other, (int, Fraction)):
            t = self.truncation
            if t <= 0:
                raise InsufficientOrder("cannot add a constant past the truncation")
            c = rat(other)
            other = PuiseuxSeries.from_ints(
                0, t.denominator, [c.numerator] + [0] * (t.numerator - 1), c.denominator)
        base, grid, n, offsets = self._aligned(other)
        if n <= 0:
            raise InsufficientOrder("operands share no justified coefficient range")
        den = lcm(self.den, other.den)
        acc = [0] * n
        for s, off in zip((self, other), offsets):
            step = grid // s.grid
            k = min(len(s.nums), (n - off + step - 1) // step)  # terms below n
            if k > 0:
                f = den // s.den
                at = slice(off, off + k * step, step)
                xs = s.nums[:k] if f == 1 else [x * f for x in s.nums[:k]]
                acc[at] = [a + x for a, x in zip(acc[at], xs)]
        return PuiseuxSeries.from_ints(base, grid, acc, den)._normalized()

    def __neg__(self) -> "PuiseuxSeries":
        return PuiseuxSeries.from_ints(self.base, self.grid, [-x for x in self.nums], self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__add__(-rat(other))
        return self.__add__(-other)

    def scale(self, k: QLike) -> "PuiseuxSeries":
        k = rat(k)
        p = k.numerator
        return PuiseuxSeries.from_ints(self.base, self.grid, [p * x for x in self.nums],
                                       k.denominator * self.den)

    def __mul__(self, other) -> "PuiseuxSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, LogSeries):
            return NotImplemented
        # trunc - base is min(len_a/grid_a, len_b/grid_b): whole steps of grid
        ga, gb = self.grid, other.grid
        grid = ga if ga == gb else lcm(ga, gb)
        sa = grid // ga
        sb = grid // gb
        n = min(len(self.nums) * sa, len(other.nums) * sb)
        if n <= 0:
            raise InsufficientOrder("product has no justified coefficients")
        base = self.base + other.base
        # only the terms that land below n take part
        xs = self.nums[:(n + sa - 1) // sa]
        nz = [(j * sb, y) for j, y in enumerate(other.nums[:(n + sb - 1) // sb]) if y]
        offsets = [jb for jb, _ in nz]
        acc = [0] * n
        for i, x in enumerate(xs):
            if x:
                ia = i * sa
                for jb, y in nz[:bisect_left(offsets, n - ia)]:
                    acc[ia + jb] += x * y
        return PuiseuxSeries.from_ints(base, grid, acc, self.den * other.den)._normalized()

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def invert(self) -> "PuiseuxSeries":
        if not self.nums or not self.nums[0]:
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
            return PuiseuxSeries.one(self.order)
        if not self.nums or not self.nums[0]:
            if r.denominator == 1 and r > 0:
                # integer power of a series with vanishing constant term
                out = self
                for _ in range(int(r) - 1):
                    out = out * self
                return out
            raise NonUnitBase("fractional power requires unit constant term")
        if self.nums[0] != self.den:
            if r.denominator != 1:
                raise NonUnitBase("fractional power requires constant term 1")
            c0 = Fraction(self.nums[0], self.den)
            return self.scale(1 / c0).pow(r).scale(c0 ** int(r))
        # Miller: m g_m = sum_{i=1}^{m} ((r+1) i - m) c_i g_{m-i}; with
        # r = p/q and c_i = nums[i]/d the weight is ((p+q) i - q m) / q
        d = self.den
        p, q = r.numerator, r.denominator
        nz = [(i, (p + q) * i, y) for i, y in enumerate(self.nums) if i and y]
        g = _RunningDenominator()
        g.append(1, 1)
        nums = g.nums
        for m in range(1, len(self.nums)):
            qm = q * m
            acc = 0
            for i, w, y in nz:
                if i > m:
                    break
                acc += (w - qm) * y * nums[m - i]
            g.append(acc, qm * d * g.den)
        return PuiseuxSeries.from_ints(r * self.base, self.grid, nums, g.den)._normalized()

    def __pow__(self, r):
        return self.pow(r)

    def substitute_power(self, m: int) -> "PuiseuxSeries":
        """q -> q^m: every exponent is multiplied by the positive integer m."""
        if m < 1:
            raise ValueError("substitution exponent must be a positive integer")
        if m == 1:
            return self
        nums = [0] * (m * len(self.nums))
        nums[::m] = self.nums
        return PuiseuxSeries.from_ints(m * self.base, self.grid, nums, self.den)._normalized()

    def euler_derivative(self) -> "PuiseuxSeries":
        """D = q d/dq: c*q^e -> c*e*q^e."""
        # e_i = base + i/grid = (b*grid + i*bd) / (bd*grid), with base = b/bd
        bd, g = self.base.denominator, self.grid
        b = self.base.numerator * g
        nums = [x * (b + i * bd) for i, x in enumerate(self.nums)]
        return PuiseuxSeries.from_ints(self.base, g, nums, self.den * bd * g)._normalized()

    def integrate_q(self) -> "PuiseuxSeries":
        """Formal primitive under D: c*q^e -> (c/e)*q^e; e = 0 must not occur."""
        bd, g = self.base.denominator, self.grid
        b = self.base.numerator * g
        out = _RunningDenominator()
        for i, x in enumerate(self.nums):
            e = b + i * bd  # the exponent is e / (bd*grid)
            if e:
                out.append(x * bd * g, self.den * e)
            elif x:
                raise ConstantTermPresent("dq/q integral of a constant term diverges")
            else:
                out.append(0, 1)
        return PuiseuxSeries.from_ints(self.base, g, out.nums, out.den)._normalized()

    def shift(self, e: QLike) -> "PuiseuxSeries":
        """Multiply by the exact monomial q^e."""
        return PuiseuxSeries.from_ints(self.base + rat(e), self.grid, self.nums, self.den)

    def truncate(self, trunc: QLike) -> "PuiseuxSeries":
        """Restrict the claimed exactness to q^trunc (must not exceed the current one)."""
        n, step = self._steps_to(rat(trunc))
        if n > len(self.nums) * step:
            raise InsufficientOrder("cannot extend a truncation")
        if n <= 0:
            raise InsufficientOrder("truncation precedes the base exponent")
        g = gcd(n, step)
        n, step = n // g, step // g
        grid = self.grid
        nums = self.nums
        if step != 1:
            # the cut falls between grid points: refine the grid to reach it
            grid *= step
            nums = [0] * (len(self.nums) * step)
            nums[::step] = self.nums
        return PuiseuxSeries.from_ints(self.base, grid, nums[:n], self.den)._normalized()

    # -- comparisons ---------------------------------------------------

    def is_zero_to_truncation(self) -> bool:
        return not any(self.nums)

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "base_exponent": rat_str(self.base),
            "grid": self.grid,
            "order": self.order,
            "coeffs": [_ratio_str(x, self.den) for x in self.nums],
        }

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

    def __add__(self, other: "LogSeries") -> "LogSeries":
        return LogSeries(self.plain + other.plain, self.log_part + other.log_part)

    def __rmul__(self, other: PuiseuxSeries) -> "LogSeries":
        """other * self, the one product an operator applies."""
        return LogSeries(self.plain * other, self.log_part * other)

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
        base, grid, n, offsets = self.plain._aligned(self.log_part)

        def regrid(s: PuiseuxSeries, off: int) -> list[str]:
            out = ["0"] * n
            step = grid // s.grid
            for i, x in enumerate(s.nums):
                j = off + i * step
                if j < n:
                    out[j] = _ratio_str(x, s.den)
            return out

        return {
            "base_exponent": rat_str(base),
            "grid": grid,
            "order": n - 1,
            "coeffs": regrid(self.plain, offsets[0]),
            "log_coeffs": regrid(self.log_part, offsets[1]),
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
