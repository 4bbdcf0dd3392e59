"""One reader for the printed formulas of the relations and the catalog.

:func:`evaluate` reads a formula by recursive descent over this grammar::

    sum      := product (('+' | '-') product)*
    product  := signed (('*' | '/') signed)*
    signed   := '-' signed | atom ['^' exponent]
    exponent := INT | '(' rational ')'
    rational := ['-'] INT ['/' INT]
    atom     := (INT | NAME ['(' 'q' '^' INT ')'] | TABLE '(' sum (',' sum)* ')'
                 | LABEL | 'log' '(' rational ',' rational ')'
                 | 'D' '[' sum ']' | '∫' '[' sum ']'
                 | '(' sum ')' | '{' sum '}') "'"*

NAME is eta, E2, E4, E6 or one of the ten forms of ``forms.FORM_TABLE``.
``NAME(q^m)`` substitutes q -> q^m, a postfix ``'`` or ``D[...]`` applies
the Euler derivative D = q d/dq, and ``∫[...]`` its inverse (no constant
term may occur).  ``x / y`` is ``x * y^(-1)``, for an integer or a series y.
A TABLE call evaluates a stored polynomial at its arguments, a LABEL (f0,
f4/5, f-1/5: read as one token) is an entry of the same catalog section
evaluated before, and ``log(s, alpha)`` is the Frobenius log solution of
the flat operator at s from the root alpha.
Anything else raises a ValueError that names the offending token.

The reader takes every atom and applies every operation through a
semantics object.  :class:`Series` evaluates at one order: each form is
exact order + 1 steps past its base, and no operation of the grammar
shortens that reach past the result's base.  :class:`Leads` evaluates to
base exponents alone, which do not depend on the order: products add them,
sums take the smaller (a scalar sits at q^0), powers and substitutions
scale them, and every other operation keeps them.  :class:`Weights`
evaluates to the set of modular weights that an expression carries.

Each semantics also reads a catalog's quasimodular pair through ``pair``:
given x = D(P)/eta^m, y = Q/eta^m and z = P/eta^m, with P of weight w,
``Series`` fits the solution F = a*x + b*y of the flat operator and its
log companion G = ell*F + w*a*z, and the bookkeeping semantics return
x + y and x + y + z.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from typing import Callable, Optional

from . import forms as F
from .mlde import build_flat, frobenius_solve_log
from .series import LogSeries, PuiseuxSeries, Q

_TOKEN = re.compile(r"f-?\d+(?:/\d+)?(?![\w/])|\d+|[A-Za-z]\w*(?:\.\w+)*|\S")

#: NAME -> (builder, weight)
_FORMS = {name: (builder, weight) for name, (builder, weight, _) in F.FORM_TABLE.items()}
_FORMS.update(eta=(F.eta, Q(1, 2)), E2=(F.eisenstein_e2, Q(2)), E4=(F.eisenstein_e4, Q(4)),
              E6=(F.eisenstein_e6, Q(6)))


#: whole steps past their base at which ``Series.pair`` cuts its two terms
_FIT_STEPS = 2


def _fit(s: Fraction, x: PuiseuxSeries, y: PuiseuxSeries) -> tuple[Fraction, Fraction]:
    """(a, b) such that flat(s) annihilates a*x + b*y at the first exponent
    where the residuals of x and y are not both zero; that residual, a few
    steps past the base, is all the fit reads."""
    cut = min(x.base, y.base) + _FIT_STEPS
    rx, ry = (build_flat(s, _FIT_STEPS).apply(t.truncate(cut)) for t in (x, y))
    e = min(lead for lead in (rx.first_nonzero(), ry.first_nonzero()) if lead)[0]
    return ry.coefficient(e), -rx.coefficient(e)


class Series:
    """Values are scalars (int, Fraction) and series with every form built
    to `order`.  Within one instance each ``NAME^r`` is built once, and an
    integer power is the product of two built ones where it can be.
    `table(name, values)` evaluates a polynomial table; `siblings` holds
    the entries a LABEL reads."""

    def __init__(self, order: int, table: Optional[Callable] = None):
        self.order, self.table = order, table
        self.siblings: dict = {}
        self._powers: dict[str, dict] = {}

    def number(self, c: int) -> int:
        return c

    def form(self, name: str) -> PuiseuxSeries:
        return _FORMS[name][0](self.order)

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return x * y

    def pow(self, x, r, key: Optional[str] = None):
        if not isinstance(x, PuiseuxSeries):
            if Q(r).denominator != 1:
                raise ValueError(f"rational power of the constant {x}")
            return Q(x) ** int(r)
        if key is None:
            return x.pow(r)
        built = self._powers.setdefault(key, {1: x})
        if r not in built:
            j = max((j for j in built if type(r) is int and r > j >= r - j and r - j in built),
                    default=None)
            built[r] = x.pow(r) if j is None else built[j] * built[r - j]
        return built[r]

    def subst(self, x: PuiseuxSeries, m: int) -> PuiseuxSeries:
        return x.substitute_power(m)

    def derive(self, x):
        if not isinstance(x, PuiseuxSeries):
            raise ValueError(f"derivative of the constant {x}")
        return x.euler_derivative()

    def integrate(self, x):
        if not isinstance(x, PuiseuxSeries):
            raise ValueError(f"integral of the constant {x}")
        return x.integrate_q()

    def log(self, s: Fraction, alpha: Fraction) -> LogSeries:
        return frobenius_solve_log(build_flat(s, self.order), alpha, self.order)

    def unit(self, x):
        """x scaled to leading coefficient 1, as a solution of CFT type is;
        a scalar is the series 1, and a log series stays as it is."""
        if isinstance(x, PuiseuxSeries):
            return x.scale(1 / x.leading()[1])
        return x if isinstance(x, LogSeries) else PuiseuxSeries.one(self.order)

    def pair(self, s: Fraction, w: Fraction, x: PuiseuxSeries, y: PuiseuxSeries,
             z: PuiseuxSeries) -> tuple[PuiseuxSeries, LogSeries]:
        """(F, G): the solution F = a*x + b*y of flat(s), with a : b from
        ``_fit`` and the scale from leading coefficient 1, and its depth-1
        log companion G = ell*F + w*a*z.  The terms of F cancel from
        min(x.base, y.base) up to its exponent, so the scale is read off
        the whole sum."""
        a, b = _fit(s, x, y)
        f = x * a + y * b
        lead = f.leading()[1]
        f, a = f.scale(1 / lead), a / lead
        plain = z * (w * a)
        return f, LogSeries(plain, f.truncate(plain.truncation))


class _Bookkeeping:
    """Leads and Weights: one value per expression, no coefficient built.  A
    polynomial table, stored as `polynomial(name)`, is a sum of products."""

    def __init__(self, polynomial: Optional[Callable] = None):
        self.polynomial, self.siblings = polynomial, {}
        self.table = None if polynomial is None else self._table

    def _table(self, name: str, args):
        return reduce(self.add, (reduce(self.mul, map(self.pow, args, exps), self.number(1))
                                 for _, exps in self.polynomial(name)["terms"]))

    def _same(self, x, *_):
        return x

    def pair(self, s, w, x, y, z):
        """(x + y, x + y + z): what the F and G of ``Series.pair`` carry."""
        f = self.add(x, y)
        return f, self.add(f, z)


class Leads(_Bookkeeping):
    """Values are base exponents (Fraction); a scalar sits at q^0."""

    add = staticmethod(min)

    def number(self, c: int) -> Fraction:
        return Q(0)

    def form(self, name: str) -> Fraction:
        return _FORMS[name][0](0).base

    def mul(self, x, y):
        return x + y

    def pow(self, x, r, key: Optional[str] = None):
        return x * r

    def log(self, s: Fraction, alpha: Fraction) -> Fraction:
        return alpha

    subst = pow
    neg = derive = integrate = unit = _Bookkeeping._same


class Weights(_Bookkeeping):
    """Values are frozensets of weights: {0} for a scalar and a log solution,
    its weight for a form.  Sums unite them, products add every pair, powers
    scale, D adds 2, ∫ subtracts 2, and every other operation keeps them."""

    add = staticmethod(frozenset.union)

    def number(self, *_) -> frozenset:
        return frozenset((Q(0),))

    def form(self, name: str) -> frozenset:
        return frozenset((_FORMS[name][1],))

    def mul(self, x, y):
        return frozenset(a + b for a in x for b in y)

    def pow(self, x, r, key: Optional[str] = None):
        return frozenset(w * r for w in x)

    def derive(self, x, step: int = 2):
        return frozenset(w + step for w in x)

    def integrate(self, x):
        return self.derive(x, -2)

    log = number
    neg = subst = unit = _Bookkeeping._same


class _Reader:
    """The recursive descent over the tokens of one expression."""

    def __init__(self, text: str, k):
        self.text, self.k, self.pos = text, k, 0
        self.tokens = _TOKEN.findall(text)

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def error(self, expected: str) -> ValueError:
        found = "the end" if self.peek() is None else repr(self.peek())
        return ValueError(f"expected {expected}, found {found} in {self.text!r}")

    def take(self, want: Optional[str] = None) -> str:
        tok = self.peek()
        if tok is None or want not in (None, tok):
            raise self.error(repr(want) if want else "a term")
        self.pos += 1
        return tok

    def integer(self) -> int:
        if not (self.peek() or "").isdigit():
            raise self.error("an integer exponent")
        return int(self.take())

    def rational(self) -> int | Fraction:
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        num = self.integer()
        if self.peek() != "/":
            return sign * num
        self.take()
        den = self.integer()
        if not den:
            raise ValueError(f"zero denominator in {self.text!r}")
        r = Q(sign * num, den)
        return int(r) if r.denominator == 1 else r

    def exponent(self) -> int | Fraction:
        if self.peek() != "(":
            return self.integer()
        self.take()
        r = self.rational()
        self.take(")")
        return r

    def sum(self):
        k, value = self.k, self.product()
        while self.peek() in ("+", "-"):
            # the operator is taken before the right operand is read
            if self.take() == "+":
                value = k.add(value, self.product())
            else:
                value = k.add(value, k.neg(self.product()))
        return value

    def product(self):
        value = self.signed()
        while self.peek() in ("*", "/"):
            value = self.k.mul(value, self.signed(inverse=self.take() == "/"))
        return value

    def signed(self, inverse: bool = False):
        """The operand, or its inverse (the divisor of a '/')."""
        if self.peek() == "-":
            self.take()
            return self.k.neg(self.signed(inverse))
        key, value = self.atom()
        r = 1
        if self.peek() == "^":
            self.take()
            r = self.exponent()
        r = -r if inverse else r
        return value if r == 1 else self.k.pow(value, r, key)

    def atom(self):
        """(key, value): key names a form atom, so that its powers are
        shared, and is None for any other atom."""
        k, tok, key = self.k, self.take(), None
        if tok.isdigit():
            value = k.number(int(tok))
        elif tok in ("(", "{"):
            value = self.sum()
            self.take(")" if tok == "(" else "}")
        elif tok in ("D", "∫") and self.peek() == "[":
            self.take()
            value = self.sum()
            self.take("]")
            value = self.apply(k.derive if tok == "D" else k.integrate, value)
        elif tok == "log" and self.peek() == "(":
            self.take()
            s = self.rational()
            self.take(",")
            alpha = self.rational()
            self.take(")")
            value = k.log(Q(s), Q(alpha))
        elif tok in k.siblings:
            value = k.siblings[tok]
        elif tok in _FORMS:
            value, key = k.form(tok), tok
            if self.peek() == "(":
                for want in ("(", "q", "^"):
                    self.take(want)
                m = self.integer()
                self.take(")")
                value, key = k.subst(value, m), f"{tok}(q^{m})"
        elif tok[0].isalpha() and k.table is not None and self.peek() == "(":
            self.take()
            args = [self.sum()]
            while self.peek() == ",":
                self.take()
                args.append(self.sum())
            self.take(")")
            value = k.table(tok, args)
        else:
            kind = "unknown name" if tok[0].isalpha() else "unexpected"
            raise ValueError(f"{kind} {tok!r} in {self.text!r}")
        while self.peek() == "'":
            self.take()
            value, key = self.apply(k.derive, value), None
        return key, value

    def apply(self, op: Callable, value):
        """op(value), naming the expression in any ValueError it raises."""
        try:
            return op(value)
        except ValueError as exc:
            raise ValueError(f"{exc} in {self.text!r}") from None


def evaluate(expression: str, k):
    """The value of one expression under the semantics k."""
    reader = _Reader(expression, k)
    value = reader.sum()
    if reader.peek() is not None:
        raise reader.error("the end")
    return value
