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

NAME is a form of the registry ``forms.REGISTRY``: eta, E2, E4, E6, E8 or
one of the ten catalogued forms of ``forms.FORM_TABLE``.
``NAME(q^m)`` substitutes q -> q^m, a postfix ``'`` or ``D[...]`` applies
the Euler derivative D = q d/dq, and ``∫[...]`` its inverse (no constant
term may occur).  ``x / y`` is ``x * y^(-1)``, for an integer or a series y.
A TABLE call evaluates a stored polynomial at its arguments, a LABEL (f0,
f4/5, f-1/5: read as one token) is an entry of the same catalog section
evaluated before, and ``log(s, alpha)`` is the Frobenius log solution of
the flat operator at s from the root alpha.
Anything else raises a ValueError that names the offending token.

The reader takes every atom and applies every operation through a
semantics object.  Each reads a TABLE call from the same polynomial store
as the sum of its terms c * prod x^e over the arguments x (no other module
reads a table's terms).  :class:`Series` evaluates at one order: each form
is exact at least order + 1 steps past its base, and no operation of the
grammar shortens that reach past the result's base.  It builds each power
x^r once, keyed by the value x, and reads a homogeneous two-variable table
by Horner's rule in a ratio (``Series._binary_form``).  :class:`Leads` evaluates to
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
from math import gcd
from typing import Callable, Optional

from . import forms as F
from .mlde import build_flat, frobenius_solve_log
from .series import LogSeries, PuiseuxSeries, Q

_TOKEN = re.compile(r"f-?\d+(?:/\d+)?(?![\w/])|\d+|[A-Za-z]\w*(?:\.\w+)*|\S")

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


def _sum_of_products(k, terms, args):
    """sum c * prod a^e over the terms (c, exps) of a table, a^e over the
    nonzero exponents, under the semantics k."""
    return reduce(k.add, (reduce(k.mul, (k.pow(a, e) for a, e in zip(args, exps) if e),
                                 k.number(c)) for c, exps in terms))


class _Semantics:
    """What every semantics shares: the polynomial store, `polynomial(name)`
    -> a table's record, and `siblings`, the entries a LABEL reads.  `pair`
    and `_same` serve the bookkeeping semantics Leads and Weights, which
    build no coefficient."""

    def __init__(self, polynomial: Optional[Callable] = None):
        self.polynomial, self.siblings = polynomial, {}

    def _terms(self, name: str, args) -> list:
        rec = self.polynomial(name)
        if len(args) != len(rec["variables"]):
            raise ValueError(f"{name} expects {len(rec['variables'])} values")
        return rec["terms"]

    def table(self, name: str, args):
        return _sum_of_products(self, self._terms(name, args), args)

    def _same(self, x, *_):
        return x

    def pair(self, s, w, x, y, z):
        """(x + y, x + y + z): what the F and G of ``Series.pair`` carry."""
        f = self.add(x, y)
        return f, self.add(f, z)


class Series(_Semantics):
    """Values are scalars (int, Fraction) and series with every form built
    to `order`.  Within one instance each power x^r is built once, keyed by
    the series x itself, and an integer power is the product of two built
    ones where it can be."""

    def __init__(self, order: int, polynomial: Optional[Callable] = None):
        super().__init__(polynomial)
        self.order = order
        self._powers: dict[PuiseuxSeries, dict] = {}

    def number(self, c: int) -> int:
        return c

    def form(self, name: str) -> PuiseuxSeries:
        return F.form(name, self.order)

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return x * y

    def pow(self, x, r):
        if not isinstance(x, PuiseuxSeries):
            if Q(r).denominator != 1:
                raise ValueError(f"rational power of the constant {x}")
            return Q(x) ** int(r)
        built = self._powers.setdefault(x, {1: x})
        if r not in built:
            j = max((j for j in built if type(r) is int and r > j >= r - j and r - j in built),
                    default=None)
            built[r] = x.pow(r) if j is None else built[j] * built[r - j]
        return built[r]

    def table(self, name: str, args):
        terms = self._terms(name, args)
        degrees = {sum(exps) for _, exps in terms}
        if len(args) == 2 and len(degrees) == 1:
            return self._binary_form(terms, degrees.pop(), args)
        return _sum_of_products(self, terms, args)

    def _binary_form(self, terms, degree: int, values) -> PuiseuxSeries:
        """sum c * x^a * y^b over terms with a + b = degree, as

            lo^(degree - e0) * hi^e0 * H(z),  z = (hi / lo)^g,  H(z) = sum c_k z^k,

        where lo is the variable of smaller base exponent, hi the other, e0
        the least exponent of hi and g the gcd of its steps.  H is evaluated
        by Horner's rule: one product by z and one constant add per step.

        Choosing lo by base gives z a non-negative leading exponent, so no
        step loses relative precision: the result is exact to the smaller
        relative precision of the two inputs past its base, which is exactly
        the truncation of the term-by-term sum when both carry the same
        relative precision (as every recipe's inputs do) and never past it
        otherwise.  lo needs a nonzero stored leading coefficient, as every
        named form has.
        """
        lo = 0 if values[0].base <= values[1].base else 1
        hi = 1 - lo
        by_hi = {exps[hi]: c for c, exps in terms}
        e0 = min(by_hi)
        g = gcd(*(e - e0 for e in by_hi)) or 1
        cs = [by_hi.get(e, 0) for e in range(e0, max(by_hi) + 1, g)]
        prefactor = None
        for i, e in ((lo, degree - e0), (hi, e0)):
            if e:
                p = self.pow(values[i], e)
                prefactor = p if prefactor is None else prefactor * p
        if len(cs) == 1:
            return prefactor.scale(cs[0])
        z = self.pow(values[hi] * self.pow(values[lo], -1), g)
        h = z.scale(cs[-1])
        for c in reversed(cs[1:-1]):
            h = (h + c) * z
        return prefactor * (h + cs[0])

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


class Leads(_Semantics):
    """Values are base exponents (Fraction); a scalar sits at q^0."""

    add = staticmethod(min)

    def number(self, c: int) -> Fraction:
        return Q(0)

    def form(self, name: str) -> Fraction:
        return F.form(name, 0).base

    def mul(self, x, y):
        return x + y

    def pow(self, x, r):
        return x * r

    def log(self, s: Fraction, alpha: Fraction) -> Fraction:
        return alpha

    subst = pow
    neg = derive = integrate = unit = _Semantics._same


class Weights(_Semantics):
    """Values are frozensets of weights: {0} for a scalar and a log solution,
    its weight for a form.  Sums unite them, products add every pair, powers
    scale, D adds 2, ∫ subtracts 2, and every other operation keeps them."""

    add = staticmethod(frozenset.union)

    def number(self, *_) -> frozenset:
        return frozenset((Q(0),))

    def form(self, name: str) -> frozenset:
        return frozenset((F.REGISTRY[name].weight,))

    def mul(self, x, y):
        return frozenset(a + b for a in x for b in y)

    def pow(self, x, r):
        return frozenset(w * r for w in x)

    def derive(self, x, step: int = 2):
        return frozenset(w + step for w in x)

    def integrate(self, x):
        return self.derive(x, -2)

    log = number
    neg = subst = unit = _Semantics._same


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
        value = self.atom()
        r = 1
        if self.peek() == "^":
            self.take()
            r = self.exponent()
        r = -r if inverse else r
        return value if r == 1 else self.k.pow(value, r)

    def atom(self):
        k, tok = self.k, self.take()
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
        elif tok in F.REGISTRY:
            value = k.form(tok)
            if self.peek() == "(":
                for want in ("(", "q", "^"):
                    self.take(want)
                m = self.integer()
                self.take(")")
                value = k.subst(value, m)
        elif tok[0].isalpha() and k.polynomial is not None and self.peek() == "(":
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
            value = self.apply(k.derive, value)
        return value

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
