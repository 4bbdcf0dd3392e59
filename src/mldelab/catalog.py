"""Closed-form solution catalog for the fourth-order family.

Each entry is a recipe over the named forms (eta, theta, Rogers-Ramanujan
functions, the level 2-15 quotients) and the polynomial tables shipped in
``data/polynomials.json``, which this module loads and :mod:`mldelab.formula`
evaluates.  An entry of sections B.a-B.q stores its recipe as the printed
formula; an F entry of C.a-C.f stores its quasimodular row (P and Q as
formulas, and the eta power), which also yields its log companion G, whose
entry is derived from the F entry.  :mod:`mldelab.formula` reads both,
under any of its semantics.  ``build_entry`` evaluates a recipe to an exact series;
``verify_entry`` checks the stored printed prefix and then applies the
entry's designated annihilating operator, and reports a failure with its
first bad exponent and residual instead of raising.

No recipe carries a normalising constant.  Every plain entry is scaled to
leading coefficient 1, as a solution of CFT type is, and each quasimodular
solution a*D(P)/eta^m + b*Q/eta^m takes a : b from the operator's first
residual that involves them (``formula.Series.pair``).  The printed
sources contain a handful of slips (constants, eta powers, signs, swapped
formulas); where the coefficient recursion, which is ground truth, forces
a correction, the recipe carries the corrected form and a note records
the printed one.  Every entry is reconciled this way and verified; none is
patched silently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from math import ceil, floor
from typing import Optional

from . import formula
from . import forms as F
from .mlde import (MLDEOperator, build_custom, build_flat, flat_indicial_roots,
                   frobenius_solve, frobenius_solve_log, modular_wronskian)
from .series import (InsufficientOrder, LogSeries, PuiseuxSeries, Q, QLike,
                     SeriesLike, rat, report_failure)


class UnknownLabel(KeyError):
    pass


class NotInCandidateList(ValueError):
    pass


class PrefixMismatch(ArithmeticError):
    def __init__(self, label: str, position: Fraction, got: Fraction, want: Fraction):
        self.position = position
        super().__init__(f"{label}: coefficient at q^{position} is {got}, printed {want}")


class NotAnnihilated(ArithmeticError):
    def __init__(self, label: str, first_bad_exponent: Fraction, residual: Fraction):
        self.first_bad_exponent = first_bad_exponent
        super().__init__(
            f"{label}: operator residual {residual} at q^{first_bad_exponent}")


# -- polynomial tables -------------------------------------------------

@lru_cache(maxsize=1)
def _polynomial_data() -> dict:
    with resources.files("mldelab.data").joinpath("polynomials.json").open() as fh:
        return json.load(fh)


def polynomial_names() -> tuple[str, ...]:
    return tuple(sorted(_polynomial_data()))


def polynomial(name: str) -> dict:
    try:
        return _polynomial_data()[name]
    except KeyError:
        raise UnknownLabel(f"unknown polynomial {name!r}") from None


# -- the quasimodular pairs (positive-depth solutions) -----------------
# Each is F = a*D(P) / eta^m + b*Q / eta^m for P of weight m/2 - 1 and Q
# of weight m/2 + 1 in psi1 and psi2 (or Q = P, where the fit finds b = 0);
# the depth-1 structure gives the log companion G = ell*F + 12*A with
# 12*A = a*(m/2 - 1) * P / eta^m.  The operator fixes a : b and the leading
# coefficient 1 fixes the scale, so neither constant is stored:
# ``formula.Series.pair`` derives both.  Each F entry stores its row
# (P, Q, m), P and Q as formula text.


def _pair(e: CatalogEntry, k):
    """(F, G) for an entry's quasimodular row under the semantics k; a Q
    that reads as P is evaluated once."""
    ptext, qtext, m = e.quasimodular
    p = formula.evaluate(ptext, k)
    q = p if qtext == ptext else formula.evaluate(qtext, k)
    em = k.pow(k.form("eta"), -m)
    return k.pair(e.s, m / 2 - 1, k.mul(k.derive(p), em), k.mul(q, em), k.mul(p, em))


# -- entry metadata ----------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    label: str
    s: Fraction
    exponent: Fraction
    printed_prefix: Optional[tuple[Fraction, ...]]
    #: the recipe as printed (with its slips corrected), read by
    #: ``formula.evaluate``; empty for a quasimodular pair
    formula: str = ""
    #: a quasimodular F entry's row (P, Q, eta power m), P and Q as
    #: formulas in psi1 and psi2, read by ``_pair``
    quasimodular: Optional[tuple[str, str, Fraction]] = None
    operator: str = "flat"      # flat | aux3 | log
    note: str = ""

    @property
    def section(self) -> str:
        return self.label.rsplit(".", 1)[0]


#: section -> its entries, in catalog order
SECTIONS: dict[str, list[CatalogEntry]] = {}


def _ent(label, s, exponent, prefix, formula="", **kw):
    e = CatalogEntry(label=label, s=rat(s), exponent=rat(exponent), formula=formula,
                     printed_prefix=None if prefix is None else tuple(map(rat, prefix)), **kw)
    SECTIONS.setdefault(e.section, []).append(e)


# A recipe carries no overall scale: every plain entry is divided by its
# leading coefficient, and a later entry of the section (f0, f4/5, f-1/5)
# reads the scaled one.  Constants that weigh one term against another are
# part of the recipe and stay.

_ent("B.a.f0", "-48/5", "7/20", (1, 14, 119, 770, 4088, 18676),
     "psi2*Delta2*(11*psi1^10 - 66*psi1^5*psi2^5 - psi2^10 + H2)*eta^(-42/5)")
_ent("B.a.f4/5", "-48/5", "23/20", (1, 14, "769/7", 642, 3103, 13078, 49616),
     "psi1*Delta2*(-psi1^10 + 66*psi1^5*psi2^5 + 11*psi2^10 + H2)*eta^(-42/5)")
_ent("B.a.f-1/2", "-48/5", "-3/20", (1, 40, 381, 2865, "115789/7", 81261, 348612),
     "psi2*(-H2^2 + 192*Delta2^2 + H2*(22*psi1^10 - 132*psi1^5*psi2^5 - 2*psi2^10))"
     "*eta^(-42/5)")
_ent("B.a.f-7/10", "-48/5", "-7/20",
     (1, -63, -1883, -18403, -122388, -645036, -2896215),
     "psi1*(H2^2 - 192*Delta2^2 + H2*(2*psi1^10 - 132*psi1^5*psi2^5 - 22*psi2^10))"
     "*eta^(-42/5)")

_ent("B.b.f-8/15", "-38/5", "-4/15", (1, -56, -776, -5088, -24932),
     "psi1*G1(I15, Delta15, I3, I3(q^5))*eta^(-32/5)")
_ent("B.b.f-1/3", "-38/5", "-1/15", (1, 15, 100, "4629/8", 2635),
     "psi2*G1(I15, Delta15, -I3, -I3(q^5))*eta^(-32/5)")
_ent("B.b.f4/5", "-38/5", "16/15", (1, "28/3", "164/3", "752/3", "1955/2"),
     "psi1*G2(I15, Delta15, I3, I3(q^5), psi2^5)*eta^(-32/5)/Delta3^2")
_ent("B.b.f0", "-38/5", "4/15", (1, 8, 56, 288, 1254),
     "psi2*G3(I15, Delta15, I3, I3(q^5), psi2^5)*eta^(-32/5)/Delta3^2",
     note="two printed coefficients of the degree-5 bracket carry the wrong "
          "sign (u^3 x^2 and v x^4 terms); the corrected pair is the unique "
          "two-term repair and is stored in the polynomial table")

_ent("B.c.f0", "-6/5", 0, (1,), "1")
_ent("B.c.f1/5", "-6/5", "1/5", (1, "1/3", "12/11", "11/16", "4/7"),
     "∫[psi1^4*psi2*(psi1^5 - 3*psi2^5)]")
_ent("B.c.f4/5", "-6/5", "4/5", (1, "28/27", "4/7", "80/57", "5/9"),
     "∫[psi1*psi2^4*(12*psi1^5 + 4*psi2^5)]")
_ent("B.c.aux", "-6/5", "-1/6", (1, -26, -126, -500),
     "(psi1^10 - 36*psi1^5*psi2^5 - psi2^10)*eta^(-4)", operator="aux3")

_ent("B.d.f0", "-3/5", "-1/40", (1, 1, 1, 2, 3),
     "(theta + theta(q^5))*eta^(-3/5)/psi1")
_ent("B.d.f4/5", "-3/5", "31/40", (1, 1, 1, 2, 2),
     "(theta - theta(q^5))*eta^(-3/5)/psi2")
_ent("B.d.f1/4", "-3/5", "9/40", (1, 1, 2, 2, 3),
     "(Delta4 + Delta4(q^5))*eta^(-3/5)/psi1")
_ent("B.d.f1/20", "-3/5", "1/40", (1, 0, 1, 1, 2, 2),
     "(Delta4 - Delta4(q^5))*eta^(-3/5)/psi2")

_ent("B.e.f0", "2/5", "-1/15", (1, 4, 8, 20, 37),
     "(I15 - Delta15 + I3)*eta^(-8/5)/psi1")
_ent("B.e.f4/5", "2/5", "11/15", (1, "4/3", "10/3", "20/3", "38/3"),
     "(-I15 + Delta15 + I3)*eta^(-8/5)/psi2")
_ent("B.e.f1/3", "2/5", "4/15", (1, "5/2", 6, "23/2", 23),
     "B.e.G(I15, Delta15, I3, I3(q^5))*eta^(-8/5)/psi1/Delta3^2",
     note="printed denominator omits the Delta3^2 factor (weight forces it)")
_ent("B.e.f2/15", "2/5", "1/15", (1, 2, 7, 12, 26),
     "B.e.G(-I15, -Delta15, I3, I3(q^5))*eta^(-8/5)/psi2/Delta3^2",
     note="printed denominator omits the Delta3^2 factor (weight forces it)")

_ent("B.f.f0", "6/5", "-1/10", (1, 8, 23, 68),
     "psi1*(psi1^5 + 2*psi2^5)*eta^(-12/5)")
_ent("B.f.f1/5", "6/5", "1/10", (1, "9/2", 16, 38),
     "psi2*(2*psi1^5 - psi2^5)*eta^(-12/5)")
_ent("B.f.f2/5", "6/5", "3/10", (1, 4, 12, 30), "psi1^4*psi2^2*eta^(-12/5)")
_ent("B.f.f4/5", "6/5", "7/10", (1, 2, 7, 16), "psi1^2*psi2^4*eta^(-12/5)")

_ent("B.g.f0", "12/5", "-3/20", (1, 18, 81, 306, 909),
     "(8*psi2^5*(18*psi1^5 + psi2^5) + 16*(psi1(q^2)^10 + 21*psi1(q^2)^5*psi2(q^2)^5"
     " - 2*psi2(q^2)^10) + 19*H2 + 5*H2(q^5))*eta^(-18/5)/psi1",
     note="printed H2 coefficients 5, 19 swapped to 19, 5 (recursion-forced)")
_ent("B.g.f4/5", "12/5", "13/20", (1, "34/9", 17, 50, "428/3"),
     "(-{8*psi2^5*(18*psi1^5 + psi2^5) + 16*(psi1(q^2)^10 + 21*psi1(q^2)^5*psi2(q^2)^5"
     " - 2*psi2(q^2)^10)} + 21*H2 - 5*H2(q^5))*eta^(-18/5)/psi2")
_ent("B.g.f1/2", "12/5", "7/20", (1, "20/3", 27, 89, "766/3"),
     "(Delta2*(5*psi1^5 + psi2^5 + psi1(q^2)^5 - psi2(q^2)^5)"
     " + Delta2(q^5)*(7*psi1^5 - psi2^5 - psi1(q^2)^5 - 7*psi2(q^2)^5))*eta^(-18/5)/psi1^6")
_ent("B.g.f3/10", "12/5", "3/20", (1, 9, 39, 131, 387),
     "(Delta2*(-psi1^5 + 5*psi2^5 + psi1(q^2)^5 + psi2(q^2)^5)"
     " + Delta2(q^5)*(psi1^5 + 7*psi2^5 + 7*psi1(q^2)^5 - psi2(q^2)^5))*eta^(-18/5)/psi2^6")

_ent("B.h.f0", "18/5", "-1/5", (1, 36, 240, 1144),
     "psi1^2*(psi1^10 + 24*psi1^5*psi2^5 - 6*psi2^10)*eta^(-24/5)")
_ent("B.h.f2/5", "18/5", "1/5", (1, 14, "461/6", 330),
     "psi2^2*(6*psi1^10 + 24*psi1^5*psi2^5 - psi2^10)*eta^(-24/5)")
_ent("B.h.f3/5", "18/5", "2/5", (1, "39/4", 51, "417/2"),
     "psi1^4*psi2^3*(4*psi1^5 + 3*psi2^5)*eta^(-24/5)")
_ent("B.h.f4/5", "18/5", "3/5", (1, "20/3", 36, 136),
     "psi1^3*psi2^4*(3*psi1^5 - 4*psi2^5)*eta^(-24/5)")

_ent("B.i.f0", "22/5", "-7/30", (1, 56, 476, 2632, 11270),
     "G4(I15, Delta15, I3, I3(q^5))*eta^(-28/5)/psi1")
_ent("B.i.f4/5", "22/5", "17/30", (1, "28/3", "1196/21", "752/3", "2851/3"),
     "G4(-I15, -Delta15, I3, I3(q^5))*eta^(-28/5)/psi2")
_ent("B.i.f2/3", "22/5", "13/30", (1, 12, 73, 338, "9070/7"),
     "G5(I15, Delta15, I3, I3(q^5), psi2^5)*eta^(-28/5)/psi1/Delta3")
_ent("B.i.f7/15", "22/5", "7/30", (1, "35/2", 112, "1099/2", 2163),
     "G6(I15, Delta15, I3, I3(q^5), psi2^5)*eta^(-28/5)/psi2/Delta3",
     note="printed denominator omits the eta^(28/5) factor (weight forces it)")

_ent("B.j.f0", "27/5", "-11/40", (1, 99, 1122, 7425, 37191),
     "G7(theta, theta(q^5), psi1^5, psi2^5)*eta^(-33/5)/psi1")
_ent("B.j.f4/5", "27/5", "21/40", (1, "41/3", 98, 513, 2214),
     "G8(theta, theta(q^5), psi1^5, psi2^5)*eta^(-33/5)/psi2")
_ent("B.j.f3/4", "27/5", "19/40", (1, 15, "1191/11", 577, 2505),
     "G9(theta, theta(q^5), psi1(q^4)^5, psi2(q^4)^5, Delta4^3*Delta4(q^5))"
     "*eta^(-33/5)/psi1/Delta4")
_ent("B.j.f11/20", "27/5", "11/40", (1, 22, "506/3", 957, 4279),
     "G10(theta, theta(q^5), psi1(q^4)^5, psi2(q^4)^5, Delta4^3*Delta4(q^5))"
     "*eta^(-33/5)/psi2/Delta4")

_ent("B.k.f0", 6, "-3/10", (1, 144, 1926, 14160, 77499),
     "psi1^3*(psi1^15 + 126*psi1^10*psi2^5 + 117*psi1^5*psi2^10 - 12*psi2^15)*eta^(-36/5)")
_ent("B.k.f3/5", 6, "3/10", (1, "99/4", 210, "7739/6", 6195),
     "psi2^3*(12*psi1^15 + 117*psi1^10*psi2^5 - 126*psi1^5*psi2^10 + psi2^15)*eta^(-36/5)")
_ent("B.k.f4/5", 6, "1/2", (1, "152/9", 134, 772, "10778/3"),
     "psi1^4*psi2^4*(9*psi1^10 + 26*psi1^5*psi2^5 - 9*psi2^10)*eta^(-36/5)")
_ent("B.k.log", 6, "3/2",
     ("-2530/81", "-191600/693", "-8906965/4788", "-5783927675/632016",
      "-385857740243/9927918"),
     "log(6, 1/2)", operator="log")

_ent("B.l.f0", "32/5", "-19/60", (1, 190, 2831, 22306, 129276, 611724),
     "psi1^4*(psi1^15 + 171*psi1^10*psi2^5 + 247*psi1^5*psi2^10 - 57*psi2^15)*eta^(-38/5)")
_ent("B.l.f4/5", "32/5", "29/60",
     (1, "58/3", "493/3", "57362/57", "14761/3", 20734),
     "psi2^4*(57*psi1^15 + 247*psi1^10*psi2^5 - 171*psi1^5*psi2^10 + psi2^15)*eta^(-38/5)")
_ent("B.l.f5/6", "32/5", "31/60",
     (1, "200/11", "28647/187", "3989341/4301", "562835919/124729"),
     "30*f4/5*psi1^4*psi2*(psi1^5 - 3*psi2^5)*eta^(-4) - f0*∫[f4/5*eta^(18/5)*psi2]")
_ent("B.l.f19/30", "32/5", "19/60",
     (1, "133/5", "13243/55", "1454051/935", "168154408/21505"),
     "10*f0*psi1*psi2^4*(3*psi1^5 + psi2^5)*eta^(-4)/19 - f4/5*∫[f0*eta^(18/5)*psi1]")

_ent("B.m.f0", "54/5", "-1/2", (1, 36, 2490, 38360, 398715),
     "B.m.P(psi1, psi2)*eta^(-12)")
_ent("B.m.f4/5", "54/5", "3/10", (1, "212/3", 1312, 14480, "350635/3"),
     "B.m.Q(psi1, psi2)*eta^(-12)",
     note="printed denominator '3 eta^22' read as 3 eta^12 (weight forces it)")
_ent("B.m.f1", "54/5", "1/2",
     (1, "95/2", "25360/33", "346965/44", "666770/11"),
     "B.m.R(psi1, psi2)*eta^(-12)",
     note="printed bracket for R is inhomogeneous (degree 35, missing the "
          "x^10 y^20 slot); the recursion forces the degree-30 bracket "
          "stored in the polynomial table")
_ent("B.m.f6/5", "54/5", "7/10",
     (1, "372/11", "10779/22", "51626/11", "379482/11"),
     "B.m.S(psi1, psi2)*eta^(-12)")

_ent("B.n.f-4/5", 18, "-4/5", (1, -216, -90984, -4550240, -107053506),
     "G11(psi1, psi2)*eta^(-96/5)",
     note="printed denominator eta^12 read as eta^(96/5) (weight forces it)")
_ent("B.n.f0", 18, 0, (1,), "1")
_ent("B.n.f4/5", 18, "4/5",
     (1, "248/3", "22360/9", "837856/19", "1680020/3"),
     "G12(psi1, psi2)*eta^(-96/5)")
_ent("B.n.f1", 18, 1,
     (1, 63, "31596/19", "4150739/152", "181085301/551"),
     "G13(psi1, psi2)*eta^(-96/5)")

# B.o.f-1/5 is printed with a global minus sign, contradicting its own
# leading coefficient +1; the unsigned form is the solution
_ent("B.o.f-1/5", "-66/5", "-1/2",
     (1, "-315/4", -11570, "-456545/2", -2506845),
     "B.o.P(psi1, psi2)*eta^(-12)",
     note="subsection heading prints s=66/5; the indicial roots force -66/5")
_ent("B.o.f0", "-66/5", "-3/10", (1, 232, 4902, 57276, 490507),
     "B.o.Q(psi1, psi2)*eta^(-12)")
_ent("B.o.f4/5", "-66/5", "1/2",
     (1, "80/3", "1010/3", "57840/19", "414330/19"),
     "B.o.R(psi1, psi2)*eta^(-12)")
_ent("B.o.f8/5", "-66/5", "13/10",
     (1, 24, "5458/19", "45800/19", "8847495/551"),
     "B.o.S(psi1, psi2)*eta^(-12)")

_ent("B.p.f-1/5", -6, "-1/5", (1, -54, -395, -1836, -6950),
     "psi1^2*(psi1^10 - 66*psi1^5*psi2^5 - 11*psi2^10)*eta^(-24/5)")
_ent("B.p.f0", -6, 0, (1, "33/2", 102, "897/2", 1653),
     "psi1*psi2*(2*psi1^10 + 11*psi1^5*psi2^5 + 4*psi2^10)*eta^(-24/5)",
     note="printed bracket omits +4psi2^10 and its expansion inherits the "
          "slip (100, 893/2, 1629); the resonant solution with a1 = 33/2 "
          "is unique and forces these coefficients")
_ent("B.p.f1/5", -6, "1/5", (1, 4, "296/11", 110, "4344/11"),
     "psi2^2*(11*psi1^10 - 66*psi1^5*psi2^5 - psi2^10)*eta^(-24/5)")
_ent("B.p.f1", -6, 1, (1, "68/11", "299/11", "1102/11", "3511/11"),
     "psi1*psi2^6*(11*psi1^5 + 2*psi2^5)*eta^(-24/5)",
     note="printed bracket sign -2psi2^5 corrected to +2 (recursion-forced; "
          "the printed expansion already matches the corrected form)")

_ent("B.q.f0", "-8/5", "11/60", (1, 0, 1, 1, 1, 1), "psi2*eta^(-2/5)")
_ent("B.q.f-1/5", "-8/5", "-1/60", (1, 1, 1, 1, 2, 2), "psi1*eta^(-2/5)")
_ent("B.q.f-1/6", "-8/5", "1/60",
     (1, "-2/5", "1/11", "26/85", "434/1265", "9824/27115"),
     "30*psi1^7*psi2^3*(psi1^5 - 3*psi2^5)*(psi1^10 - 11*psi1^5*psi2^5 - psi2^10)^2*eta^(-14)"
     " - f0*∫[psi1^5*(psi1^15 + 171*psi1^10*psi2^5 + 247*psi1^5*psi2^10 - 57*psi2^15)"
     "*eta^(-4)]")
_ent("B.q.f19/30", "-8/5", "49/60",
     (1, "38/33", "371/561", "22558/12903", "383219/374187", "938830/374187"),
     "10*psi1^3*psi2^7*(3*psi1^5 + psi2^5)*(psi1^10 - 11*psi1^5*psi2^5 - psi2^10)^2*eta^(-14)"
     " - f-1/5*∫[psi2^5*(57*psi1^15 + 247*psi1^10*psi2^5 - 171*psi1^5*psi2^10 + psi2^15)"
     "*eta^(-4)/3]",
     note="printed second integrand starts psi1^5(57...); leading exponents "
          "force the psi2^5 companion bracket")

_ent("C.a.f0", "-318/5", "13/5", (1, 260, 30056, 2119676, 104823121),
     quasimodular=("F1(psi1, psi2)", "F2(psi1, psi2)", Q(312, 5)),
     note="printed first term (constant 50841895104, eta^(192/5)) repeats "
          "the neighbouring family; refitted constant over eta^(312/5)")
_ent("C.a.f4/5", "-318/5", "17/5", (1, 236, 25306, 1680916, 79143742),
     quasimodular=("F1(psi2, -psi1)", "F2(psi2, -psi1)", Q(312, 5)),
     note="printed constants give leading coefficient -1; negated pair fits")

_ent("C.b.f0", "-198/5", "8/5", (1, 144, 8880, 331840, 8770284),
     quasimodular=("F3(psi2, -psi1)", "F4(psi2, -psi1)", Q(192, 5)),
     note="printed f0 and f4/5 formulas are exchanged (exponent classes "
          "and exact fit force the swap)")
_ent("C.b.f4/5", "-198/5", "12/5", (1, "380/3", 7164, 251344, "18958205/3"),
     quasimodular=("F3(psi1, psi2)", "F4(psi1, psi2)", Q(192, 5)),
     note="printed f0 and f4/5 formulas are exchanged")

_ent("C.c.f0", "-138/5", "11/10", (1, 88, 3256, 74360, 1232814),
     quasimodular=("C.c.P(psi2, -psi1)", "C.c.Q(psi2, -psi1)", Q(132, 5)),
     note="printed f0 and f4/5 formulas are exchanged (exponent classes "
          "and exact fit force the swap)")
_ent("C.c.f4/5", "-138/5", "19/10", (1, 76, 2584, 55568, 876329),
     quasimodular=("C.c.P(psi1, psi2)", "C.c.Q(psi1, psi2)", Q(132, 5)),
     note="printed f0 and f4/5 formulas are exchanged")

_ent("C.d.f0", "-78/5", "3/5", (1, 36, 576, 6312, 53739),
     quasimodular=("C.d.P(psi1, psi2)", "C.d.Q(psi1, psi2)", Q(72, 5)))
_ent("C.d.f4/5", "-78/5", "7/5", (1, "284/9", 476, 4888, "117116/3"),
     quasimodular=("C.d.P(psi2, -psi1)", "C.d.Q(psi2, -psi1)", Q(72, 5)),
     note="printed formula lacks the derivative on P (weight forces it)")

# P = Q, and the fit finds b = 0
_ent("C.e.f0", "-18/5", "1/10", (1, 0, 6, 16, 36, 72),
     quasimodular=("psi2", "psi2", Q(12, 5)))
_ent("C.e.f4/5", "-18/5", "9/10", (1, "8/3", 6, 16, "101/3", 72),
     quasimodular=("psi1", "psi1", Q(12, 5)))

# P = Q, and the fit finds b = 0
_ent("C.f.f0", "42/5", "2/5", (1, 36, 436, 3536, 21912, 113760),
     quasimodular=("C.f.P2(psi1, psi2)", "C.f.P2(psi1, psi2)", Q(48, 5)),
     note="printed constant 28 makes the leading coefficient 57/7; 228 forced")
_ent("C.f.f1/5", "42/5", "3/5", (1, 25, 276, "8379/4", 12481, 62859),
     quasimodular=("C.f.P1(psi1, psi2)", "C.f.P1(psi1, psi2)", Q(48, 5)))

# each quasimodular F entry's log companion G (``_pair``) shares its s and
# exponent, and follows the section's F entries
for es in SECTIONS.values():
    es += [CatalogEntry(f"{e.section}.g{e.label[len(e.section) + 2:]}", e.s, e.exponent,
                        None, operator="log") for e in es if e.quasimodular]

ENTRIES: dict[str, CatalogEntry] = {e.label: e for es in SECTIONS.values() for e in es}


def labels() -> tuple[str, ...]:
    return tuple(ENTRIES)


def entry(label: str) -> CatalogEntry:
    try:
        return ENTRIES[label]
    except KeyError:
        raise UnknownLabel(f"unknown catalog label {label!r}") from None


# -- building ----------------------------------------------------------

def _recipe(section: str, k) -> dict:
    """short label -> each entry of a section under the semantics k, every
    entry scaled to leading coefficient 1, read in order so that a later
    formula reads the earlier: a formula by ``formula.evaluate``, and a
    quasimodular row by ``_pair``, which also gives the G companion (the
    entry that holds neither).  Every semantics reads every section."""
    for e in SECTIONS[section]:
        name = e.label[len(section) + 1:]
        if e.formula:
            k.siblings[name] = k.unit(formula.evaluate(e.formula, k))
        elif e.quasimodular:
            k.siblings[name], k.siblings["g" + name[1:]] = _pair(e, k)
    return k.siblings


@lru_cache(maxsize=None)
def _lead_gaps(section: str) -> dict[str, Fraction]:
    """label -> exponent - base for each entry of a section: how far the
    entry leads above the base its recipe gives it.

    Every form is exact n + 1 steps past its base, and no operation a
    recipe applies shortens that reach past the result's base, so each
    entry comes out exact to base + n + 1.  What a recipe loses is
    cancellation: where its terms cancel, as a quasimodular a*x + b*y does
    from min(x.base, y.base) up to the entry's exponent, the entry leads at
    exponent > base.  The bases do not depend on n, so the recipe is read
    once on leads (``formula.Leads``), which track the base alone and build
    no coefficient."""
    leads = _recipe(section, formula.Leads(polynomial))
    return {f"{section}.{name}": ENTRIES[f"{section}.{name}"].exponent - base
            for name, base in leads.items()}


def section_margin(section: str) -> int:
    """The steps a section's recipe loses to truncation: an entry built at
    n is exact past its exponent + order when n >= order + floor(gap) for
    its gap in ``_lead_gaps``, and the margin is the largest such floor
    over the section."""
    return max(floor(gap) for gap in _lead_gaps(section).values())


def section_build_order(section: str, order: int) -> int:
    """The order a section is built at for entries exact `order` steps past
    their exponents.  ``verify_entry`` also reads each printed prefix
    whatever the order, so the section reaches its longest one too."""
    prefix = max(len(e.printed_prefix or ()) for e in SECTIONS[section])
    return max(order, prefix) + section_margin(section)


@lru_cache(maxsize=64)
def _build_section(section: str, n: int) -> dict:
    return _recipe(section, formula.Series(n, polynomial))


def _reaching(label: str, f: SeriesLike, order: int) -> SeriesLike:
    """f, if it is exact through q^(exponent + order); else InsufficientOrder."""
    want = entry(label).exponent + order
    if f.truncation <= want:
        raise InsufficientOrder(
            f"{label}: built to q^{f.truncation}, requested through q^{want}")
    return f


def build_entry(label: str, order: int) -> SeriesLike:
    """Evaluate the entry's recipe, exact to >= order steps past its lead."""
    e = entry(label)
    built = _build_section(e.section, section_build_order(e.section, order))
    return _reaching(label, built[label[len(e.section) + 1:]], order)


def aux_third_order(order: int) -> MLDEOperator:
    """B.c's third-order companion, the weight-0 operator
    D^3 - (1/2)E2*D^2 + ((1/2)D(E2) - (9/100)E4)*D + (19/5400)E6."""
    e2 = F.eisenstein_e2(order)
    return build_custom(
        (F.eisenstein_e6(order).scale(Q(19, 5400)),
         e2.euler_derivative().scale(Q(1, 2)) - F.eisenstein_e4(order).scale(Q(9, 100)),
         e2.scale(Q(-1, 2)),
         PuiseuxSeries.one(order)))


def designated_operator(label: str, order: int) -> MLDEOperator:
    e = entry(label)
    if e.operator == "aux3":
        return aux_third_order(order)
    return build_flat(e.s, order)


# -- verification ------------------------------------------------------

def default_verification_order(label: str) -> int:
    """25 in a section whose formulas substitute q^m into a form (costlier),
    else 40."""
    return 25 if any("(q^" in e.formula for e in SECTIONS[entry(label).section]) else 40


def verify_entry(label: str, order: Optional[int] = None) -> dict:
    """Prefix check, then annihilation through q^(exponent + order) by the
    operator built the section's margin past the order.  The report's status
    is 'verified', or 'failed' with the first bad exponent, residual and detail."""
    e = entry(label)
    order = default_verification_order(label) if order is None else order
    report = {"label": label, "s": str(e.s), "order": order}
    if e.note:
        report["note"] = e.note
    f = build_entry(label, order)
    if e.printed_prefix is not None:
        probe = f.plain if isinstance(f, LogSeries) else f
        printed = PuiseuxSeries.make(e.exponent, e.printed_prefix)
        bad = (probe - printed).first_nonzero(e.exponent + len(e.printed_prefix))
        if bad is not None:
            got = probe.coefficient(bad[0])
            return report_failure(
                report, bad, str(PrefixMismatch(label, bad[0], got, got - bad[1])))
        report["prefix"] = f"{len(e.printed_prefix)} printed coefficients match"
    op = designated_operator(label, order + section_margin(e.section))
    bad = op.apply(f).first_nonzero(e.exponent + order + Q(1, 2))
    if bad is not None:
        return report_failure(report, bad, str(NotAnnihilated(label, *bad)))
    report["status"] = "verified"
    return report


def verify_section(section: str, order: Optional[int] = None) -> list[dict]:
    """The reports of a section's entries, in catalog order."""
    return [verify_entry(e.label, order) for e in SECTIONS[section]]


def verify_all(order: Optional[int] = None) -> list[dict]:
    return [report for section in SECTIONS for report in verify_section(section, order)]


# -- fundamental systems ----------------------------------------------

def _system_labels(s: Fraction) -> list[str]:
    """Every entry at s except a third-order companion's."""
    return [lb for lb, e in ENTRIES.items() if e.s == s and e.operator != "aux3"]


def catalogued_parameters() -> tuple[Fraction, ...]:
    return tuple(sorted({e.s for e in ENTRIES.values()}))


def has_plain_system(s: QLike) -> bool:
    """True when four catalogued solutions are all plain power series."""
    names = _system_labels(rat(s))
    return len(names) == 4 and all(ENTRIES[lb].operator == "flat" for lb in names)


def fundamental_system(s: QLike, order: int) -> list[tuple[Fraction, SeriesLike]]:
    """Four independent solutions as (leading exponent, series), sorted.  A
    system of three catalogued entries (B.c's) is completed by the
    Frobenius log solution at the double indicial root."""
    s = rat(s)
    names = _system_labels(s)
    if not names:
        raise NotInCandidateList(f"no catalogued system for s = {s}")
    out = [(ENTRIES[lb].exponent, build_entry(lb, order)) for lb in names]
    if len(out) < 4:
        roots = flat_indicial_roots(s)
        double = next(r for r in roots if roots.count(r) > 1)
        out.append((double, frobenius_solve_log(build_flat(s, order), double, order)))
    return sorted(out, key=lambda t: t[0])


def exponent_sum(s: QLike) -> Fraction:
    return sum(flat_indicial_roots(s), Q(0))


def _wronskian_pads(s: Fraction) -> tuple[int, int]:
    """(system pad, eta pad): the steps past `order` at which
    ``wronskian_over_eta24`` builds the system and eta.

    An entry built at n is exact n + 1 steps past its recipe's base, which
    lies its gap (``_lead_gaps``) below its exponent, and a Serre derivation
    keeps both.  So every product in the determinant is exact n + 1 steps
    past the sum of the bases, which is the exponent sum 1 less the gap
    sum G, and W/eta^24 is exact below q^(n + 1 - G) once eta^-24, based
    at q^-1, is exact as far.  Through q^order that needs n >= order + ceil(G): eta
    built to order + ceil(G), and the system to order + ceil(G) - m, since
    its section margin m already builds the entries m steps further."""
    labels = _system_labels(s)
    gaps = ceil(sum(_lead_gaps(ENTRIES[lb].section)[lb] for lb in labels))
    margin = min(section_margin(ENTRIES[lb].section) for lb in labels)
    return max(0, gaps - margin), gaps


def wronskian_over_eta24(s: QLike, order: int = 25):
    """(constant, residual-free bool) for W(system)/eta^24, read through
    q^order."""
    s = rat(s)
    if not has_plain_system(s):
        raise NotInCandidateList(f"s = {s} has no plain catalogued system")
    system_pad, eta_pad = _wronskian_pads(s)
    system = [f for _, f in fundamental_system(s, order + system_pad)]
    w = modular_wronskian(system)
    ratio = w * F.eta(order + eta_pad).pow(-24)
    lead_e, lead_c = ratio.leading()
    if lead_e != 0:
        return lead_c, False
    return lead_c, (ratio - lead_c).first_nonzero(order + 1) is None


# -- the non-negativity remark for the four formal parameters ----------

REMARK_PARAMETERS: tuple[Fraction, ...] = (
    Q(-33, 5), Q(-58, 5), Q(-108, 5), Q(-258, 5))


def remark_solution(s: QLike, order: int = 99) -> PuiseuxSeries:
    """Frobenius solution at the first indicial root, scaled to leading
    coefficient 5."""
    s = rat(s)
    alpha = flat_indicial_roots(s)[0]
    return frobenius_solve(build_flat(s, order), alpha, order).scale(5)


def remark_holds(s: QLike, order: int = 99) -> bool:
    return remark_solution(s, order).first_non_counting() is None
