"""Differential relations and functional equations between the level 2-20
forms, with a verify-and-report harness.

Each relation is catalogued once, in a group named by its label's prefix:
groups a-d hold single-argument relations at levels 2, 3, 4 and 5, and
groups e, f and g (levels 10, 15 and 20) mix q with q^2, q^4 or q^5
arguments.

A relation is checked as printed: :func:`verify_relation` reads both
sides of its ``formula`` with the shared reader of :mod:`mldelab.formula`,
through one ``formula.Series`` at the verification order.  A form is exact
at least order + 1 steps past a base of q^0 or above, and no operation of
the grammar shortens that, so each side is exact below q^(order + 1), past
the window its verdict reads.

A few printed sources of these identities contain transcription errors.
Where the intended reading is forced by weight bookkeeping or by a unique
exact linear fit, the corrected reading is catalogued and the note field
records the discrepancy.  A relation whose two sides are not homogeneous
of one weight (read by ``formula.Weights`` on first use) is quarantined:
it is reported with its residual instead of being asserted.  That holds
of exactly e.5 and f.8, which resisted any principled repair.  e.5 prints
a term with no series meaning; its ``evaluated_rhs``, which both readings
take, is the printed right-hand side without that term.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from . import formula
from .series import Q, report_failure


@dataclass(frozen=True)
class RelationRecord:
    label: str
    formula: str
    note: Optional[str] = None
    #: the right-hand side evaluated in place of the printed one, if set
    evaluated_rhs: Optional[str] = None

    @property
    def sides(self) -> tuple[str, str]:
        """The texts of the two sides that are evaluated."""
        sides = self.formula.split("=")
        if len(sides) != 2:
            raise ValueError(f"formula {self.formula!r} needs exactly one '='")
        return sides[0], self.evaluated_rhs or sides[1]

    @cached_property
    def quarantined(self) -> bool:
        """True unless both sides are homogeneous of one weight."""
        lhs, rhs = (formula.evaluate(text, formula.Weights()) for text in self.sides)
        return len(lhs | rhs) != 1


_R = RelationRecord

RELATIONS: list[RelationRecord] = [
    _R("a.1", "6*H2' = E2*H2 - H2^2 + 192*Delta2^2"),
    _R("a.2", "E4 = H2^2 + 192*Delta2^2"),
    _R("a.3", "6*Delta2' = (E2 + 2*H2)*Delta2"),
    _R("a.4", "E6 = (H2^2 - 576*Delta2^2)*H2"),
    _R("b.1", "12*I3' = E2*I3 - I3^3 + 108*Delta3^3"),
    _R("b.2", "E4 = I3*(I3^3 + 216*Delta3^3)"),
    _R("b.3", "12*Delta3' = (E2 + 3*I3^2)*Delta3"),
    _R("b.4", "E6 = I3^6 - 540*I3^3*Delta3^3 - 5832*Delta3^6"),
    _R("c.1", "24*theta' = (E2 - theta^4 + 80*Delta4^4)*theta"),
    _R("c.2", "E4 = theta^8 + 224*theta^4*Delta4^4 + 256*Delta4^8"),
    _R("c.3", "24*Delta4' = (E2 + 5*theta^4 - 16*Delta4^4)*Delta4"),
    _R("c.4", "E6 = (theta^4 + 16*Delta4^4)*(theta^8 - 544*theta^4*Delta4^4 + 256*Delta4^8)"),
    _R("d.1", "60*psi1' = (E2 - psi1^10 + 66*psi1^5*psi2^5 + 11*psi2^10)*psi1"),
    _R("d.2", "60*psi2' = (E2 + 11*psi1^10 - 66*psi1^5*psi2^5 - psi2^10)*psi2"),
    _R("d.3", "E4 = psi1^20 + 228*psi1^15*psi2^5 + 494*psi1^10*psi2^10 - 228*psi1^5*psi2^15 + psi2^20"),
    _R("d.4", "E6 = (psi1^10 + psi2^10)*(psi1^20 - 522*psi1^15*psi2^5 - 10006*psi1^10*psi2^10 + 522*psi1^5*psi2^15 + psi2^20)"),
    _R("e.1", "6*D[H2(q^5)] = 5*{E2(q^5)*H2(q^5) - H2(q^5)^2 + 192*Delta2(q^5)^2}"),
    _R("e.2", "6*D[Delta2(q^5)] = 5*Delta2(q^5)*{E2(q^5) + 2*H2(q^5)}",
       note="source prints +H2(q^5); the factor 2 is forced by the level-2 derivative relation at q^5"),
    _R("e.3", "5*E2(q^5) = E2 + 4*{psi1^10 + psi2^10}"),
    _R("e.4", "55*H2(q^5) = -3*{5*psi2^10 + 7*psi1(q^2)^5*psi1^5 - 21*psi1(q^2)^5*psi2^5 + 30*psi2(q^2)^5*psi1^5} + 76*psi1(q^2)^10 - 78*psi1(q^2)^5*psi2(q^2)^5 + 70*psi2(q^2)^10"),
    _R("e.5", "3000*Delta2(q^5)^2 = 2*{H2^2 - 60*Delta2(1)^2} - H2*psi1^10 - H2(q^5)*{38*psi1^10 + 132*psi1^5*psi2^5 + 37*psi2^10} - 720*Delta2*Delta2(q^5) + 2*H2*{8*psi1(q^2)^10 - 26*psi1(q^2)^5*psi2(q^2)^5 + 3*psi2(q^2)^10} + 10*H2(q^5)*{2*psi1(q^2)^10 - 2*psi1(q^2)*psi2(q^2)^5 + 3*psi2(q^2)^10}",
       note="contains the constant-argument term Delta2(1)^2, which has no series meaning; evaluated with that term dropped purely to produce a residual report",
       evaluated_rhs="2*H2^2 - H2*psi1^10 - H2(q^5)*{38*psi1^10 + 132*psi1^5*psi2^5 + 37*psi2^10} - 720*Delta2*Delta2(q^5) + 2*H2*{8*psi1(q^2)^10 - 26*psi1(q^2)^5*psi2(q^2)^5 + 3*psi2(q^2)^10} + 10*H2(q^5)*{2*psi1(q^2)^10 - 2*psi1(q^2)*psi2(q^2)^5 + 3*psi2(q^2)^10}"),
    _R("f.1", "12*I15' = (E2 - 5*I15^2 - 2*I15*Delta15 - 13*Delta15^2 + 4*I3^2)*I15",
       note="source prints +I3^2; 4*I3^2 is the unique exact fit (printed form has constant term -3)"),
    _R("f.2", "12*Delta15' = (E2 + 13*I15^2 - 2*I15*Delta15 + 5*Delta15^2 - 2*I3^2)*Delta15"),
    _R("f.3", "12*D[I3(q^5)] = E2*I3(q^5) + I3*{4*I15^2 + 4*I15*Delta15 + 2*Delta15^2} - I3(q^5)*{5*I15^2 + 2*I15*Delta15 - 5*Delta15^2}",
       note="source prints 4*I15 in the middle brace; 4*I15^2 is forced by weight bookkeeping"),
    _R("f.4", "I3^2 = 6*I15^2 + 6*Delta15^2 - 5*I3(q^5)^2"),
    _R("f.5", "I3*I3(q^5) = I15^2 + 4*I15*Delta15 - Delta15^2"),
    _R("f.6", "I3^3 = 6*I3*{I15^2 + Delta15^2} - 5*I3(q^5)*{I15^2 + 4*I15*Delta15 - Delta15^2}"),
    _R("f.7", "108*Delta3^3 = I3*{25*I15^2 - 2*I15*Delta15 - Delta15^2} - 5*I3(q^5)*{5*I15^2 + 8*I15*Delta15 + Delta15^2}"),
    _R("f.8", "120*psi2^10 = 45*{I15^2 - 5*Delta15^2} - 6*I3*{14*I15 - 2*I15*Delta15 - 5*Delta15^2} + 3*I3(q^5)*{8*I15 + 64*Delta15 - 5*I3}",
       note="braces mix weight-1 and weight-2 terms (14*I15, 8*I15 + 64*Delta15 - 5*I3); no principled single repair found, reported with residual"),
    _R("g.1", "24*D[theta(q^5)] = theta(q^5)*{E2 + 4*psi1^10 + 4*psi2^10 - 5*theta(q^5)^4 + 400*Delta4(q^5)^4}",
       note="source omits the factor 24 on the left; forced by the level-4 derivative relation at q^5"),
    _R("g.2", "24*D[Delta4(q^5)] = Delta4(q^5)*{E2 + 4*psi1^10 + 4*psi2^10 + 25*theta(q^5)^4 - 80*Delta4(q^5)^4}",
       note="source omits the factor 24 on the left; forced by the level-4 derivative relation at q^5"),
    _R("g.3", "theta^5 = 80*theta*Delta4^4 - 5*theta*{psi1^10 + psi2^10} + 6*theta(q^5)*{psi1^10 - 11*psi1^5*psi2^5 - psi2^10}",
       note="source prints psi1^5 + psi2^5; the 10th powers are forced by weight bookkeeping"),
    _R("g.4", "16*Delta4^5 = 5*Delta4*{theta^4 - psi1^10 - psi2^10} + 6*Delta4(q^5)*{psi1^10 - 11*psi1^5*psi2^5 - psi2^10}",
       note="source omits the factor 16 on the left; forced by the leading coefficient"),
    _R("g.5", "40*Delta4^3*Delta4(q^5) = 5*theta^3*theta(q^5) + psi1^10 - 36*psi1^5*psi2^5 - psi2^10 - 6*{psi1(q^4)^10 - 36*psi1(q^4)^5*psi2(q^4)^5 - psi2(q^4)^10}"),
    _R("g.6", "48*psi1(q^4)^10 = 2*{5*psi1^10 + 36*psi1^5*psi2^5 + psi2^10} + 45*theta(q^5)^2*{theta(q^5)^2 + theta^2} - 2*theta*theta(q^5)*{135*theta(q^5)^2 + 71*theta^2} - 160*Delta4^3*Delta4(q^5) + 360*psi1(q^4)^5*psi1^5 - 504*psi2(q^4)^5*psi2^5"),
    _R("g.7", "48*psi2(q^4)^10 = 2*{psi1^10 - 36*psi1^5*psi2^5 + 5*psi2^10} + 45*theta(q^5)^2*{theta(q^5)^2 + theta^2} + 2*theta*theta(q^5)*{135*theta(q^5)^2 + 71*theta^2} + 160*Delta4^3*Delta4(q^5) - 504*psi1(q^4)^5*psi1^5 + 360*psi2(q^4)^5*psi2^5"),
]


def __getattr__(name: str):
    """QUARANTINED_LABELS, derived on each read: importing reads no formula."""
    if name == "QUARANTINED_LABELS":
        return tuple(r.label for r in RELATIONS if r.quarantined)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: default verification depth per group
GROUP_ORDERS = {"a": 50, "b": 50, "c": 50, "d": 50, "e": 25, "f": 25, "g": 25}


def get_relation(label: str) -> RelationRecord:
    for r in RELATIONS:
        if r.label == label:
            return r
    raise KeyError(f"unknown relation label {label!r}")


def verify_relation(r: RelationRecord, order: int) -> dict:
    """Check one relation through q^order: its verdict is the first nonzero
    coefficient of lhs - rhs below q^(order + 1/2), if any.

    Returns a report dict: {label, status, formula, note,
    first_bad_exponent?, residual?}.  Status is 'verified', 'failed', or
    'quarantined' (a quarantined relation is reported, never asserted).
    """
    k = formula.Series(order)  # both sides share their powers
    lhs, rhs = (formula.evaluate(text, k) for text in r.sides)
    bad = (lhs - rhs).first_nonzero(order + Q(1, 2))
    report = {"label": r.label, "formula": r.formula, "order": order}
    if r.note:
        report["note"] = r.note
    # the weights are read after the series, whose errors a malformed formula raises
    if bad is None:
        report["status"] = "quarantined-but-holds" if r.quarantined else "verified"
    else:
        report_failure(report, bad, status="quarantined" if r.quarantined else "failed")
    return report


def verify_group(group: str, order: Optional[int] = None) -> list[dict]:
    """The group's reports, at its GROUP_ORDERS depth unless `order` is given."""
    if group not in GROUP_ORDERS:
        raise KeyError(f"unknown group {group!r}")
    order = order if order is not None else GROUP_ORDERS[group]
    return [verify_relation(r, order) for r in RELATIONS if r.label.startswith(group + ".")]


def verify_all() -> list[dict]:
    return [report for g in GROUP_ORDERS for report in verify_group(g)]
