"""Differential relations and functional equations between the level 2-20
forms, with a verify-and-report harness.

Each relation is catalogued once, grouped by level:

- groups a-d: single-argument relations at levels 2, 3, 4, 5;
- groups e-g: relations mixing q with q^2, q^4 or q^5 arguments.

A few printed sources of these identities contain transcription errors.
Where the intended reading is forced by weight bookkeeping or by a unique
exact linear fit, the corrected reading is catalogued and the note field
records the discrepancy.  Two relations resisted any principled repair and
are shipped quarantined: they are reported with their residual instead of
being asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import forms as F
from .series import InsufficientOrder, PuiseuxSeries, Q, rat_str


def _context(order: int) -> dict[str, PuiseuxSeries]:
    """All form values (and composite-argument values) needed by the catalog."""
    w = order + 5
    ctx = {
        "E2": F.eisenstein_e2(5 * w),
        "E4": F.eisenstein_e4(w),
        "E6": F.eisenstein_e6(w),
        "H2": F.h2(w),
        "D2": F.delta2(w),
        "I3": F.i3(w),
        "D3": F.delta3(w),
        "th": F.theta(w),
        "D4": F.delta4(w),
        "p1": F.psi1(w),
        "p2": F.psi2(w),
        "I15": F.i15(w),
        "D15": F.delta15(w),
    }
    ctx["E2q5"] = F.eisenstein_e2(w).substitute_power(5)
    ctx["H2q5"] = ctx["H2"].substitute_power(5)
    ctx["D2q5"] = ctx["D2"].substitute_power(5)
    ctx["I3q5"] = ctx["I3"].substitute_power(5)
    ctx["thq5"] = ctx["th"].substitute_power(5)
    ctx["D4q5"] = ctx["D4"].substitute_power(5)
    ctx["p1q2"] = ctx["p1"].substitute_power(2)
    ctx["p2q2"] = ctx["p2"].substitute_power(2)
    ctx["p1q4"] = ctx["p1"].substitute_power(4)
    ctx["p2q4"] = ctx["p2"].substitute_power(4)
    return ctx


def _D(s: PuiseuxSeries) -> PuiseuxSeries:
    return s.euler_derivative()


@dataclass(frozen=True)
class RelationRecord:
    label: str
    group: str
    formula: str
    lhs: Callable[[dict], PuiseuxSeries]
    rhs: Callable[[dict], PuiseuxSeries]
    note: Optional[str] = None
    quarantined: bool = False


def _catalog() -> list[RelationRecord]:
    R = RelationRecord
    rels: list[RelationRecord] = []

    # -- group a: level 2 ---------------------------------------------
    rels += [
        R("a.1", "a", "6*H2' = E2*H2 - H2^2 + 192*Delta2^2",
          lambda c: _D(c["H2"]).scale(6),
          lambda c: c["E2"] * c["H2"] - c["H2"] * c["H2"] + (c["D2"] * c["D2"]).scale(192)),
        R("a.2", "a", "E4 = H2^2 + 192*Delta2^2",
          lambda c: c["E4"],
          lambda c: c["H2"] * c["H2"] + (c["D2"] * c["D2"]).scale(192)),
        R("a.3", "a", "6*Delta2' = (E2 + 2*H2)*Delta2",
          lambda c: _D(c["D2"]).scale(6),
          lambda c: (c["E2"] + c["H2"].scale(2)) * c["D2"]),
        R("a.4", "a", "E6 = (H2^2 - 576*Delta2^2)*H2",
          lambda c: c["E6"],
          lambda c: (c["H2"] * c["H2"] - (c["D2"] * c["D2"]).scale(576)) * c["H2"]),
    ]

    # -- group b: level 3 ---------------------------------------------
    rels += [
        R("b.1", "b", "12*I3' = E2*I3 - I3^3 + 108*Delta3^3",
          lambda c: _D(c["I3"]).scale(12),
          lambda c: c["E2"] * c["I3"] - c["I3"] ** 3 + (c["D3"] ** 3).scale(108)),
        R("b.2", "b", "E4 = I3*(I3^3 + 216*Delta3^3)",
          lambda c: c["E4"],
          lambda c: c["I3"] * (c["I3"] ** 3 + (c["D3"] ** 3).scale(216))),
        R("b.3", "b", "12*Delta3' = (E2 + 3*I3^2)*Delta3",
          lambda c: _D(c["D3"]).scale(12),
          lambda c: (c["E2"] + (c["I3"] * c["I3"]).scale(3)) * c["D3"]),
        R("b.4", "b", "E6 = I3^6 - 540*I3^3*Delta3^3 - 5832*Delta3^6",
          lambda c: c["E6"],
          lambda c: c["I3"] ** 6 - (c["I3"] ** 3 * c["D3"] ** 3).scale(540)
          - (c["D3"] ** 6).scale(5832)),
    ]

    # -- group c: level 4 ---------------------------------------------
    rels += [
        R("c.1", "c", "24*theta' = (E2 - theta^4 + 80*Delta4^4)*theta",
          lambda c: _D(c["th"]).scale(24),
          lambda c: (c["E2"] - c["th"] ** 4 + (c["D4"] ** 4).scale(80)) * c["th"]),
        R("c.2", "c", "E4 = theta^8 + 224*theta^4*Delta4^4 + 256*Delta4^8",
          lambda c: c["E4"],
          lambda c: c["th"] ** 8 + (c["th"] ** 4 * c["D4"] ** 4).scale(224)
          + (c["D4"] ** 8).scale(256)),
        R("c.3", "c", "24*Delta4' = (E2 + 5*theta^4 - 16*Delta4^4)*Delta4",
          lambda c: _D(c["D4"]).scale(24),
          lambda c: (c["E2"] + (c["th"] ** 4).scale(5) - (c["D4"] ** 4).scale(16)) * c["D4"]),
        R("c.4", "c", "E6 = (theta^4 + 16*Delta4^4)*(theta^8 - 544*theta^4*Delta4^4 + 256*Delta4^8)",
          lambda c: c["E6"],
          lambda c: (c["th"] ** 4 + (c["D4"] ** 4).scale(16))
          * (c["th"] ** 8 - (c["th"] ** 4 * c["D4"] ** 4).scale(544) + (c["D4"] ** 8).scale(256))),
    ]

    # -- group d: level 5 ---------------------------------------------
    rels += [
        R("d.1", "d", "60*psi1' = (E2 - psi1^10 + 66*psi1^5*psi2^5 + 11*psi2^10)*psi1",
          lambda c: _D(c["p1"]).scale(60),
          lambda c: (c["E2"] - c["p1"] ** 10 + (c["p1"] ** 5 * c["p2"] ** 5).scale(66)
                     + (c["p2"] ** 10).scale(11)) * c["p1"]),
        R("d.2", "d", "60*psi2' = (E2 + 11*psi1^10 - 66*psi1^5*psi2^5 - psi2^10)*psi2",
          lambda c: _D(c["p2"]).scale(60),
          lambda c: (c["E2"] + (c["p1"] ** 10).scale(11)
                     - (c["p1"] ** 5 * c["p2"] ** 5).scale(66) - c["p2"] ** 10) * c["p2"]),
        R("d.3", "d", "E4 = psi1^20 + 228*psi1^15*psi2^5 + 494*psi1^10*psi2^10 - 228*psi1^5*psi2^15 + psi2^20",
          lambda c: c["E4"],
          lambda c: c["p1"] ** 20 + (c["p1"] ** 15 * c["p2"] ** 5).scale(228)
          + (c["p1"] ** 10 * c["p2"] ** 10).scale(494)
          - (c["p1"] ** 5 * c["p2"] ** 15).scale(228) + c["p2"] ** 20),
        R("d.4", "d", "E6 = (psi1^10 + psi2^10)*(psi1^20 - 522*psi1^15*psi2^5 - 10006*psi1^10*psi2^10 + 522*psi1^5*psi2^15 + psi2^20)",
          lambda c: c["E6"],
          lambda c: (c["p1"] ** 10 + c["p2"] ** 10)
          * (c["p1"] ** 20 - (c["p1"] ** 15 * c["p2"] ** 5).scale(522)
             - (c["p1"] ** 10 * c["p2"] ** 10).scale(10006)
             + (c["p1"] ** 5 * c["p2"] ** 15).scale(522) + c["p2"] ** 20)),
    ]

    # -- group e: q and q^5/q^2 arguments, level 10 --------------------
    rels += [
        R("e.1", "e", "6*D[H2(q^5)] = 5*{E2(q^5)*H2(q^5) - H2(q^5)^2 + 192*Delta2(q^5)^2}",
          lambda c: _D(c["H2q5"]).scale(6),
          lambda c: (c["E2q5"] * c["H2q5"] - c["H2q5"] * c["H2q5"]
                     + (c["D2q5"] * c["D2q5"]).scale(192)).scale(5)),
        R("e.2", "e", "6*D[Delta2(q^5)] = 5*Delta2(q^5)*{E2(q^5) + 2*H2(q^5)}",
          lambda c: _D(c["D2q5"]).scale(6),
          lambda c: (c["D2q5"] * (c["E2q5"] + c["H2q5"].scale(2))).scale(5),
          note="source prints +H2(q^5); the factor 2 is forced by the level-2 derivative relation at q^5"),
        R("e.3", "e", "5*E2(q^5) = E2 + 4*{psi1^10 + psi2^10}",
          lambda c: c["E2q5"].scale(5),
          lambda c: c["E2"] + (c["p1"] ** 10 + c["p2"] ** 10).scale(4)),
        R("e.4", "e", "55*H2(q^5) = -3*{5*psi2^10 + 7*psi1(q^2)^5*psi1^5 - 21*psi1(q^2)^5*psi2^5 + 30*psi2(q^2)^5*psi1^5} + 76*psi1(q^2)^10 - 78*psi1(q^2)^5*psi2(q^2)^5 + 70*psi2(q^2)^10",
          lambda c: c["H2q5"].scale(55),
          lambda c: ((c["p2"] ** 10).scale(5) + (c["p1q2"] ** 5 * c["p1"] ** 5).scale(7)
                     - (c["p1q2"] ** 5 * c["p2"] ** 5).scale(21)
                     + (c["p2q2"] ** 5 * c["p1"] ** 5).scale(30)).scale(-3)
          + (c["p1q2"] ** 10).scale(76) - (c["p1q2"] ** 5 * c["p2q2"] ** 5).scale(78)
          + (c["p2q2"] ** 10).scale(70)),
        R("e.5", "e", "3000*Delta2(q^5)^2 = 2*{H2^2 - 60*Delta2(1)^2} - H2*psi1^10 - H2(q^5)*{38*psi1^10 + 132*psi1^5*psi2^5 + 37*psi2^10} - 720*Delta2*Delta2(q^5) + 2*H2*{8*psi1(q^2)^10 - 26*psi1(q^2)^5*psi2(q^2)^5 + 3*psi2(q^2)^10} + 10*H2(q^5)*{2*psi1(q^2)^10 - 2*psi1(q^2)*psi2(q^2)^5 + 3*psi2(q^2)^10}",
          lambda c: (c["D2q5"] * c["D2q5"]).scale(3000),
          # evaluated with the un-interpretable Delta2(1)^2 term dropped
          lambda c: (c["H2"] * c["H2"]).scale(2) - c["H2"] * c["p1"] ** 10
          - c["H2q5"] * ((c["p1"] ** 10).scale(38)
                         + (c["p1"] ** 5 * c["p2"] ** 5).scale(132)
                         + (c["p2"] ** 10).scale(37))
          - (c["D2"] * c["D2q5"]).scale(720)
          + (c["H2"] * ((c["p1q2"] ** 10).scale(8)
                        - (c["p1q2"] ** 5 * c["p2q2"] ** 5).scale(26)
                        + (c["p2q2"] ** 10).scale(3))).scale(2)
          + (c["H2q5"] * ((c["p1q2"] ** 10).scale(2)
                          - (c["p1q2"] * c["p2q2"] ** 5).scale(2)
                          + (c["p2q2"] ** 10).scale(3))).scale(10),
          quarantined=True,
          note="contains the constant-argument term Delta2(1)^2, which has no series meaning; "
               "evaluated with that term dropped purely to produce a residual report"),
    ]

    # -- group f: level 15, q and q^5 arguments ------------------------
    rels += [
        R("f.1", "f", "12*I15' = (E2 - 5*I15^2 - 2*I15*Delta15 - 13*Delta15^2 + 4*I3^2)*I15",
          lambda c: _D(c["I15"]).scale(12),
          lambda c: (c["E2"] - (c["I15"] * c["I15"]).scale(5)
                     - (c["I15"] * c["D15"]).scale(2) - (c["D15"] * c["D15"]).scale(13)
                     + (c["I3"] * c["I3"]).scale(4)) * c["I15"],
          note="source prints +I3^2; 4*I3^2 is the unique exact fit (printed form has constant term -3)"),
        R("f.2", "f", "12*Delta15' = (E2 + 13*I15^2 - 2*I15*Delta15 + 5*Delta15^2 - 2*I3^2)*Delta15",
          lambda c: _D(c["D15"]).scale(12),
          lambda c: (c["E2"] + (c["I15"] * c["I15"]).scale(13)
                     - (c["I15"] * c["D15"]).scale(2) + (c["D15"] * c["D15"]).scale(5)
                     - (c["I3"] * c["I3"]).scale(2)) * c["D15"]),
        R("f.3", "f", "12*D[I3(q^5)] = E2*I3(q^5) + I3*{4*I15^2 + 4*I15*Delta15 + 2*Delta15^2} - I3(q^5)*{5*I15^2 + 2*I15*Delta15 - 5*Delta15^2}",
          lambda c: _D(c["I3q5"]).scale(12),
          lambda c: c["E2"] * c["I3q5"]
          + c["I3"] * ((c["I15"] * c["I15"]).scale(4) + (c["I15"] * c["D15"]).scale(4)
                       + (c["D15"] * c["D15"]).scale(2))
          - c["I3q5"] * ((c["I15"] * c["I15"]).scale(5) + (c["I15"] * c["D15"]).scale(2)
                         - (c["D15"] * c["D15"]).scale(5)),
          note="source prints 4*I15 in the middle brace; 4*I15^2 is forced by weight bookkeeping"),
        R("f.4", "f", "I3^2 = 6*I15^2 + 6*Delta15^2 - 5*I3(q^5)^2",
          lambda c: c["I3"] * c["I3"],
          lambda c: (c["I15"] * c["I15"]).scale(6) + (c["D15"] * c["D15"]).scale(6)
          - (c["I3q5"] * c["I3q5"]).scale(5)),
        R("f.5", "f", "I3*I3(q^5) = I15^2 + 4*I15*Delta15 - Delta15^2",
          lambda c: c["I3"] * c["I3q5"],
          lambda c: c["I15"] * c["I15"] + (c["I15"] * c["D15"]).scale(4) - c["D15"] * c["D15"]),
        R("f.6", "f", "I3^3 = 6*I3*{I15^2 + Delta15^2} - 5*I3(q^5)*{I15^2 + 4*I15*Delta15 - Delta15^2}",
          lambda c: c["I3"] ** 3,
          lambda c: (c["I3"] * (c["I15"] * c["I15"] + c["D15"] * c["D15"])).scale(6)
          - (c["I3q5"] * (c["I15"] * c["I15"] + (c["I15"] * c["D15"]).scale(4)
                          - c["D15"] * c["D15"])).scale(5)),
        R("f.7", "f", "108*Delta3^3 = I3*{25*I15^2 - 2*I15*Delta15 - Delta15^2} - 5*I3(q^5)*{5*I15^2 + 8*I15*Delta15 + Delta15^2}",
          lambda c: (c["D3"] ** 3).scale(108),
          lambda c: c["I3"] * ((c["I15"] * c["I15"]).scale(25)
                               - (c["I15"] * c["D15"]).scale(2) - c["D15"] * c["D15"])
          - (c["I3q5"] * ((c["I15"] * c["I15"]).scale(5)
                          + (c["I15"] * c["D15"]).scale(8) + c["D15"] * c["D15"])).scale(5)),
        R("f.8", "f", "120*psi2^10 = 45*{I15^2 - 5*Delta15^2} - 6*I3*{14*I15 - 2*I15*Delta15 - 5*Delta15^2} + 3*I3(q^5)*{8*I15 + 64*Delta15 - 5*I3}",
          lambda c: (c["p2"] ** 10).scale(120),
          lambda c: (c["I15"] * c["I15"] - (c["D15"] * c["D15"]).scale(5)).scale(45)
          - (c["I3"] * (c["I15"].scale(14) - (c["I15"] * c["D15"]).scale(2)
                        - (c["D15"] * c["D15"]).scale(5))).scale(6)
          + (c["I3q5"] * (c["I15"].scale(8) + c["D15"].scale(64)
                          - c["I3"].scale(5))).scale(3),
          quarantined=True,
          note="braces mix weight-1 and weight-2 terms (14*I15, 8*I15 + 64*Delta15 - 5*I3); "
               "no principled single repair found, reported with residual"),
    ]

    # -- group g: level 20, q and q^5/q^4 arguments --------------------
    mix11 = lambda c: c["p1"] ** 10 - (c["p1"] ** 5 * c["p2"] ** 5).scale(11) - c["p2"] ** 10
    mix36 = lambda a, b: a ** 10 - (a ** 5 * b ** 5).scale(36) - b ** 10
    rels += [
        R("g.1", "g", "24*D[theta(q^5)] = theta(q^5)*{E2 + 4*psi1^10 + 4*psi2^10 - 5*theta(q^5)^4 + 400*Delta4(q^5)^4}",
          lambda c: _D(c["thq5"]).scale(24),
          lambda c: c["thq5"] * (c["E2"] + (c["p1"] ** 10 + c["p2"] ** 10).scale(4)
                                 - (c["thq5"] ** 4).scale(5) + (c["D4q5"] ** 4).scale(400)),
          note="source omits the factor 24 on the left; forced by the level-4 derivative relation at q^5"),
        R("g.2", "g", "24*D[Delta4(q^5)] = Delta4(q^5)*{E2 + 4*psi1^10 + 4*psi2^10 + 25*theta(q^5)^4 - 80*Delta4(q^5)^4}",
          lambda c: _D(c["D4q5"]).scale(24),
          lambda c: c["D4q5"] * (c["E2"] + (c["p1"] ** 10 + c["p2"] ** 10).scale(4)
                                 + (c["thq5"] ** 4).scale(25) - (c["D4q5"] ** 4).scale(80)),
          note="source omits the factor 24 on the left; forced by the level-4 derivative relation at q^5"),
        R("g.3", "g", "theta^5 = 80*theta*Delta4^4 - 5*theta*{psi1^10 + psi2^10} + 6*theta(q^5)*{psi1^10 - 11*psi1^5*psi2^5 - psi2^10}",
          lambda c: c["th"] ** 5,
          lambda c: (c["th"] * c["D4"] ** 4).scale(80)
          - (c["th"] * (c["p1"] ** 10 + c["p2"] ** 10)).scale(5)
          + (c["thq5"] * mix11(c)).scale(6),
          note="source prints psi1^5 + psi2^5; the 10th powers are forced by weight bookkeeping"),
        R("g.4", "g", "16*Delta4^5 = 5*Delta4*{theta^4 - psi1^10 - psi2^10} + 6*Delta4(q^5)*{psi1^10 - 11*psi1^5*psi2^5 - psi2^10}",
          lambda c: (c["D4"] ** 5).scale(16),
          lambda c: (c["D4"] * (c["th"] ** 4 - c["p1"] ** 10 - c["p2"] ** 10)).scale(5)
          + (c["D4q5"] * mix11(c)).scale(6),
          note="source omits the factor 16 on the left; forced by the leading coefficient"),
        R("g.5", "g", "40*Delta4^3*Delta4(q^5) = 5*theta^3*theta(q^5) + psi1^10 - 36*psi1^5*psi2^5 - psi2^10 - 6*{psi1(q^4)^10 - 36*psi1(q^4)^5*psi2(q^4)^5 - psi2(q^4)^10}",
          lambda c: (c["D4"] ** 3 * c["D4q5"]).scale(40),
          lambda c: (c["th"] ** 3 * c["thq5"]).scale(5) + mix36(c["p1"], c["p2"])
          - mix36(c["p1q4"], c["p2q4"]).scale(6)),
        R("g.6", "g", "48*psi1(q^4)^10 = 2*{5*psi1^10 + 36*psi1^5*psi2^5 + psi2^10} + 45*theta(q^5)^2*{theta(q^5)^2 + theta^2} - 2*theta*theta(q^5)*{135*theta(q^5)^2 + 71*theta^2} - 160*Delta4^3*Delta4(q^5) + 360*psi1(q^4)^5*psi1^5 - 504*psi2(q^4)^5*psi2^5",
          lambda c: (c["p1q4"] ** 10).scale(48),
          lambda c: ((c["p1"] ** 10).scale(5) + (c["p1"] ** 5 * c["p2"] ** 5).scale(36)
                     + c["p2"] ** 10).scale(2)
          + (c["thq5"] ** 2 * (c["thq5"] ** 2 + c["th"] ** 2)).scale(45)
          - (c["th"] * c["thq5"] * ((c["thq5"] ** 2).scale(135)
                                    + (c["th"] ** 2).scale(71))).scale(2)
          - (c["D4"] ** 3 * c["D4q5"]).scale(160)
          + (c["p1q4"] ** 5 * c["p1"] ** 5).scale(360)
          - (c["p2q4"] ** 5 * c["p2"] ** 5).scale(504)),
        R("g.7", "g", "48*psi2(q^4)^10 = 2*{psi1^10 - 36*psi1^5*psi2^5 + 5*psi2^10} + 45*theta(q^5)^2*{theta(q^5)^2 + theta^2} + 2*theta*theta(q^5)*{135*theta(q^5)^2 + 71*theta^2} + 160*Delta4^3*Delta4(q^5) - 504*psi1(q^4)^5*psi1^5 + 360*psi2(q^4)^5*psi2^5",
          lambda c: (c["p2q4"] ** 10).scale(48),
          lambda c: (c["p1"] ** 10 - (c["p1"] ** 5 * c["p2"] ** 5).scale(36)
                     + (c["p2"] ** 10).scale(5)).scale(2)
          + (c["thq5"] ** 2 * (c["thq5"] ** 2 + c["th"] ** 2)).scale(45)
          + (c["th"] * c["thq5"] * ((c["thq5"] ** 2).scale(135)
                                    + (c["th"] ** 2).scale(71))).scale(2)
          + (c["D4"] ** 3 * c["D4q5"]).scale(160)
          - (c["p1q4"] ** 5 * c["p1"] ** 5).scale(504)
          + (c["p2q4"] ** 5 * c["p2"] ** 5).scale(360)),
    ]
    return rels


RELATIONS: list[RelationRecord] = _catalog()

#: labels expected to fail verification, by design
QUARANTINED_LABELS = tuple(r.label for r in RELATIONS if r.quarantined)

#: default verification depth per group
GROUP_ORDERS = {"a": 50, "b": 50, "c": 50, "d": 50, "e": 25, "f": 25, "g": 25}


def get_relation(label: str) -> RelationRecord:
    for r in RELATIONS:
        if r.label == label:
            return r
    raise KeyError(f"unknown relation label {label!r}")


def verify_relation(r: RelationRecord, order: int,
                    ctx: Optional[dict] = None) -> dict:
    """Check one relation coefficient-by-coefficient up to q^order.

    Returns a report dict: {label, status, formula, note,
    first_bad_exponent?, residual?}.  Status is 'verified', 'failed', or
    'quarantined' (a quarantined relation is reported, never asserted).
    """
    if ctx is None:
        ctx = _context(order)
    lhs = r.lhs(ctx)
    rhs = r.rhs(ctx)
    if min(lhs.truncation, rhs.truncation) <= order:
        raise InsufficientOrder(
            f"{r.label}: operands only justified to q^{min(lhs.truncation, rhs.truncation)}")
    diff = lhs.truncate(order + Q(1, 2)).first_difference(rhs.truncate(order + Q(1, 2)))
    report = {"label": r.label, "formula": r.formula, "order": order}
    if r.note:
        report["note"] = r.note
    if diff is None:
        report["status"] = "quarantined-but-holds" if r.quarantined else "verified"
    else:
        e, a, b = diff
        report["status"] = "quarantined" if r.quarantined else "failed"
        report["first_bad_exponent"] = rat_str(e)
        report["residual"] = rat_str(a - b)
    return report


def verify_group(group: str, order: Optional[int] = None) -> list[dict]:
    if group not in GROUP_ORDERS:
        raise KeyError(f"unknown group {group!r}")
    order = order if order is not None else GROUP_ORDERS[group]
    ctx = _context(order)
    return [verify_relation(r, order, ctx) for r in RELATIONS if r.group == group]


def verify_all(orders: Optional[dict[str, int]] = None) -> list[dict]:
    out = []
    for g in "abcdefg":
        order = (orders or {}).get(g, GROUP_ORDERS[g])
        out.extend(verify_group(g, order))
    return out
