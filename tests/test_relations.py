from dataclasses import replace
from fractions import Fraction

import pytest

from mldelab import formula, relations
from mldelab.series import PuiseuxSeries, Q


def test_catalog_shape():
    labels = [r.label for r in relations.RELATIONS]
    assert len(labels) == len(set(labels))
    groups = {r.label.split(".")[0] for r in relations.RELATIONS}
    assert groups == set("abcdefg")


def test_quarantine_is_exactly_documented():
    assert sorted(relations.QUARANTINED_LABELS) == ["e.5", "f.8"]


def weights(r):
    """The sets of weights of a record's two sides, as evaluated."""
    return [formula.evaluate(text, formula.Weights()) for text in r.sides]


def test_quarantine_is_derived_from_the_weights():
    """Every relation equates forms of one weight, except e.5 and f.8:
    e.5's right-hand side (as evaluated) also carries the weight-16/5 term
    10*H2(q^5)*{... - 2*psi1(q^2)*psi2(q^2)^5 ...}, and f.8's braces mix
    weights 1 and 2."""
    assert relations.QUARANTINED_LABELS == ("e.5", "f.8")
    assert "QUARANTINED_LABELS" not in vars(relations)  # derived, not stored
    inhomogeneous = {r.label: weights(r) for r in relations.RELATIONS if r.quarantined}
    assert inhomogeneous == {"e.5": [{4}, {Q(16, 5), 4}], "f.8": [{2}, {2, 3}]}
    for r in relations.RELATIONS:
        if not r.quarantined:
            lhs, rhs = weights(r)
            assert lhs == rhs and len(lhs) == 1, r.label


def test_no_record_types_a_quarantine():
    with pytest.raises(TypeError):
        relations.RelationRecord("z.1", "E4 = E4", quarantined=True)
    assert relations.RelationRecord("z.1", "E4 = H2^2 + Delta2^2").quarantined is False
    assert relations.RelationRecord("z.1", "E4 = H2^2 + I3").quarantined is True


def test_weights_are_read_once_per_record(monkeypatch):
    built = []

    class Counted(formula.Weights):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(formula, "Weights", Counted)
    r = relations.RelationRecord("z.1", "E4 = H2^2 + 192*Delta2^2")
    assert [relations.verify_relation(r, 5)["status"] for _ in range(3)] == ["verified"] * 3
    assert len(built) == 2  # one per side, on the first verification only


@pytest.mark.parametrize("label, stored, printed", [
    ("f.3", "{4*I15^2 + 4*I15*Delta15", "{4*I15 + 4*I15*Delta15"),
    ("g.3", "{psi1^10 + psi2^10}", "{psi1^5 + psi2^5}"),
])
def test_weight_forced_repairs(label, stored, printed):
    """The notes of f.3 and g.3 say weight bookkeeping forces the stored
    reading: the printed one is not homogeneous, the stored one is."""
    r = relations.get_relation(label)
    assert stored in r.formula and "weight" in r.note
    assert not r.quarantined
    assert replace(r, formula=r.formula.replace(stored, printed)).quarantined


def test_all_relations(relation_reports):
    failed = [r["label"] for r in relation_reports if r["status"] == "failed"]
    assert failed == []
    quarantined = sorted(r["label"] for r in relation_reports
                         if r["status"].startswith("quarantined"))
    assert quarantined == ["e.5", "f.8"]
    verified = [r for r in relation_reports if r["status"] == "verified"]
    assert len(verified) == len(relation_reports) - 2


def test_group_orders():
    assert all(relations.GROUP_ORDERS[g] == 50 for g in "abcd")
    assert all(relations.GROUP_ORDERS[g] == 25 for g in "efg")


def test_single_relation_and_lookup():
    r = relations.get_relation("a.1")
    rep = relations.verify_relation(r, 30)
    assert rep["status"] == "verified"
    with pytest.raises(KeyError):
        relations.get_relation("z.9")


def test_mutated_relation_fails_with_its_residual():
    a2 = relations.get_relation("a.2")
    mutant = replace(a2, formula=a2.formula.replace("192", "193"))
    rep = relations.verify_relation(mutant, 10)
    assert rep["status"] == "failed"
    assert (rep["first_bad_exponent"], rep["residual"]) == ("1", "-1")


def test_evaluator_reads_substitution_and_derivative():
    def evaluate(text):
        return formula.evaluate(text, formula.Series(10))

    e2 = evaluate("E2")
    assert evaluate("E2(q^3)").coefficient(3) == e2.coefficient(1)
    assert evaluate("E2'").coefficient(2) == 2 * e2.coefficient(2)
    assert evaluate("D[E2(q^2)]").coefficient(4) == 4 * e2.coefficient(2)
    one = PuiseuxSeries.one(10)
    assert evaluate("E4/E4") == evaluate("psi1^(-1)*psi1") == one
    assert evaluate("(eta^(24/5))^5") == evaluate("eta^24")
    assert evaluate("∫[D[E4]] + 1") == evaluate("E4")
    assert evaluate("E4/2") == evaluate("E4").scale(Fraction(1, 2))


@pytest.mark.parametrize("formula, token", [
    ("E4 = H2^2 + 192*Delta9^2", "'Delta9'"),
    ("E4 = {H2^2 + 192*Delta2^2", "'}'"),
    ("E4 = H2^2 + 192*Delta2^2 H2", "'H2'"),
    ("E4 = H2^x", "'x'"),
    ("E4 = H2^2 + 192*Delta2(1)^2", "'1'"),
    ("E4", "'E4'"),
    ("E4 = E4 = E4", "'E4 = E4 = E4'"),
    ("E4 = G1(H2, H2)", "'G1'"),
    ("E4 = H2^(2/)", r"'\)'"),
    ("E4 = H2^(1/0)", "zero denominator in ' H2\\^\\(1/0\\)'"),
    ("E4 = log(6, x)", "'x'"),
    ("E4 = D[6]", "constant 6 in ' D\\[6\\]'"),
])
def test_malformed_formula_names_its_token(formula, token):
    with pytest.raises(ValueError, match=token):
        relations.verify_relation(relations.RelationRecord("z.1", formula), 10)
