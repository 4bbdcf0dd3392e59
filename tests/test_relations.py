from dataclasses import replace
from fractions import Fraction

import pytest

from mldelab import relations
from mldelab.series import PuiseuxSeries


def test_catalog_shape():
    labels = [r.label for r in relations.RELATIONS]
    assert len(labels) == len(set(labels))
    groups = {r.label.split(".")[0] for r in relations.RELATIONS}
    assert groups == set("abcdefg")


def test_quarantine_is_exactly_documented():
    assert sorted(relations.QUARANTINED_LABELS) == ["e.5", "f.8"]


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
    e2 = relations.evaluate("E2", 10)
    assert relations.evaluate("E2(q^3)", 10).coefficient(3) == e2.coefficient(1)
    assert relations.evaluate("E2'", 10).coefficient(2) == 2 * e2.coefficient(2)
    assert relations.evaluate("D[E2(q^2)]", 10).coefficient(4) == 4 * e2.coefficient(2)
    one = PuiseuxSeries.one(10)
    assert relations.evaluate("E4/E4", 10) == relations.evaluate("psi1^(-1)*psi1", 10) == one
    assert relations.evaluate("(eta^(24/5))^5", 10) == relations.evaluate("eta^24", 10)
    assert relations.evaluate("∫[D[E4]] + 1", 10) == relations.evaluate("E4", 10)
    assert relations.evaluate("E4/2", 10) == relations.evaluate("E4", 10).scale(Fraction(1, 2))


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
