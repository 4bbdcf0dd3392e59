from fractions import Fraction as Fr

import pytest

from mldelab import catalog
from mldelab.series import LogSeries, PuiseuxSeries, Q


def test_entry_inventory():
    labels = catalog.labels()
    assert len(labels) == len(set(labels)) == 92
    sections = {catalog.entry(lb).section for lb in labels}
    assert len(sections) == 23


def test_unknown_label():
    with pytest.raises(catalog.UnknownLabel):
        catalog.entry("B.z.f0")
    with pytest.raises(catalog.UnknownLabel):
        catalog.build_entry("B.z.f0", 10)


def test_verify_all_clean(catalog_reports):
    failed = [r["label"] for r in catalog_reports if r["status"] == "failed"]
    assert failed == []
    assert len(catalog_reports) == 92


def test_spot_prefixes():
    # closed forms reproduce printed expansions at small order
    f = catalog.build_entry("B.f.f0", 6)
    e0 = f.leading()[0]
    assert e0 == Q(-1, 10)
    assert [f.coefficient(e0 + k) for k in range(4)] == [1, 8, 23, 68]
    g = catalog.build_entry("B.l.f0", 6)
    assert g.leading()[0] == Q(-19, 60)
    assert g.coefficient(Q(-19, 60) + 1) == 190


def test_log_entries_are_log_series():
    lbls = [lb for lb in catalog.labels() if catalog.entry(lb).operator == "log"]
    assert lbls
    f = catalog.build_entry(lbls[0], 8)
    assert isinstance(f, LogSeries)


def test_fundamental_systems_complete():
    params = catalog.catalogued_parameters()
    assert len(params) == 23
    for s in params:
        system = catalog.fundamental_system(s, 10)
        assert len(system) == 4
    with pytest.raises(catalog.NotInCandidateList):
        catalog.fundamental_system(Q(1, 7), 10)


def test_exponent_sums_are_one():
    for s in catalog.catalogued_parameters():
        if catalog.has_plain_system(s):
            assert catalog.exponent_sum(s) == 1


def test_wronskian_constant_over_eta24():
    for s in catalog.catalogued_parameters():
        if not catalog.has_plain_system(s):
            continue
        const, ok = catalog.wronskian_over_eta24(s, 25)
        assert ok, s
        assert const != 0
    # duality pairs share the constant
    c1, _ = catalog.wronskian_over_eta24(Q(-66, 5), 25)
    c2, _ = catalog.wronskian_over_eta24(Q(18), 25)
    assert c1 == c2 == Q(1152, 3125)


def test_remark_solutions_nonnegative_integer():
    assert catalog.REMARK_PARAMETERS == (
        Q(-33, 5), Q(-58, 5), Q(-108, 5), Q(-258, 5))
    s = Q(-33, 5)
    f = catalog.remark_solution(s, order=30)
    e0 = f.leading()[0]
    assert f.coefficient(e0) == 5
    for k in range(30):
        c = f.coefficient(e0 + k)
        assert c.denominator == 1 and c >= 0


def test_polynomial_store():
    names = catalog.polynomial_names()
    assert len(names) >= 30
    name = names[0]
    rec = catalog.polynomial(name)
    nvars = len(rec["variables"])
    assert rec["terms"]
    assert all(len(exps) == nvars for _, exps in rec["terms"])
    # evaluating at the constant series 1 sums the coefficients
    ones = [PuiseuxSeries.one(4) for _ in range(nvars)]
    value = catalog.evaluate_polynomial(name, ones)
    assert value.coefficient(0) == sum(Fr(c) for c, _ in rec["terms"])
    with pytest.raises(catalog.UnknownLabel):
        catalog.polynomial("nonesuch")


def test_designated_operators():
    aux_labels = [lb for lb in catalog.labels()
                  if catalog.entry(lb).operator == "aux3"]
    assert aux_labels
    op = catalog.designated_operator(aux_labels[0], 12)
    assert op.order == 3
    flat_label = "B.f.f0"
    assert catalog.designated_operator(flat_label, 12).order == 4


def test_verification_report_shape(catalog_reports):
    by_label = {r["label"]: r for r in catalog_reports}
    rep = by_label["B.f.f0"]
    assert rep["status"] == "verified"
