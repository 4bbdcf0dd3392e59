import pytest

from mldelab import formula, relations
from mldelab import forms as F
from mldelab.series import Q


def test_eisenstein_prefixes():
    e2 = F.eisenstein_e2(4)
    assert [e2.coefficient(k) for k in range(4)] == [1, -24, -72, -96]
    e4 = F.eisenstein_e4(4)
    assert [e4.coefficient(k) for k in range(3)] == [1, 240, 2160]
    e6 = F.eisenstein_e6(3)
    assert [e6.coefficient(k) for k in range(3)] == [1, -504, -16632]


def test_e8_is_e4_squared():
    # E8 comes from the sigma_7 sieve, E4^2 from a product
    for n in range(61):
        assert F.eisenstein_e8(n) == F.eisenstein_e4(n) * F.eisenstein_e4(n), n


def test_partition_product_inverts_eta():
    for n in range(61):
        assert F.partition_product({0, 1, 2, 3, 4}, n) == \
            F.eta(n).shift(Q(-1, 24)).invert(), n


def test_eta_and_quotients():
    eta = F.eta(6)
    assert eta.leading() == (Q(1, 24), 1)
    assert eta.coefficient(Q(1, 24) + 1) == -1
    # 1/eta has partition-number coefficients
    inv = F.eta(8).pow(-1)
    assert [inv.coefficient(-Q(1, 24) + k) for k in range(6)] == [1, 1, 2, 3, 5, 7]


def test_level2_forms():
    h2 = F.form("H2", 5)
    assert [h2.coefficient(k) for k in range(4)] == [1, 24, 24, 96]
    d2 = F.form("Delta2", 5)
    assert d2.leading() == (Q(1, 2), 1)


def test_level3_and_4_forms():
    assert F.form("I3", 4).coefficient(0) == 1
    assert F.form("Delta3", 4).leading()[0] == Q(1, 3)
    th = F.form("theta", 5)
    assert [th.coefficient(k) for k in range(5)] == [1, 2, 0, 0, 2]
    assert F.form("Delta4", 4).leading()[0] == Q(1, 4)


def test_level5_forms_integrality():
    # the forms themselves carry an eta^(2/5) factor, so integrality is
    # only expected for their fifth powers
    for name in ("psi1", "psi2"):
        f = F.form(name, 30).pow(5)
        e0 = f.leading()[0]
        for k in range(25):
            c = f.coefficient(e0 + k)
            assert c.denominator == 1
    assert F.psi1(4).leading() == (0, 1)
    assert F.psi2(4).leading() == (Q(1, 5), 1)


def test_level15_forms():
    assert F.form("I15", 3).coefficient(0) == 1
    assert F.form("Delta15", 3).leading()[0] == 1


#: name -> (weight, level) of every registry row
WEIGHTS_AND_LEVELS = {
    "E2": (2, 1), "E4": (4, 1), "E6": (6, 1), "E8": (8, 1), "eta": (Q(1, 2), 1),
    "H2": (2, 2), "Delta2": (2, 2),
    "I3": (1, 3), "Delta3": (1, 3),
    "theta": (Q(1, 2), 4), "Delta4": (Q(1, 2), 4),
    "psi1": (Q(1, 5), 5), "psi2": (Q(1, 5), 5),
    "I15": (1, 15), "Delta15": (1, 15),
}


def test_registry_derives_weights_and_levels():
    assert {name: (row.weight, row.level) for name, row in F.REGISTRY.items()} \
        == WEIGHTS_AND_LEVELS
    assert {name: (weight, level) for name, (_, weight, level) in F.FORM_TABLE.items()} \
        == {name: wl for name, wl in WEIGHTS_AND_LEVELS.items() if wl[1] > 1}


@pytest.mark.parametrize("order", [0, 3, 10])
def test_forms_are_exact_past_order(order):
    """Every form is exact at least order + 1 steps past its base, and an
    eta quotient min(m) * (order + 1): Delta4 at order 10 reaches 22."""
    for name, row in F.REGISTRY.items():
        f = F.form(name, order)
        steps = min(row.factors) if isinstance(row, F.EtaQuotient) else 1
        assert f.truncation - f.base == steps * (order + 1), name


@pytest.mark.parametrize("built, asked", [(0, 0), (1, 0), (12, 5), (30, 0), (41, 40), (60, 25)])
def test_lower_order_form_is_the_highest_build_cut(monkeypatch, built, asked):
    """A form asked for below the highest order built so far is that build
    truncated, and equals a direct build at the lower order."""
    monkeypatch.setattr(F, "_BUILT", {})
    for name, row in F.REGISTRY.items():
        F.form(name, built)
        assert F.form(name, asked) == row.build(asked), name


def test_lower_order_form_builds_nothing(monkeypatch):
    monkeypatch.setattr(F, "_BUILT", {})
    for name in F.REGISTRY:
        F.form(name, 20)

    def refuse(row, order):
        raise AssertionError(f"built {row} at {order}")

    for kind in (F.DivisorSum, F.EtaQuotient, F.Psi, F.Theta):
        monkeypatch.setattr(kind, "build", refuse)
    for name in F.REGISTRY:
        for order in (20, 7, 0):
            F.form(name, order)


def test_e8_is_a_formula_atom():
    assert formula.evaluate("E8 - E4^2", formula.Series(12)).is_zero_to_truncation()
    assert formula.evaluate("E8", formula.Weights()) == {8}


def test_form_lookup():
    assert F.form("theta", 5).leading() == (0, 1)
    with pytest.raises(KeyError):
        F.form("nonesuch", 5)
    assert set(F.FORM_TABLE) == {"H2", "Delta2", "I3", "Delta3", "theta",
                                 "Delta4", "psi1", "psi2", "I15", "Delta15"}


#: the printed eta-quotient exponents {m: e} of prod eta(q^m)^e
ETA_QUOTIENTS = {
    "Delta2": {2: 8, 1: -4},
    "Delta3": {3: 3, 1: -1},
    "Delta4": {4: 2, 2: -1},
    "I15": {3: 2, 5: 2, 1: -1, 15: -1},
    "Delta15": {1: 2, 15: 2, 3: -1, 5: -1},
}


@pytest.mark.parametrize("name", sorted(ETA_QUOTIENTS))
def test_eta_quotient_forms_weigh_half_their_exponents(name):
    builder, weight, _ = F.FORM_TABLE[name]
    assert builder(12) == F.eta_quotient(ETA_QUOTIENTS[name], 12)
    assert weight == Q(sum(ETA_QUOTIENTS[name].values()), 2)


def test_form_weights_consistent():
    """The table weights make E4 at levels 2, 3, 4 and 5 a homogeneous
    polynomial of weight 4 in the level's two forms, so with the
    eta-quotient weights above they pin the weight of every form."""
    levels = {}
    for name, (builder, weight, level) in F.FORM_TABLE.items():
        assert weight > 0 and builder(5).grid >= 1
        levels.setdefault(level, set()).add(name)
    assert levels == {2: {"H2", "Delta2"}, 3: {"I3", "Delta3"}, 4: {"theta", "Delta4"},
                      5: {"psi1", "psi2"}, 15: {"I15", "Delta15"}}
    for label in ("a.2", "b.2", "c.2", "d.3"):
        lhs, rhs = relations.get_relation(label).sides
        assert lhs.strip() == "E4"
        assert formula.evaluate(rhs, formula.Weights()) == {4}, label
