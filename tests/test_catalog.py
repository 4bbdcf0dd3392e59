import hashlib
import json
from fractions import Fraction as Fr
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mldelab import catalog, formula
from mldelab import forms as F
from mldelab.mlde import build_flat
from mldelab.series import InsufficientOrder, LogSeries, PuiseuxSeries, Q, rat_str


def test_entry_inventory():
    labels = catalog.labels()
    assert len(labels) == len(set(labels)) == 92
    sections = {catalog.entry(lb).section for lb in labels}
    assert len(sections) == 23


#: the 23 sections, in catalog order
SECTIONS = list(dict.fromkeys(e.section for e in catalog.ENTRIES.values()))


def test_unknown_label():
    with pytest.raises(catalog.UnknownLabel):
        catalog.entry("B.z.f0")
    with pytest.raises(catalog.UnknownLabel):
        catalog.build_entry("B.z.f0", 10)


def test_entries_match_their_digests():
    """Every entry at orders 0, 8 and 16 hashes as recorded: its base, grid,
    truncation and every coefficient are pinned, not only its printed
    prefix and its annihilation."""
    path = Path(__file__).parent / "data" / "catalog-entries.json"
    pinned = json.loads(path.read_text())
    assert sorted(pinned) == sorted(catalog.labels())
    for label, by_order in pinned.items():
        for n, digest in by_order.items():
            d = catalog.build_entry(label, int(n)).to_json_dict()
            got = hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()
            assert got == digest, (label, n)


def test_verify_all_clean(catalog_reports):
    failed = [r["label"] for r in catalog_reports if r["status"] == "failed"]
    assert failed == []
    assert len(catalog_reports) == 92


@pytest.mark.parametrize("order", range(9))
def test_verify_all_at_low_orders(order):
    # the printed prefixes (up to 7 coefficients) are checked at every order
    reports = catalog.verify_all(order)
    assert [r["status"] for r in reports] == ["verified"] * 92


def test_section_margins_are_derived():
    margins = {section: catalog.section_margin(section) for section in SECTIONS}
    assert {s: m for s, m in margins.items() if s.startswith("C.")} == {
        "C.a": 6, "C.b": 4, "C.c": 3, "C.d": 2, "C.e": 1, "C.f": 1}
    assert all(0 <= m <= 2 for s, m in margins.items() if s.startswith("B."))


@pytest.mark.parametrize("order", [0, 8])
def test_lead_semantics_gives_each_base(order):
    """The formulas read on leads give every entry the base exponent it is
    built with: its exponent less its lead gap."""
    for section in SECTIONS:
        built = catalog._build_section(section, catalog.section_build_order(section, order))
        gaps = catalog._lead_gaps(section)
        assert sorted(built) == sorted(label[len(section) + 1:] for label in gaps)
        for name, f in built.items():
            label = f"{section}.{name}"
            assert f.base == catalog.entry(label).exponent - gaps[label], label


def test_sections_index_the_entries_in_order():
    assert list(catalog.SECTIONS) == SECTIONS
    assert [e for es in catalog.SECTIONS.values() for e in es] == list(catalog.ENTRIES.values())
    assert all(e.section == section for section, es in catalog.SECTIONS.items() for e in es)


def test_plain_recipes_are_of_weight_zero():
    """A solution of the weight-0 family is of weight 0: each of the 68 B
    entries' recipes, tables and integrals included, carries weight 0
    alone.  The 24 C entries are depth-1 log pairs a*D(P)/eta^m +
    b*Q/eta^m and their companions, of naive weight 1 and -1;
    test_quasimodular_pairs_weigh_one_and_minus_one pins them."""
    read = 0
    for section in SECTIONS:
        if section.startswith("B."):
            weights = catalog._recipe(section, formula.Weights(catalog.polynomial))
            assert {name: w for name, w in weights.items() if w != {0}} == {}, section
            read += len(weights)
    assert read == 68


def test_weights_read_every_section():
    """Weights reads every entry of all 23 sections, the quasimodular pairs
    and their log companions included."""
    read = [name for section in SECTIONS
            for name in catalog._recipe(section, formula.Weights(catalog.polynomial))]
    assert len(read) == 92


#: the F entries of the quasimodular rows
QUASIMODULAR = [label for label, e in catalog.ENTRIES.items() if e.quasimodular]


def test_quasimodular_rows_weigh_as_their_eta_power():
    """A row's P weighs m/2 - 1, the weight its log companion's
    coefficient (m/2 - 1)*a is read at, and its Q weighs m/2 + 1, that of
    D(P), unless Q is P."""
    def weigh(text):
        return formula.evaluate(text, formula.Weights(catalog.polynomial))

    assert len(QUASIMODULAR) == 12
    for label in QUASIMODULAR:
        ptext, qtext, m = catalog.entry(label).quasimodular
        assert weigh(ptext) == {m / 2 - 1}, label
        if qtext != ptext:
            assert weigh(qtext) == {m / 2 + 1}, label


def test_quasimodular_pairs_weigh_one_and_minus_one():
    """Each F entry a*D(P)/eta^m + b*Q/eta^m weighs 1, and -1 too where
    Q is P (C.e and C.f); each G companion adds P/eta^m, of weight -1."""
    for section in (s for s in SECTIONS if s.startswith("C.")):
        weights = catalog._recipe(section, formula.Weights(catalog.polynomial))
        want_f = {1} if section < "C.e" else {-1, 1}
        assert len(weights) == 4
        for name, w in weights.items():
            assert w == (want_f if f"{section}.{name}" in QUASIMODULAR else {-1, 1}), name


@pytest.mark.parametrize("label, stored, printed", [
    ("B.e.f1/3", "/Delta3^2", ""),
    ("B.e.f2/15", "/Delta3^2", ""),
    ("B.i.f7/15", "*eta^(-28/5)", ""),
    ("B.m.f4/5", "eta^(-12)", "eta^(-22)"),
    ("B.n.f-4/5", "eta^(-96/5)", "eta^(-12)"),
])
def test_weight_forced_recipes(label, stored, printed):
    """Each note that says weight forces the recipe: the printed reading is
    not of weight 0, the stored one is."""
    e = catalog.entry(label)
    assert "weight forces it" in e.note and stored in e.formula
    for text, want in ((e.formula, True), (e.formula.replace(stored, printed), False)):
        got = formula.evaluate(text, formula.Weights(catalog.polynomial))
        assert (got == {0}) is want, text


def test_fit_steps_are_tight(monkeypatch):
    """One step fewer, the quasimodular fit finds no residual below its cut
    in any C section (at _FIT_STEPS every C entry verifies, as
    test_verify_all_at_low_orders shows)."""
    assert formula._FIT_STEPS == 2
    monkeypatch.setattr(formula, "_FIT_STEPS", 1)
    for section in (s for s in SECTIONS if s.startswith("C.")):
        with pytest.raises(ValueError):
            catalog._build_section.__wrapped__(section, catalog.section_build_order(section, 8))


@pytest.mark.parametrize("order", [8, 40])
def test_section_margins_are_tight(order):
    """One step below its margin, every section falls short of the order
    for at least one entry, and says so."""
    for section in SECTIONS:
        n = catalog.section_build_order(section, order) - 1
        reach = n + 1 - catalog.section_margin(section)
        short = 0
        for name, f in catalog._build_section(section, n).items():
            try:
                catalog._reaching(f"{section}.{name}", f, reach)
            except InsufficientOrder:
                short += 1
        assert short, section


def test_annihilation_reads_through_the_order(monkeypatch):
    # C.a.f0 leads five steps above its recipe's base, so its residual is
    # exact through q^(exponent + 10) once the operator is built to 15; one
    # step short, the verdict raises rather than reading a narrower window
    real = catalog.designated_operator
    monkeypatch.setattr(catalog, "designated_operator", lambda label, order: real(label, 15))
    assert catalog.verify_entry("C.a.f0", 10)["status"] == "verified"
    monkeypatch.setattr(catalog, "designated_operator", lambda label, order: real(label, 14))
    with pytest.raises(InsufficientOrder):
        catalog.verify_entry("C.a.f0", 10)


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


def test_three_entry_system_takes_the_double_root_log_solution():
    """Only B.c catalogues three solutions; the fourth is the Frobenius log
    solution at its double indicial root 0, so its system is not plain."""
    short = [s for s in catalog.catalogued_parameters() if len(catalog._system_labels(s)) < 4]
    assert short == [Q(-6, 5)]
    exponent, log = catalog.fundamental_system(Q(-6, 5), 10)[1]
    assert exponent == 0 and isinstance(log, LogSeries)
    assert not catalog.has_plain_system(Q(-6, 5))


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


def test_wronskian_of_a_shifted_system_is_not_constant(monkeypatch):
    # q times the top solution: W/eta^24 then leads at q^1, not at q^0,
    # and the report gives that lead with the verdict False
    real = catalog.fundamental_system

    def shifted(s, order):
        *rest, (e, f) = real(s, order)
        return rest + [(e + 1, f * PuiseuxSeries.q_power(1, order))]

    assert catalog.wronskian_over_eta24(Q(6, 5), 10)[1]
    monkeypatch.setattr(catalog, "fundamental_system", shifted)
    assert catalog.wronskian_over_eta24(Q(6, 5), 10) == (Q(1008, 15625), False)


def test_annihilation_failure_names_its_residual(monkeypatch):
    # B.f.f0 checked against flat(11/5) instead of flat(6/5): its prefix
    # still matches, and the residual at its exponent e is P(e), with P the
    # indicial polynomial of flat(11/5)
    monkeypatch.setattr(catalog, "designated_operator",
                        lambda label, order: build_flat(catalog.entry(label).s + 1, order))
    rep = catalog.verify_entry("B.f.f0")
    e = Q(-1, 10)
    residual = build_flat(Q(11, 5), 2).apply(PuiseuxSeries.q_power(e, 1)).coefficient(e)
    assert residual == Q(-139867, 41472000)
    assert rep["status"] == "failed"
    assert rep["prefix"] == "4 printed coefficients match"
    assert rep["detail"] == f"B.f.f0: operator residual {residual} at q^-1/10"
    assert (rep["first_bad_exponent"], rep["residual"]) == ("-1/10", rat_str(residual))


@pytest.mark.parametrize("order", [8, 25])
def test_wronskian_pads_are_tight(monkeypatch, order):
    """One step short on the system or on eta, every Wronskian falls short
    of the order it reads, and says so."""
    real = catalog._wronskian_pads
    padded = []
    for s in catalog.catalogued_parameters():
        if not catalog.has_plain_system(s):
            continue
        system_pad, eta_pad = real(s)
        shorter = [(system_pad, eta_pad - 1)]
        if system_pad:
            padded.append(s)
            shorter.append((system_pad - 1, eta_pad))
        for pads in shorter:
            monkeypatch.setattr(catalog, "_wronskian_pads", lambda s, pads=pads: pads)
            with pytest.raises(InsufficientOrder):
                catalog.wronskian_over_eta24(s, order)
        monkeypatch.setattr(catalog, "_wronskian_pads", real)
        assert catalog.wronskian_over_eta24(s, order)[1], s
    # B.b, B.e, B.g, B.i and B.j lose more to cancellation than their margin
    assert padded == [Q(-38, 5), Q(2, 5), Q(12, 5), Q(22, 5), Q(27, 5)]


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
    value = formula.Series(4, catalog.polynomial).table(name, ones)
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


# -- table evaluation against a term-by-term reference ----------------

def reference_evaluate(terms, values):
    """Sum of the terms, each a product of powers built by repeated
    multiplication (a power of one variable extends the next lower one)."""
    powers = [[None, v] for v in values]
    acc = None
    for coeff, exps in terms:
        term = None
        for pw, e in zip(powers, exps):
            while len(pw) <= e:
                pw.append(pw[-1] * pw[1])
            if e:
                term = pw[e] if term is None else term * pw[e]
        term = term.scale(coeff)
        acc = term if acc is None else acc + term
    return acc


def expansion(f):
    """(truncation, {exponent: nonzero coefficient}) of a series."""
    return f.truncation, {f.base + Fr(i, f.grid): c
                          for i, c in enumerate(f.coeffs) if c}


def recipe_arguments(n):
    """Every table name with the argument tuples the recipes pass it."""
    p1, p2 = F.psi1(n), F.psi2(n)
    i15, d15, i3 = F.form("I15", n), F.form("Delta15", n), F.form("I3", n)
    i3q5 = i3.substitute_power(5)
    th, thq5 = F.form("theta", n), F.form("theta", n).substitute_power(5)
    d4, d4q5 = F.form("Delta4", n), F.form("Delta4", n).substitute_power(5)
    level3 = (i15, d15, i3, i3q5)
    level3_neg = (-i15, -d15, i3, i3q5)
    level4 = (th, thq5, p1.substitute_power(4) ** 5, p2.substitute_power(4) ** 5,
              d4 ** 3 * d4q5)
    args = {"G1": [level3, (i15, d15, -i3, -i3q5)],
            "G4": [level3, level3_neg], "B.e.G": [level3, level3_neg],
            "G7": [(th, thq5, p1 ** 5, p2 ** 5)], "G8": [(th, thq5, p1 ** 5, p2 ** 5)],
            "G9": [level4], "G10": [level4]}
    for name in ("G2", "G3", "G5", "G6"):
        args[name] = [level3 + (p2 ** 5,)]
    for name in catalog.polynomial_names():
        if len(catalog.polynomial(name)["variables"]) == 2:
            args[name] = [(p1, p2), (p2, -p1)]
    return args


@pytest.mark.parametrize("n", [0, 5, 20])
def test_evaluate_polynomial_matches_reference(n):
    args = recipe_arguments(n)
    assert sorted(args) == sorted(catalog.polynomial_names())
    for name, tuples in args.items():
        terms = catalog.polynomial(name)["terms"]
        for values in tuples:
            got = formula.Series(n, catalog.polynomial).table(name, values)
            assert expansion(got) == expansion(reference_evaluate(terms, values)), name


small_series = st.builds(
    lambda base, grid, lead, tail: PuiseuxSeries.make(base, [lead] + tail, grid),
    st.fractions(min_value=-1, max_value=1, max_denominator=6),
    st.integers(1, 3),
    st.integers(-3, 3).filter(bool),
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5), max_size=6))


@st.composite
def binary_forms(draw):
    """Terms of a homogeneous binary form: any exponents of y, zero
    coefficients allowed, so a Horner sweep meets gaps and zero ends."""
    degree = draw(st.integers(1, 12))
    ys = draw(st.lists(st.integers(0, degree), min_size=1, max_size=6, unique=True))
    return [(draw(st.integers(-5, 5)), [degree - y, y]) for y in ys]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(binary_forms(), small_series, small_series)
def test_binary_form_matches_reference(terms, x, y):
    rec = {"degree": sum(terms[0][1]), "variables": ["x", "y"], "terms": terms}
    got = formula.Series(0, lambda name: rec).table("random", (x, y))
    want = reference_evaluate(terms, (x, y))
    (t_got, got_cs), (t_want, want_cs) = expansion(got), expansion(want)
    # the ratio carries the smaller relative precision of the two inputs
    # into every term, so the result may be cut earlier, never later
    if x.truncation - x.base == y.truncation - y.base:
        assert t_got == t_want
    assert t_got <= t_want
    assert got_cs == {e: c for e, c in want_cs.items() if e < t_got}


# -- derived scales against the constants they replaced ----------------

#: label -> (P, Q, eta power m, substituted at (psi2, -psi1), a, b): the
#: quasimodular recipes with the constants they once stored, which the
#: fit now derives.  "u" is the first variable itself, of degree 1.
STORED_CONSTANTS = {
    "C.a.f0": ("F1", "F2", Q(312, 5), False,
               Q(1, 2180493648693360), Q(1, 419325701671800)),
    "C.a.f4/5": ("F1", "F2", Q(312, 5), True,
                 Q(-1, 28346417433013680), Q(-1, 5451234121733400)),
    "C.b.f0": ("F3", "F4", Q(192, 5), True, Q(1, 4236824592), Q(1, 1324007685)),
    "C.b.f4/5": ("F3", "F4", Q(192, 5), False, Q(1, 50841895104), Q(1, 15888092220)),
    "C.c.f0": ("C.c.P", "C.c.Q", Q(132, 5), True, Q(1, 4396392), Q(1, 1998360)),
    "C.c.f4/5": ("C.c.P", "C.c.Q", Q(132, 5), False, Q(1, 48360312), Q(1, 21981960)),
    "C.d.f0": ("C.d.P", "C.d.Q", Q(72, 5), False, Q(1, 2604), Q(-1, 2170)),
    "C.d.f4/5": ("C.d.P", "C.d.Q", Q(72, 5), True, Q(-1, 23436), Q(1, 19530)),
    "C.e.f0": ("u", "u", Q(12, 5), True, Q(5), Q(0)),
    "C.e.f4/5": ("u", "u", Q(12, 5), False, Q(5, 3), Q(0)),
    "C.f.f0": ("C.f.P2", "C.f.P2", Q(48, 5), False, Q(5, 228), Q(0)),
    "C.f.f1/5": ("C.f.P1", "C.f.P1", Q(48, 5), False, Q(5, 912), Q(0)),
}


def rebuild_with_stored_constants(label, n):
    """(F, G) = (a*D(P)/eta^m + b*Q/eta^m, ell*F + a*(deg P/5)*P/eta^m)."""
    pname, qname, m, swapped, a, b = STORED_CONSTANTS[label]
    p1, p2 = F.psi1(n), F.psi2(n)
    u, v = (p2, -p1) if swapped else (p1, p2)

    def value(name):
        return u if name == "u" else formula.Series(n, catalog.polynomial).table(name, (u, v))

    degree = 1 if pname == "u" else catalog.polynomial(pname)["degree"]
    em = F.eta(n).pow(-m)
    p, q = value(pname), value(qname)
    f = p.euler_derivative() * em * a + q * em * b
    twelve_a = p * em * (a * Q(degree, 5))
    return f, LogSeries(twelve_a, f.truncate(twelve_a.truncation))


@pytest.mark.parametrize("order", [0, 8, 40])
def test_fit_reproduces_stored_constants(order):
    for label in STORED_CONSTANTS:
        section, _, short = label.rpartition(".")
        f, g = rebuild_with_stored_constants(
            label, catalog.section_build_order(section, order))
        assert catalog.build_entry(label, order) == f, label
        assert catalog.build_entry(f"{section}.g{short[1:]}", order) == g, label
