import dataclasses
from fractions import Fraction as Fr
from itertools import product
from math import ceil, floor, isqrt, lcm

import pytest
from hypothesis import given, settings, strategies as st

from mldelab import characters as ch
from mldelab import forms as F
from mldelab.mlde import build_flat, flat_indicial_roots, frobenius_solve
from mldelab.series import PuiseuxSeries, Q, rat_str


def test_minimal_character_weights():
    assert set(ch.MINIMAL_WEIGHTS) == {Fr(0), Fr(-1, 20), Fr(3, 4), Fr(1, 5)}
    with pytest.raises(ch.UnknownWeight):
        ch.minimal_character(Q(1, 2), 10)


def test_minimal_character_fixtures():
    mc = ch.minimal_character(Q(-1, 20), 10)
    e0 = mc.leading()[0]
    assert e0 == Q(-1, 40)                      # h - c/24
    assert [mc.coefficient(e0 + k) for k in range(5)] == [1, 1, 1, 2, 3]
    vac = ch.minimal_character(0, 10)
    assert vac.leading() == (Q(1, 40), 1)
    assert vac.coefficient(Q(1, 40) + 1) == 0   # no weight-1 state


def test_minimal_characters_count_states():
    for h in ch.MINIMAL_WEIGHTS:
        f = ch.minimal_character(h, 50)
        e0 = f.leading()[0]
        for k in range(50):
            c = f.coefficient(e0 + k)
            assert c.denominator == 1 and c >= 0


def test_lattice_theta_fixtures():
    th = ch.lattice_theta(ch.lattice([[2]]), 6)
    assert [th.coefficient(k) for k in range(6)] == [1, 2, 0, 0, 2, 0]
    th6 = ch.lattice_theta(ch.lattice([[6]], [Q(1, 6)]), 3)
    assert th6.leading() == (Q(1, 12), 1)
    # diagonal rank-3 form is the cube of the rank-1 theta
    cube = ch.lattice_theta(ch.lattice([[2], ], None), 8)
    cube = cube * cube * cube
    th3 = ch.lattice_theta(ch.lattice([[2, 0, 0], [0, 2, 0], [0, 0, 2]]), 6)
    t = min(cube.truncation, th3.truncation, 6)
    assert (cube.truncate(t) - th3.truncate(t)).is_zero_to_truncation()


#: odd and even Gram matrices with offsets whose norms/2 step by 1/2, 1/3,
#: 1/4, 1/6 or 1/12
HONEST_THETA_LATTICES = [
    ([[1]], None), ([[3]], None), ([[5]], None), ([[1, 0], [0, 3]], None),
    ([[2]], [Q(1, 3)]), ([[6]], [Q(1, 6)]), ([[2, -1], [-1, 2]], [Q(1, 3), Q(2, 3)]),
    ([[3, 1], [1, 3]], [Q(1, 2), 0]), ([[2, 0], [0, 4]], [Q(1, 2), Q(1, 4)]),
]


@pytest.mark.parametrize("gram, offset", HONEST_THETA_LATTICES)
def test_lattice_theta_truncation_is_honest(gram, offset):
    """Every coefficient a theta claims, on or off its grid, is the one a
    longer enumeration finds, and the claim reaches past its order."""
    lat = ch.lattice(gram, offset)
    full = ch.lattice_theta(lat, 10)
    for k in range(ceil(full.base), 7):
        th = ch.lattice_theta(lat, k)
        assert th.truncation > k, (gram, k)
        step = Q(1, lcm(th.grid, full.grid))
        e = th.base
        while e < th.truncation:
            assert th.coefficient(e) == full.coefficient(e), (gram, k, e)
            e += step


def test_not_positive_definite():
    with pytest.raises(ch.NotPositiveDefinite):
        ch.lattice_theta(ch.lattice([[0]]), 3)
    with pytest.raises(ch.NotPositiveDefinite):
        ch.lattice_theta(ch.lattice([[2, 3], [3, 2]]), 3)


def test_lattice_voa_character_exponents():
    chi0 = ch.lattice_voa_character(ch.lattice([[6]]), 8)
    assert chi0.leading()[0] == Q(-1, 24)
    chi3 = ch.lattice_voa_character(ch.lattice([[6]], [Q(1, 2)]), 8)
    assert chi3.leading()[0] == Q(3, 4) - Q(1, 24)


def test_assemble_fusion_pairing():
    assert ch.FUSION_WITH_3_4 == {
        Fr(0): Fr(3, 4), Fr(3, 4): Fr(0),
        Fr(-1, 20): Fr(1, 5), Fr(1, 5): Fr(-1, 20)}
    with pytest.raises(ch.UnknownWeight):
        ch.assemble_L_character(None, None, Q(1, 3))


def test_deligne_table_invariants():
    table = ch.deligne_table()
    assert [d.name for d in table] == [
        "A1", "A2", "G2", "D4", "F4", "E6", "E7", "E8",
        "formal24", "formal3/2"]
    by_name = {d.name: d for d in table}
    assert by_name["A2"].s == Q(2, 5)
    assert by_name["E8"].s == Q(32, 5)
    assert by_name["formal24"].s == 6
    assert by_name["formal3/2"].s == Q(-6, 5)
    dims = {"A1": 3, "A2": 8, "G2": 14, "D4": 28, "F4": 52,
            "E6": 78, "E7": 133, "E8": 248}
    for name, dim in dims.items():
        d = by_name[name]
        assert d.dim_g == dim
        assert d.central_charge_W == d.s
        # exponents sit among the indicial roots
        assert set(d.ramond_exponents) <= set(flat_indicial_roots(d.s))


def test_exponent_tables():
    by_name = {d.name: d for d in ch.deligne_table()}
    expect = {
        "A2": ((-1, 15), (1, 15), (4, 15), (11, 15)),
        "G2": ((-1, 10), (1, 10), (3, 10), (7, 10)),
        "D4": ((-3, 20), (3, 20), (7, 20), (13, 20)),
        "F4": ((-1, 5), (1, 5), (2, 5), (3, 5)),
        "E6": ((-7, 30), (7, 30), (13, 30), (17, 30)),
        "E7": ((-11, 40), (11, 40), (19, 40), (21, 40)),
        "E8": ((-19, 60), (29, 60)),
    }
    for name, exps in expect.items():
        assert by_name[name].ramond_exponents == tuple(Fr(*e) for e in exps)


def test_construction_unavailable_for_non_lattice_cases():
    for name in ("G2", "F4"):
        with pytest.raises(ch.CharacterConstructionUnavailable):
            ch.ramond_character_basis(name, 5)


def test_verify_all_cases(character_reports):
    for name, rep in character_reports.items():
        assert rep["status"] == "verified", (name, rep)
    assert {"formal24", "formal3/2"} <= set(character_reports)


def test_formal_branch_needs_one_counting_solution():
    # at s = -6/5 the solution at the root 1/5 belongs to the second-order
    # factor: no integer rescale makes it count, so the branch takes `any`
    s, r = Q(-6, 5), Q(1, 5)
    assert r in flat_indicial_roots(s)
    f = frobenius_solve(build_flat(s, 26), r, 25)
    assert ch._non_counting_after_rescale(f) is not None


def test_denominators_must_settle_within_six_terms():
    # one integer rescale, fixed by the first six terms, must clear every
    # denominator: a 7 first met at the seventh term is a verdict, though
    # rescaling by the whole series' denominator would hide it
    late = PuiseuxSeries.make(Q(1, 5), [1, 2, 3, 4, 5, 6, Q(1, 7), 8])
    assert ch._non_counting_after_rescale(late) == (Q(1, 5) + 6, Q(1, 7))
    early = PuiseuxSeries.make(Q(1, 5), [Q(1, 2), Q(1, 3), 1, 2, 3, 5, 7, Q(5, 6)])
    assert ch._non_counting_after_rescale(early) is None
    assert ch._non_counting_after_rescale(early.scale(-1)) == (Q(1, 5), -3)


def test_failed_report_names_its_residual(monkeypatch):
    # the A2 characters checked against flat(7/5) instead of flat(2/5): the
    # residual at the first character's exponent is P(e), with P the
    # indicial polynomial of flat(7/5)
    monkeypatch.setattr(ch, "build_flat", lambda s, order: build_flat(s + 1, order))
    rep = ch.verify_case("A2", 10)
    e = Q(-1, 15)
    residual = build_flat(Q(7, 5), 2).apply(PuiseuxSeries.q_power(e, 1)).coefficient(e)
    assert rep["status"] == "failed"
    assert rep["first_bad_exponent"] == "-1/15"
    assert rep["residual"] == rat_str(residual) != "0"


@pytest.mark.parametrize("fault, detail, bad", [
    # the first character halved: annihilated, and the series solution once
    # scaled, but its leading multiplicity 1/2 counts no states
    (lambda b: [(b[0][0], b[0][1].scale(Q(1, 2)))] + b[1:],
     "character at -1/15 has non-counting coefficients", ("-1/15", "1/2")),
    # the first two characters summed: annihilated, but the second's lead
    # at q^(1/15) is no term of the series solution at -1/15
    (lambda b: [(b[0][0], b[0][1] + b[1][1])] + b[1:],
     "character at -1/15 differs from series solution", ("1/15", "1")),
    # the first character dropped: three exponents against four tabulated
    (lambda b: b[1:], "exponents [Fraction(1, 15), Fraction(4, 15), Fraction(11, 15)] != "
     "tabulated (Fraction(-1, 15), Fraction(1, 15), Fraction(4, 15), Fraction(11, 15))", None),
])
def test_faulty_basis_fails_the_report(fault, detail, bad):
    rep = ch.verify_case("A2", 10, fault(ch.ramond_character_basis("A2", 10)))
    assert rep["status"] == "failed"
    assert rep["detail"] == detail
    assert (rep.get("first_bad_exponent"), rep.get("residual")) == (bad or (None, None))


def test_exponent_only_case_fails_off_its_parameter(monkeypatch):
    # G2 read at s + 1 = 11/5: its roots leave the tabulated exponents, and
    # the solution at its first root meets a denominator 331 at the seventh
    # term, past the six that fix the integer rescale
    d = ch.datum("G2")
    monkeypatch.setattr(ch, "datum", lambda name: dataclasses.replace(d, s=d.s + 1))
    rep = ch.verify_case("G2", 10)
    assert rep["status"] == "failed"
    assert (rep["exponents_match"], rep["cft_type"]) == (False, False)
    assert rep["detail"] == "solution at -17/120 has non-counting coefficients"
    assert (rep["first_bad_exponent"], rep["residual"]) == ("703/120", "5106939627281245/331")


def test_verify_reads_through_the_order(monkeypatch):
    # a term at q^(e + order) lies inside the window of a report at that
    # order, so a character that carries one fails the check
    order = 10
    (e, chi), *rest = ch.ramond_character_basis("A2", order)
    bumped = chi + PuiseuxSeries.q_power(e + order, 0)
    monkeypatch.setattr(ch, "ramond_character_basis", lambda name, order: [(e, bumped)] + rest)
    rep = ch.verify_case("A2", order)
    assert rep["status"] == "failed"
    assert rep["first_bad_exponent"] == rat_str(e + order)


def test_a2_small_prefixes():
    basis = ch.ramond_character_basis("A2", 6)
    by_exp = {e: chi for e, chi in basis}
    chi = by_exp[Q(-1, 15)]
    assert [chi.coefficient(Q(-1, 15) + k) for k in range(5)] == [1, 4, 8, 20, 37]


# -- the integer elimination against a Fraction LDL --------------------

def _ldl(gram):
    """(unit lower triangular L, positive diagonal D) with G = L D L^T, by
    the textbook Fraction recurrence: an oracle that shares no code with
    the package's integer elimination."""
    n = len(gram)
    L = [[Fr(int(i == j)) for j in range(n)] for i in range(n)]
    d = [Fr(0)] * n
    for j in range(n):
        d[j] = Fr(gram[j][j]) - sum(L[j][k] ** 2 * d[k] for k in range(j))
        assert d[j] > 0, f"pivot {j} is {d[j]}"
        for i in range(j + 1, n):
            L[i][j] = (Fr(gram[i][j])
                       - sum(L[i][k] * L[j][k] * d[k] for k in range(j))) / d[j]
    return L, d


def _coweight(gram, node):
    """The solution x of gram * x = e_node, by substitution through _ldl."""
    L, d = _ldl(gram)
    n = len(gram)
    y = [Fr(0)] * n
    for i in range(n):                       # L y = e_node
        y[i] = Fr(int(i == node - 1)) - sum(L[i][k] * y[k] for k in range(i))
    x = [Fr(0)] * n
    for i in reversed(range(n)):             # L^T x = D^-1 y
        x[i] = y[i] / d[i] - sum(L[k][i] * x[k] for k in range(i + 1, n))
    return x


def _factors_of(a):
    """L and D read off the elimination: D_k = Delta_{k+1} / Delta_k and
    L_ik = a[i][k] / Delta_{k+1}, with Delta_{k+1} = a[k][k]."""
    n = len(a)
    delta = [1] + [a[k][k] for k in range(n)]
    L = [[Fr(a[i][k], delta[k + 1]) if k < i else Fr(int(i == k))
          for k in range(n)] for i in range(n)]
    return L, [Fr(delta[k + 1], delta[k]) for k in range(n)]


def _cartan_E8():
    # Bourbaki: chain 1-3-4-5-6-7-8 with node 2 attached to node 4
    g = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
    for a, b in [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)]:
        g[a - 1][b - 1] = g[b - 1][a - 1] = -1
    return g


def _case_grams():
    grams = {name: ch._case_data(name)[0] for name in ("A2", "D4", "E6", "E7", "E8")}
    grams["E8 Cartan"] = _cartan_E8()
    return grams


@pytest.mark.parametrize("name, gram", _case_grams().items())
def test_bareiss_matches_the_fraction_ldl(name, gram):
    assert _factors_of(ch.bareiss(gram)) == _ldl(gram)


@st.composite
def _gram_btb_plus_one(draw):
    """B^T B + I for a small integer B of rank 1-7: positive definite."""
    n = draw(st.integers(1, 7))
    b = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
    return [[sum(b[k][i] * b[k][j] for k in range(n)) + (i == j)
             for j in range(n)] for i in range(n)]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_gram_btb_plus_one())
def test_bareiss_matches_the_fraction_ldl_on_random_grams(gram):
    assert _factors_of(ch.bareiss(gram)) == _ldl(gram)
    for node in range(1, len(gram) + 1):
        assert ch.fundamental_coweight(gram, node) == _coweight(gram, node)


@pytest.mark.parametrize("name, gram", _case_grams().items())
def test_coweights_solve_the_gram_system(name, gram):
    n = len(gram)
    for node in range(1, n + 1):
        w = ch.fundamental_coweight(gram, node)
        assert all(isinstance(x, Fr) for x in w)
        assert [sum(g * x for g, x in zip(row, w)) for row in gram] \
            == [int(i == node - 1) for i in range(n)], (name, node)
        assert w == _coweight(gram, node)


def test_singular_gram_fails_at_its_zero_minor():
    # the affine A2 Cartan matrix: minors 2, 3, 0
    affine = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    for build in (lambda: ch.bareiss(affine),
                  lambda: ch.lattice_theta(ch.lattice(affine), 3),
                  lambda: ch.fundamental_coweight(affine, 1)):
        with pytest.raises(ch.NotPositiveDefinite, match="^pivot 2 is 0$"):
            build()


# -- the level sweep against independent enumerators ------------------

def _recursive_counts(lat, order):
    """{Q(v)/2: multiplicity} by the depth-first branch-and-bound that the
    level sweep replaced: one leaf per vector, centres re-summed per node."""
    L, d = _ldl(lat.gram)
    n = lat.rank
    c = list(lat.coset_offset)
    M = lcm(*(x.denominator for x in c), 1)
    Lam = lcm(*(L[j][i].denominator for i in range(n) for j in range(i + 1, n)),
              1)
    ML = M * Lam
    K = lcm(*(di.denominator for di in d)) * ML * ML
    P = [int(di * K) // (ML * ML) for di in d]
    base_off = [int(ML * ci) for ci in c]
    cols = [[int(Lam * L[j][i]) for j in range(i + 1, n)] for i in range(n)]
    counts = {}

    def descend(i, rem, shifted, acc):
        t = base_off[i] + sum(f * s for f, s in zip(cols[i], shifted))
        base = -((t + ML - 1) // ML)
        for start, step in ((base, -1), (base + 1, 1)):
            x = start
            while True:
                y = x * ML + t
                cost = P[i] * y * y
                if cost > rem:
                    break
                if i == 0:
                    counts[acc + cost] = counts.get(acc + cost, 0) + 1
                else:
                    descend(i - 1, rem - cost,
                            [x * M + base_off[i] // Lam] + shifted, acc + cost)
                x += step

    descend(n - 1, 2 * order * K, [], 0)
    return {Q(e, 2 * K): k for e, k in counts.items()}


def _box_counts(gram, offset, order):
    """{Q(v)/2: multiplicity} over a box that holds every v = x + offset
    with Q(v) <= 2*order: |v_i|^2 <= 2*order * (G^-1)_ii."""
    n = len(gram)
    counts = {}
    ranges = []
    for i in range(n):
        r2 = 2 * order * _coweight(gram, i + 1)[i]
        r = isqrt(floor(r2)) + 1
        ranges.append(range(ceil(-r - offset[i]), floor(r - offset[i]) + 1))
    for x in product(*ranges):
        v = [xi + ci for xi, ci in zip(x, offset)]
        e = sum(gram[i][j] * v[i] * v[j] for i in range(n) for j in range(n)) / 2
        if e <= order:
            counts[e] = counts.get(e, 0) + 1
    return counts


def _theta_counts(theta):
    return {theta.base + Q(i, theta.grid): c
            for i, c in enumerate(theta.coeffs) if c}


@pytest.mark.parametrize("name", ["A2", "D4", "E6", "E7", "E8"])
def test_sweep_matches_recursive_enumeration(name):
    gram, cosets, _ = ch._case_data(name)
    for c in cosets:
        lat = ch.lattice(gram, c)
        full = _recursive_counts(lat, 29)
        for order in (3, 25, 26, 27, 28, 29):
            want = {e: k for e, k in full.items() if e <= order}
            assert _theta_counts(ch.lattice_theta(lat, order)) == want, (name, c, order)


def _per_state_counts(lat, order):
    """{Q(v)/2: multiplicity} by the level sweep before moves were shared:
    every (centres, norm) state rebuilds the reduced centres of each of its
    coordinates, with the range |Y_i| <= isqrt((bound - acc) // P_i)."""
    L, d = _ldl(lat.gram)
    n = lat.rank
    c = list(lat.coset_offset)
    M = lcm(*(x.denominator for x in c), 1)
    Lam = lcm(*(L[j][i].denominator for i in range(n) for j in range(i + 1, n)),
              1)
    ML = M * Lam
    K = lcm(*(di.denominator for di in d)) * ML * ML
    P = [int(di * K) // (ML * ML) for di in d]
    cols = [[int(Lam * L[j][i]) for j in range(n)] for i in range(n)]
    moff = [int(M * ci) for ci in c]
    bound = 2 * order * K
    frontier = {(tuple(Lam * mc for mc in moff), 0): 1}
    for i in range(n - 1, -1, -1):
        pi, mi = P[i], moff[i]
        nxt = {}
        for (t, acc), mult in frontier.items():
            ti = t[i]
            r = isqrt((bound - acc) // pi)
            for x in range(-((r + ti) // ML), (r - ti) // ML + 1):
                y = x * ML + ti
                sh = x * M + mi
                lower = [t[k] + cols[k][i] * sh for k in range(i)]
                for j in range(i - 1, -1, -1):
                    m, lower[j] = divmod(lower[j], ML)
                    if m:
                        for k in range(j):
                            lower[k] -= cols[k][j] * m * M
                key = (tuple(lower), acc + pi * y * y)
                nxt[key] = nxt.get(key, 0) + mult
        frontier = nxt
    return {Q(acc, 2 * K): k for (_, acc), k in frontier.items()}


@pytest.mark.parametrize("name", ["A2", "D4", "E6", "E7", "E8"])
def test_shared_moves_match_the_per_state_sweep(name):
    # past the recursive oracle's order 29, with every nonzero offset
    gram, cosets, _ = ch._case_data(name)
    for c in cosets:
        lat = ch.lattice(gram, c)
        for order in (40, 60):
            want = _per_state_counts(lat, order)
            assert _theta_counts(ch.lattice_theta(lat, order)) == want, (name, c, order)


@pytest.mark.parametrize("name", ["A2", "D4", "E6", "E7", "E8"])
def test_verify_enumerates_each_coset_once(monkeypatch, name):
    # the coset weights are read from the characters' own enumeration
    calls = []
    sweep = ch.lattice_theta

    def counted(lat, order):
        calls.append(lat)
        return sweep(lat, order)

    monkeypatch.setattr(ch, "lattice_theta", counted)
    assert ch.verify_case(name, 5)["status"] == "verified"
    _, cosets, _ = ch._case_data(name)
    assert len(calls) == len(cosets)


def test_coset_weight_mismatch_fails_the_report(monkeypatch):
    swapped = dict(ch._COSET_WEIGHTS, A2=ch._COSET_WEIGHTS["A2"][::-1])
    monkeypatch.setattr(ch, "_COSET_WEIGHTS", swapped)
    rep = ch.verify_case("A2", 5)
    assert rep["status"] == "failed"
    assert rep["detail"].startswith("coset weights ")
    assert "first_bad_exponent" not in rep


def test_e8_theta_is_e4():
    theta = ch.lattice_theta(ch.lattice(_cartan_E8()), 60)
    e4 = F.eisenstein_e4(60)
    assert theta.base == 0 and theta.grid == 1
    assert theta.coeffs == e4.coeffs


@st.composite
def _lattices(draw):
    """Gram A A^T of a lower-triangular integer A with diagonal 1 or 2,
    plus a small diagonal: positive definite, with a small box."""
    n = draw(st.integers(1, 4))
    a = [[draw(st.integers(1, 2)) if i == j else
          draw(st.integers(-1, 1)) if j < i else 0
          for j in range(n)] for i in range(n)]
    extra = [draw(st.integers(0, 2)) for _ in range(n)]
    gram = [[sum(a[i][k] * a[j][k] for k in range(n)) + (extra[i] if i == j else 0)
             for j in range(n)] for i in range(n)]
    offset = [Q(draw(st.integers(-6, 6)), draw(st.integers(1, 6)))
              for _ in range(n)]
    return gram, offset


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_lattices(), st.integers(0, 8))
def test_sweep_matches_box_enumeration(lat_data, order):
    gram, offset = lat_data
    want = _box_counts(gram, offset, order)
    if not want:
        with pytest.raises(ArithmeticError):
            ch.lattice_theta(ch.lattice(gram, offset), order)
        return
    assert _theta_counts(ch.lattice_theta(ch.lattice(gram, offset), order)) == want
