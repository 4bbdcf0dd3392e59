"""Seeded inputs for the three workloads.

Everything here is plain data and the standard library: the benchmark
draws its inputs from ``--seed`` and hands the workload process only the
generated requests.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction

#: the 23 classified parameters (README, `mldelab classify --all`)
CLASSIFIED = (
    "-318/5", "-198/5", "-138/5", "-78/5", "-66/5", "-48/5", "-38/5", "-6",
    "-18/5", "-8/5", "-6/5", "-3/5", "2/5", "6/5", "12/5", "18/5", "22/5",
    "27/5", "6", "32/5", "42/5", "54/5", "18")

#: union of the raw Diophantine candidates of the four indicial cases
RAW_CANDIDATES = (
    "-16698/5", "-6618/5", "-4098/5", "-2838/5", "-2298/5", "-5294/15",
    "-1578/5", "-1398/5", "-948/5", "-918/5", "-858/5", "-678/5", "-1934/15",
    "-114", "-534/5", "-498/5", "-438/5", "-1094/15", "-318/5", "-278/5",
    "-246/5", "-198/5", "-494/15", "-30", "-138/5", "-118/5", "-102/5",
    "-254/15", "-78/5", "-77/5", "-76/5", "-15", "-74/5", "-73/5", "-72/5",
    "-71/5", "-14", "-68/5", "-66/5", "-64/5", "-63/5", "-58/5", "-57/5",
    "-54/5", "-53/5", "-10", "-48/5", "-43/5", "-38/5", "-36/5", "-6",
    "-28/5", "-22/5", "-18/5", "-17/5", "-16/5", "-3", "-44/15", "-14/5",
    "-13/5", "-12/5", "-9/5", "-8/5", "-6/5", "-14/15", "-3/5", "0", "2/5",
    "6/5", "2", "12/5", "18/5", "22/5", "24/5", "26/5", "27/5", "82/15", "6",
    "32/5", "33/5", "34/5", "106/15", "36/5", "37/5", "38/5", "39/5", "8",
    "41/5", "42/5", "166/15", "12", "62/5", "72/5", "226/15", "78/5", "50/3",
    "256/15", "87/5", "18", "271/15", "274/15", "286/15", "96/5", "97/5",
    "292/15", "298/15", "301/15", "304/15", "122/5", "132/5", "162/5",
    "202/5", "222/5", "272/5", "342/5", "447/5", "522/5", "622/5", "762/5",
    "972/5", "1322/5", "2022/5", "4122/5")

FORM_NAMES = ("H2", "Delta2", "I3", "Delta3", "theta", "Delta4", "psi1",
              "psi2", "I15", "Delta15")

#: the 23 catalog sections and their entry suffixes (92 labels)
SECTIONS = {
    "B.a": ("f0", "f4/5", "f-1/2", "f-7/10"),
    "B.b": ("f-8/15", "f-1/3", "f4/5", "f0"),
    "B.c": ("f0", "f1/5", "f4/5", "aux"),
    "B.d": ("f0", "f4/5", "f1/4", "f1/20"),
    "B.e": ("f0", "f4/5", "f1/3", "f2/15"),
    "B.f": ("f0", "f1/5", "f2/5", "f4/5"),
    "B.g": ("f0", "f4/5", "f1/2", "f3/10"),
    "B.h": ("f0", "f2/5", "f3/5", "f4/5"),
    "B.i": ("f0", "f4/5", "f2/3", "f7/15"),
    "B.j": ("f0", "f4/5", "f3/4", "f11/20"),
    "B.k": ("f0", "f3/5", "f4/5", "log"),
    "B.l": ("f0", "f4/5", "f5/6", "f19/30"),
    "B.m": ("f0", "f4/5", "f1", "f6/5"),
    "B.n": ("f-4/5", "f0", "f4/5", "f1"),
    "B.o": ("f-1/5", "f0", "f4/5", "f8/5"),
    "B.p": ("f-1/5", "f0", "f1/5", "f1"),
    "B.q": ("f0", "f-1/5", "f-1/6", "f19/30"),
    "C.a": ("f0", "f4/5", "g0", "g4/5"),
    "C.b": ("f0", "f4/5", "g0", "g4/5"),
    "C.c": ("f0", "f4/5", "g0", "g4/5"),
    "C.d": ("f0", "f4/5", "g0", "g4/5"),
    "C.e": ("f0", "f4/5", "g0", "g4/5"),
    "C.f": ("f0", "f1/5", "g0", "g1/5"),
}
LABELS = tuple(f"{sec}.{suf}" for sec, sufs in SECTIONS.items() for suf in sufs)

#: sections by recipe cost: the first evaluate the degree-150 polynomial
#: tables; the second take 0.2-0.6 s at order 25; the rest under 0.15 s
HEAVY_SECTIONS = ("C.a", "C.b", "C.c", "C.d")
MEDIUM_SECTIONS = ("B.b", "B.j", "B.m", "B.n", "B.o", "C.f")

#: parameters with a plain catalogued fundamental system -> its section
PLAIN_SYSTEMS = {
    "-66/5": "B.o", "-48/5": "B.a", "-38/5": "B.b", "-6": "B.p", "-8/5": "B.q",
    "-3/5": "B.d", "2/5": "B.e", "6/5": "B.f", "12/5": "B.g", "18/5": "B.h",
    "22/5": "B.i", "27/5": "B.j", "32/5": "B.l", "54/5": "B.m", "18": "B.n"}

#: the indicial request that hangs in trial division (kept on purpose)
HANGING_INDICIAL = "1234/997"

LATTICE_CASES = ("A1", "A2", "D4", "E6", "E7", "E8")
#: coset count of each lattice realisation
COSET_COUNTS = {"A2": 6, "D4": 6, "E6": 6, "E7": 4, "E8": 2}
#: theta orders are drawn from this band; 29 is left out because the
#: character check enumerates at 29 and would leave a cached result
THETA_ORDERS = (25, 26, 27, 28)

#: per-kind deadline in seconds for one session request
DEADLINES = {"solve": 10.0, "indicial": 1.5, "forms": 10.0,
             "catalog_build": 30.0, "catalog_verify": 30.0,
             "wronskian": 30.0}

#: requests of each kind in one session pass (106 with the hanging one);
#: medium and light catalog sections (four requests each) and Wronskian
#: systems are drawn per cost class
SESSION_MIX = {"solve": 28, "solve_log": 8, "indicial": 5, "forms": 30,
               "catalog": (2, 4), "wronskian": (2, 4)}


def flat_roots(s: Fraction) -> tuple[Fraction, ...]:
    """Closed-form indicial roots of the fourth-order family at s."""
    return (-s / 24 - Fraction(1, 20), -s / 24 + Fraction(3, 4),
            s / 24 + Fraction(1, 4), s / 24 + Fraction(1, 20))


def _above(r: Fraction, roots) -> list[Fraction]:
    """Other roots a positive whole number of steps above r."""
    return [x for x in roots if x != r and x > r and (x - r).denominator == 1]


def solve_choices(s: Fraction) -> tuple[list[Fraction], list[Fraction]]:
    """(roots with a plain Frobenius solution, roots with a log solution).

    `solve --log` builds the operator two steps past the order, so the
    upper root of a log pair may sit at most two steps above.
    """
    roots = flat_roots(s)
    plain = sorted({r for r in roots if not _above(r, roots)})
    log = sorted({r for r in roots
                  if roots.count(r) >= 2 or any(x - r <= 2 for x in _above(r, roots))})
    return plain, log


def _q(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _pools():
    svals = sorted({Fraction(v) for v in RAW_CANDIDATES + CLASSIFIED})
    plain, log = [], []
    for s in svals:
        p, lg = solve_choices(s)
        plain += [(s, a) for a in p]
        # at the parameters with a plain fundamental system every solution
        # is a power series: those resonances carry no log solution
        if _q(s) not in PLAIN_SYSTEMS:
            log += [(s, a) for a in lg]
    return plain, log


PLAIN_SOLVES, LOG_SOLVES = _pools()


def lattice_orders(rng: random.Random) -> dict:
    """Theta orders for every coset of every lattice case."""
    return {case: [rng.choice(THETA_ORDERS) for _ in range(n)]
            for case, n in COSET_COUNTS.items()}


def spread(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k values drawn one from each of k equal bands of [lo, hi], shuffled.

    Stratifying keeps the cost of a pass steady across seeds, since request
    cost grows steeply with the order.
    """
    width = (hi - lo + 1) / k
    out = [rng.randint(lo + int(i * width), lo + int((i + 1) * width) - 1)
           for i in range(k)]
    rng.shuffle(out)
    return out


def _cost_classes(items, section_of) -> tuple[list, list, list]:
    """Split items into (heavy, medium, light) by their section's cost."""
    heavy = [x for x in items if section_of(x) in HEAVY_SECTIONS]
    medium = [x for x in items if section_of(x) in MEDIUM_SECTIONS]
    light = [x for x in items if x not in heavy and x not in medium]
    return heavy, medium, light


def session_requests(rng: random.Random) -> list[dict]:
    """One pass of CLI-shaped requests; the mix is fixed, the values drawn."""
    reqs: list[dict] = []
    for log, pool, k in ((False, PLAIN_SOLVES, SESSION_MIX["solve"]),
                         (True, LOG_SOLVES, SESSION_MIX["solve_log"])):
        for (s, a), order in zip(rng.sample(pool, k), spread(rng, 40, 160, k)):
            reqs.append({"kind": "solve", "s": _q(s), "alpha": _q(a), "log": log,
                         "order": order})
    for p in spread(rng, -300, 300, SESSION_MIX["indicial"]):
        reqs.append({"kind": "indicial", "s": _q(Fraction(p, 5))})
    # form cost depends steeply on name and order: band i goes to name i mod 10
    orders = sorted(spread(rng, 50, 300, SESSION_MIX["forms"]))
    for i, order in enumerate(orders):
        reqs.append({"kind": "forms", "name": FORM_NAMES[i % len(FORM_NAMES)],
                     "order": order})
    # one entry of each heavy section at orders 10-16: a single heavy
    # build at order 40 would cost a fifth of the pass and swamp the rest
    heavy, medium, light = _cost_classes(list(SECTIONS), lambda sec: sec)
    for i, (section, order) in enumerate(zip(heavy, spread(rng, 10, 16, len(heavy)))):
        reqs.append({"kind": ("catalog_build", "catalog_verify")[i % 2],
                     "label": f"{section}.{rng.choice(SECTIONS[section])}",
                     "order": order})
    # otherwise a catalog user asks for every entry of a section at one
    # order: the first request builds the section, the other three reuse it
    for pool, k in zip((medium, light), SESSION_MIX["catalog"]):
        for section, order in zip(rng.sample(pool, k), spread(rng, 10, 40, k)):
            for i, suffix in enumerate(SECTIONS[section]):
                reqs.append({"kind": ("catalog_build", "catalog_verify")[i % 2],
                             "label": f"{section}.{suffix}", "order": order})
    systems = _cost_classes(sorted(PLAIN_SYSTEMS), PLAIN_SYSTEMS.get)[1:]
    picks = [s for pool, k in zip(systems, SESSION_MIX["wronskian"])
             for s in rng.sample(pool, k)]
    for s, order in zip(picks, spread(rng, 15, 30, len(picks))):
        reqs.append({"kind": "wronskian", "s": s, "order": order})
    rng.shuffle(reqs)
    reqs.insert(rng.randrange(len(reqs) + 1),
                {"kind": "indicial", "s": HANGING_INDICIAL})
    return reqs


def indicial_probe_inputs(seed: int) -> list[str]:
    """The indicial parameters of the seed's first session pass."""
    return [r["s"] for r in session_requests(pass_rng(seed, 0))
            if r["kind"] == "indicial" and r["s"] != HANGING_INDICIAL]


def pass_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def section_counts(requests) -> tuple[int, float]:
    """(sections_built, reuse_share) implied by a stream of section requests.

    Each request is a (section, order) pair.  A section recipe is built once
    per distinct pair; ``reuse_share`` is the share of those builds that a
    cache keyed on "built at order >= N" could have served by truncation.
    """
    seen: dict[str, int] = {}
    built = set()
    servable = 0
    for section, order in requests:
        if (section, order) in built:
            continue
        built.add((section, order))
        if seen.get(section, -1) >= order:
            servable += 1
        seen[section] = max(seen.get(section, -1), order)
    return len(built), (servable / len(built) if built else 0.0)
