"""The workload process.

``python3 perfbench/worker.py <mode> [<json args>]`` imports ``mldelab.cli``,
loads the polynomial table, prints ``ready``, runs one mode and prints its
result as one JSON line.  ``run.py`` starts it with ``PYTHONPATH`` set to the
checkout's ``src``.

Modes:
  setup    nothing after ``ready`` (set-up time samples)
  lattice  character checks and coset theta enumeration at given orders
  session  a list of CLI-shaped requests, each under a deadline
  replay   the calls ``mldelab reproduce`` makes, in process
  probe    fixed-order probes of the series, forms and mlde layers

Every output is checked here, outside the timed interval of its request.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

import mldelab.cli  # noqa: E402  (set-up cost: part of what is measured)
from mldelab import catalog, characters, classify, forms, relations  # noqa: E402
from mldelab.mlde import (build_flat, frobenius_solve,  # noqa: E402
                          frobenius_solve_log, indicial, modular_wronskian)
from mldelab.series import (LogSeries, PuiseuxSeries, rat_str,  # noqa: E402
                            series_from_json_dict)

import gates  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
from spans import Tracer  # noqa: E402

Q = Fraction


class DeadlineExceeded(Exception):
    pass


class WrongOutput(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def with_deadline(fn, seconds: float):
    """Run fn() under a SIGALRM timer; raises DeadlineExceeded on a miss."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def emit(tr: Tracer, payload) -> str:
    """Serialise the way the CLI does."""
    with tr.span("cli.emit"):
        return json.dumps(payload, indent=2, sort_keys=True)


def bits(coeff_strings) -> tuple[int, int]:
    """(max numerator bits, max denominator bits) over 'p/q' strings."""
    num = den = 0
    for c in coeff_strings:
        f = Fraction(c)
        num = max(num, abs(f.numerator).bit_length())
        den = max(den, f.denominator.bit_length())
    return num, den


def _truncated(f, t: Fraction):
    if isinstance(f, LogSeries):
        return LogSeries(f.plain.truncate(t), f.log_part.truncate(t))
    return f.truncate(t)


# -- lattice realisations of the character cases -----------------------

def _cartan_a(n):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
        if i + 1 < n:
            g[i][i + 1] = g[i + 1][i] = -1
    return g


def _cartan_d(n):
    g = _cartan_a(n)
    g[n - 1][n - 2] = g[n - 2][n - 1] = 0
    g[n - 1][n - 3] = g[n - 3][n - 1] = -1
    return g


def _cartan_e7():
    g = [[2 if i == j else 0 for j in range(7)] for i in range(7)]
    for a, b in ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)):
        g[a - 1][b - 1] = g[b - 1][a - 1] = -1
    return g


def case_lattices(name: str) -> list:
    """The coset lattices whose theta series build the case's characters."""
    cw = characters.fundamental_coweight
    if name == "A2":
        gram, cosets = [[6]], [[Q(k, 6)] for k in range(6)]
    elif name == "D4":
        gram = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
        keys = [(0, 0, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1), (1, 0, 0), (0, 0, 1)]
        cosets = [[Q(a, 2), Q(b, 2), Q(c, 2)] for a, b, c in keys]
    elif name == "E6":
        gram = _cartan_a(5)
        cosets = [[k * x for x in cw(gram, 1)] for k in range(6)]
    elif name == "E7":
        gram = _cartan_d(6)
        cosets = [[Q(0)] * 6, cw(gram, 1), cw(gram, 5), cw(gram, 6)]
    elif name == "E8":
        gram = _cartan_e7()
        cosets = [[Q(0)] * 7, cw(gram, 7)]
    else:
        return []
    return [characters.lattice(gram, c) for c in cosets]


#: conformal weight (leading exponent) of each coset theta series
COSET_WEIGHTS = {
    "A2": ["0", "1/12", "1/3", "3/4", "1/3", "1/12"],
    "D4": ["0", "1/2", "1/2", "3/4", "1/4", "1/4"],
    "E6": ["0", "5/12", "2/3", "3/4", "2/3", "5/12"],
    "E7": ["0", "1/2", "3/4", "3/4"],
    "E8": ["0", "3/4"],
}


def theta_count(payload: dict, case: str, index: int) -> int:
    """Vector count of a theta series; raises WrongOutput if it is not one."""
    coeffs = payload["coeffs"]
    if any("/" in c or c.startswith("-") for c in coeffs):
        raise WrongOutput(f"{case} coset {index}: non-counting coefficient")
    if payload["base_exponent"] != COSET_WEIGHTS[case][index] or coeffs[0] == "0":
        raise WrongOutput(f"{case} coset {index}: leading exponent "
                          f"{payload['base_exponent']}")
    return sum(int(c) for c in coeffs)


# -- session requests ----------------------------------------------------

def req_solve(tr, r):
    s, alpha, order = Q(r["s"]), Q(r["alpha"]), r["order"]
    with tr.span("mlde.build_flat"):
        op = build_flat(s, order + 2)
    if r["log"]:
        with tr.span("mlde.frobenius_solve_log"):
            sol = frobenius_solve_log(op, alpha, order)
    else:
        with tr.span("mlde.frobenius_solve"):
            sol = frobenius_solve(op, alpha, order)
    with tr.span("series.to_json"):
        series = sol.to_json_dict()
    return emit(tr, {"s": r["s"], "alpha": r["alpha"], "order": order,
                     "series": series})


def check_solve(r, text):
    payload = json.loads(text)
    if payload["order"] != r["order"]:
        raise WrongOutput("order field")
    f = series_from_json_dict(payload["series"])
    alpha = Q(r["alpha"])
    lead = f.log_part if r["log"] else f
    if r["log"] != isinstance(f, LogSeries):
        raise WrongOutput("log/plain kind")
    if not r["log"] and f.coefficient(alpha) != 1:
        raise WrongOutput("leading coefficient is not 1")
    if lead.truncation <= alpha + r["order"]:
        raise WrongOutput("truncation shorter than the requested order")
    k = min(r["order"], 20)
    residual = build_flat(Q(r["s"]), k + 2).apply(_truncated(f, alpha + k + 1))
    if not residual.is_zero_to_truncation():
        raise WrongOutput("nonzero operator residual below the truncation")


def req_indicial(tr, r):
    with tr.span("mlde.build_flat"):
        op = build_flat(Q(r["s"]), 4)
    with tr.span("mlde.indicial"):
        rep = indicial(op)
    return emit(tr, {
        "s": r["s"], "roots": [rat_str(x) for x in rep.roots],
        "degenerate": [[rat_str(a), rat_str(b)] for a, b in rep.degenerate],
        "resonant": [[rat_str(a), rat_str(b)] for a, b in rep.resonant]})


def check_indicial(r, text):
    payload = json.loads(text)
    roots = [Q(x) for x in payload["roots"]]
    if sorted(roots) != sorted(inputs.flat_roots(Q(r["s"]))):
        raise WrongOutput("roots differ from the closed form")
    pairs = [(a, b) for i, a in enumerate(roots) for b in roots[i + 1:]]
    degenerate = [[rat_str(a), rat_str(b)] for a, b in pairs if a == b]
    resonant = [[rat_str(max(a, b)), rat_str(min(a, b))] for a, b in pairs
                if a != b and (a - b).denominator == 1]
    if payload["degenerate"] != degenerate or payload["resonant"] != resonant:
        raise WrongOutput("degeneracy/resonance flags")


def req_forms(tr, r):
    with tr.span("forms.form"):
        series = forms.form(r["name"], r["order"])
    with tr.span("series.to_json"):
        d = series.to_json_dict()
    return emit(tr, {"name": r["name"], "series": d})


def check_forms(r, text):
    d = json.loads(text)["series"]
    if d["order"] < r["order"] or d["grid"] != 1:
        raise WrongOutput("order or grid field")
    n = min(r["order"] + 1, 24)
    exponent, want, power = oracle.expansion(r["name"], n)
    coeffs = [Q(c) for c in d["coeffs"][:n]]
    if Q(d["base_exponent"]) * power != exponent:
        raise WrongOutput("leading exponent")
    if oracle.power_prefix(coeffs, power, n) != want:
        raise WrongOutput("coefficients differ from the integer expansion")
    if PuiseuxSeries.from_json_dict(d).to_json_dict() != d:
        raise WrongOutput("JSON round trip")


def req_catalog_build(tr, r):
    with tr.span("catalog.build_entry"):
        series = catalog.build_entry(r["label"], r["order"])
    with tr.span("series.to_json"):
        d = series.to_json_dict()
    return emit(tr, {"label": r["label"], "series": d})


def check_catalog_build(r, text):
    label, order = r["label"], r["order"]
    f = series_from_json_dict(json.loads(text)["series"])
    e = catalog.entry(label)
    if e.printed_prefix:
        probe = f.plain if isinstance(f, LogSeries) else f
        got = [probe.coefficient(e.exponent + k) for k in range(len(e.printed_prefix))]
        if got != list(e.printed_prefix):
            raise WrongOutput("printed prefix mismatch")
    residual = catalog.designated_operator(label, order + 6).apply(f)
    if not residual.is_zero_to_truncation():
        raise WrongOutput("nonzero operator residual")


def req_catalog_verify(tr, r):
    with tr.span("catalog.verify_entry"):
        try:
            rep = catalog.verify_entry(r["label"], r["order"])
        except (catalog.PrefixMismatch, catalog.NotAnnihilated) as exc:
            # reported as `catalog verify --all` does
            rep = {"label": r["label"], "status": "failed", "detail": str(exc)}
    return emit(tr, {"reports": [rep], "failed": int(rep["status"] == "failed")})


def check_catalog_verify(r, text):
    payload = json.loads(text)
    rep = payload["reports"][0]
    if (payload["failed"] or rep["status"] != "verified"
            or rep["label"] != r["label"] or rep["order"] != r["order"]):
        raise WrongOutput(f"verify report {rep}")


def req_wronskian(tr, r):
    with tr.span("catalog.wronskian_over_eta24"):
        const, ok = catalog.wronskian_over_eta24(Q(r["s"]), r["order"])
    return emit(tr, {"s": r["s"], "order": r["order"],
                     "constant": rat_str(const), "ok": ok})


def make_check_wronskian(expected):
    def check(r, text):
        payload = json.loads(text)
        if payload["ok"] is not True or payload["constant"] != expected[r["s"]]:
            raise WrongOutput(f"Wronskian constant {payload['constant']}")
    return check


REQUESTS = {
    "solve": (req_solve, check_solve),
    "indicial": (req_indicial, check_indicial),
    "forms": (req_forms, check_forms),
    "catalog_build": (req_catalog_build, check_catalog_build),
    "catalog_verify": (req_catalog_verify, check_catalog_verify),
    "wronskian": (req_wronskian, None),
}


def timed_op(tr: Tracer, name: str, fn, check, deadline=None) -> dict:
    """Issue one operation, time it, then check its output untimed."""
    rec = {"kind": name, "status": "ok"}
    t0 = time.perf_counter()
    try:
        with tr.span(name):
            out = with_deadline(fn, deadline) if deadline else fn()
    except DeadlineExceeded:
        rec["status"] = "deadline"
    except Exception as exc:  # any raise is a counted failure, not a crash
        rec["status"] = "raised"
        rec["detail"] = f"{type(exc).__name__}: {exc}"[:300]
    rec["ms"] = (time.perf_counter() - t0) * 1000
    if rec["status"] == "ok" and check is not None:
        try:
            check(out)
        except Exception as exc:  # a check that cannot read the output fails it
            rec["status"] = "wrong"
            rec["detail"] = f"{type(exc).__name__}: {exc}"[:300]
    return rec


# -- modes ---------------------------------------------------------------

def mode_setup(args):
    return {}


def mode_lattice(args):
    tr = Tracer(args["trace"])
    expected = args["expected_counts"]
    ops = []
    for case in inputs.LATTICE_CASES:
        ops.append(timed_op(
            tr, f"characters.verify.{case}",
            lambda: characters.verify_case(case, 25),
            lambda rep: _require(rep["status"] == "verified", f"{case}: {rep}")))
        for i, lat in enumerate(case_lattices(case)):
            order = args["orders"][case][i]

            def check(series, case=case, i=i, order=order):
                n = theta_count(series.to_json_dict(), case, i)
                want = expected[case][i][str(order)]
                _require(n == want, f"{case} coset {i} at {order}: {n} vectors, want {want}")
            ops.append(timed_op(tr, f"characters.lattice_theta.{case}",
                                lambda lat=lat, order=order: characters.lattice_theta(lat, order),
                                check))
    return {"ops": ops, "spans": tr.spans}


def _require(cond: bool, msg: str):
    if not cond:
        raise WrongOutput(msg)


def mode_session(args):
    tr = Tracer(args["trace"])
    checks = dict(REQUESTS)
    checks["wronskian"] = (req_wronskian, make_check_wronskian(args["wronskian"]))
    ops = []
    for r in args["requests"]:
        req, check = checks[r["kind"]]
        ops.append(timed_op(tr, f"session.{r['kind']}", lambda: req(tr, r),
                            lambda text: check(r, text),
                            inputs.DEADLINES[r["kind"]]))
    return {"ops": ops, "spans": tr.spans}


def mode_replay(args):
    """The calls `mldelab reproduce` makes, one span per public call."""
    tr = Tracer(args["trace"])
    with tr.span("cli.reproduce"):
        rel = []
        for g in "abcdefg":
            with tr.span(f"relations.group.{g}"):
                rel += relations.verify_group(g)
        final = set()
        for cid, case in classify.CASES.items():
            with tr.span(f"classify.filter.case{cid}"):
                final.update(classify.filter_candidates(case).final)
            final.add(case.excluded_linear_root)
        cat = []
        for section, suffixes in inputs.SECTIONS.items():
            labels = [f"{section}.{s}" for s in suffixes]
            with tr.span(f"catalog.build.{section}"):
                catalog.build_entry(labels[0], catalog.default_verification_order(labels[0]))
            for label in labels:
                with tr.span(f"catalog.apply.{section}"):
                    try:
                        cat.append(catalog.verify_entry(label))
                    except (catalog.PrefixMismatch, catalog.NotAnnihilated) as exc:
                        cat.append({"label": label, "status": "failed", "detail": str(exc)})
        chars, theta_vectors = {}, {}
        for name in gates.CHARACTER_CASES:
            with tr.span(f"characters.case.{name}"):
                lats = case_lattices(name)
                if lats:
                    with tr.span(f"characters.theta.{name}"):
                        thetas = [characters.lattice_theta(lat, 29) for lat in lats]
                    theta_vectors[name] = thetas
                with tr.span(f"characters.verify.{name}"):
                    rep = characters.verify_case(name, 25)
            chars[name] = {"verified": rep["status"] == "verified", "report": rep}
        report = {
            "forms": {"reports": rel, "quarantined": sorted(relations.QUARANTINED_LABELS)},
            "classify": {"final": [rat_str(v) for v in sorted(final)]},
            "catalog": {"reports": cat, "quarantine": [],
                        "failed": [r["label"] for r in cat if r["status"] == "failed"]},
            "characters": chars,
        }
        report["ok"] = (all(r["status"] != "failed" for r in rel) and len(final) == 23
                        and not report["catalog"]["failed"]
                        and all(c["verified"] for c in chars.values()))
        with open(os.devnull, "w") as sink:
            sink.write(emit(tr, report))
    t_done = time.perf_counter()
    # untimed: exact counts on the outputs
    counts, problems = {}, []
    for name, ts in theta_vectors.items():
        try:
            counts[name] = sum(theta_count(t.to_json_dict(), name, i)
                               for i, t in enumerate(ts))
        except WrongOutput as exc:
            problems.append(str(exc))
    num = den = 0
    for r in cat:
        e = catalog.entry(r["label"])
        d = catalog.build_entry(r["label"], r["order"]).to_json_dict()
        upto = e.exponent + r["order"]
        base, grid = Q(d["base_exponent"]), d["grid"]
        keep = [c for key in ("coeffs", "log_coeffs") for i, c in enumerate(d.get(key) or [])
                if base + Q(i, grid) <= upto]
        n, m = bits(keep)
        num, den = max(num, n), max(den, m)
    problems += gates.reproduce_problems(json.loads(json.dumps(report)))
    return {"spans": tr.spans, "problems": problems, "theta_vectors": counts,
            "coeff_bits": [num, den], "t_done": t_done}


def _all_forms(order: int):
    for builder in (forms.eisenstein_e2, forms.eisenstein_e4, forms.eisenstein_e6,
                    forms.eisenstein_e8, forms.eta):
        builder(order)
    for name in inputs.FORM_NAMES:
        forms.form(name, order)


def mode_probe(args):
    """Layer probes at fixed orders; each leaf span is one sample."""
    tr = Tracer(True)
    problems = []

    def expect(cond: bool, msg: str):
        if not cond:
            problems.append(msg)

    for order in (50, 56):
        with tr.span(f"forms.build.o{order}"):
            _all_forms(order)
    with tr.span("characters.case.A1"):
        with tr.span("characters.verify.A1"):
            a1 = characters.verify_case("A1", 25)
    expect(a1["status"] == "verified", f"A1: {a1}")

    # the kernel probe psi1^5 * (psi2^5 * eta^(-12/5))
    for order, reps in ((120, 9), (300, 5)):
        a = forms.psi1(order) ** 5
        b = forms.psi2(order) ** 5 * forms.eta(order).pow(Q(-12, 5))
        for _ in range(reps):
            with tr.span(f"series.mul.o{order}"):
                prod = a * b
    eta300, psi300 = forms.eta(300), forms.psi1(300)
    for _ in range(5):
        with tr.span("series.pow.o300"):
            eta300.pow(Q(2, 5))
    for _ in range(3):
        with tr.span("series.invert.o300"):
            inv = psi300.invert()
    expect((inv * psi300 - 1).is_zero_to_truncation(), "psi1 * psi1^-1 != 1")
    for _ in range(9):
        with tr.span("series.to_json.o300"):
            d = prod.to_json_dict()
    base = Q(d["base_exponent"])
    exps = [base + Q(i, d["grid"]) for i in range(len(d["coeffs"]))]
    for _ in range(5):
        with tr.span("series.coefficient.o300"):
            for e in exps:
                prod.coefficient(e)

    # mlde: a plain root of s = 12/5 and the log solution of B.k
    s, alpha = Q(12, 5), Q(12, 5) / 24 + Q(1, 4)
    with tr.span("mlde.build_flat.o152"):
        op = build_flat(s, 152)
    for _ in range(3):
        with tr.span("mlde.frobenius_solve.o150"):
            sol = frobenius_solve(op, alpha, 150)
    for _ in range(3):
        with tr.span("mlde.apply.o150"):
            residual = op.apply(sol)
    expect(residual.is_zero_to_truncation(), "frobenius probe residual")
    op6 = build_flat(6, 102)
    for _ in range(3):
        with tr.span("mlde.frobenius_solve_log.o100"):
            frobenius_solve_log(op6, Q(1, 2), 100)
    for sval in inputs.indicial_probe_inputs(args["seed"]):
        with tr.span("mlde.indicial"):
            rep = indicial(build_flat(Q(sval), 4))
        expect(sorted(rep.roots) == sorted(inputs.flat_roots(Q(sval))), f"indicial {sval}")
    system = [f for _, f in catalog.fundamental_system(Q(6, 5), 33)]
    for _ in range(3):
        with tr.span("mlde.modular_wronskian"):
            modular_wronskian(system)
    return {"spans": tr.spans, "coeff_bits": list(bits(d["coeffs"])),
            "coefficient_calls": len(exps), "problems": problems}


MODES = {"setup": mode_setup, "lattice": mode_lattice, "session": mode_session,
         "replay": mode_replay, "probe": mode_probe}


def main() -> int:
    src = os.path.join(ROOT, "src", "")
    if not os.path.abspath(mldelab.cli.__file__).startswith(src):
        print(f"mldelab imported from {mldelab.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    catalog.polynomial_names()   # loads data/polynomials.json
    t_ready = time.perf_counter()
    print("ready", flush=True)
    mode = sys.argv[1]
    args = json.loads(sys.stdin.read()) if mode != "setup" else {}
    result = MODES[mode](args)
    result.setdefault("t_done", time.perf_counter())
    result["work_s"] = result.pop("t_done") - t_ready
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
