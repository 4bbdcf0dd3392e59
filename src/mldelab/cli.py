"""Command-line entry point.

Subcommands expose each library module with deterministic JSON output
(rationals as "p/q" strings, keys sorted) or a terse table rendering, and
``reproduce`` runs the full verification battery in one shot.

A rational argument is a ``p/q`` or decimal string of at most 100
characters.  Its decimal exponent, like that of a coefficient in an
``apply --series`` file, is at most 100 in magnitude.  Anything larger is
a usage error, refused before the value is built.

``--order`` and ``classify --depth`` are integers of at most MAX_ORDER
(1000); ``--order`` is at least 0 and ``--depth`` at least 1.  Without
``--order``, ``forms verify`` runs each relation group at its order in
``relations.GROUP_ORDERS`` (50 for a-d, 25 for e-g) and ``catalog verify``
each entry at ``catalog.default_verification_order`` (25 or 40).  The
other commands use order 50; ``characters --verify`` checks at that order
too.  ``reproduce`` runs every check at its documented order and takes no
``--order``.

Only the commands with a table rendering take ``--format``: ``forms
verify``, ``indicial``, ``classify``, ``catalog list``, ``catalog verify``
and ``characters``.  ``catalog verify`` takes at most one of ``--all``,
``--label`` and ``--s``, and ``classify`` at most one of ``--all`` and
``--case``; ``--depth`` needs ``--case``.  A flag a command does not take
is a usage error.

Exit codes: 0 success, 2 verification failure (a failing relation, catalog
entry or character check) or no such solution, 3 usage error,
4 insufficient order, 141 standard output closed before the command
finished writing (a reader such as ``head`` that exits early).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import catalog, characters, classify, forms, relations
from .mlde import (InconsistentResonance, NoLogNeeded, NotIndicialRoot, Resonance,
                   build_flat, flat_indicial_roots, frobenius_solve,
                   frobenius_solve_log, indicial, log_upper_root)
from .series import (DEFAULT_ORDER, InsufficientOrder, parse_rat, rat_str,
                     series_from_json_dict)

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_USAGE = 3
EXIT_ORDER = 4
#: the status a shell reports for a writer that SIGPIPE ended
EXIT_PIPE = 141

#: the most characters a rational argument may have
RAT_ARG_CHARS = 100

#: the largest --order or --depth; the slowest command there, `catalog
#: verify --all`, takes about 9 minutes (README)
MAX_ORDER = 1000


class UsageError(Exception):
    pass


def _bounded(low: int):
    """An argument type: an integer in low..MAX_ORDER, else a usage error."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text[:20]!r}")
        if not low <= n <= MAX_ORDER:
            raise argparse.ArgumentTypeError(f"expected {low}..{MAX_ORDER}, got {n}")
        return n
    return parse


def _rat(text: str) -> Fraction:
    if len(text) > RAT_ARG_CHARS:
        raise UsageError(f"bad rational {text[:20]!r}...: longer than {RAT_ARG_CHARS} characters")
    try:
        return parse_rat(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}: {exc}")


def _json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _emit(payload, fmt: str, table_lines) -> None:
    if fmt == "table":
        for line in table_lines:
            print(line)
    else:
        _json(payload)


def _verdicts(reports: list[dict], fmt: str) -> int:
    """Emit verify reports with the count of failed ones, or one
    `label: status` line each; exit 2 if any failed."""
    bad = [r for r in reports if r["status"] == "failed"]
    _emit({"reports": reports, "failed": len(bad)}, fmt,
          [f"{r['label']}: {r['status']}" for r in reports])
    return EXIT_VERIFY if bad else EXIT_OK


def _set_notation(values) -> str:
    return "{" + ", ".join(rat_str(v) for v in sorted(values)) + "}"


# -- subcommands ------------------------------------------------------

def cmd_forms(args) -> int:
    if args.forms_cmd == "dump":
        if args.name not in forms.FORM_TABLE:
            raise UsageError(f"unknown form {args.name!r}; known: {sorted(forms.FORM_TABLE)}")
        _json({"name": args.name, "series": forms.form(args.name, args.order).to_json_dict()})
        return EXIT_OK
    # verify
    groups = [args.group] if args.group else relations.GROUP_ORDERS
    return _verdicts([rep for g in groups for rep in relations.verify_group(g, args.order)],
                     args.format)


def cmd_indicial(args) -> int:
    rep = indicial(build_flat(args.s, 0))  # indicial reads only q^0
    payload = {
        "s": rat_str(args.s),
        "roots": [rat_str(r) for r in rep.roots],
        "degenerate": [[rat_str(a), rat_str(b)] for a, b in rep.degenerate],
        "resonant": [[rat_str(a), rat_str(b)] for a, b in rep.resonant],
    }
    _emit(payload, args.format, [_set_notation(set(rep.roots))])
    return EXIT_OK


def cmd_solve(args) -> int:
    try:
        if args.log:
            # the log solve sweeps through its last resonant step whatever
            # the order: the gap from alpha up to the upper root
            upper = log_upper_root(flat_indicial_roots(args.s), args.alpha)
            op = build_flat(args.s, max(args.order, int(upper - args.alpha)))
            sol = frobenius_solve_log(op, args.alpha, args.order)
        else:
            sol = frobenius_solve(build_flat(args.s, args.order), args.alpha, args.order)
    except (NotIndicialRoot, Resonance, NoLogNeeded, InconsistentResonance) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    payload = {
        "s": rat_str(args.s), "alpha": rat_str(args.alpha),
        "order": args.order, "series": sol.to_json_dict(),
    }
    _json(payload)
    return EXIT_OK


def cmd_apply(args) -> int:
    try:
        with open(args.series) as fh:
            f = series_from_json_dict(json.load(fh))
    except OSError as exc:
        raise UsageError(f"cannot read {args.series}: {exc.strerror}")
    except ValueError as exc:  # also json.JSONDecodeError and UnicodeDecodeError
        raise UsageError(f"{args.series} holds no series: {exc}")
    # exact below q^(f.base + order + 1), or f's own truncation if shorter
    out = build_flat(args.s, args.order).apply(f)
    _json({"s": rat_str(args.s), "series": out.to_json_dict()})
    return EXIT_OK


def cmd_classify(args) -> int:
    if args.case is None:
        if args.depth is not None:
            raise UsageError("--depth needs --case")
        final = classify.classify_all()
        payload = {"final": [rat_str(v) for v in final]}
        _emit(payload, args.format, [_set_notation(final)])
        return EXIT_OK
    case = classify.CASES[args.case]
    report = classify.filter_candidates(case, depth=args.depth)
    payload = {
        "case": args.case,
        "raw": [[rat_str(s), a1] for s, a1 in report.raw_candidates],
        "survivors": {str(k): [rat_str(v) for v in vs]
                      for k, vs in report.survivors_by_depth.items()},
        "final": [rat_str(v) for v in report.final],
    }
    _emit(payload, args.format, [_set_notation(report.final)])
    return EXIT_OK


def cmd_catalog(args) -> int:
    if args.catalog_cmd == "list":
        entries = [{"label": lb, "s": rat_str(catalog.entry(lb).s),
                    "exponent": rat_str(catalog.entry(lb).exponent)}
                   for lb in catalog.labels()]
        _emit({"entries": entries}, args.format,
              [e["label"] for e in entries])
        return EXIT_OK
    if args.catalog_cmd == "build":
        series = catalog.build_entry(args.label, args.order)
        _json({"label": args.label, "series": series.to_json_dict()})
        return EXIT_OK
    # verify
    if args.label:
        reports = [catalog.verify_entry(args.label, args.order)]
    elif args.s is not None:
        labels = [lb for lb in catalog.labels()
                  if catalog.entry(lb).s == args.s]
        if not labels:
            raise UsageError(f"no catalog entries at s = {rat_str(args.s)}")
        reports = [catalog.verify_entry(lb, args.order) for lb in labels]
    else:
        reports = catalog.verify_all(args.order)
    return _verdicts(reports, args.format)


def cmd_characters(args) -> int:
    try:
        d = characters.datum(args.algebra)
    except KeyError as exc:
        raise UsageError(exc.args[0])
    payload = {
        "algebra": d.name, "s": rat_str(d.s),
        "exponents": [rat_str(e) for e in d.ramond_exponents],
    }
    status = EXIT_OK
    basis = None
    if d.verification == "full":
        basis = characters.ramond_character_basis(d.name, args.order)
        payload["characters"] = [chi.to_json_dict() for _, chi in basis]
    if args.verify:
        report = characters.verify_case(d.name, args.order, basis)
        payload["verified"] = report["status"] == "verified"
        payload["report"] = report
        if not payload["verified"]:
            status = EXIT_VERIFY
    _emit(payload, args.format,
          [f"{d.name}: s = {rat_str(d.s)}, exponents {_set_notation(d.ramond_exponents)}"])
    return status


def cmd_reproduce(args) -> int:
    report: dict = {}
    ok = True

    rel = relations.verify_all()
    report["forms"] = {
        "reports": rel,
        "quarantined": sorted(relations.QUARANTINED_LABELS),
    }
    ok &= all(r["status"] != "failed" for r in rel)

    final = classify.classify_all()
    report["classify"] = {"final": [rat_str(v) for v in final]}
    ok &= len(final) == 23

    cat = catalog.verify_all()
    cat_bad = [r["label"] for r in cat if r["status"] == "failed"]
    report["catalog"] = {"reports": cat, "failed": cat_bad}
    ok &= not cat_bad

    chars = {}
    for name in ("A2", "G2", "D4", "F4", "E6", "E7", "E8"):
        rep = characters.verify_case(name, 25)
        chars[name] = {"verified": rep["status"] == "verified", "report": rep}
        ok &= chars[name]["verified"]
    report["characters"] = chars
    report["ok"] = bool(ok)
    _json(report)
    return EXIT_OK if ok else EXIT_VERIFY


# -- argument parsing -------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let bare negative rationals like -1/10 pass as option values
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="mldelab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def table(sp):
        sp.add_argument("--format", choices=("json", "table"), default="json")

    def order(sp, default=DEFAULT_ORDER):
        sp.add_argument("--order", type=_bounded(0), default=default)

    forms_p = sub.add_parser("forms")
    forms_sub = forms_p.add_subparsers(dest="forms_cmd", required=True)
    dump_p = forms_sub.add_parser("dump")
    dump_p.add_argument("--name", required=True)
    order(dump_p)
    fv_p = forms_sub.add_parser("verify")
    fv_p.add_argument("--group", choices=tuple("abcdefg"), default=None)
    order(fv_p, default=None)
    table(fv_p)

    ind_p = sub.add_parser("indicial")
    ind_p.add_argument("--s", type=_rat, required=True)
    table(ind_p)

    solve_p = sub.add_parser("solve")
    solve_p.add_argument("--s", type=_rat, required=True)
    solve_p.add_argument("--alpha", type=_rat, required=True)
    solve_p.add_argument("--log", action="store_true")
    order(solve_p)

    apply_p = sub.add_parser("apply")
    apply_p.add_argument("--s", type=_rat, required=True)
    apply_p.add_argument("--series", required=True)
    order(apply_p)

    cls_p = sub.add_parser("classify")
    which = cls_p.add_mutually_exclusive_group()
    which.add_argument("--case", type=int, choices=(1, 2, 3, 4), default=None)
    which.add_argument("--all", action="store_true")
    cls_p.add_argument("--depth", type=_bounded(1), default=None)
    table(cls_p)

    cat_p = sub.add_parser("catalog")
    cat_sub = cat_p.add_subparsers(dest="catalog_cmd", required=True)
    cl_p = cat_sub.add_parser("list")
    table(cl_p)
    cb_p = cat_sub.add_parser("build")
    cb_p.add_argument("--label", required=True)
    order(cb_p)
    cv_p = cat_sub.add_parser("verify")
    which = cv_p.add_mutually_exclusive_group()
    which.add_argument("--label", default=None)
    which.add_argument("--s", type=_rat, default=None)
    which.add_argument("--all", action="store_true")
    order(cv_p, default=None)
    table(cv_p)

    ch_p = sub.add_parser("characters")
    ch_p.add_argument("--algebra", required=True)
    ch_p.add_argument("--verify", action="store_true")
    order(ch_p)
    table(ch_p)

    sub.add_parser("reproduce")
    return p


_HANDLERS = {
    "forms": cmd_forms,
    "indicial": cmd_indicial,
    "solve": cmd_solve,
    "apply": cmd_apply,
    "classify": cmd_classify,
    "catalog": cmd_catalog,
    "characters": cmd_characters,
    "reproduce": cmd_reproduce,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()      # a closed pipe raises here, not at exit
        return code
    except (UsageError, catalog.UnknownLabel) as exc:
        print(f"usage error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    except InsufficientOrder as exc:
        print(f"insufficient order: {exc}", file=sys.stderr)
        return EXIT_ORDER
    except BrokenPipeError:
        # the reader left: send what is still buffered to /dev/null, so
        # the flush at interpreter exit fails no second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
