"""Output gates that need no part of the package: the `reproduce` report
and the exact counts pinned in ``expected.json``."""

from __future__ import annotations

import json
import os

from inputs import CLASSIFIED

HERE = os.path.dirname(os.path.abspath(__file__))

#: `relations.RELATIONS` has 36 records; README and PAPER say 37 (see NOTES.md)
RELATION_COUNT = 36
QUARANTINED = ["e.5", "f.8"]
CATALOG_COUNT = 92
CHARACTER_CASES = ("A2", "G2", "D4", "F4", "E6", "E7", "E8")


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


def reproduce_problems(report) -> list[str]:
    """Every way a `reproduce` report departs from the paper's battery."""
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    bad = []
    if report.get("ok") is not True:
        bad.append("ok is not true")
    forms = report.get("forms", {})
    rel = forms.get("reports", [])
    if len(rel) != RELATION_COUNT:
        bad.append(f"{len(rel)} relation reports, want {RELATION_COUNT}")
    failed = [r.get("label") for r in rel if r.get("status") == "failed"]
    if failed:
        bad.append(f"relations failed: {failed}")
    held = sorted(r.get("label") for r in rel if r.get("status") == "quarantined")
    if held != QUARANTINED or forms.get("quarantined") != QUARANTINED:
        bad.append(f"quarantined relations {held}, want {QUARANTINED}")
    final = report.get("classify", {}).get("final", [])
    if sorted(final) != sorted(CLASSIFIED) or len(final) != len(CLASSIFIED):
        bad.append(f"classified values {final}")
    catalog = report.get("catalog", {})
    cat = catalog.get("reports", [])
    if len(cat) != CATALOG_COUNT:
        bad.append(f"{len(cat)} catalog reports, want {CATALOG_COUNT}")
    unverified = [r.get("label") for r in cat if r.get("status") != "verified"]
    if unverified or catalog.get("failed"):
        bad.append(f"catalog entries not verified: {unverified}")
    chars = report.get("characters", {})
    if sorted(chars) != sorted(CHARACTER_CASES):
        bad.append(f"character cases {sorted(chars)}")
    wrong = [k for k, v in chars.items() if v.get("verified") is not True]
    if wrong:
        bad.append(f"character cases not verified: {wrong}")
    return bad


def catalog_section_requests(report) -> list[tuple[str, int]]:
    """(section, order) of each catalog report, in order."""
    return [(r["label"].rsplit(".", 1)[0], int(r["order"]))
            for r in report["catalog"]["reports"]]
