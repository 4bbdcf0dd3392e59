"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import gates  # noqa: E402
import inputs  # noqa: E402
import worker  # noqa: E402
from spans import Tracer, root_total, self_times  # noqa: E402
from worker import timed_op  # noqa: E402


def _good_report():
    rel = [{"label": f"x.{i}", "status": "verified"} for i in range(34)]
    rel += [{"label": lb, "status": "quarantined"} for lb in gates.QUARANTINED]
    return {
        "ok": True,
        "forms": {"reports": rel, "quarantined": list(gates.QUARANTINED)},
        "classify": {"final": list(inputs.CLASSIFIED)},
        "catalog": {"reports": [{"label": lb, "status": "verified", "order": 40}
                                for lb in inputs.LABELS],
                    "quarantine": [], "failed": []},
        "characters": {c: {"verified": True} for c in gates.CHARACTER_CASES},
    }


class ReproduceGate(unittest.TestCase):
    def test_good_report_passes(self):
        self.assertEqual(gates.reproduce_problems(_good_report()), [])

    def test_each_corruption_is_caught(self):
        corruptions = [
            lambda r: r.update(ok=False),
            lambda r: r["forms"]["reports"].pop(),
            lambda r: r["forms"]["reports"][0].update(status="failed"),
            lambda r: r["forms"]["reports"][-1].update(status="verified"),
            lambda r: r["classify"]["final"].pop(),
            lambda r: r["catalog"]["reports"][5].update(status="failed"),
            lambda r: r["characters"]["E8"].update(verified=False),
            lambda r: r["characters"].pop("G2"),
        ]
        for corrupt in corruptions:
            report = _good_report()
            corrupt(report)
            self.assertNotEqual(gates.reproduce_problems(report), [])
        self.assertNotEqual(gates.reproduce_problems(None), [])


class SessionFailures(unittest.TestCase):
    def test_correct_output_passes(self):
        r = {"kind": "solve", "s": "6/5", "alpha": "-1/10", "log": False, "order": 12}
        tr = Tracer(False)
        rec = timed_op(tr, "session.solve", lambda: worker.req_solve(tr, r),
                       lambda text: worker.check_solve(r, text), 10.0)
        self.assertEqual(rec["status"], "ok")

    def test_corrupted_output_is_a_failure(self):
        r = {"kind": "solve", "s": "6/5", "alpha": "-1/10", "log": False, "order": 12}
        tr = Tracer(False)

        def corrupted():
            payload = json.loads(worker.req_solve(tr, r))
            payload["series"]["coeffs"][5] = "7/3"
            return json.dumps(payload)
        rec = timed_op(tr, "session.solve", corrupted,
                       lambda text: worker.check_solve(r, text), 10.0)
        self.assertEqual(rec["status"], "wrong")

    def test_corrupted_form_is_a_failure(self):
        r = {"kind": "forms", "name": "psi2", "order": 50}
        tr = Tracer(False)
        good = worker.req_forms(tr, r)
        worker.check_forms(r, good)
        payload = json.loads(good)
        payload["series"]["coeffs"][3] += "1"
        with self.assertRaises(worker.WrongOutput):
            worker.check_forms(r, json.dumps(payload))

    def test_deadline_miss_is_a_failure(self):
        r = {"kind": "indicial", "s": inputs.HANGING_INDICIAL}
        tr = Tracer(False)
        rec = timed_op(tr, "session.indicial", lambda: worker.req_indicial(tr, r),
                       lambda text: worker.check_indicial(r, text), 0.3)
        self.assertEqual(rec["status"], "deadline")
        self.assertLess(rec["ms"], 3000)

    def test_raise_is_a_failure(self):
        rec = timed_op(Tracer(False), "x", lambda: 1 / 0, None)
        self.assertEqual(rec["status"], "raised")


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        a = inputs.session_requests(inputs.pass_rng(7, 0))
        self.assertEqual(a, inputs.session_requests(inputs.pass_rng(7, 0)))
        self.assertNotEqual(a, inputs.session_requests(inputs.pass_rng(8, 0)))
        self.assertGreaterEqual(len(a), 100)   # p90 keeps 10 samples above it
        self.assertEqual(sum(r.get("s") == inputs.HANGING_INDICIAL for r in a), 1)

    def test_section_counts(self):
        once = [(sec, 40) for sec in inputs.SECTIONS for _ in range(4)]
        self.assertEqual(inputs.section_counts(once), (23, 0.0))
        self.assertEqual(inputs.section_counts([("B.a", 30), ("B.a", 20), ("B.a", 35)]),
                         (3, 1 / 3))
        self.assertEqual(inputs.section_counts([]), (0, 0.0))

    def test_case_lattices_match_the_package(self):
        # theta_s times the enumeration alone only if verify_case then hits
        # the same cached lattices
        from mldelab import characters
        for case in inputs.COSET_COUNTS:
            gram, cosets, _ = characters._case_data(case)
            want = [characters.lattice(gram, c) for c in cosets]
            self.assertEqual(worker.case_lattices(case), want)


class Spans(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [[0, None, 0, "a", 0.0, 10.0], [1, 0, 0, "b", 1.0, 4.0],
                 [2, 0, 0, "b", 5.0, 6.0], [3, None, 3, "c", 11.0, 12.0]]
        self.assertEqual(self_times(spans), {"a": 6.0, "b": 4.0, "c": 1.0})
        self.assertEqual(root_total(spans), 11.0)

    def test_disabled_tracer_records_nothing(self):
        tr = Tracer(False)
        with tr.span("a"):
            pass
        self.assertEqual(tr.spans, [])
        tr = Tracer(True)
        with tr.span("a"):
            with tr.span("b"):
                pass
        self.assertEqual([(s[1], s[2], s[3]) for s in tr.spans], [(None, 0, "a"), (0, 0, "b")])


if __name__ == "__main__":
    unittest.main()
