#!/usr/bin/env python3
"""Tests of compare.py on synthetic reports.

    python3 bench/e2e/test_compare.py
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402


def metric(values, better="lower", bound=0.1, kind="rel",
           deterministic=False):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"unit": "s", "better": better, "bound": bound, "bound_kind": kind,
            "deterministic": deterministic, "n": len(values),
            "median": statistics.median(values), "q1": q[0], "q3": q[2],
            "values": list(values)}


def report(**metrics):
    return {"schema": 1, "workloads": {"w": {"metrics": metrics}}}


def steady(center, n=10, jitter=0.002):
    """n values alternating just around `center`."""
    return [center * (1 + jitter * (1 if i % 2 else -1)) for i in range(n)]


class VerdictTest(unittest.TestCase):
    def verdict(self, a, b):
        return compare.verdict(a, b)[0]

    def test_lower_is_better_gain(self):
        self.assertEqual(self.verdict(metric(steady(1.0)),
                                      metric(steady(0.8))), "better")

    def test_lower_is_better_regression(self):
        self.assertEqual(self.verdict(metric(steady(1.0)),
                                      metric(steady(1.2))), "worse")

    def test_higher_is_better_direction(self):
        a = metric(steady(0.90), better="higher", bound=0.05)
        self.assertEqual(self.verdict(a, metric(steady(0.80), "higher",
                                                0.05)), "worse")
        self.assertEqual(self.verdict(a, metric(steady(0.99), "higher",
                                                0.05)), "better")

    def test_change_within_bound_is_same(self):
        self.assertEqual(self.verdict(metric(steady(1.0)),
                                      metric(steady(1.05))), "same")

    def test_ties_count_for_neither_side(self):
        # Identical runs: every pair ties, so no gain can be claimed.
        self.assertEqual(self.verdict(metric([0.9] * 10, "higher"),
                                      metric([0.9] * 10, "higher")), "same")
        # Five ties and five wins is 5/10, short of the 9/10 rule.
        a = metric([1.0] * 10)
        b = metric([1.0] * 5 + [0.5] * 5)
        self.assertNotEqual(self.verdict(a, b), "better")

    def test_gain_needs_ten_pairs(self):
        self.assertEqual(self.verdict(metric(steady(1.0, n=9)),
                                      metric(steady(0.8, n=9))), "same")

    def test_gain_needs_gap_beyond_parent_iqr(self):
        a = metric([1.0, 1.3, 0.7, 1.2, 0.8, 1.1, 0.9, 1.25, 0.75, 1.05],
                   bound=0.5)
        b = metric([v - 0.05 for v in a["values"]], bound=0.5)
        self.assertEqual(self.verdict(a, b), "same")

    def test_wide_spread_is_unresolved(self):
        wide = [0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 0.75, 1.25, 1.0]
        self.assertEqual(self.verdict(metric(wide), metric(wide)),
                         "unresolved")

    def test_wide_spread_but_every_run_better_is_not_unresolved(self):
        a = metric([1.0, 1.3, 1.2, 1.25], bound=0.1)
        b = metric([0.5, 0.8, 0.7, 0.75], bound=0.1)
        self.assertEqual(self.verdict(a, b), "same")

    def test_absolute_bound_of_zero(self):
        a = metric([0.0] * 10, kind="abs", bound=0.0)
        self.assertEqual(self.verdict(a, metric([0.0] * 10, kind="abs",
                                                bound=0.0)), "same")
        self.assertEqual(self.verdict(a, metric([0.0] * 9 + [0.01],
                                                kind="abs", bound=0.0)),
                         "same")
        self.assertEqual(self.verdict(a, metric([0.01] * 10, kind="abs",
                                                bound=0.0)), "worse")


class MainTest(unittest.TestCase):
    def run_main(self, a_doc, b_doc, *flags):
        with tempfile.TemporaryDirectory() as tmp:
            pa, pb = Path(tmp, "a.json"), Path(tmp, "b.json")
            pa.write_text(json.dumps(a_doc))
            pb.write_text(json.dumps(b_doc))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = compare.main([str(pa), str(pb), *flags])
        return code, out.getvalue()

    def test_exit_nonzero_on_worse(self):
        code, out = self.run_main(report(job_s=metric(steady(1.0))),
                                  report(job_s=metric(steady(1.5))))
        self.assertEqual(code, 1)
        self.assertIn("worse", out)

    def test_aa_pass(self):
        a = report(job_s=metric(steady(1.0)),
                   loo_accuracy=metric([0.9] * 10, "higher", 0.05,
                                       deterministic=True))
        b = report(job_s=metric(steady(1.01)),
                   loo_accuracy=metric([0.9] * 10, "higher", 0.05,
                                       deterministic=True))
        code, out = self.run_main(a, b, "--aa")
        self.assertEqual(code, 0, out)
        self.assertIn("A/A: pass", out)

    def test_aa_fails_on_a_claimed_gain(self):
        code, out = self.run_main(report(job_s=metric(steady(1.0))),
                                  report(job_s=metric(steady(0.8))), "--aa")
        self.assertEqual(code, 1)
        self.assertIn("A/A: fail", out)

    def test_aa_fails_when_deterministic_outputs_differ(self):
        a = report(modularity=metric([0.9] * 10, "higher", 0.04,
                                     deterministic=True))
        b = report(modularity=metric([0.9] * 9 + [0.9001], "higher", 0.04,
                                     deterministic=True))
        code, _ = self.run_main(a, b, "--aa")
        self.assertEqual(code, 1)

    def test_aa_splits_one_report_into_interleaved_halves(self):
        # Host drift across the runs lands on both halves alike.
        drifting = [1.0 + 0.05 * i for i in range(10)]
        doc = report(job_s=metric(drifting),
                     loo_accuracy=metric([0.9] * 10, "higher", 0.05,
                                         deterministic=True))
        a, b = compare.split_runs(doc)
        self.assertEqual(a["workloads"]["w"]["metrics"]["job_s"]["values"],
                         drifting[0::2])
        self.assertEqual(b["workloads"]["w"]["metrics"]["job_s"]["n"], 5)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "aa.json")
            path.write_text(json.dumps(doc))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = compare.main(["--aa", str(path)])
        self.assertEqual(code, 0, out.getvalue())
        with self.assertRaises(SystemExit), \
                contextlib.redirect_stderr(io.StringIO()):
            compare.main([str(path)])

    def test_malformed_report_is_refused(self):
        bad = report(job_s=dict(metric(steady(1.0)), n=3))
        with self.assertRaises(ValueError):
            compare.validate(bad)
        code, _ = self.run_main(bad, bad)
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main()
