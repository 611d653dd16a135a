"""Tests of the benchmark's own checks: each one refuses a perturbed result.

Run from the root of a checkout:  python3 geigbench/selftest.py
"""

import json
import math
import os
import sys
import tempfile
import types
import unittest

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

GOOD_SUMMARY = {"converged": True, "mg_contraction": 0.3,
                "cond_B": {"2": 19.5, "3": 246.7, "4": 923.4}}


class StatusCheck(unittest.TestCase):
    def test_accepts_converged_exit_0(self):
        self.assertEqual(checks.check_status(0, GOOD_SUMMARY), [])

    def test_refuses_nonzero_exit(self):
        self.assertTrue(checks.check_status(2, GOOD_SUMMARY))

    def test_refuses_not_converged(self):
        self.assertTrue(checks.check_status(0, dict(GOOD_SUMMARY, converged=False)))


class EigenvalueChecks(unittest.TestCase):
    ref = np.array([12.0, 23.0, 27.0, 41.0])

    def test_accepts_within_bound(self):
        lams = self.ref * (1 + 5e-9)
        self.assertEqual(checks.check_eigenvalues(lams, self.ref, 1e-8), [])
        self.assertEqual(checks.check_upper_bounds(lams, self.ref), [])

    def test_refuses_outside_bound(self):
        lams = self.ref.copy()
        lams[2] *= 1 + 2e-8
        self.assertEqual(len(checks.check_eigenvalues(lams, self.ref, 1e-8)), 1)

    def test_refuses_nan_and_wrong_count(self):
        lams = self.ref.copy()
        lams[0] = math.nan
        self.assertTrue(checks.check_eigenvalues(lams, self.ref, 1e-8))
        self.assertTrue(checks.check_eigenvalues(self.ref[:3], self.ref, 1e-8))

    def test_refuses_value_below_reference(self):
        lams = self.ref.copy()
        lams[1] *= 1 - 1e-10
        self.assertEqual(len(checks.check_upper_bounds(lams, self.ref)), 1)
        lams[1] = self.ref[1] * (1 - 1e-14)
        self.assertEqual(checks.check_upper_bounds(lams, self.ref), [])


class DiagnosticsCheck(unittest.TestCase):
    def test_accepts_good_summary(self):
        self.assertEqual(checks.check_diagnostics(GOOD_SUMMARY, 4), [])

    def test_refuses_bad_contraction(self):
        for rho in (0.0, 1.0, 1.5, math.nan, None):
            s = dict(GOOD_SUMMARY, mg_contraction=rho)
            self.assertTrue(checks.check_diagnostics(s, 4), rho)

    def test_refuses_bad_condition_numbers(self):
        for bad in (0.5, math.inf, math.nan):
            s = dict(GOOD_SUMMARY, cond_B=dict(GOOD_SUMMARY["cond_B"], **{"3": bad}))
            self.assertTrue(checks.check_diagnostics(s, 4), bad)
        self.assertTrue(checks.check_diagnostics(GOOD_SUMMARY, 5))


class HistoryDigestCheck(unittest.TestCase):
    def test_first_run_and_repeat_pass(self):
        self.assertEqual(checks.check_history_digest("ab" * 32, None), [])
        self.assertEqual(checks.check_history_digest("ab" * 32, "ab" * 32), [])

    def test_refuses_changed_history(self):
        self.assertTrue(checks.check_history_digest("ab" * 32, "cd" * 32))


def _trace(spans, absent=()):
    return {"spans": spans, "absent": list(absent), "meta": {}}


class CrossCheck(unittest.TestCase):
    # one MC sweep at level 2 with nev = 2: two multigrid solves
    mc_spans = [["correction.multilevel_correction", 0, 10, -1, {}],
                ["correction.correct_block", 1, 5, 0, {}],
                ["multigrid.mg", 1, 2, 1, {"k": 2}],
                ["multigrid.mg", 2, 3, 1, {"k": 2}]]
    mc_history = [{"sweep": 0, "level": 1}, {"sweep": 0, "level": 1},
                  {"sweep": 1, "level": 2}, {"sweep": 1, "level": 2}]

    def test_mc_counts_agree(self):
        self.assertEqual(layers.cross_check(_trace(self.mc_spans),
                                            self.mc_history, "mc", 2), [])

    def test_refuses_missing_multigrid_solve(self):
        trace = _trace(self.mc_spans[:3])
        self.assertTrue(layers.cross_check(trace, self.mc_history, "mc", 2))

    def test_refuses_extra_sweep(self):
        spans = self.mc_spans + [["correction.correct_block", 6, 7, 0, {}]]
        self.assertTrue(layers.cross_check(_trace(spans), self.mc_history, "mc", 2))

    def test_lobpcg_preconditioner_count(self):
        history = [{"sweep": s, "level": 4} for s in range(3) for _ in range(2)]
        spans = [["lobpcg.lobpcg", 0, 10, -1, {}]]
        for it in range(2):
            spans.append(["lobpcg.apply_block", it, it + 1, 0, {}])
            parent = len(spans) - 1
            spans += [["multigrid.precondition", it, it + 0.5, parent, {}]] * 2
        self.assertEqual(layers.cross_check(_trace(spans), history, "lobpcg", 2), [])
        self.assertTrue(layers.cross_check(_trace(spans[:-1]), history, "lobpcg", 2))

    def test_absent_names_skip_rather_than_fail(self):
        trace = _trace([], absent=["geig.correction.correct_block"])
        self.assertEqual(layers.cross_check(trace, self.mc_history, "mc", 2), [])


class TracerTest(unittest.TestCase):
    def test_spans_nest_and_absent_names_are_reported(self):
        mod = types.ModuleType("fake")
        mod.inner = lambda x: x + 1
        mod.outer = lambda x: mod.inner(x) * 2
        tracer = tracing.Tracer()
        ok_outer = tracer.wrap(mod, "outer", "fake.outer")
        ok_inner = tracer.wrap(mod, "inner", "fake.inner")
        self.assertTrue(ok_outer and ok_inner)
        self.assertFalse(tracer.wrap(mod, "gone", "fake.gone"))
        tracer.install([("geig_no_such_module", "f", "x.f", None, None)])
        self.assertEqual(tracer.absent, ["geig_no_such_module.f"])
        self.assertEqual(mod.outer(1), 4)
        names = [s[0] for s in tracer.spans]
        self.assertEqual(names, ["fake.outer", "fake.inner"])
        self.assertEqual(tracer.spans[1][3], 0)

    def test_cg_spans_count_matvecs(self):
        mod = types.ModuleType("fake")
        mod.cg = lambda matvec, b: [matvec(b) for _ in range(3)][-1]
        tracer = tracing.Tracer()
        tracer.wrap(mod, "cg", "sparse.cg")
        mod.cg(lambda v: v, 1.0)
        self.assertEqual(tracer.spans[0][4]["matvecs"], 3)

    def test_every_metric_is_reported(self):
        for q in (4, 5):
            m = layers.layer_metrics(_trace([]), q)
            self.assertEqual(set(m), {n for n, _ in layers.metric_names(q)})


class RoundCheck(unittest.TestCase):
    """A round that fails or does not converge is refused, not skipped."""
    spec = workloads.WORKLOADS["mc_checker64"]
    ref = [12.0, 23.0, 27.0, 41.0]

    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.addCleanup(setattr, run, "OUT_DIR", run.OUT_DIR)
        run.OUT_DIR = tmp.name

    def round(self, exit_code=0, **summary):
        names = run.PHASE_NAMES + [run.SOLVER_PHASE["mc"]]
        return {"exit": exit_code,
                "trace": _trace([[n, 0, 1, -1, {}] for n in names]),
                "summary": dict(GOOD_SUMMARY, eigenvalues=self.ref, **summary),
                "history": b"sweep,level\n1,2\n"}

    def check(self, r):
        return run.check_round(r, self.spec, self.ref, 1e-8, False, "key")

    def test_accepts_good_round(self):
        r = self.round()
        self.assertEqual(self.check(r), [])
        self.assertTrue(r["complete"])

    def test_refuses_exit_2_not_converged(self):
        r = self.round(exit_code=2, converged=False)
        self.assertEqual(len(self.check(r)), 2)
        self.assertFalse(r["complete"])

    def test_refuses_round_that_left_nothing(self):
        r = {"exit": 1, "trace": None, "summary": None, "history": None}
        self.assertEqual(len(self.check(r)), 3)
        self.assertFalse(r["complete"])

    def test_refuses_missing_phase(self):
        r = self.round()
        del r["trace"]["spans"][0]
        self.assertEqual(len(self.check(r)), 1)
        self.assertFalse(r["complete"])

    def test_refuses_history_that_differs_from_an_earlier_round(self):
        self.assertEqual(self.check(self.round()), [])
        r = self.round()
        r["history"] = b"sweep,level\n1,3\n"
        self.assertEqual(len(self.check(r)), 1)


class BenchmarkFile(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        root = os.path.dirname(HERE)
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.E2E_UNITS)
        for w in bench["workloads"]:
            q = workloads.WORKLOADS[w["name"]]["levels"]
            self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                             layers.metric_names(q))


class ReferenceTest(unittest.TestCase):
    def test_matches_program_assembly(self):
        try:
            from geig.fem import CoefficientField, Grid, assemble
        except ImportError:
            self.skipTest("geig is not importable")
        a = workloads.checkerboard(64)[:16, :16]
        K_ref, M_ref = reference.assemble(a)
        K, M = assemble(Grid(16), CoefficientField(a))
        self.assertLess(abs(K_ref - K.to_scipy()).max(), 1e-12 * abs(K_ref).max())
        self.assertLess(abs(M_ref - M.to_scipy()).max(), 1e-12 * abs(M_ref).max())

    def test_grids_share_one_field(self):
        np.testing.assert_array_equal(workloads.checkerboard(128)[::2, ::2],
                                      workloads.checkerboard(64))

if __name__ == "__main__":
    unittest.main()
