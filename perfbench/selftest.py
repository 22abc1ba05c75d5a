"""Self-test of the benchmark's own machinery (not of seqevl).

    python3 perfbench/selftest.py

Shows that the correctness gate catches a perturbed CSV cell and a changed
exit code while tolerating what it should, and that a traced run puts back
every attribute it patched, also when the traced code raises.
"""

import copy
import shutil
import sys
import threading
import unittest

import lab

lab.cap_threads()
CLI = lab.load_seqevl()

import gate  # noqa: E402
import tracing  # noqa: E402


def _patched_attrs():
    modules = tracing.program_modules()
    out = {}
    for name, where in {**tracing.SPANS, **tracing.COUNTERS}.items():
        owner, attr = tracing._target(modules, where)
        out[name] = (owner, attr, owner.__dict__[attr])
    return out


def _replace_cell(data: bytes, row: int, col: str, value: str) -> bytes:
    rows = gate._rows(data)
    rows[row][rows[0].index(col)] = value
    return "".join(",".join(r) + "\r\n" for r in rows).encode()


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ref = gate.load_reference("cli-defaults", lab.DEFAULT_SEED)
        if cls.ref is None:
            raise unittest.SkipTest("no committed reference for cli-defaults")
        from seqevl.config import ExperimentConfig
        cls.n_samples = ExperimentConfig.n_samples  # cli-defaults runs the defaults

    def got(self, op):
        entry = copy.deepcopy(self.ref[op])
        entry["passed"] = entry["exit_code"] == 0
        entry["n_samples"] = self.n_samples
        return entry

    def test_reference_matches_itself(self):
        for op in self.ref:
            problems, identical = gate.check_op(self.got(op), self.ref[op])
            self.assertEqual(problems, [])
            self.assertTrue(identical)

    def test_threshold_cell_beyond_1e9_relative_fails(self):
        got = self.got("01-calibrate")
        data = got["tables"]["thresholds"]
        delta = float(gate._rows(data)[5][1])
        got["tables"]["thresholds"] = _replace_cell(data, 5, "delta", repr(delta * (1 + 1e-7)))
        problems, identical = gate.check_op(got, self.ref["01-calibrate"])
        self.assertFalse(identical)
        self.assertTrue(any("thresholds row 5 delta" in p for p in problems), problems)

    def test_threshold_cell_within_1e9_relative_passes_but_not_identical(self):
        got = self.got("01-calibrate")
        data = got["tables"]["thresholds"]
        delta = float(gate._rows(data)[5][1])
        got["tables"]["thresholds"] = _replace_cell(data, 5, "delta", repr(delta * (1 + 1e-12)))
        problems, identical = gate.check_op(got, self.ref["01-calibrate"])
        self.assertEqual(problems, [])
        self.assertFalse(identical)

    def test_monte_carlo_cell_is_held_to_its_own_se(self):
        data = self.ref["00-evl"]["tables"]["evl"]
        row = gate._rows(data)[1]
        header = gate._rows(data)[0]
        estimate, se = float(row[header.index("estimate")]), float(row[header.index("se")])
        for shift, should_pass in ((0.5, True), (2.0, False)):
            got = self.got("00-evl")
            got["tables"]["evl"] = _replace_cell(data, 1, "estimate", repr(estimate + shift * se))
            problems, _ = gate.check_op(got, self.ref["00-evl"])
            self.assertEqual(problems == [], should_pass, (shift, problems))

    def test_d0_frequencies_are_held_to_their_binomial_se(self):
        data = self.ref["03-d0"]["tables"]["d0"]
        header, row = gate._rows(data)[:2]
        for col in ("p_event", "p_window"):
            p = float(row[header.index(col)])
            se = (p * (1 - p) / self.n_samples) ** 0.5
            for shift, should_pass in ((0.5, True), (2.0, False)):
                got = self.got("03-d0")
                got["tables"]["d0"] = _replace_cell(data, 1, col, repr(p + shift * se))
                problems, _ = gate.check_op(got, self.ref["03-d0"])
                self.assertEqual(problems == [], should_pass, (col, shift, problems))

    def test_changed_exit_code_fails(self):
        got = self.got("04-decay")
        got["exit_code"] = 2
        problems, _ = gate.check_op(got, self.ref["04-decay"])
        self.assertTrue(any("exit code 2 != reference 0" in p for p in problems), problems)

    def test_without_reference_only_own_checks_apply(self):
        got = self.got("04-decay")
        self.assertEqual(gate.check_op(got, None), ([], None))
        got["exit_code"] = 1
        self.assertTrue(gate.check_op(got, None)[0])
        got["exit_code"] = None
        self.assertEqual(gate.check_op(got, None)[0], ["call raised"])


class TraceRestoreTest(unittest.TestCase):
    def setUp(self):
        self.before = _patched_attrs()
        self.work = lab.WORK / "selftest"
        ops = [lab.Op("00-evl", "evl", (("n", 40), ("n_samples", 40_000), ("workers", 2))),
               lab.Op("01-orbit", "orbit", (("n", 50),))]
        self.ops = ops
        self.configs = lab.write_configs(ops, self.work / "configs")

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def assert_restored(self):
        for name, (owner, attr, original) in self.before.items():
            self.assertIs(owner.__dict__[attr], original, name)

    def test_traced_pass_records_and_restores(self):
        tracer = tracing.Tracer()
        with tracer:
            for name, (owner, attr, original) in self.before.items():
                self.assertIsNot(owner.__dict__[attr], original, name)
            results, wall, _ = lab.run_pass(CLI, self.ops, self.configs, self.work / "out")
        self.assert_restored()
        self.assertEqual([r.exit_code for r in results], [0, 0])
        names = {s.name for s in tracer.spans}
        self.assertTrue({"experiments.run", "thresholds.build", "thresholds.calibrate",
                         "transfer.push", "montecarlo.pn", "maps.orbit"} <= names, names)
        metrics = tracing.layer_metrics(tracer, {"evl": 0.0}, wall, wall, 0)
        self.assertEqual(metrics["montecarlo.sample_steps"][0], 40_000 * 39)
        self.assertGreater(metrics["maps.points_stepped"][0], 0)
        self.assertLessEqual(metrics["maps.useful_frac"][0], 1.0)
        self.assertEqual(metrics["transfer.push_steps"][0], 39)

    def test_restore_after_exception(self):
        with self.assertRaises(ZeroDivisionError):
            with tracing.Tracer():
                1 / 0
        self.assert_restored()

    def test_counters_lose_no_update_under_thread_contention(self):
        import numpy as np
        x = np.full(64, 0.3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with tracing.Tracer() as tracer:
                step = sys.modules["seqevl.montecarlo"].apply_map_batch
                threads = [threading.Thread(target=lambda: [step(0.1, x) for _ in range(2000)])
                           for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        self.assertFalse(any(t.is_alive() for t in threads))
        self.assertEqual(tracer.counts["maps.step_calls"], 4 * 2000)
        self.assertEqual(tracer.counts["maps.points_stepped"], 4 * 2000 * 64)


class UnionTest(unittest.TestCase):
    def test_self_time_subtracts_overlapping_children_once(self):
        spans = [tracing.Span(0, "a", 0.0, 10.0, None, None, 0, {}),
                 tracing.Span(1, "b", 1.0, 4.0, 0, None, 0, {}),
                 tracing.Span(2, "c", 3.0, 6.0, 0, None, 0, {}),
                 tracing.Span(3, "d", 3.5, 3.6, 2, None, 0, {})]
        selfs = tracing.self_times(spans)
        self.assertAlmostEqual(selfs[0], 5.0)
        self.assertAlmostEqual(selfs[2], 2.9)


if __name__ == "__main__":
    unittest.main()
