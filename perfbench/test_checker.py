"""Self-tests of the benchmark's answer checks, estimator and tracer.

    python3 -m unittest discover -s perfbench -p "test_*.py"

A wrong answer must be counted as failed, and a short run of every
workload on a correct library must fail nothing.
"""

from __future__ import annotations

import json
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import wl_cli  # noqa: E402
import wl_model  # noqa: E402

lib = run.import_library()


def flip_byte(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]


class CheckerCatchesWrongAnswers(unittest.TestCase):
    def test_corrupted_free_group_certificate(self):
        u, v = (("a", 1), ("b", -1)), (("c", 1),)
        expr = lib.culler_expand(lib.Word(u), lib.Word(v), 5)
        target = checker.culler_target(u, v, 5)
        self.assertIsNone(checker.check_expression(expr, target, 3))
        first = expr.factors[0]
        bad = first._replace(left=first.left * lib.Word((("d", 1),)))
        corrupted = expr._replace(factors=(bad,) + expr.factors[1:])
        self.assertIsNotNone(checker.check_expression(corrupted, target, 3))
        self.assertIsNotNone(checker.check_expression(expr, target, 4))

    def test_corrupted_cli_certificate(self):
        out, code = wl_cli._run(lib.cli.main, ["expand", "culler", "--k", "7", "--emit", "--json"])
        self.assertIsNone(checker.check_cli_certificate(out, code, "culler", 7))
        report = json.loads(out)
        factor = report["certificate"]["factors"][1]
        factor["right"] = factor["right"] + " u"
        self.assertIsNotNone(
            checker.check_cli_certificate(checker.canonical(report), code, "culler", 7)
        )

    def test_golden_output_with_one_byte_flipped(self):
        argv, code, expected = wl_cli.load_golden_cases(run.ROOT)[0]
        out, got = wl_cli._run(lib.cli.main, list(argv))
        self.assertIsNone(checker.check_golden(out, got, expected, code))
        for at in (0, len(out) // 2, len(out) - 2):
            flipped = flip_byte(out.encode(), at).decode()
            self.assertIsNotNone(checker.check_golden(flipped, got, expected, code))

    def test_flipped_model_answer(self):
        for req in wl_model.requests(random.Random(7), lib, 40):
            answer = req.call()
            self.assertIsNone(req.check(answer))
            if req.kind == "equal_in_rep":
                self.assertIsNotNone(req.check(not answer))
                continue
            first, second = answer
            if first == second:
                images = dict(second.images)
                images["x"] = images["x"] * lib.Word((("y", 1),))
                second = lib.Automorphism(images)
            else:
                second = first
            self.assertIsNotNone(req.check((first, second)))

    def test_refusal_needs_status_2(self):
        out, code = wl_cli._run(lib.cli.main, ["matrix", "--size", "0", "--json"])
        self.assertIsNone(checker.check_refusal(out, code, "matrix"))
        self.assertIsNotNone(checker.check_refusal(out, 0, "matrix"))
        self.assertIsNotNone(checker.check_beyond_table(out.replace("refused", "ok"), 0, 43))


class WorkloadsPassOnTheLibrary(unittest.TestCase):
    def _run(self, workload: str, limit: int):
        once, pool = run.build(workload, random.Random(11), lib)
        out = run.run_loop(once, pool, 0, limit=limit)
        self.assertEqual(len(out.latencies), limit)
        self.assertEqual(out.failed, 0, dict(out.reasons))

    def test_expand(self):
        self._run("expand", 60)

    def test_replay(self):
        self._run("replay", 60)

    def test_model(self):
        self._run("model", 60)

    def test_cli(self):
        # The first request is the multi-second beyond-table expansion.
        self._run("cli", 60)


class Estimator(unittest.TestCase):
    def test_scaling_medians_and_session_throughput(self):
        out = run.Outcome()
        unit = reference.REFERENCE_NS
        # One 2 s once-request, then three passes over a pool of two; the
        # third pass ran while the machine was twice as slow.
        out.record("once", 2_000_000_000, unit, None)
        for ns, kernel in ((1e6, unit), (3e6, unit), (1.2e6, unit), (2.8e6, unit),
                           (2e6, 2 * unit), (6e6, 2 * unit)):
            out.record("pool", ns, kernel, None)
        metrics = run.end_to_end(out, once=1, pool=2, setup_s=0.1)
        self.assertAlmostEqual(metrics["latency_p50_ms"][0], 1.0)
        self.assertAlmostEqual(metrics["latency_p99_ms"][0], 3.0)
        busy = 2 + run.SESSION_PASSES * (1e-3 + 3e-3)
        self.assertAlmostEqual(metrics["ops_per_s"][0], (1 + run.SESSION_PASSES * 2) / busy)


class TracerHygiene(unittest.TestCase):
    def test_metrics_resolve_and_originals_return(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        before = (lib.culler_expand, lib.cli.culler_expand, lib.commutators.commutator,
                  lib.Word.__mul__, lib.TwistWord.__dict__["parse"])
        trace = tracer.Tracer()
        trace.install(lib)
        try:
            self.assertIsNot(lib.cli.culler_expand, before[1])
            self.assertIs(lib.cli.culler_expand, lib.commutators.culler_expand)
            self.assertIsNot(lib.commutators.commutator, before[2])
            lib.bavard_expand([(lib.Word((("a", 1),)), lib.Word((("b", 1),)))] * 2, 3)
        finally:
            trace.uninstall()
        after = (lib.culler_expand, lib.cli.culler_expand, lib.commutators.commutator,
                 lib.Word.__mul__, lib.TwistWord.__dict__["parse"])
        self.assertTrue(all(a is b for a, b in zip(before, after)))
        self.assertEqual(trace.absent, [])
        names = [m["name"] for m in spec["per_layer"] if not m["name"].startswith("trace.")]
        values = {name: trace.value(name) for name in names}
        self.assertEqual(values["commutators.bavard_expand.calls"], 1)
        self.assertGreater(values["words.free_reduce.self_ms"], 0)

    def test_missing_target_is_reported_absent(self):
        trace = tracer.Tracer()
        original = tracer.TARGETS
        tracer.TARGETS = original + (tracer.Target("words.no_such_function"),)
        try:
            trace.install(lib)
        finally:
            trace.uninstall()
            tracer.TARGETS = original
        self.assertEqual(trace.absent, ["words.no_such_function"])
        self.assertIsNone(trace.value("words.no_such_function.calls"))


if __name__ == "__main__":
    unittest.main()
