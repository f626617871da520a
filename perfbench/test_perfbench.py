"""The benchmark's own tests: negative controls and a tiny-size smoke run.

    python3 -m unittest discover -s perfbench

Each negative control breaks one reference or one op on purpose and checks
that the benchmark counts the op as failed.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = 0.1


class NegativeControls(unittest.TestCase):

    def setUp(self):
        self.cli = run.import_cli()
        self.workdir = run.ROOT / ".perfbench" / "work" / f"test-{self.id()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.addCleanup(shutil.rmtree, self.workdir, True)

    def fail_ratio(self, workload, ops: int) -> float:
        records, _ = run.measure(self.cli, workload, None, ops)
        return len(run.failures(workload, records)) / len(records)

    def test_corrupted_reference_verdict(self):
        workload = WORKLOADS["check"](1, self.workdir, TINY)
        self.assertEqual(self.fail_ratio(workload, workload.size), 0)
        ref = workload.info["refs"][0]
        ref["value"] = not ref["value"]
        self.assertGreater(self.fail_ratio(workload, workload.size), 0)

    def test_proof_expected_at_wrong_line(self):
        workload = WORKLOADS["prove"](1, self.workdir, TINY)
        self.assertEqual(self.fail_ratio(workload, workload.size), 0)
        expected = workload.info["expected"]
        j = next(i for i, line in enumerate(expected) if line is not None)
        expected[j] += 1
        self.assertGreater(self.fail_ratio(workload, workload.size), 0)

    def test_fuzz_nonzero_exit(self):
        workload = WORKLOADS["fuzz"](1, self.workdir, TINY)
        self.assertEqual(self.fail_ratio(workload, 1), 0)
        original = self.cli._cmd_fuzz
        self.cli._cmd_fuzz = lambda args: original(args) or 1
        self.addCleanup(setattr, self.cli, "_cmd_fuzz", original)
        self.assertGreater(self.fail_ratio(workload, 1), 0)

    def test_valid_body_answers_agree_with_the_oracle(self):
        from knowhow.system import load_system
        from oracle import answer
        from workloads import horizon_inputs

        models, queries = horizon_inputs(1, TINY)
        systems = [load_system(gen.model_text(m)) for m in models]
        checked = [q for q in queries if q["expect"] is not None]
        self.assertTrue(checked)
        for q in checked:
            if q.get("first"):  # the oracle needs hours at N = 7; x -> x is valid at any N
                q = {**q, "history": q["history"].split(" ; ")[0], "horizon": 2}
            self.assertEqual(answer(systems[q["model"]], q), q["expect"], q["formula"])


class SmokeRun(unittest.TestCase):

    def test_tiny_runs_print_every_metric_with_its_unit(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for name in WORKLOADS:
            for trace, declared in ((False, bench["end_to_end"]),
                                    (True, bench["per_layer"])):
                with self.subTest(workload=name, trace=trace):
                    result, measured = run.run(name, 1, 3.0, trace, scale=TINY)
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        run.report(name, 1, result, measured)
                    lines = out.getvalue().splitlines()
                    self.assertEqual(json.loads(lines[-1]), result)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual({m["name"] for m in declared},
                                     set(result["metrics"]))
                    for m in declared:
                        self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                        self.assertTrue(any(line.split()[:1] == [m["name"]]
                                            and line.endswith(" " + m["unit"])
                                            for line in lines))
                    self.assertTrue(any(line.split()[:1] == ["fail_ratio"] for line in lines))


if __name__ == "__main__":
    unittest.main()
