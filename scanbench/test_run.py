"""Tests of the benchmark driver's own code.

    python3 -m unittest discover -s scanbench -p 'test_*.py'

Run from the repository root. The last test scans a small generated archive
with the real binaries and is skipped until `scanbench/run.py` (or the two
`cargo build` commands it runs) has built them.
"""

import os
import shutil
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SAMPLE_STDOUT = """\
src/a_0.mc:1: unstable code in `fn_1` [elimination]
  code in block if.then is reachable only by inputs that trigger undefined behavior
  due to null pointer dereference at src/a_0.mc:1
src/a_0.mc:1: unstable code in `fn_1` [simplification (boolean oracle)]
  check always evaluates to false under the well-defined program assumption
  due to null pointer dereference at src/a_0.mc:1
src/a_0.mc:4: unstable code in `fn_4` [simplification (algebra oracle)]
  check always evaluates to false under the well-defined program assumption
  due to signed integer overflow at src/a_0.mc:4
deep/dir/b_1.mc:2: unstable code in `churn_7` [elimination]
  due to signed integer overflow at deep/dir/b_1.mc:2
scan summary
  files                  3  (1 failed)
  skipped 0 unchanged modules (0.0% of 3)
  replayed 4 unchanged functions (40.0% of 10)
  functions             10
  reports                4
  degraded               2 module(s) hit the query budget (9 queries fell back to Unknown; results not persisted)
  elapsed               12 ms  (2 job(s) x 1 thread(s))
"""

SAMPLE_STDERR = """\
stack: src/c_0.mc: parse error at 1:3: expected `(`
stack: saved 119 cache entries to .bench_work/scan.qs
stack: saved 3840 function records to .bench_work/scan.ss
"""


class ParseTest(unittest.TestCase):
    def test_reports_are_grouped_by_file_name_and_function(self):
        reported, stream, summary = run.parse_scan_output(SAMPLE_STDOUT)
        self.assertEqual(reported, {"a_0.mc": {"fn_1", "fn_4"}, "b_1.mc": {"churn_7"}})
        self.assertTrue(stream.endswith("deep/dir/b_1.mc:2\n"))
        self.assertNotIn("scan summary", stream)
        self.assertEqual(summary["files"], (3, 1))
        self.assertEqual(summary["functions"], (10,))
        self.assertEqual(summary["replayed"], (4,))
        self.assertEqual(summary["degraded"], (2,))

    def test_output_without_summary_keeps_every_line_in_the_stream(self):
        reported, stream, summary = run.parse_scan_output(SAMPLE_STDOUT.split("scan summary")[0])
        self.assertEqual(len(reported), 2)
        self.assertEqual(summary, {})
        self.assertEqual(stream, SAMPLE_STDOUT.split("scan summary")[0])

    def test_only_per_file_failures_count(self):
        self.assertEqual(run.count_failure_lines(SAMPLE_STDERR), 1)

    def test_verdict_errors_compare_distinct_functions_with_ground_truth(self):
        reported, _, _ = run.parse_scan_output(SAMPLE_STDOUT)
        truth = {"a_0.mc": 2, "b_1.mc": 1, "c_0.mc": 0}
        self.assertEqual(run.verdict_errors(reported, truth), 0)
        self.assertEqual(run.verdict_errors(reported, dict(truth, **{"c_0.mc": 1})), 1)
        self.assertEqual(run.verdict_errors(reported, dict(truth, **{"a_0.mc": 3})), 1)
        # A file the generator never wrote is an error too.
        self.assertEqual(run.verdict_errors(reported, {"a_0.mc": 2}), 1)

    def test_check_scan_flags_failures_and_degraded_modules(self):
        reported, _, summary = run.parse_scan_output(SAMPLE_STDOUT)
        scan = {"exit": 2, "reported": reported, "summary": summary,
                "failure_lines": 1, "stderr": SAMPLE_STDERR}
        truth = {"files": 3, "functions": 10, "semantic_edits": 0,
                 "injected": {"a_0.mc": 2, "b_1.mc": 1, "c_0.mc": 0}}
        problems = run.check_scan(scan, truth, {"mode": "cold"})
        self.assertEqual(scan["attempted"], 3)
        self.assertEqual(scan["failed"], 3)
        self.assertEqual(scan["verdict_errors"], 0)
        self.assertEqual(len(problems), 1, problems)
        self.assertIn("exit status 2", problems[0])
        problems = run.check_scan(scan, dict(truth, functions=14, semantic_edits=4),
                                  {"mode": "rescan"})
        self.assertTrue(any("replayed 4 functions, expected 10" in p for p in problems))


class SpecTest(unittest.TestCase):
    def setUp(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.bench = run.load_json(os.path.join(root, "BENCHMARK.json"))
        self.spec = run.load_json(os.path.join(run.HERE, "workloads.json"))

    def test_workloads_agree(self):
        names = [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(sorted(names), sorted(self.spec["workloads"]))
        for name, workload in self.spec["workloads"].items():
            self.assertIn(workload["mode"], ("cold", "rescan"), name)
            self.assertEqual(workload["mode"] == "rescan", "churn_pct" in workload, name)

    def test_layer_map_names_every_per_layer_metric_and_real_targets(self):
        layers = [m["name"] for m in self.bench["per_layer"]]
        self.assertEqual(sorted(layers), sorted(self.spec["layer_map"]))
        end_to_end = {m["name"] for m in self.bench["end_to_end"]}
        for layer, targets in self.spec["layer_map"].items():
            for target in targets:
                self.assertIn(target["metric"], end_to_end, layer)
                self.assertIn(target["workload"], self.spec["workloads"], layer)


def built_binaries():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    release = os.path.join(target, "release")
    binaries = os.path.join(release, "stack"), os.path.join(release, "scanbench")
    return binaries if all(os.path.exists(b) for b in binaries) else None


@unittest.skipUnless(built_binaries(), "binaries not built yet")
class RealScanTest(unittest.TestCase):
    def test_parsed_scan_of_a_generated_archive_matches_ground_truth(self):
        stack, bench = built_binaries()
        work = os.path.join(run.WORK_ROOT, f"test-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        try:
            workload = {"mode": "rescan", "churn_pct": 0.25,
                        "archive": {"packages": 4, "functions_per_file": 5, "variants": 8}}
            src, primed, truth = run.set_up(stack, bench, workload, 3, work)
            self.assertGreater(truth["semantic_edits"], 0)
            stores = (os.path.join(work, "q.qs"), os.path.join(work, "s.ss"))
            run.reset_stores(stores, primed)
            scan = run.stack_scan(stack, bench, src, stores, work)
            self.assertEqual(run.check_scan(scan, truth, workload), [])
            self.assertEqual(scan["failed"], 0)
            self.assertGreater(scan["store_bytes"], 0)
            self.assertTrue(any(scan["reported"].values()))
            wrong = dict(truth["injected"])
            first = sorted(wrong)[0]
            wrong[first] += 1
            self.assertEqual(run.verdict_errors(scan["reported"], wrong), 1)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                os.rmdir(run.WORK_ROOT)
            except OSError:
                pass


if __name__ == "__main__":
    unittest.main()
