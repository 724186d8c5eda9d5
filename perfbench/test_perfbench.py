"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They check that the generator is a pure function of its seed, that tracing
changes no output byte, that the counts of a traced run repeat exactly, and
that the benchmark refuses to run without the library source.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import unittest

import gen
import ops as opslib
import run
import spans
import speed

LINKCHI = run.load_linkchi()


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            out[name] = handle.read()
    return out


class TempDirCase(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="perfbench-test-")
        self.addCleanup(shutil.rmtree, self.tmp, True)


class GeneratorTest(TempDirCase):
    def test_same_seed_same_files_other_seed_other_files(self):
        for workload in gen.WORKLOADS:
            runs = {}
            for label, seed in (("a", 5), ("b", 5), ("c", 6)):
                directory = os.path.join(self.tmp, workload + label)
                gen.write_inputs(workload, seed, directory)
                runs[label] = _files(directory)
            self.assertEqual(runs["a"], runs["b"], workload)
            self.assertNotEqual(runs["a"], runs["c"], workload)

    def test_matrices_are_valid_seifert_matrices(self):
        seifert = LINKCHI.seifert
        for workload in ("chi-wide", "torsion", "duality"):
            for index in range(gen.POOL_SIZE[workload]):
                doc = gen.make_item(workload, index)["matrix"]
                A = seifert.seifert_matrix(doc["block_sizes"], doc["entries"])
                self.assertEqual(seifert.validate(A), [], "%s:%d" % (workload, index))


class TracingTest(TempDirCase):
    def _first_ops(self, workload, count):
        return gen.write_inputs(workload, 0, os.path.join(self.tmp, workload))[:count]

    def test_traced_output_is_byte_identical_and_wrappers_are_removed(self):
        modules = [LINKCHI.cli, LINKCHI.seifert, LINKCHI.genfun, LINKCHI.invariants,
                   LINKCHI.ncalg, LINKCHI.commalg, LINKCHI.selfcheck,
                   LINKCHI.ncalg.NCSeries, LINKCHI.ncalg.CyclicSeries,
                   LINKCHI.commalg.CommSeries, LINKCHI.genfun.BiSeries]
        before = [dict(vars(m)) for m in modules]
        for workload in gen.WORKLOADS:
            op = self._first_ops(workload, 1)[0]
            plain = opslib.output_bytes(opslib.run_op(LINKCHI, op))
            rec = spans.Recorder(LINKCHI)
            traced = opslib.output_bytes(rec.run_op(lambda: opslib.run_op(LINKCHI, op)))
            self.assertEqual(plain, traced, workload)
            self.assertGreater(rec.covered_s, 0.0, workload)
        self.assertEqual(before, [dict(vars(m)) for m in modules])

    def test_counts_repeat_across_traced_runs(self):
        count_names = [name for name, (_, unit) in self._per_layer("torsion")[0].items()
                       if unit in ("count", "ratio") and not name.startswith("trace.")]
        self.assertIn("commalg.mul.calls", count_names)
        for workload in gen.WORKLOADS:
            (first, first_answer), (second, second_answer) = (
                self._per_layer(workload), self._per_layer(workload))
            for name in count_names:
                self.assertEqual(first[name], second[name], "%s %s" % (workload, name))
            self.assertEqual(first_answer, second_answer, workload)

    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
            spec = json.load(handle)
        traced, _ = self._per_layer("chi-wide")
        self.assertEqual(list(traced), [m["name"] for m in spec["per_layer"]])
        untraced, _ = run.end_to_end([[0.1]] * 24, [0.05] * 3)
        self.assertEqual(list(untraced), [m["name"] for m in spec["end_to_end"]])
        for m in spec["per_layer"] + spec["end_to_end"]:
            self.assertEqual((traced if m in spec["per_layer"] else untraced)[m["name"]][1],
                             m["unit"], m["name"])

    def _per_layer(self, workload):
        # a fresh process starts with an empty z_matrix cache; so does this run
        LINKCHI.seifert.z_matrix.cache_clear()
        ops = self._first_ops(workload, 2)
        checker = run.Checker(run.load_digests())
        rec, first, traced_s, untraced_s = run.run_traced(LINKCHI, ops, 1, checker)
        self.assertEqual(checker.failed, 0, checker.messages)
        return run.per_layer(LINKCHI, rec, first, traced_s, untraced_s)


class EndToEndTest(unittest.TestCase):
    def test_figures_come_from_the_median_repeat(self):
        per_op = [0.1 * (i + 1) for i in range(6)]
        times = [[3 * t, t, 0.5 * t] for t in per_op]
        metrics, tail = run.end_to_end(times, [0.05, 0.07, 0.06])
        self.assertAlmostEqual(metrics["ops_per_s"][0], 6 / sum(per_op))
        self.assertAlmostEqual(metrics["op_s.p50"][0], 0.35)
        # 18 samples: rank 8 leaves ten beyond it, the 3rd operation's
        self.assertAlmostEqual(metrics["op_s.tail"][0], 0.3)
        self.assertEqual((tail["samples"], tail["beyond"]), (18, 10))
        self.assertEqual(metrics["setup_s"][0], 0.06)

    def test_scaled_times_are_at_reference_speed(self):
        slow_host = speed.speed_of([2 * speed.SAMPLE_REFERENCE_S])
        self.assertEqual(slow_host, 0.5)
        self.assertEqual(run.scaled([(0.4, slow_host), (0.1, 1.0)]), [0.2, 0.1])


class SpeedClockTest(unittest.TestCase):
    def test_samples_inside_a_call_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with speed.SpeedClock() as clock:
            wall, host_speed, result = clock.run(lambda: sum(range(3_000_000)))
        self.assertEqual(result, sum(range(3_000_000)))
        self.assertGreater(len(clock.durations), 2)  # one on either side and some inside
        self.assertGreater(wall, 0.0)
        self.assertGreater(host_speed, 0.0)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class RefusalTest(TempDirCase):
    def test_exits_nonzero_without_result_when_source_is_missing(self):
        copy = os.path.join(self.tmp, "perfbench")
        shutil.copytree(run.HERE, copy, ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "torsion", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=self.tmp, capture_output=True, text=True, timeout=120,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
