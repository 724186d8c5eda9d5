"""Benchmark for linkchi: one client, closed loop, one process per run.

Usage, from the repository root:

    python3 perfbench/run.py --workload chi-wide --seed 1 --seconds 20 --trace 0

Workloads (see gen.py and BENCHMARK.json for sizes and reasons): chi-wide,
torsion, duality, selfcheck.  A run generates its inputs from --seed, runs
whole passes over them for about --seconds (see PASS_S), checks every
output against the digests recorded in digests.json, and prints a report
whose last line is one JSON object.

--trace 0 reports the end-to-end metrics: ops_per_s, operations per second
of operation time with each operation at the median of its repeats (so not
counting checks and probes), op_s.p50 and op_s.tail over the samples of the
run, peak_rss_mb of this process, and setup_s, the
median over fresh interpreters of importing linkchi.cli and building its
parser, started between operations through the run.  Timings are seconds
at reference speed (see speed.py); the context line carries the same
figures in plain wall seconds and the host's median measured speed.

--trace 1 runs every operation twice, traced and untraced, checks that both
give the same bytes, and reports the per-layer metrics from the spans of
spans.py.  Counts come from the first pass, so two traced runs of one seed
report the same counts; times are per traced operation over all passes.
Figures that are part of the answer (output terms, stdout bytes) go to the
context line, not to the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
WORK = os.path.join(HERE, ".work")

sys.path.insert(0, HERE)
import gen  # noqa: E402
import ops as opslib  # noqa: E402
import spans as tracing  # noqa: E402
import speed as speedlib  # noqa: E402

# A setup probe runs between operations once this many seconds have passed
# since the last, so setup_s samples the same stretch of the host as the
# operations do, and a slow moment of the host moves few of its samples.
SETUP_EVERY_S = 1.0
SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import linkchi.cli\n"
    "linkchi.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t))\n"
)
# op_s.tail is the highest percentile with TAIL_BEYOND samples beyond it.
TAIL_BEYOND = 10

# Wall seconds of one untraced pass over a workload's pool on a 2-core x86
# VM, speed samples and setup probes included.  A run makes
# round(--seconds / PASS_S) passes, half as many traced, where every
# operation runs twice.  So a run lasts about --seconds on that VM, and its
# sample count, and with it the percentile of op_s.tail, depends neither on
# the host's speed nor on the library's: on selfcheck, a run that stopped on
# time made three passes or four as the host's speed drifted.
PASS_S = {"chi-wide": 3.0, "torsion": 1.9, "duality": 1.6, "selfcheck": 8.6}

TIMED_LAYERS = (
    ("seifert.parse.s", "seifert.parse"),
    ("seifert.validate.s", "seifert.validate"),
    ("seifert.z_matrix.s", "seifert.z_matrix"),
    ("seifert.moves.s", "seifert.moves"),
    ("genfun.build.s", "genfun.build"),
    ("invariants.i_half_trace.s", "invariants.i_half_trace"),
    ("ncalg.init.s", "ncalg.init"),
    ("ncalg.arith.s", "ncalg.arith"),
    ("ncalg.substitute.s", "ncalg.substitute"),
    ("ncalg.cyclic_reduce.s", "ncalg.cyclic_reduce"),
    ("ncalg.abelianize.s", "ncalg.abelianize"),
    ("ncalg.format.s", "ncalg.format"),
    ("commalg.det_unit.s", "commalg.det_unit"),
    ("commalg.mul.s", "commalg.mul"),
    ("commalg.unit_power.s", "commalg.unit_power"),
    ("commalg.log_unit.s", "commalg.log_unit"),
)
SELF_LAYERS = (
    ("cli.main.self_s", "cli.main"),
    ("invariants.tr_series.self_s", "invariants.tr_series"),
    ("invariants.torsion_polynomial.self_s", "invariants.torsion_polynomial"),
    ("ncalg.substitute.self_s", "ncalg.substitute"),
    ("commalg.det_unit.self_s", "commalg.det_unit"),
)
COUNT_LAYERS = (
    "seifert.validate.calls",
    "ncalg.init.calls",
    "ncalg.init.terms_in",
    "commalg.mul.calls",
    "commalg.init.calls",
    "commalg.init.terms_in",
    "commalg.inverse_unit.calls",
)
# Fixed by the workload's answer, so reported as context: a change to them
# is a change of output, which the digest check already fails.
ANSWER_COUNTS = ("genfun.input_terms", "invariants.output_terms")


class BenchError(Exception):
    """The benchmark cannot run here (no library source or digests, or a failed probe)."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_linkchi():
    if not os.path.isfile(os.path.join(SRC, "linkchi", "cli.py")):
        raise BenchError("linkchi source not found under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import linkchi.cli  # noqa: F401  (loads every module the CLI uses)

    return linkchi


def load_digests() -> dict:
    try:
        with open(DIGESTS, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError("cannot read %s: %s" % (DIGESTS, exc)) from None


def setup_probe() -> float:
    """Import-and-parser time of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, SRC],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError("setup probe failed: %s" % proc.stderr.strip()[-300:])
    return float(proc.stdout.strip())


class Checker:
    """Compares each output with its recorded digest and counts failures."""

    def __init__(self, digests):
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, op, result, error=None) -> bytes | None:
        self.attempted += 1
        data = None
        if error is None:
            error = opslib.problem(result)
        if error is None:
            data = opslib.output_bytes(result)
            want = self.digests.get(op["id"])
            if want is None:
                error = "no recorded digest"
            elif opslib.digest(data) != want:
                error = "output digest mismatch"
        if error is not None:
            self.fail(op, error)
        return data

    def fail(self, op, error) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append("%s: %s" % (op["id"], error))


def attempt(linkchi, op, runner=None):
    """(result, error) of one operation."""
    try:
        if runner is None:
            return opslib.run_op(linkchi, op), None
        return runner(lambda: opslib.run_op(linkchi, op)), None
    except Exception as exc:  # a crash is a failed operation, not a crashed run
        return None, "%s: %s" % (type(exc).__name__, exc)


def timed(linkchi, op, runner=None):
    """(seconds, result, error) for one operation."""
    start = time.perf_counter()
    result, error = attempt(linkchi, op, runner)
    return time.perf_counter() - start, result, error


def pass_count(workload, seconds, runs_per_op=1) -> int:
    return max(1, round(seconds / (PASS_S[workload] * runs_per_op)))


def run_untraced(linkchi, ops, passes, checker, clock):
    """Returns each op's (wall seconds, speed) pairs, one per pass, and the
    same pairs for the setup probes, from ``clock`` (a speed.SpeedClock)."""
    times = [[] for _ in ops]
    setup = []
    due = time.perf_counter()
    for _ in range(passes):
        for op, repeats in zip(ops, times):
            if time.perf_counter() >= due:
                _, speed, probe = clock.run(setup_probe)
                setup.append((probe, speed))
                due += SETUP_EVERY_S
            wall, speed, (result, error) = clock.run(lambda: attempt(linkchi, op))
            repeats.append((wall, speed))
            checker.check(op, result, error)
    return times, setup


def scaled(pairs):
    """Seconds at reference speed, from (wall seconds, speed) pairs."""
    return [wall * speed for wall, speed in pairs]


def end_to_end(times, setup):
    """Metrics from ``times``, each operation's timings, one per pass.

    Each operation counts with the median of its repeats, so a stray slow
    or fast repeat moves no figure.  op_s.p50 and op_s.tail are percentiles
    over all samples of the run, each sample standing for its operation's
    median.
    """
    per_op = [statistics.median(repeats) for repeats in times]
    repeats = len(times[0])
    samples = sorted(t for t in per_op for _ in range(repeats))
    rank = max(1, len(samples) - TAIL_BEYOND)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "op_s.p50": (statistics.median(samples), "s"),
        "op_s.tail": (samples[rank - 1], "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    tail = {"percentile": 100 * rank / len(samples), "samples": len(samples),
            "operations": len(per_op), "repeats": repeats, "beyond": len(samples) - rank}
    return metrics, tail


def run_traced(linkchi, ops, passes, checker):
    """Each op traced, then untraced; returns the recorder and a summary."""
    rec = tracing.Recorder(linkchi)
    traced_s = untraced_s = 0.0
    first = None
    stdout_bytes = 0
    for _ in range(passes):
        for op in ops:
            t_traced, traced, error = timed(linkchi, op, rec.run_op)
            data = checker.check(op, traced, error)
            t_plain, plain, error = timed(linkchi, op)
            plain_data = checker.check(op, plain, error)
            if data is not None and plain_data is not None and data != plain_data:
                checker.fail(op, "traced and untraced outputs differ")
            traced_s += t_traced
            untraced_s += t_plain
            if first is None and isinstance(traced, opslib.CliResult):
                stdout_bytes += len(traced.stdout.encode("utf-8"))
        if first is None:
            first = (Counter(rec.counts), rec.ops, stdout_bytes)
    return rec, first, traced_s, untraced_s


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(linkchi, rec, first, traced_s, untraced_s):
    counts, first_ops, stdout_bytes = first
    n = rec.ops
    metrics = {}
    for name, group in SELF_LAYERS:
        metrics[name] = (rec.self_s[group] / n, "s")
    for name, group in TIMED_LAYERS:
        metrics[name] = (rec.total_s[group] / n, "s")
    for name in COUNT_LAYERS:
        metrics[name] = (counts[name] / first_ops, "count")
    hits, misses = counts["seifert.z_matrix.hits"], counts["seifert.z_matrix.misses"]
    metrics["seifert.z_matrix.hit_ratio"] = (ratio(hits, hits + misses), "ratio")
    metrics["invariants.cancel_ratio"] = (
        ratio(counts["invariants.chi_terms"], counts["invariants.part_terms"]), "ratio")
    metrics["ncalg.useful_ratio"] = (
        ratio(counts["ncalg.substitute.terms_out"], counts["ncalg.substitute.terms_in"]), "ratio")
    for name in tracing.suite_names(linkchi.selfcheck):
        group = "selfcheck.suite." + name
        metrics[group + ".s"] = (rec.total_s[group] / n, "s")
    metrics["trace.overhead_ratio"] = (ratio(traced_s, untraced_s), "ratio")
    metrics["trace.uncovered_share"] = (ratio(rec.op_s - rec.covered_s, rec.op_s), "ratio")
    answer = {name: counts[name] / first_ops for name in ANSWER_COUNTS}
    answer["cli.stdout_bytes"] = stdout_bytes / first_ops
    return metrics, answer


def src_lines() -> int:
    total = 0
    package = os.path.join(SRC, "linkchi")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                total += sum(1 for _ in handle)
    return total


def bench(args) -> dict:
    linkchi = load_linkchi()
    digests = load_digests()
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_linkchi_lines": src_lines(),
        "loop": "closed, 1 client",
    }
    workdir = os.path.join(WORK, "%s-s%d-p%d" % (args.workload, args.seed, os.getpid()))
    try:
        ops = gen.write_inputs(args.workload, args.seed, workdir)
        context["ops_per_pass"] = len(ops)
        context["items"] = [op["id"] for op in ops]
        checker = Checker(digests)
        # warm-up: one checked operation outside the timed loop
        _, result, error = timed(linkchi, ops[0])
        checker.check(ops[0], result, error)
        if args.trace:
            rec, first, traced_s, untraced_s = run_traced(
                linkchi, ops, pass_count(args.workload, args.seconds, 2), checker)
            metrics, context["answer_per_op"] = per_layer(
                linkchi, rec, first, traced_s, untraced_s)
            context["traced_ops"] = rec.ops
        else:
            setup_probe()  # the first fresh interpreter writes the .pyc files
            with speedlib.SpeedClock() as clock:
                times, setup = run_untraced(
                    linkchi, ops, pass_count(args.workload, args.seconds), checker, clock)
            metrics, context["tail"] = end_to_end(
                [scaled(pairs) for pairs in times], scaled(setup))
            wall, _ = end_to_end([[t for t, _ in pairs] for pairs in times],
                                 [t for t, _ in setup])
            context["wall"] = {name: value for name, (value, _) in wall.items()}
            context["speed"] = speedlib.SAMPLE_REFERENCE_S / statistics.median(clock.durations)
            context["setup_samples"] = len(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    context["fail_ratio"] = checker.failed / checker.attempted
    return {"context": context, "checker": checker, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        outcome = bench(args)
    except BenchError as exc:
        print("benchmark cannot run: %s" % exc, file=sys.stderr)
        return 2
    checker, metrics = outcome["checker"], outcome["metrics"]
    print("context " + json.dumps(outcome["context"], sort_keys=True))
    for message in checker.messages:
        print("FAILED " + message)
    for name, (value, unit) in metrics.items():
        print("%-40s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
