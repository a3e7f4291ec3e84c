"""The topsl benchmark.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep3|check4|check5 --seed N \
        --seconds S --trace 0|1

With --trace 0 the run measures its workload for S seconds and prints the
end-to-end metrics.  With --trace 1 it runs a fixed amount of the workload
under the tracer (bench/tracing.py) and prints per-layer calls and self
times; the spans go to bench/out/.  Either way the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics, and every output the program produces is checked (bench/checks.py).

The program is imported from src/ in the checkout; without it the run exits
with code 2.  See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("sweep3", "check4", "check5")
SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 150
# Rounds of a traced check run.  The traced run does a fixed amount of work,
# so that its counts repeat exactly.
TRACE_ROUNDS = {"check4": 4, "check5": 30}
# Self times are reported for the layers that every workload runs; the
# sweep phases and the instance parser run on one side only, and their self
# times are in the trace file and the summary line.
SELF_TIMED = tuple(
    name for name in tracing.TARGETS
    if not name.startswith(("verify.", "cli."))
)


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not os.path.isfile(os.path.join(SRC, "topsl", "__init__.py")):
        fail(f"no program to measure: {SRC}/topsl is missing")
    sys.path.insert(0, SRC)
    import topsl.cli

    if not os.path.abspath(topsl.__file__).startswith(SRC + os.sep):
        fail(f"imported topsl from {topsl.__file__}, not from {SRC}")
    return topsl


def child_command(*args):
    """A fresh interpreter that ignores the environment and user site."""
    return [sys.executable, "-I", *args]


def setup_seconds():
    """Median wall time of a fresh interpreter that imports topsl."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import topsl"
    subprocess.run(child_command("-c", code), check=True)  # writes bytecode
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(child_command("-c", code), check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def tail(values):
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value), or None below forty samples."""
    n = len(values)
    if n < 40:
        return None
    ordered = sorted(values)
    rank = n - 11  # 0-based; ten samples lie above it
    return round(100 * (rank + 1) / n, 1), ordered[rank]


class Run:
    def __init__(self, topsl, workload, seed, seconds):
        self.topsl = topsl
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.faults = []
        self.op_seconds = []  # latency of every operation that succeeded
        self.peak_kib = 0
        self.info = {"workload": workload, "seed": seed}

    def record_faults(self, where, faults):
        for f in faults[:3]:
            self.faults.append(f"{where}: {f}")

    # -- sweep3 ------------------------------------------------------------

    def sweep(self, threads, trace_path=None):
        """One cold sweep in a child; returns (seconds, output) or None."""
        self.attempted += 1
        args = [os.path.join(BENCH, "sweep_child.py"), SRC, str(threads)]
        if trace_path:
            args.append(trace_path)
        try:
            proc = subprocess.run(
                child_command(*args), capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
        except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            self.failed += 1
            self.faults.append(f"sweep threads={threads} did not finish: {exc!r}")
            return None
        if proc.returncode or result["rc"]:
            self.failed += 1
            self.faults.append(f"sweep threads={threads} exited {result['rc']}")
            return None
        self.peak_kib = max(self.peak_kib, result["maxrss_kib"])
        self.record_faults(f"sweep threads={threads}", checks.check_sweep(
            result["output"], 3, self.sweep_instances, self.all_rule_ids,
            self.per_instance_ids,
        ))
        self.op_seconds.append(result["seconds"])
        return result["seconds"], result["output"]

    def prepare_sweep(self):
        verify = self.topsl.verify
        self.sweep_instances = checks.expected_instances(3)
        self.all_rule_ids = verify.ALL_RULE_IDS
        self.per_instance_ids = {r.id for r in verify.PER_INSTANCE_RULES}

    def measure_sweep(self):
        """Rounds of a threads=1 sweep and a threads=2 sweep whose report
        must be byte-identical."""
        self.prepare_sweep()
        by_threads = {1: [], 2: []}
        start = time.perf_counter()
        while time.perf_counter() - start < self.seconds and not self.failed:
            one, two = self.sweep(1), self.sweep(2)
            for threads, done in ((1, one), (2, two)):
                if done:
                    by_threads[threads].append(round(1000 * done[0], 1))
            if one and two and one[1] != two[1]:
                self.faults.append("threads=2 report differs from threads=1")
        self.info["t1_ms"], self.info["t2_ms"] = by_threads[1], by_threads[2]

    def trace_sweep(self):
        """A traced threads=1 sweep between two untraced ones."""
        self.prepare_sweep()
        path = os.path.join(OUT, f"trace-sweep3-seed{self.seed}.json")
        runs = [self.sweep(1), self.sweep(1, path), self.sweep(1)]
        if not all(runs):
            return None
        with open(path, encoding="utf-8") as fh:
            export = json.load(fh)
        return export, runs[1][0] - (runs[0][0] + runs[2][0]) / 2

    # -- check4 / check5 ---------------------------------------------------

    def check(self, path, table, opens, main=None):
        """One in-process `topsl check --format json`; returns seconds."""
        self.attempted += 1
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = (main or self.main)(["check", path, "--format", "json"])
        seconds = time.perf_counter() - start
        if rc:
            self.failed += 1
            self.faults.append(f"check {path} exited {rc}")
            return None
        self.record_faults(f"check of {(table, opens)}",
                           checks.check_report(buf.getvalue(), table, opens))
        return seconds

    def write_round(self, instances):
        folder = os.path.join(OUT, "inputs", self.workload)
        os.makedirs(folder, exist_ok=True)
        paths = []
        for i, (table, opens) in enumerate(instances):
            path = os.path.join(folder, f"{i:03d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(inputs.document(table, opens))
            paths.append(path)
        return paths

    def check_round(self, instances, main=None):
        """Checks one round; returns the seconds spent in the checks."""
        total = 0.0
        for path, (table, opens) in zip(self.write_round(instances), instances):
            seconds = self.check(path, table, opens, main)
            if seconds is not None:
                total += seconds
                self.op_seconds.append(seconds)
                self.checked.append((table, opens))
        return total

    def prepare_checks(self):
        self.main = self.topsl.cli.main
        self.draw = inputs.Draw(self.workload, self.seed)
        self.checked = []

    def measure_checks(self):
        self.prepare_checks()
        start = time.perf_counter()
        while time.perf_counter() - start < self.seconds:
            instances = self.draw.next_round()
            if instances is None:
                break
            self.check_round(instances)
        self.peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.describe_checked()

    def describe_checked(self):
        opens_hist, tables, pairs = {}, set(), set()
        repeat_table = repeat_pair = 0
        for table, opens in self.checked:
            opens_hist[len(opens)] = opens_hist.get(len(opens), 0) + 1
            repeat_table += table in tables
            repeat_pair += (table, opens) in pairs
            tables.add(table)
            pairs.add((table, opens))
        total = max(len(self.checked), 1)
        self.info["opens_histogram"] = dict(sorted(opens_hist.items()))
        self.info["repeat_semilattice_share"] = round(repeat_table / total, 4)
        self.info["repeat_instance_share"] = round(repeat_pair / total, 4)

    def trace_checks(self):
        """TRACE_ROUNDS rounds, each checked traced and then untraced.  The
        traced pass of a round comes first, so that it runs cold."""
        self.prepare_checks()
        tracer = tracing.Tracer()
        main = tracer.span(tracing.OP, self.main)
        traced = untraced = 0.0
        for _ in range(TRACE_ROUNDS[self.workload]):
            instances = self.draw.next_round()
            tracer.install()
            traced += self.check_round(instances, main)
            tracer.uninstall()
            untraced += self.check_round(instances)
        export = tracer.export()
        tracing.write(
            os.path.join(OUT, f"trace-{self.workload}-seed{self.seed}.json"), export
        )
        return export, traced - untraced

    # -- results -----------------------------------------------------------

    def end_to_end(self):
        # first, so that its warm-up writes the bytecode the workload uses
        setup = setup_seconds()
        if self.workload == "sweep3":
            self.measure_sweep()
        else:
            self.measure_checks()
        if not self.op_seconds:
            return {}
        self.info["samples"] = len(self.op_seconds)
        found = tail(self.op_seconds)
        if found:
            self.info["tail_percentile"], tail_s = found
            self.info["tail_ms"] = 1000 * tail_s
        return {
            "setup_s": {"value": setup, "unit": "s"},
            "op_p50_ms": {"value": 1000 * statistics.median(self.op_seconds),
                          "unit": "ms"},
            "ops_per_s": {"value": len(self.op_seconds) / sum(self.op_seconds),
                          "unit": "1/s"},
            "peak_rss_mb": {"value": self.peak_kib / 1024, "unit": "MiB"},
        }

    def per_layer(self):
        found = self.trace_sweep() if self.workload == "sweep3" else self.trace_checks()
        if found is None:
            return {}
        export, overhead = found
        calls, self_s = tracing.summarize(export)
        self.info["trace_overhead_s"] = overhead
        self.info["absent"] = export["absent"]
        self.info["self_s"] = self_s
        metrics = {}
        for name in tracing.TARGETS:
            if name in export["absent"]:
                continue
            metrics[f"{name}.calls"] = {"value": calls.get(name, 0), "unit": "count"}
            if name in SELF_TIMED:
                metrics[f"{name}.self_s"] = {"value": self_s.get(name, 0.0),
                                             "unit": "s"}
        for name, count in export["distinct"].items():
            metrics[f"{name}.distinct"] = {"value": count, "unit": "count"}
        metrics["op.calls"] = {"value": calls.get(tracing.OP, 0), "unit": "count"}
        metrics["op.self_s"] = {"value": self_s.get(tracing.OP, 0.0), "unit": "s"}
        return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    topsl = import_program()
    os.makedirs(OUT, exist_ok=True)
    run = Run(topsl, args.workload, args.seed, args.seconds)
    metrics = run.per_layer() if args.trace else run.end_to_end()
    for fault in run.faults[:20]:
        print(f"fault: {fault}", file=sys.stderr)
    print(json.dumps(run.info))
    print(json.dumps({
        "correct": not run.faults and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
