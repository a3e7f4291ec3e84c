"""Self-test of the benchmark: python3 bench/selftest.py, from the checkout root.

1. The reference code and the input generators agree with independent
   scans, and `topsl check` agrees with the reference on every instance with
   n <= 3.
2. Each workload's check rejects a tampered result: a flipped property, a
   dropped open set, an altered rule count.
3. Two traced runs of each workload give identical counts.

Prints one PASS or FAIL line per item; exits 1 on any failure.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path.insert(0, BENCH)
sys.path.insert(0, SRC)

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
from topsl import cli, verify  # noqa: E402

results = []


def report(name, ok, detail=""):
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")


def run_check(table, opens):
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        fh.write(inputs.document(table, opens))
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["check", fh.name, "--format", "json"])
    finally:
        os.unlink(fh.name)
    if rc:
        raise RuntimeError(f"check exited {rc}")
    return buf.getvalue()


def generators_agree():
    small = all(
        inputs.semilattices(n) == sorted(reference.semilattice_tables(n))
        and inputs.topologies(n, 1 << n)
        == sorted(tuple(f) for f in reference.topology_families(n))
        for n in (1, 2, 3)
    )
    counts = (len(inputs.semilattices(4)), len(inputs.topologies(4, 16)),
              len(inputs.topologies(4, 10)))
    report("generators match the scans for n <= 3 and count 76, 355, 342 at n = 4",
           small and counts == (76, 355, 342), f"n = 4 counts {counts}")


def universe_agrees():
    faults, count = [], 0
    for n in (1, 2, 3):
        for table in reference.semilattice_tables(n):
            for opens in reference.topology_families(n):
                count += 1
                faults += checks.check_report(run_check(table, opens), table, opens)
    report(f"topsl check agrees with the reference on all {count} instances n <= 3",
           count == 270 and not faults, "; ".join(faults[:3]))


def tampered_checks_fail():
    table = ((0, 0), (0, 1))
    opens = (0, 2, 3)
    text = run_check(table, opens)
    doc = json.loads(text)
    flipped = json.loads(text)
    flipped["properties"]["topological"] = not doc["properties"]["topological"]
    dropped = json.loads(text)
    dropped["topologies"]["tau"].pop(1)
    report("check report passes untampered", not checks.check_report(text, table, opens))
    for what, bad in (("flipped property", flipped), ("dropped open set", dropped)):
        report(f"check report with a {what} is rejected",
               bool(checks.check_report(json.dumps(bad), table, opens)))


def tampered_sweep_fails():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(["sweep", "--n-max", "3"])
    text = buf.getvalue()
    instances = checks.expected_instances(3)
    args = (3, instances, verify.ALL_RULE_IDS,
            {r.id for r in verify.PER_INSTANCE_RULES})
    report(f"sweep report passes untampered ({instances} instances)",
           not checks.check_sweep(text, *args))
    rule = verify.PER_INSTANCE_RULES[0].id
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(f"rule {rule}: applied="):
            applied = int(line.split("applied=")[1].split()[0])
            lines[i] = line.replace(f"applied={applied}", f"applied={applied + 1}")
    report("sweep report with an altered rule count is rejected",
           bool(checks.check_sweep("\n".join(lines) + "\n", *args)))


def traced_counts_repeat():
    for workload in ("sweep3", "check4", "check5"):
        counts = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
                 workload, "--seed", "1", "--seconds", "1", "--trace", "1"],
                capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            counts.append({k: v["value"] for k, v in result["metrics"].items()
                           if v["unit"] == "count"})
        report(f"two traced {workload} runs give identical counts",
               counts[0] == counts[1] and bool(counts[0]),
               f"{len(counts[0])} counts")


generators_agree()
universe_agrees()
tampered_checks_fail()
tampered_sweep_fails()
traced_counts_repeat()
sys.exit(0 if all(results) else 1)
