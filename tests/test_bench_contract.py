"""What the benchmark in bench/ needs of the program.  A run whose last
line of standard output is not a result with metrics is not measured, and
it loses its metrics when every operation fails, when a traced function is
renamed away, or when something writes to standard output after the
result.  The benchmark's own files are read here and never changed."""

import contextlib
import importlib
import io
import pathlib
import sys
import threading

import pytest

from topsl import cli, topo, tsl, verify

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    """The benchmark's tracing, checks and inputs modules."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        mp.setattr(sys, "dont_write_bytecode", True)
        yield tuple(importlib.import_module(m) for m in ("tracing", "checks", "inputs"))


def test_every_trace_target_resolves(bench):
    tracing = bench[0]
    for name, (module, attr) in tracing.TARGETS.items():
        assert hasattr(importlib.import_module(f"topsl.{module}"), attr), name


def test_instance_key_reads_the_sorted_opens(bench):
    tracing = bench[0]
    for x in verify.universe(2) + [tsl.chain_semilattice(5)]:
        key = tracing._instance_key(x)
        opens = x.topology.opens
        assert key == (x.algebra.table, opens)
        assert isinstance(opens, tuple) and list(opens) == sorted(set(opens))
        same = tsl.TopologizedSemigroup(x.algebra, topo.canonical(x.n, opens))
        assert tracing._instance_key(same) == key
        assert hash(tracing._instance_key(same)) == hash(key)


def test_traced_runs_pass_the_benchmark_checks(bench, tmp_path):
    tracing, checks, inputs = bench
    threads_before = threading.active_count()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, (table, opens) in enumerate(inputs.Draw("check5", 1).next_round()[:4]):
            path = tmp_path / f"{i}.json"
            path.write_text(inputs.document(table, opens), encoding="utf-8")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["check", str(path), "--format", "json"]) == 0
            assert checks.check_report(out.getvalue(), table, opens) == []
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["sweep", "--n-max", "3", "--threads", "2"]) == 0
    finally:
        tracer.uninstall()
    per_instance = {r.id for r in verify.PER_INSTANCE_RULES}
    instances = checks.expected_instances(3)
    assert checks.check_sweep(
        out.getvalue(), 3, instances, verify.ALL_RULE_IDS, per_instance
    ) == []
    export = tracer.export()
    assert export["absent"] == []
    calls, _ = tracing.summarize(export)
    assert calls["cli.document_to_instance"] == 4
    assert calls["verify.phase.main"] == 1
    # no thread outlives the run to write after the result line
    assert threading.active_count() == threads_before
