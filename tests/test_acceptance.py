"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line (bypassing capture, so the lines
appear in the terminal even under plain ``pytest -v``) and then asserts.
"""

import json
import random
import sys
import time

from topsl import cli, oracles, topo, tsl, verify, weak
from topsl.core import FiniteSemigroup


def _report(label, ok):
    print(f"\n{'PASS' if ok else 'FAIL'}: {label}", file=sys.__stdout__, end="")
    assert ok, label


def test_criterion_1_two_element_group_example():
    z2 = tsl.TopologizedSemigroup(
        FiniteSemigroup.from_rows([[0, 1], [1, 0]]), topo.discrete(2)
    )

    def derive():
        return (
            weak.law_topology(z2).opens,
            weak.zar_topology(z2).opens,
            weak.weak_topology(z2).opens,
        )

    timings = []
    for _ in range(5):
        start = time.perf_counter()
        law, zar, wk = derive()
        timings.append(time.perf_counter() - start)
    best = min(timings)

    exact = law == (0, 0b01, 0b11) and zar == (0, 0b10, 0b11) and wk == (0, 0b11)
    law_fails = not tsl.continuity_profile(
        z2.with_topology(topo.canonical(2, law))
    ).semitopological
    zar_fails = not tsl.continuity_profile(
        z2.with_topology(topo.canonical(2, zar))
    ).semitopological
    ok = exact and law_fails and zar_fails and best < 1e-3
    _report(
        "criterion 1: two-element group derived topologies and shift failures "
        f"(best of 5: {best * 1e6:.0f} us)",
        ok,
    )


def test_criterion_2_full_sweep_is_sound():
    start = time.perf_counter()
    report = verify.sweep(3)
    elapsed = time.perf_counter() - start
    ok = (
        report.instances_checked == 270
        and report.total_violations == 0
        and set(report.rules) == set(verify.ALL_RULE_IDS)
        and all(
            stats.applied + stats.vacuous > 0 for stats in report.rules.values()
        )
        and elapsed < 60.0
    )
    _report(
        f"criterion 2: sweep n_max=3 over 270 instances, 0 violations "
        f"({elapsed:.1f} s)",
        ok,
    )


def test_criterion_3_oracle_equivalences():
    rng = random.Random(0xC0FFEE)
    generated_ok = True
    for _ in range(1000):
        n = rng.randint(1, 4)
        seeds = [rng.getrandbits(n) for _ in range(rng.randint(0, 4))]
        built = topo.generate_topology(n, seeds).opens
        if built != oracles.saturate_family(n, seeds):
            generated_ok = False
            break
    scott_ok = lawson_ok = interval_ok = True
    for n in range(1, 6):
        disc = topo.discrete(n)
        for poset in verify.enumerate_posets(n):
            literal = oracles.scott_topology_by_directed_sups(poset)
            if not (
                weak.scott_topology(poset)
                == literal
                == oracles.upper_set_topology(poset)
            ):
                scott_ok = False
            lawson = oracles.lawson_topology_by_generation(poset)
            if not weak.lawson_topology(poset) == lawson == disc:
                lawson_ok = False
            interval = oracles.interval_topology_by_generation(poset)
            if not weak.interval_topology(poset) == interval == disc:
                interval_ok = False
    _report(
        "criterion 3a: generated topology matches saturation oracle "
        "(1000 random subbases, n <= 4)",
        generated_ok,
    )
    _report(
        "criterion 3b: Scott topology equals the literal directed-sup "
        "topology and the upper-set family on all posets n <= 5",
        scott_ok,
    )
    _report(
        "criterion 3c: refined and order-interval topologies equal their "
        "literal generation and are discrete on all posets n <= 5",
        lawson_ok and interval_ok,
    )


def test_criterion_4_enumeration_counts():
    start = time.perf_counter()
    top_counts = [len(verify.enumerate_topologies(n)) for n in (1, 2, 3, 4)]
    elapsed = time.perf_counter() - start
    oracle_counts = [oracles.brute_force_topology_count(n) for n in (1, 2, 3, 4)]
    sl_counts = [len(verify.enumerate_semilattices(n)) for n in (1, 2, 3)]
    sl_oracle = [len(oracles.brute_force_semilattice_tables(n)) for n in (1, 2, 3)]
    ok = (
        top_counts == [1, 4, 29, 355]
        and oracle_counts == top_counts
        and sl_counts == [1, 2, 9]
        and sl_oracle == sl_counts
        and elapsed < 60.0
    )
    _report(
        f"criterion 4: topology counts 1,4,29,355 and semilattice counts 1,2,9 "
        f"match brute-force oracles ({elapsed:.2f} s for n=4)",
        ok,
    )


def test_criterion_5_strictness_witness(capsys):
    argv = [
        "search",
        "--satisfy",
        "weak_circ,weak_bullet,topological",
        "--violate",
        "i_weak",
        "--n-max",
        "2",
    ]
    assert cli.main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert cli.main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    doc = first["document"]
    witness_ok = (
        doc["elements"] == ["e0", "e1"]
        and doc["meet"] == [["e0", "e0"], ["e0", "e1"]]
        and doc["opens"] == [[], ["e0"], ["e0", "e1"]]
    )
    deterministic = (
        first["document"] == second["document"]
        and first["canonical_hash"] == second["canonical_hash"]
        and first["properties"] == second["properties"]
    )
    _report(
        "criterion 5: search finds the canonical two-point open-bottom "
        "witness, deterministically",
        witness_ok and deterministic,
    )


def test_criterion_6_inclusion_chain_invariant():
    failures = 0
    for x in verify.universe(3):
        comp = weak.topology_comparison(x)
        b = comp.bundle
        if not (
            weak.family_within(b.weak, b.law)
            and weak.family_within(b.law, b.tau)
            and weak.family_within(b.weak, b.zar)
            and weak.family_within(b.zar, b.tau)
        ):
            failures += 1
    _report(
        "criterion 6: weak within law within tau and weak within zar within "
        "tau on all 270 instances",
        failures == 0,
    )


def test_criterion_7_sweep_determinism():
    a = verify.sweep(3, threads=1).render()
    b = verify.sweep(3, threads=4).render()
    _report(
        "criterion 7: sweep reports byte-identical for 1 vs 4 threads",
        a == b,
    )
