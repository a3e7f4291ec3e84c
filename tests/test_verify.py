import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topsl import cli, oracles, props, topo, tsl, verify, weak
from topsl.core import FiniteSemigroup, FiniteSemilattice

MIN2 = FiniteSemilattice(2, ((0, 0), (0, 1)))
Z2 = FiniteSemigroup.from_rows([[0, 1], [1, 0]])


def test_enumeration_counts_match_oracles():
    assert [len(verify.enumerate_topologies(n)) for n in (1, 2, 3)] == [1, 4, 29]
    assert [oracles.brute_force_topology_count(n) for n in (1, 2, 3)] == [1, 4, 29]
    for n in (1, 2, 3):
        tables = [sl.table for sl in verify.enumerate_semilattices(n)]
        flat = [tuple(v for row in t for v in row) for t in tables]
        assert flat == oracles.brute_force_semilattice_tables(n)


def test_enumerations_are_sorted_and_bounded():
    tops = verify.enumerate_topologies(2)
    assert [t.opens for t in tops] == sorted(t.opens for t in tops)
    with pytest.raises(ValueError):
        verify.enumerate_topologies(6)
    with pytest.raises(ValueError):
        verify.enumerate_semilattices(0)


def test_poset_count():
    assert [len(verify.enumerate_posets(n)) for n in (1, 2, 3, 4)] == [1, 3, 19, 219]


def test_canonicalize_identifies_relabelings():
    a = tsl.TopologizedSemigroup(MIN2, topo.canonical(2, [0, 0b10, 0b11]))
    flipped_alg = FiniteSemilattice(2, ((0, 1), (1, 1)))
    b = tsl.TopologizedSemigroup(flipped_alg, topo.canonical(2, [0, 0b01, 0b11]))
    ca, _ = verify.canonicalize(a)
    cb, _ = verify.canonicalize(b)
    assert ca == cb
    assert verify.canonical_hash(a) == verify.canonical_hash(b)


def test_canonicalize_is_idempotent():
    x = tsl.TopologizedSemigroup(MIN2, topo.canonical(2, [0, 0b10, 0b11]))
    canon, perm = verify.canonicalize(x)
    again, perm2 = verify.canonicalize(canon)
    assert again == canon
    assert perm2 == (0, 1)


def test_canonicalize_distinguishes_non_isomorphic():
    chain4 = tsl.chain_semilattice(4)
    diamond = tsl.TopologizedSemigroup(
        FiniteSemilattice(
            4, ((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 2), (0, 1, 2, 3))
        ),
        topo.discrete(4),
    )
    assert verify.canonical_hash(chain4) != verify.canonical_hash(diamond)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonical_hash_is_permutation_invariant(data):
    univ = verify.universe(3)
    x = data.draw(st.sampled_from(univ))
    perm = data.draw(st.permutations(range(x.n)))
    table, opens = verify._permute_instance(x, tuple(perm))
    y = tsl.TopologizedSemigroup(
        FiniteSemilattice(x.n, table), topo.canonical(x.n, opens)
    )
    assert verify.canonical_hash(x) == verify.canonical_hash(y)


def test_sweep_small_counts():
    r1 = verify.sweep(1)
    assert r1.instances_checked == 1
    assert r1.total_violations == 0
    r2 = verify.sweep(2)
    assert r2.instances_checked == 9
    assert r2.total_violations == 0
    # the Hausdorff instances at n <= 2: singleton plus the two discrete chains
    assert r2.rules["sep.weak_hausdorff_iff_i_separated"].applied == 3
    assert r2.rules["sep.weak_hausdorff_iff_i_separated"].vacuous == 6


def test_sweep_rule_filter_and_validation():
    report = verify.sweep(2, rule_ids=["diagram.weak_within_law_within_tau"])
    assert set(report.rules) == {"diagram.weak_within_law_within_tau"}
    assert report.rules["diagram.weak_within_law_within_tau"].applied == 9
    with pytest.raises(ValueError, match="unknown rule ids"):
        verify.sweep(2, rule_ids=["nope"])
    with pytest.raises(ValueError):
        verify.sweep(5)


def test_each_selected_rule_renders_its_line_of_the_full_sweep():
    full = verify.sweep(2).render().splitlines()
    head, total = full[:2], full[-1]
    assert head == ["sweep n_max=2", "instances checked: 9"]
    assert total == "total violations: 0"
    assert len(verify.ALL_RULE_IDS) == 56
    for rule_id in verify.ALL_RULE_IDS:
        (line,) = [ln for ln in full if ln.startswith(f"rule {rule_id}: ")]
        only = verify.sweep(2, rule_ids=[rule_id]).render()
        assert only == "\n".join([*head, line, total]) + "\n", rule_id
    assert verify.sweep(2, rule_ids=[]).render() == "\n".join([*head, total]) + "\n"


def test_sweep_skips_instance_loop_for_cross_instance_rules(monkeypatch):
    full = verify.sweep(3)
    in_hom, outside_hom = [False], [0]
    hom_phase, topology_comparison = verify._hom_phase, weak.topology_comparison

    def traced_hom_phase(*args):
        in_hom[0] = True
        try:
            return hom_phase(*args)
        finally:
            in_hom[0] = False

    def counted_comparison(x):
        outside_hom[0] += not in_hom[0]
        return topology_comparison(x)

    monkeypatch.setattr(verify, "_hom_phase", traced_hom_phase)
    monkeypatch.setattr(weak, "topology_comparison", counted_comparison)
    only = verify.sweep(3, rule_ids=["hom.weak_continuity"])
    assert outside_hom[0] == 0
    assert only.rules == {"hom.weak_continuity": full.rules["hom.weak_continuity"]}
    line = next(
        ln for ln in full.render().splitlines() if ln.startswith("rule hom.weak_continuity:")
    )
    assert line in only.render().splitlines()


def test_sweep3_render_matches_golden_output():
    golden = pathlib.Path(__file__).parent / "data" / "sweep3.txt"
    assert verify.sweep(3).render() == golden.read_text(encoding="ascii")


def test_sweep_computes_each_bundle_once_per_call(monkeypatch):
    counted_names = (
        (weak, "topology_comparison"),
        (weak, "scott_topology"),
        (topo, "separation_profile"),
    )
    counts = dict.fromkeys((name for _, name in counted_names), 0)
    for module, name in counted_names:
        original = getattr(module, name)

        def counted(x, original=original, name=name):
            counts[name] += 1
            return original(x)

        monkeypatch.setattr(module, name, counted)
    # at n_max = 4, 8 product lookups hit reports of 4-point classes, which
    # the loop drops after use: the phases must run before it
    for n_max, expected in (
        (3, {"topology_comparison": 66, "scott_topology": 9, "separation_profile": 113}),
        (4, {"topology_comparison": 1268, "scott_topology": 13, "separation_profile": 2175}),
    ):
        counts.update(dict.fromkeys(counts, 0))
        verify.sweep(n_max)
        # topology_comparison: one per distinct instance, that is the class
        # representatives and their sub-instances, the products of the
        # n <= 2 class representatives, and the discrete main-phase
        # representatives (66 over 9 tables at n_max = 3).  scott_topology:
        # order data is derived once per algebra object, and sub-algebras
        # and products bring a few objects of their own.
        # separation_profile: one per property vector, one per applied
        # zar.t0_iff check and one per product factor; the vector reads ten
        # fields off tau's discreteness, not off law, zar and weak
        assert counts == expected
        # no memo outlives a call: neither the reports nor the order data
        # derived on the sweep's algebra objects, so a second sweep redoes
        # all of it (a leak from the first would show as fewer Scott calls)
        first = dict(counts)
        counts.update(dict.fromkeys(counts, 0))
        verify.sweep(n_max)
        assert counts == first


@pytest.mark.parametrize("threads", [1, 3])
def test_sweep_drops_each_top_class_report_after_its_last_reader(monkeypatch, threads):
    memos = []

    class KeptMemo(verify.SweepMemo):
        def __init__(self):
            super().__init__()
            memos.append(self)

    monkeypatch.setattr(verify, "SweepMemo", KeptMemo)
    verify.sweep(4, threads=threads)
    (memo,) = memos
    top = [x for x, _ in verify.instance_classes(4) if x.n == 4]
    assert len(top) == 1203
    assert not any(x in memo.comparisons for x in top)
    # smaller classes stay: other tables meet them again as sub-instances
    assert any(x.n == 3 for x in memo.comparisons)


def test_sweep_never_reads_the_inclusion_matrix(monkeypatch):
    # only topsl check reports the 7x7 matrix, so no sweep builds it
    def unread(comp):
        raise AssertionError("the sweep read ComparisonReport.inclusion")

    monkeypatch.setattr(weak.ComparisonReport, "inclusion", property(unread))
    golden = pathlib.Path(__file__).parent / "data" / "sweep3.txt"
    assert verify.sweep(3).render() == golden.read_text(encoding="ascii")


def test_class_weights_sum_to_labeled_counts():
    totals = {}
    for x, weight in verify.instance_classes(4):
        totals[x.n] = totals.get(x.n, 0) + weight
    assert totals == {1: 1, 2: 8, 3: 261, 4: 26980}
    for n, classes, labeled in ((1, 1, 1), (2, 1, 2), (3, 2, 9), (4, 5, 76)):
        sls = verify.semilattice_classes(n)
        assert len(sls) == classes
        assert sum(math.factorial(n) // len(aut) for _, aut in sls) == labeled
        assert len(verify.enumerate_semilattices(n)) == labeled


def test_five_point_class_weights_sum_to_labeled_count():
    # 15 semilattice classes with 1,065 labeled tables, times 6,942 topologies
    weights = [w for x, w in verify.instance_classes(5) if x.n == 5]
    assert sum(weights) == 1065 * 6942 == 7_393_230


def test_class_representatives_are_first_of_their_class():
    # each class holds exactly weight labeled instances, and its
    # representative is the first of them in enumeration order
    members = {}
    for x in verify.universe(3):
        members.setdefault(verify.canonical_hash(x), []).append(x)
    classes = verify.instance_classes(3)
    assert len(classes) == len(members) == 52
    for x, weight in classes:
        group = members[verify.canonical_hash(x)]
        assert group[0] == x and len(group) == weight


def test_class_sweep_counts_match_labeled_oracle():
    memo = verify.SweepMemo()
    rules = verify.PER_INSTANCE_RULES
    ids = [r.id for r in rules] + list(verify.SUB_RULE_IDS)
    labeled = {rule_id: verify.RuleStats() for rule_id in ids}
    for x in verify.universe(3):
        verify._evaluate_instance(x, rules, memo, 1, labeled, {})
    report = verify.sweep(3)
    # every seeded tally was counted
    assert all(rs.applied + rs.vacuous for rs in labeled.values())
    for rule_id, rs in labeled.items():
        got = report.rules[rule_id]
        assert (got.applied, got.vacuous) == (rs.applied, rs.vacuous), rule_id
    main = report.rules[verify.MAIN_RULE_ID]
    assert main.applied == sum(len(verify.enumerate_semilattices(n)) for n in (1, 2, 3, 4))


def test_class_hom_and_product_counts_match_labeled_oracle():
    # the phases over the labeled instances, each of weight 1, are the
    # labeled loops: every hom, and every unordered pair, counted once
    cross = verify.HOM_RULE_IDS + verify.PRODUCT_RULE_IDS
    for n_max in (1, 2, 3):
        memo = verify.SweepMemo()
        labeled = {rule_id: verify.RuleStats() for rule_id in cross}
        unit = [(x, 1) for x in verify.universe(min(n_max, 2))]
        verify._hom_phase(unit, labeled, memo)
        verify._product_phase(unit, labeled, memo)
        report = verify.sweep(n_max, rule_ids=cross)
        assert set(labeled) == set(report.rules) == set(cross)
        for rule_id, rs in labeled.items():
            got = report.rules[rule_id]
            assert (got.applied, got.vacuous) == (rs.applied, rs.vacuous), rule_id
            assert got.violations == rs.violations == []


def test_cross_instance_violation_lines_name_both_representatives(monkeypatch):
    failed_hom = verify.FunctorialAudit(False, None, None, None, ("loses forced continuity",))
    failed_product = verify.ProductAudit(False, None, None, None)
    monkeypatch.setattr(verify, "_audit_hom", lambda *args: failed_hom)
    monkeypatch.setattr(verify, "_audit_product", lambda *args: failed_product)
    rules = ["hom.weak_continuity", "product.weak_circ_preserved"]
    report = verify.sweep(2, rule_ids=rules)
    classes = verify.instance_classes(2)

    def named(x, w):
        return f"[{verify._describe(x)} orbit={w}]"

    # one line per continuous hom between two representatives
    homs = [
        f"hom {m} from {named(a, wa)} to {named(b, wb)} :: loses forced continuity"
        for (a, wa), (b, wb) in itertools.product(classes, repeat=2)
        for m in itertools.product(range(b.n), repeat=a.n)
        if tsl.is_homomorphism(a.algebra, b.algebra, m)
        and tsl.is_continuous(a.topology, b.topology, m)
    ]
    hom = report.rules["hom.weak_continuity"]
    assert sorted(hom.violations) == sorted(homs)
    assert len(homs) < hom.applied
    # one line per unordered pair of classes; the 9 labeled instances with
    # n <= 2 make 45 unordered pairs
    pairs = [
        f"product of {named(a, wa)} and {named(b, wb)} :: product loses the property"
        for (a, wa), (b, wb) in itertools.combinations_with_replacement(classes, 2)
    ]
    product = report.rules["product.weak_circ_preserved"]
    assert sorted(product.violations) == sorted(pairs)
    assert len(pairs) == 15 and product.applied == 45


def test_sweep4_render_matches_labeled_golden_output():
    # tests/data/sweep4.txt was written by the labeled sweep, which evaluated
    # every one of the 27,250 instances
    path = pathlib.Path(__file__).parent / "data" / "sweep4.txt"
    golden = path.read_text(encoding="ascii")
    assert verify.sweep(4).render() == golden
    assert verify.sweep(4, threads=2).render() == golden


SWEEP5_MD5 = "d1cde073657ba9acd757878c09c3a877"


@pytest.mark.skipif(
    os.environ.get("TOPSL_SWEEP5") != "1", reason="opt-in: set TOPSL_SWEEP5=1 (about 30 s)"
)
def test_sweep5_render_and_peak_memory():
    """sweep(5), in a fresh isolated interpreter with SWEEP_MAX raised to 5
    there only, renders the known output and peaks under 75 MiB: about
    51 MiB once each 5-point class report is dropped after its last reader,
    127 MiB with every report kept to the end."""
    src = str(pathlib.Path(verify.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "import hashlib, resource\n"
        "from topsl import verify\n"
        "verify.SWEEP_MAX = 5\n"
        "text = verify.sweep(5).render()\n"
        "print(hashlib.md5(text.encode('ascii')).hexdigest())\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    run = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    digest, maxrss_kib = run.stdout.split()
    assert digest == SWEEP5_MD5
    assert int(maxrss_kib) / 1024 < 75


def test_violation_lines_name_the_representative_and_its_orbit(monkeypatch):
    # one line per class: the point, and the 2-point chain, which has no
    # nontrivial automorphism, under each of its 4 topologies (2 labelings)
    classes = verify.instance_classes(2)
    assert [w for _, w in classes] == [1, 2, 2, 2, 2]
    expected = sorted(f"{verify._describe(x)} orbit={w} :: forced" for x, w in classes)
    rules = {r.id: r for r in verify.PER_INSTANCE_RULES}
    # a rule checked on each class, and one checked once per table (2 here)
    for rule_id, checks in (
        ("diagram.weak_within_law_within_tau", 5),
        ("chains.maxchain_contains_extrema", 2),
    ):
        rule = rules[rule_id]
        assert rule.per_table == (checks == 2)
        calls = []

        def always_fails(arg):
            calls.append(arg)
            return ["forced"]

        forced = rule._replace(check=always_fails)
        monkeypatch.setattr(verify, "PER_INSTANCE_RULES", (forced,))
        for threads in (1, 2):
            calls.clear()
            stats = verify.sweep(2, rule_ids=[rule_id], threads=threads).rules[rule_id]
            assert stats.applied == 9
            assert sorted(stats.violations) == expected
            assert len(calls) == checks


def test_sub_rule_violation_lines_name_each_subsemigroup(monkeypatch):
    # every applicable sub rule fails once its subsemigroup's report says
    # the property is lost and gives a zar that is no trace
    full = verify.sweep(3, rule_ids=verify.SUB_RULE_IDS)
    monkeypatch.setattr(verify, "_sub_report", lambda *args: (False, False, False, ()))
    expected = {rule_id: [] for rule_id in verify.SUB_RULE_IDS}
    for x, w in verify.instance_classes(3):
        comp = weak.topology_comparison(x)
        applies = (
            comp.weak_circ,
            comp.weak_bullet,
            comp.i_weak,
            tsl.continuity_profile(x).subtopological,
        )
        where = f"{verify._describe(x)} orbit={w}"
        for s in tsl.subsemigroups(x.algebra)[1:]:
            lost = f"{where} :: subsemigroup {s:#x} loses the property"
            not_trace = f"{where} :: zar of subsemigroup {s:#x} is not the trace"
            lines = (lost,) * 3 + (not_trace,)
            for rule_id, applied, line in zip(verify.SUB_RULE_IDS, applies, lines):
                if applied:
                    expected[rule_id].append(line)
    for threads in (1, 2):
        report = verify.sweep(3, rule_ids=verify.SUB_RULE_IDS, threads=threads)
        assert set(report.rules) == set(verify.SUB_RULE_IDS)
        for rule_id, stats in report.rules.items():
            assert stats.violations
            assert sorted(stats.violations) == sorted(expected[rule_id])
            # the counts do not depend on the verdicts
            assert (stats.applied, stats.vacuous) == (
                full.rules[rule_id].applied,
                full.rules[rule_id].vacuous,
            )
            assert full.rules[rule_id].violations == []


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_properties_are_relabeling_invariant(data):
    n = data.draw(st.integers(1, 4))
    sl = data.draw(st.sampled_from(verify.enumerate_semilattices(n)))
    top = data.draw(st.sampled_from(verify.enumerate_topologies(n)))
    perm = tuple(data.draw(st.permutations(range(n))))
    x = tsl.TopologizedSemigroup(sl, top)
    table, opens = verify._permute_instance(x, perm)
    y = tsl.TopologizedSemigroup(
        FiniteSemilattice(n, table), topo.canonical(n, opens)
    )
    cx, cy = weak.topology_comparison(x), weak.topology_comparison(y)
    assert (cx.weak_circ, cx.weak_bullet, cx.i_weak) == (cy.weak_circ, cy.weak_bullet, cy.i_weak)
    assert props.property_vector(x, cx).as_dict() == props.property_vector(y, cy).as_dict()


def test_semilattice_enumeration_matches_bound_route():
    for n in (1, 2, 3, 4, 5):
        assert verify.enumerate_semilattices(n) == oracles.enumerate_semilattices_by_bounds(n)


def test_semilattice_classes_match_the_route_through_built_semilattices():
    for n in (1, 2, 3, 4, 5):
        classes = verify.semilattice_classes(n)
        assert classes == oracles.semilattice_classes_by_semilattices(n)
        assert all(type(sl) is FiniteSemilattice for sl, _ in classes)


def test_meet_continuity_matches_scan():
    for n in (1, 2, 3, 4):
        for sl in verify.enumerate_semilattices(n):
            assert props.is_meet_continuous(sl) == oracles.is_meet_continuous_by_scan(sl)


def test_sweep_render_is_stable():
    a = verify.sweep(2).render()
    b = verify.sweep(2, threads=3).render()
    assert a == b
    assert a.startswith("sweep n_max=2\ninstances checked: 9\n")
    assert a.rstrip().endswith("total violations: 0")


def test_audit_fields_follow_the_rule_ids():
    # the hom and product phases read each audit's verdicts in rule id order
    hom = tuple(f"hom.{f}" for f in verify.FunctorialAudit._fields[:4])
    assert hom == verify.HOM_RULE_IDS
    product = tuple(f"product.{f}" for f in verify.ProductAudit._fields)
    assert product == verify.PRODUCT_RULE_IDS[:3] + ("product.zar_factorizes",)


def test_sweep_reports_compare_by_value():
    assert verify.RuleStats(1, 2, ["x"]) == verify.RuleStats(1, 2, ["x"])
    assert verify.RuleStats() == verify.RuleStats(0, 0, [])
    assert verify.RuleStats(1, 2) != verify.RuleStats(1, 3)
    assert verify.sweep(2) == verify.sweep(2, threads=2)
    assert verify.sweep(2) != verify.sweep(1)


def test_threaded_sweep_decides_each_subsemigroup_trace_once(monkeypatch):
    sub_report = verify._sub_report
    calls = []

    def counted(*args):
        calls.append(args[1])
        return sub_report(*args)

    monkeypatch.setattr(verify, "_sub_report", counted)
    golden = (pathlib.Path(__file__).parent / "data" / "sweep3.txt").read_text("ascii")
    counts = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to shake out races
    try:
        for threads in (1, 2, 4):
            calls.clear()
            assert verify.sweep(3, threads=threads).render() == golden
            counts.append(len(calls))
    finally:
        sys.setswitchinterval(interval)
    assert counts[1:] == counts[:1] * 2


def test_a_rule_error_is_raised_from_the_calling_thread(monkeypatch):
    rule_id = "diagram.weak_within_law_within_tau"
    rule_threads = set()

    def broken(ctx):
        rule_threads.add(threading.current_thread())
        raise RuntimeError(f"broken check on n={ctx.inst.n}")

    def no_thread(*args, **kwargs):
        raise AssertionError("the sweep started a thread")

    rule = next(r for r in verify.PER_INSTANCE_RULES if r.id == rule_id)
    monkeypatch.setattr(verify, "PER_INSTANCE_RULES", (rule._replace(check=broken),))
    monkeypatch.setattr(threading, "Thread", no_thread)
    # the first class's error, raised where the sweep was called
    with pytest.raises(RuntimeError, match=r"broken check on n=1$"):
        verify.sweep(3, rule_ids=[rule_id], threads=2)
    assert rule_threads == {threading.current_thread()}


def test_zar_compact_centered_matches_scan():
    discrete4 = [
        tsl.TopologizedSemigroup(sl, topo.discrete(4))
        for sl in verify.enumerate_semilattices(4)
    ]
    for x in verify.universe(3) + discrete4:
        assert props.zar_compact_centered(x) == oracles.zar_compact_centered_by_scan(x)


def test_functorial_audit_constant_and_embedding():
    src = tsl.TopologizedSemigroup(MIN2, topo.discrete(2))
    point = tsl.TopologizedSemigroup(FiniteSemilattice(1, ((0,),)), topo.discrete(1))
    audit = verify.functorial_audit(tsl.ContinuousHom(src, point, (0, 0)))
    assert audit.weak_continuity
    assert audit.law_openness and audit.zar_closedness
    assert audit.details == ()

    # the trivial subgroup embeds into the discrete two-element group
    trivial = tsl.TopologizedSemigroup(FiniteSemigroup(1, ((0,),)), topo.discrete(1))
    group = tsl.TopologizedSemigroup(Z2, topo.discrete(2))
    audit = verify.functorial_audit(tsl.ContinuousHom(trivial, group, (0,)))
    assert audit.zar_embedding is True


def test_product_audit_examples():
    chain = tsl.TopologizedSemigroup(MIN2, topo.discrete(2))
    audit = verify.product_audit(chain, chain)
    assert audit == verify.ProductAudit(True, True, True, True)
    point = tsl.TopologizedSemigroup(FiniteSemilattice(1, ((0,),)), topo.discrete(1))
    audit = verify.product_audit(chain, point)
    assert audit == verify.ProductAudit(True, True, True, True)
    sier = tsl.TopologizedSemigroup(MIN2, topo.canonical(2, [0, 0b10, 0b11]))
    audit = verify.product_audit(sier, sier)
    assert audit.weak_circ_preserved and audit.weak_bullet_preserved
    assert audit.i_weak_preserved is None and audit.zar_factorizes is None


def test_a_failed_structural_inclusion_is_a_diagram_violation(monkeypatch):
    # the comparison asserts no inclusion itself: a broken zar reaches the
    # diagram rule, once per 2-point class whose tau is not discrete
    monkeypatch.setattr(weak, "zar_topology", lambda x: topo.discrete(x.n))
    rule = verify.sweep(2).rules["diagram.weak_within_zar_within_tau"]
    assert len(rule.violations) == 3
    wording = ":: expected zar within tau to hold"
    assert all(v.endswith(wording) for v in rule.violations)


def test_a_failed_agree_row_names_each_condition_with_its_value(monkeypatch):
    # t1 and t0 part on the 2-chain's two Sierpinski topologies, two classes
    rule_id = "zar.t1_iff"
    forced = verify._rule(rule_id, agree=["t1", "t0"])
    monkeypatch.setattr(verify, "PER_INSTANCE_RULES", (forced,))
    stats = verify.sweep(2, rule_ids=[rule_id]).rules[rule_id]
    classes = verify.instance_classes(2)
    sierpinski = [x for x, _ in classes if len(x.topology.opens) == 3]
    assert len(sierpinski) == 2
    assert stats.violations == [
        f"{verify._describe(x)} orbit=2 :: conditions disagree: t1=False, t0=True"
        for x in sierpinski
    ]


# the per-instance rule ids, in table order
PER_INSTANCE_RULE_IDS = (
    "diagram.weak_within_law_within_tau",
    "diagram.weak_within_zar_within_tau",
    "diagram.interval_within_lawson",
    "sep.weak_circ_implies_law_hausdorff",
    "sep.i_weak_implies_weak_circ",
    "sep.i_weak_implies_weak_bullet",
    "sep.i_weak_implies_weak_hausdorff",
    "sep.weak_bullet_implies_zar_hausdorff",
    "sep.weak_hausdorff_implies_law_hausdorff",
    "sep.weak_hausdorff_implies_zar_hausdorff",
    "sep.weak_hausdorff_iff_i_separated",
    "sep.law_hausdorff_implies_law_tau_separated",
    "sep.zar_hausdorff_implies_zar_tau_separated",
    "sep.i_separated_implies_law_tau_separated",
    "sep.i_separated_implies_zar_tau_separated",
    "sep.w_implies_law_tau_separated",
    "sep.u_implies_v",
    "sep.v_implies_zar_tau_separated",
    "u.hausdorff_implies_i_separated",
    "uw.equivalence",
    "uw.finite_upper_nbhd_refines",
    "v.t1_implies_zar_hausdorff",
    "v.down_chain_compact_equivalences",
    "zar.t0_iff",
    "zar.t1_iff",
    "zar.compact_iff_centered",
    "zar.updown_closed_equivalences",
    "sep.law_hausdorff_witness_characterization",
    "sep.zar_hausdorff_witness_characterization",
    "complete.separation_equivalences",
    "complete.weak_lawson_zar_tau_chain",
    "lawson.compact_iff_complete",
    "order.meet_continuity_holds",
    "chains.closure_of_chain_is_chain",
    "scott.open_upper_sets_are_scott_open",
    "chains.maxchain_contains_extrema",
    "scott.maxchain_gap_is_principal",
    "order.maxchain_down_trace_principal",
    "order.maxchain_up_trace_principal",
    "shifts.homomorphic_iff_identities",
    "shifts.law_zar_remain_semitopological",
    "shifts.weak_remains_semitopological",
    "linear.weak_circ_and_bullet",
)


def test_rule_table_resolves():
    """Every hypothesis is a PropertyVector field, every condition a row
    names is a field or a CONDITIONS key, every CONDITIONS key is read by
    some row, and the ids are unique and in their order."""
    fields = set(props.PROPERTY_NAMES)
    assert not fields & set(verify.CONDITIONS)  # a key would hide a field
    read = set()
    for rule in verify.PER_INSTANCE_RULES + (verify.MAIN_RULE,):
        assert set(rule.hypotheses) <= fields, rule.id
        names = set(rule.holds + rule.agree)
        assert names <= fields | set(verify.CONDITIONS), rule.id
        read |= names
    assert set(verify.CONDITIONS) <= read  # no dead entry
    ids = tuple(r.id for r in verify.PER_INSTANCE_RULES)
    assert len(set(ids)) == len(ids)
    assert ids == PER_INSTANCE_RULE_IDS
    # the rows that list their own witnesses keep a check of their own
    own = [r.id for r in verify.PER_INSTANCE_RULES if not (r.holds or r.agree)]
    assert len(own) == 8


def test_literal_lawson_t2_breaks_the_completeness_equivalence(monkeypatch):
    """complete.separation_equivalences reads the paper's "the Lawson
    topology is T2" as tau's discreteness.  Read literally, as "lawson t2",
    which holds on every finite poset, the rule fails on 31 classes with
    n <= 3, the first the 2-chain under the Sierpinski topology."""
    rule_id = "complete.separation_equivalences"
    rule = next(r for r in verify.PER_INSTANCE_RULES if r.id == rule_id)
    assert not verify.sweep(3, rule_ids=[rule_id]).rules[rule_id].violations
    assert "discrete" in rule.agree
    agree = ["lawson t2" if c == "discrete" else c for c in rule.agree]
    literal = verify._rule(rule_id, rule.hypotheses, agree=agree)
    monkeypatch.setattr(verify, "PER_INSTANCE_RULES", (literal,))
    violations = verify.sweep(3, rule_ids=[rule_id]).rules[rule_id].violations
    assert len(violations) == 31
    assert violations[0].startswith("n=2 table=(0, 0, 0, 1) opens=(0, 1, 3) orbit=2 ::")


def test_search_finds_strictness_witness():
    rec = verify.search(["weak_circ", "weak_bullet", "topological"], "i_weak", 2)
    assert rec is not None
    assert rec.document["elements"] == ["e0", "e1"]
    assert rec.document["meet"] == [["e0", "e0"], ["e0", "e1"]]
    assert rec.document["opens"] == [[], ["e0"], ["e0", "e1"]]
    assert rec.properties["weak_circ"] and not rec.properties["i_weak"]


def test_search_exhausted_cases():
    assert verify.search(["semilattice"], "shift_homomorphic", 3) is None
    assert verify.search(["t1", "semilattice"], "t2", 3) is None
    with pytest.raises(ValueError, match="unknown property"):
        verify.search(["bogus"], "t2", 2)
    # the search walks the sweep's classes and shares its bound
    with pytest.raises(ValueError, match="search supports n_max in 1..4, got 5"):
        verify.search(["weak_circ"], "i_weak", 5)


def test_search_output_and_catalog_are_byte_stable(tmp_path, capsys):
    argv = ["search", "--satisfy", "weak_circ", "--violate", "i_weak", "--n-max", "2"]
    outputs, lines = [], []
    for k in range(2):
        path = tmp_path / f"catalog{k}.jsonl"
        assert cli.main(argv + ["--catalog", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
        lines.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    assert lines[0] == lines[1]


def test_search_catalog_round_trip(tmp_path):
    path = tmp_path / "catalog.jsonl"
    rec = verify.search(["weak_circ"], "i_weak", 2, catalog=str(path))
    records = verify.load_catalog(str(path))
    assert len(records) == 1
    stored = records[0]
    assert stored.canonical_hash == rec.canonical_hash
    # re-deciding the stored instance reproduces the stored property vector
    inst = cli.parse_instance(json.dumps(stored.document))
    pv = props.property_vector(inst).as_dict()
    pv["semilattice"] = True
    assert pv == stored.properties
    # catalogs written before the timestamp was dropped still load
    raw = json.loads(path.read_text(encoding="ascii"))
    raw["discovered_at"] = "2018-01-01T00:00:00+00:00"
    path.write_text(json.dumps(raw, sort_keys=True) + "\n", encoding="ascii")
    assert verify.load_catalog(str(path)) == records


def test_class_representatives_are_canonical():
    # search's record names a representative as its own canonical form
    classes = verify.instance_classes(4)
    assert len(classes) == 1255
    for x, _ in classes:
        assert verify.canonicalize(x)[0] == x


def test_search_matches_labeled_oracle(tmp_path):
    path = tmp_path / "catalog.jsonl"
    found = 0
    for violate in props.PROPERTY_NAMES + verify.SEARCH_PSEUDO_PROPERTIES:
        path.write_bytes(b"")
        rec = verify.search([], violate, 3, catalog=str(path))
        assert rec == oracles.search_by_labeled_instances([], violate, 3), violate
        line = "" if rec is None else json.dumps(rec._asdict(), sort_keys=True) + "\n"
        assert path.read_text(encoding="ascii") == line
        found += rec is not None
    assert found == 20


def test_first_class_hit_is_first_labeled_hit():
    # every violate with no satisfy or one, at each n_max, over property
    # vectors decided once per instance
    def vectors(instances):
        return [(x, props.property_vector(x).as_dict()) for x in instances]

    labeled = vectors(verify.universe(3))
    classes = vectors(x for x, _ in verify.instance_classes(3))

    def first(pairs, n_max, satisfy, violate):
        return next(
            (
                x
                for x, pv in pairs
                if x.n <= n_max and all(pv[p] for p in satisfy) and not pv[violate]
            ),
            None,
        )

    for n_max in (1, 2, 3):
        for violate in props.PROPERTY_NAMES:
            for satisfy in [()] + [(p,) for p in props.PROPERTY_NAMES]:
                assert first(classes, n_max, satisfy, violate) == first(
                    labeled, n_max, satisfy, violate
                ), (n_max, satisfy, violate)


def test_sub_and_product_instances():
    sier = tsl.TopologizedSemigroup(MIN2, topo.canonical(2, [0, 0b10, 0b11]))
    assert topo.subspace(sier.topology, 0b10) == topo.discrete(1)
    prod = verify.product_instance(sier, sier)
    assert prod.n == 4
    assert prod.algebra.is_semilattice
    # the pair (top, top) is the product's top element
    assert prod.algebra.table[3][3] == 3
    with pytest.raises(ValueError):
        verify._sub_algebra(sier.algebra, 0)


def test_instance_document_names():
    x = tsl.TopologizedSemigroup(Z2, topo.discrete(2))
    doc = verify.instance_document(x, ["1", "a"])
    assert doc["op"][1][1] == "1"
    with pytest.raises(ValueError):
        verify.instance_document(x, ["1", "1"])
