import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topsl import cli, props, topo, tsl, verify, weak
from topsl.core import FiniteSemigroup, FiniteSemilattice

MIN2 = FiniteSemilattice(2, ((0, 0), (0, 1)))
Z2 = FiniteSemigroup.from_rows([[0, 1], [1, 0]])


def test_enumeration_counts_match_oracles():
    assert [len(verify.enumerate_topologies(n)) for n in (1, 2, 3)] == [1, 4, 29]
    assert [verify.brute_force_topology_count(n) for n in (1, 2, 3)] == [1, 4, 29]
    for n in (1, 2, 3):
        tables = [sl.table for sl in verify.enumerate_semilattices(n)]
        flat = [tuple(v for row in t for v in row) for t in tables]
        assert flat == verify.brute_force_semilattice_tables(n)


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
        FiniteSemilattice(x.n, table), topo.FiniteTopology(x.n, opens)
    )
    assert verify.canonical_hash(x) == verify.canonical_hash(y)


def test_sweep_small_counts():
    r1 = verify.sweep(1, main_n_max=1)
    assert r1.instances_checked == 1
    assert r1.total_violations == 0
    r2 = verify.sweep(2, main_n_max=2)
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
        verify.sweep(4)


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


def test_sweep_render_is_stable():
    a = verify.sweep(2, main_n_max=2).render()
    b = verify.sweep(2, main_n_max=2, threads=3).render()
    assert a == b
    assert a.startswith("sweep n_max=2\ninstances checked: 9\n")
    assert a.rstrip().endswith("total violations: 0")


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


def test_sub_and_product_instances():
    sier = tsl.TopologizedSemigroup(MIN2, topo.canonical(2, [0, 0b10, 0b11]))
    sub = verify.sub_instance(sier, 0b10)
    assert sub.n == 1 and sub.topology == topo.discrete(1)
    prod = verify.product_instance(sier, sier)
    assert prod.n == 4
    assert prod.algebra.is_semilattice
    # the pair (top, top) is the product's top element
    assert prod.algebra.table[3][3] == 3
    with pytest.raises(ValueError):
        verify.sub_instance(sier, 0)


def test_instance_document_names():
    x = tsl.TopologizedSemigroup(Z2, topo.discrete(2))
    doc = verify.instance_document(x, ["1", "a"])
    assert doc["op"][1][1] == "1"
    with pytest.raises(ValueError):
        verify.instance_document(x, ["1", "1"])
