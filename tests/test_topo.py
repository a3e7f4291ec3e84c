import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topsl import oracles, topo
from topsl.core import bits, full_mask, mask_of, subsets
from topsl.oracles import saturate_family
from topsl.verify import enumerate_topologies

from helpers import large_instances

SIERPINSKI = topo.canonical(2, [0, 0b10, 0b11])
TOPOLOGIES_UP_TO_4 = {n: enumerate_topologies(n) for n in (1, 2, 3, 4)}


def test_validation_catches_missing_sets():
    with pytest.raises(ValueError, match="missing empty set"):
        topo.canonical(2, (1, 3))
    with pytest.raises(ValueError, match="missing full set"):
        topo.canonical(2, (0, 1))
    with pytest.raises(ValueError, match="missing union"):
        topo.canonical(3, (0, 1, 2, 7))
    with pytest.raises(ValueError, match="missing intersection"):
        topo.canonical(3, (0, 0b011, 0b110, 0b111))
    with pytest.raises(ValueError, match="leaves the carrier"):
        topo.canonical(2, (0, 3, 4))
    # the field is the minimal neighbourhoods, which must form a preorder
    with pytest.raises(ValueError, match="3 minimal neighbourhoods for 2 points"):
        topo.FiniteTopology(2, (0, 3, 1))
    with pytest.raises(ValueError, match="misses 0"):
        topo.FiniteTopology(2, (0b10, 0b11))
    with pytest.raises(ValueError, match="leaves the carrier"):
        topo.FiniteTopology(2, (0b101, 0b10))
    with pytest.raises(ValueError, match="not a preorder"):
        topo.FiniteTopology(3, (0b011, 0b110, 0b100))


def test_validation_accepts_exactly_the_saturated_families():
    # every family of subsets of a 3-point carrier with the empty and full sets
    full = full_mask(3)
    middle = range(1, full)
    accepted = 0
    for pick in range(1 << len(middle)):
        chosen = {s for i, s in enumerate(middle) if pick >> i & 1}
        fam = tuple(sorted(chosen | {0, full}))
        if saturate_family(3, fam) == fam:
            assert topo.canonical(3, fam).opens == fam
            accepted += 1
        else:
            with pytest.raises(ValueError):
                topo.canonical(3, fam)
    assert accepted == 29


def test_membership_queries():
    assert SIERPINSKI.is_open(0b10)
    assert not SIERPINSKI.is_open(0b01)
    assert SIERPINSKI.is_closed(0b01)
    assert sorted(0b11 ^ u for u in SIERPINSKI.opens) == [0, 1, 3]


def test_discrete_and_indiscrete():
    assert topo.discrete(2).opens == (0, 1, 2, 3)
    assert topo.indiscrete(2).opens == (0, 3)
    assert topo.discrete(1) == topo.indiscrete(1)


def test_union_passes_find_every_open():
    tops = [top for n in range(1, 5) for top in enumerate_topologies(n)]
    assert len(tops) == 1 + 4 + 29 + 355
    for n in range(1, 11):
        tops += [topo.discrete(n), topo.indiscrete(n)]
        assert topo.discrete(n).opens == tuple(subsets(n))
    for top in tops:
        assert top.opens == saturate_family(top.n, top.minimal)


def test_generate_topology_small_cases():
    assert topo.generate_topology(2, [0b10]) == SIERPINSKI
    # two crossing subbase sets force their intersection and union
    generated = topo.generate_topology(3, [0b011, 0b110])
    assert generated.opens == (0, 0b010, 0b011, 0b110, 0b111)
    with pytest.raises(ValueError, match="leaves the carrier"):
        topo.generate_topology(2, [0b100])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_generate_topology_matches_saturation_oracle(data):
    n = data.draw(st.integers(1, 4))
    seeds = data.draw(
        st.lists(st.integers(0, full_mask(n)), min_size=0, max_size=6)
    )
    assert topo.generate_topology(n, seeds).opens == saturate_family(n, seeds)


def test_closure_interior_duality():
    full = full_mask(3)
    for top in enumerate_topologies(3):
        for s in subsets(3):
            assert topo.closure(top, s) == full ^ topo.interior(top, full ^ s)
            assert topo.interior(top, s) & ~s == 0
            assert topo.closure(top, s) & s == s


def _closure_by_scan(top, s):
    """The AND of the closed sets that hold s."""
    out = full_mask(top.n)
    for c in (full_mask(top.n) ^ u for u in top.opens):
        if s & ~c == 0:
            out &= c
    return out


def test_closure_and_interior_match_literal_scans():
    # all 355 topologies on 4 points: closure ORs the point closures
    for n in (1, 2, 3, 4):
        for top in TOPOLOGIES_UP_TO_4[n]:
            for s in subsets(n):
                largest_open = 0
                for u in top.opens:
                    if u & ~s == 0:
                        largest_open |= u
                assert topo.closure(top, s) == _closure_by_scan(top, s)
                assert topo.interior(top, s) == largest_open
    assert len(TOPOLOGIES_UP_TO_4[4]) == 355


@settings(max_examples=30, deadline=None)
@given(x=large_instances(6, 10), data=st.data())
def test_closure_matches_closed_set_scan_past_enum_max(x, data):
    top = x.topology
    assert top.point_closures == tuple(
        _closure_by_scan(top, 1 << y) for y in range(top.n)
    )
    masks = st.integers(0, full_mask(top.n))
    for s in data.draw(st.lists(masks, min_size=1, max_size=16)):
        assert topo.closure(top, s) == _closure_by_scan(top, s)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_minimal_neighbourhoods_follow_relabeling(data):
    n = data.draw(st.integers(1, 4))
    top = data.draw(st.sampled_from(TOPOLOGIES_UP_TO_4[n]))
    perm = data.draw(st.permutations(range(n)))

    def move(s):
        return mask_of(perm[i] for i in bits(s))

    moved = topo.canonical(n, [move(u) for u in top.opens])
    for x in range(n):
        assert moved.minimal[perm[x]] == move(top.minimal[x])
        around_x = [u for u in top.opens if u >> x & 1]
        assert top.minimal[x] in around_x
        assert all(top.minimal[x] & ~u == 0 for u in around_x)


def test_hull_validation():
    with pytest.raises(ValueError):
        topo.hull(SIERPINSKI, 0b100, "closure")
    with pytest.raises(ValueError):
        topo.hull(SIERPINSKI, 0b01, "boundary")


def test_separation_profiles():
    disc = topo.separation_profile(topo.discrete(3))
    assert disc == topo.SeparationProfile(True, True, True, True)
    indisc = topo.separation_profile(topo.indiscrete(2))
    assert indisc == topo.SeparationProfile(False, False, False, False)
    sier = topo.separation_profile(SIERPINSKI)
    assert sier.t0 and not sier.t1 and not sier.t2


def test_finite_t1_is_discrete():
    for top in enumerate_topologies(3):
        p = topo.separation_profile(top)
        assert p.t1 == p.t2 == p.discrete


def test_specialization_preorder_recovers_opens():
    # finite topologies are exactly the up-set families of their
    # specialization preorders, which are their minimal neighbourhoods
    for top in enumerate_topologies(3):
        rel = top.minimal
        opens = [
            u
            for u in subsets(3)
            if all(not (u >> x & 1) or rel[x] & ~u == 0 for x in range(3))
        ]
        assert tuple(sorted(opens)) == top.opens


def test_subspace():
    sub = topo.subspace(SIERPINSKI, 0b10)
    assert sub == topo.discrete(1)
    three = topo.generate_topology(3, [0b011, 0b110])
    assert topo.subspace(three, 0b101).opens == (0, 0b01, 0b10, 0b11)
    with pytest.raises(ValueError):
        topo.subspace(SIERPINSKI, 0)


def test_product_of_discretes_is_discrete():
    assert topo.product(topo.discrete(2), topo.discrete(2)) == topo.discrete(4)
    assert topo.product(SIERPINSKI, topo.discrete(1)) == SIERPINSKI


def test_product_matches_generated_box_base():
    for a in TOPOLOGIES_UP_TO_4[1] + TOPOLOGIES_UP_TO_4[2]:
        for n in (1, 2, 3):
            for b in TOPOLOGIES_UP_TO_4[n]:
                base = [topo.box_mask(u, v, b.n) for u in a.opens for v in b.opens]
                expected = topo.generate_topology(a.n * b.n, base)
                assert topo.product(a, b) == expected


def test_product_box_openness():
    prod = topo.product(SIERPINSKI, SIERPINSKI)
    assert prod.is_open(topo.box_mask(0b10, 0b10, 2))
    assert not prod.is_open(topo.box_mask(0b01, 0b01, 2))


def test_centered_family_report():
    rep = oracles.centered_family_report(3, [0b011, 0b110])
    assert rep.is_centered and rep.total_intersection == 0b010
    rep = oracles.centered_family_report(3, [0b001, 0b110])
    assert not rep.is_centered and rep.total_intersection == 0
    with pytest.raises(ValueError):
        oracles.centered_family_report(3, [])
