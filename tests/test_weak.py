import pytest

from topsl import oracles, topo, tsl, weak
from topsl.core import (
    FiniteSemigroup,
    FiniteSemilattice,
    NotASemilatticeError,
    natural_order,
)
from topsl.verify import enumerate_posets, universe

MIN2 = FiniteSemilattice(2, ((0, 0), (0, 1)))
DIAMOND = FiniteSemilattice(
    4,
    (
        (0, 0, 0, 0),
        (0, 1, 0, 1),
        (0, 0, 2, 2),
        (0, 1, 2, 3),
    ),
)
Z2 = FiniteSemigroup.from_rows([[0, 1], [1, 0]])


def test_two_element_group_derived_topologies():
    # carrier: 0 is the identity, 1 the generator
    x = tsl.TopologizedSemigroup(Z2, topo.discrete(2))
    assert weak.law_topology(x).opens == (0, 0b01, 0b11)
    assert weak.zar_topology(x).opens == (0, 0b10, 0b11)
    assert weak.weak_topology(x).opens == (0, 0b11)


def test_sierpinski_bundle():
    x = tsl.TopologizedSemigroup(MIN2, topo.canonical(2, [0, 0b10, 0b11]))
    comp = weak.topology_comparison(x)
    assert comp.bundle.law == x.topology
    assert comp.bundle.zar == x.topology
    assert comp.bundle.weak == topo.indiscrete(2)
    assert comp.bundle.scott.opens == (0, 0b10, 0b11)
    assert comp.bundle.lawson == topo.discrete(2)
    assert comp.weak_circ and comp.weak_bullet and not comp.i_weak
    assert not weak.family_within(comp.bundle.lawson, comp.bundle.zar)


def test_discrete_diamond_weak_is_discrete():
    x = tsl.TopologizedSemigroup(DIAMOND, topo.discrete(4))
    assert weak.weak_topology(x) == topo.discrete(4)
    scott = weak.scott_topology(natural_order(DIAMOND))
    assert len(scott.opens) == 6
    assert scott.opens == (0, 0b1000, 0b1010, 0b1100, 0b1110, 0b1111)


def test_multiplicative_cuts():
    x = tsl.TopologizedSemigroup(MIN2, topo.discrete(2))
    assert weak.multiplicative_cuts(x) == [0, 0b10, 0b11]
    group = tsl.TopologizedSemigroup(Z2, topo.discrete(2))
    # a group admits no proper multiplicative cut
    assert weak.multiplicative_cuts(group) == [0, 0b11]


def test_weak_topology_matches_hom_fiber_oracle():
    for x in universe(3):
        assert weak.weak_topology(x) == oracles.weak_topology_via_homs(x)


def test_chain_hom_route_requires_semilattice():
    group = tsl.TopologizedSemigroup(Z2, topo.discrete(2))
    with pytest.raises(NotASemilatticeError):
        oracles.weak_topology_via_homs(group)
    with pytest.raises(NotASemilatticeError):
        weak.topology_comparison(group)


def test_scott_upper_and_lawson_discreteness_small_posets():
    for n in range(1, 5):
        for poset in enumerate_posets(n):
            literal = oracles.scott_topology_by_directed_sups(poset)
            assert weak.scott_topology(poset) == literal
            assert literal == oracles.upper_set_topology(poset)
            lawson = oracles.lawson_topology_by_generation(poset)
            assert weak.lawson_topology(poset) == lawson == topo.discrete(n)
            interval = oracles.interval_topology_by_generation(poset)
            assert weak.interval_topology(poset) == interval == topo.discrete(n)


def test_comparison_inclusion_matrix():
    x = tsl.TopologizedSemigroup(MIN2, topo.discrete(2))
    comp = weak.topology_comparison(x)
    names = weak.TOPOLOGY_NAMES
    idx = {name: i for i, name in enumerate(names)}
    # everything except scott is discrete here
    assert comp.bundle.scott.opens == (0, 0b10, 0b11)
    for name in names:
        if name == "scott":
            continue
        assert getattr(comp.bundle, name) == topo.discrete(2)
        assert comp.inclusion[idx["scott"]][idx[name]]
        assert not comp.inclusion[idx[name]][idx["scott"]]
    assert comp.i_weak and comp.weak_circ and comp.weak_bullet


def test_bundle_as_dict_order():
    x = tsl.TopologizedSemigroup(MIN2, topo.discrete(2))
    bundle = weak.topology_comparison(x).bundle
    assert tuple(bundle.as_dict()) == weak.TOPOLOGY_NAMES
