import itertools

import pytest

from topsl import topo, tsl, verify
from topsl.core import (
    FiniteSemigroup,
    FiniteSemilattice,
    NotASemilatticeError,
    verify_semigroup,
)

MIN2 = FiniteSemilattice(2, ((0, 0), (0, 1)))
Z2 = FiniteSemigroup.from_rows([[0, 1], [1, 0]])
SIERPINSKI_TOP = topo.canonical(2, [0, 0b10, 0b11])


def inst(alg, top):
    return tsl.TopologizedSemigroup(alg, top)


def test_carrier_size_mismatch():
    with pytest.raises(ValueError):
        tsl.TopologizedSemigroup(MIN2, topo.discrete(3))


def test_preimage_and_image():
    mapping = (0, 0, 1)
    assert tsl.preimage(mapping, 0b01, 3) == 0b011
    assert tsl.image_mask(mapping, 0b101) == 0b11


def test_homomorphism_and_continuity_predicates():
    assert tsl.is_homomorphism(MIN2, MIN2, (0, 1))
    assert not tsl.is_homomorphism(MIN2, MIN2, (1, 0))
    sier = inst(MIN2, SIERPINSKI_TOP)
    assert tsl.is_continuous(topo.discrete(2), SIERPINSKI_TOP, (0, 1))
    assert not tsl.is_continuous(SIERPINSKI_TOP, topo.discrete(2), (0, 1))
    assert tsl.is_continuous(sier.topology, sier.topology, (0, 1))


def test_continuous_hom_validation():
    src = inst(MIN2, topo.discrete(2))
    tgt = tsl.chain_semilattice(2)
    tsl.ContinuousHom(src, tgt, (0, 1))
    with pytest.raises(ValueError, match="homomorphism"):
        tsl.ContinuousHom(src, tgt, (1, 0))
    with pytest.raises(ValueError, match="length"):
        tsl.ContinuousHom(src, tgt, (0,))
    sier = inst(MIN2, SIERPINSKI_TOP)
    with pytest.raises(ValueError, match="continuous"):
        tsl.ContinuousHom(sier, tgt, (0, 1))


def test_continuity_profiles():
    # bottom singleton open: jointly continuous
    bottom_open = inst(MIN2, topo.canonical(2, [0, 0b01, 0b11]))
    assert tsl.continuity_profile(bottom_open) == tsl.ContinuityProfile(
        True, True, True
    )
    assert tsl.continuity_profile(inst(MIN2, topo.indiscrete(2))).semitopological
    z2_law = inst(Z2, topo.canonical(2, [0, 0b01, 0b11]))
    prof = tsl.continuity_profile(z2_law)
    assert not prof.semitopological and not prof.topological


def test_subtopological_detects_bad_closure():
    # {a} is a subsemigroup of the 2-element group only if a is idempotent
    z2_disc = inst(Z2, topo.discrete(2))
    assert tsl.continuity_profile(z2_disc).subtopological
    z2_indisc = inst(Z2, topo.indiscrete(2))
    # closure of the subsemigroup {1} is the whole group, still a subsemigroup
    assert tsl.continuity_profile(z2_indisc).subtopological


def test_enumerate_subsemigroups():
    z2 = inst(Z2, topo.discrete(2))
    assert tsl.enumerate_subsemigroups(z2) == [0, 0b01, 0b11]
    sier = inst(MIN2, SIERPINSKI_TOP)
    assert tsl.enumerate_subsemigroups(sier) == [0, 0b01, 0b10, 0b11]
    assert tsl.enumerate_subsemigroups(sier, closed_only=True) == [0, 0b01, 0b11]


def test_order_profile():
    disc = tsl.order_profile(inst(MIN2, topo.discrete(2)))
    assert disc == tsl.OrderProfile(True, True, True, True)
    sier = tsl.order_profile(inst(MIN2, SIERPINSKI_TOP))
    assert not sier.updown_closed
    assert sier.complete and sier.chain_compact and sier.down_chain_compact
    with pytest.raises(NotASemilatticeError):
        tsl.order_profile(inst(Z2, topo.discrete(2)))


def test_chain_semilattice():
    c3 = tsl.chain_semilattice(3)
    assert c3.algebra.meet(1, 2) == 1
    assert c3.topology == topo.discrete(3)


def test_enumerate_chain_homs_discrete_chain():
    homs = tsl.enumerate_chain_homs(inst(MIN2, topo.discrete(2)))
    assert [h.mapping for h in homs] == [(0, 0), (0, 1)]


def test_enumerate_chain_homs_respect_topology():
    homs = tsl.enumerate_chain_homs(inst(MIN2, SIERPINSKI_TOP))
    # the identity hom is discontinuous here: the fiber over 0 is not open
    assert [h.mapping for h in homs] == [(0, 0)]
    with pytest.raises(ValueError):
        tsl.enumerate_chain_homs(inst(MIN2, topo.discrete(2)), k_max=3)


def _topological_matches_product_oracle(x):
    assert tsl.continuity_profile(x).topological == verify.joint_continuity_via_product(x)


def test_topological_matches_product_oracle_on_universe_3():
    for x in verify.universe(3):
        _topological_matches_product_oracle(x)


def test_topological_matches_product_oracle_on_small_semigroups():
    # joint continuity via minimal neighbourhoods needs no semilattice laws
    checked = 0
    for n in (1, 2):
        for flat in itertools.product(range(n), repeat=n * n):
            table = tuple(flat[i * n : (i + 1) * n] for i in range(n))
            if verify_semigroup(table):
                continue
            alg = FiniteSemigroup(n, table)
            if alg.is_semilattice:
                continue
            for top in verify.enumerate_topologies(n):
                _topological_matches_product_oracle(inst(alg, top))
                checked += 1
    assert checked == 6 * 4


def test_topological_matches_product_oracle_on_sparse_4_point():
    tops = [t for t in verify.enumerate_topologies(4) if len(t.opens) <= 6]
    for sl in verify.enumerate_semilattices(4):
        for top in tops:
            _topological_matches_product_oracle(inst(sl, top))
