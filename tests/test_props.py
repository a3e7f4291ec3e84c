import itertools

import pytest

from topsl import props, topo, tsl
from topsl.core import FiniteSemigroup, FiniteSemilattice, NotASemilatticeError
from topsl.verify import universe

MIN2 = FiniteSemilattice(2, ((0, 0), (0, 1)))
Z2 = FiniteSemigroup.from_rows([[0, 1], [1, 0]])

SIERPINSKI = tsl.TopologizedSemigroup(MIN2, topo.canonical(2, [0, 0b10, 0b11]))
DISCRETE_CHAIN = tsl.TopologizedSemigroup(MIN2, topo.discrete(2))
INDISCRETE_CHAIN = tsl.TopologizedSemigroup(MIN2, topo.indiscrete(2))


def test_uvw_profile_examples():
    assert props.uvw_profile(SIERPINSKI) == props.UVWProfile(True, True, True)
    # x = top is not below y = bottom, yet no point outside the bottom's
    # lower set has an upper set with nonempty interior
    assert props.uvw_profile(INDISCRETE_CHAIN) == props.UVWProfile(True, True, False)
    assert props.uvw_profile(DISCRETE_CHAIN) == props.UVWProfile(True, True, True)
    with pytest.raises(NotASemilatticeError):
        props.uvw_profile(tsl.TopologizedSemigroup(Z2, topo.discrete(2)))


SEPARATION_FIELDS = (
    "i_separated",
    "law_tau_separated",
    "zar_tau_separated",
    "law_hausdorff",
    "zar_hausdorff",
    "weak_hausdorff",
)


def test_separation_suite_examples():
    sier = props.property_vector(SIERPINSKI)
    assert not sier.i_separated
    assert not sier.zar_tau_separated
    assert not (sier.law_hausdorff or sier.zar_hausdorff or sier.weak_hausdorff)
    disc = props.property_vector(DISCRETE_CHAIN)
    assert all(getattr(disc, f) for f in SEPARATION_FIELDS)


def test_singleton_trivially_separated():
    one = tsl.TopologizedSemigroup(FiniteSemilattice(1, ((0,),)), topo.discrete(1))
    pv = props.property_vector(one)
    assert pv.i_separated and pv.weak_hausdorff


def test_law_hausdorff_witness():
    assert props.law_hausdorff_witness(DISCRETE_CHAIN, 0, 1) == (0b01, 0b10)
    assert props.law_hausdorff_witness(SIERPINSKI, 0, 1) is None
    assert props.law_hausdorff_witness(INDISCRETE_CHAIN, 0, 1) is None
    with pytest.raises(ValueError):
        props.law_hausdorff_witness(DISCRETE_CHAIN, 1, 1)


def test_zar_hausdorff_witness():
    assert props.zar_hausdorff_witness(DISCRETE_CHAIN, 0, 1) == (0b01, 0b10)
    assert props.zar_hausdorff_witness(SIERPINSKI, 0, 1) is None
    with pytest.raises(ValueError):
        props.zar_hausdorff_witness(SIERPINSKI, 0, 0)


def test_witnesses_characterize_hausdorffness():
    for x in universe(2):
        suite = props.property_vector(x)
        pairs = list(itertools.combinations(range(x.n), 2))
        assert suite.law_hausdorff == all(
            props.law_hausdorff_witness(x, a, b) is not None for a, b in pairs
        )
        assert suite.zar_hausdorff == all(
            props.zar_hausdorff_witness(x, a, b) is not None for a, b in pairs
        )


def test_finite_degeneracies_hold_everywhere():
    for x in universe(3):
        assert props.is_meet_continuous(x.algebra)
        assert props.zar_compact_centered(x)


def test_property_vector_fields_and_purity():
    pv = props.property_vector(SIERPINSKI)
    assert pv == props.property_vector(SIERPINSKI)
    d = pv.as_dict()
    assert tuple(d) == props.PROPERTY_NAMES
    assert d["weak_circ"] and d["weak_bullet"] and not d["i_weak"]
    assert d["topological"] and d["linear"] and not d["updown_closed"]
    assert not d["t1"] and d["t0"]
    # property_vector lays the profiles' fields out in this order
    assert props.PROPERTY_NAMES == (
        props.UVWProfile._fields
        + SEPARATION_FIELDS
        + ("weak_circ", "weak_bullet", "i_weak", "meet_continuous", "linear")
        + ("shift_homomorphic", "zar_compact_centered")
        + topo.SeparationProfile._fields
        + tsl.ContinuityProfile._fields
        + tsl.OrderProfile._fields
    )


def test_property_vector_requires_semilattice():
    with pytest.raises(NotASemilatticeError):
        props.property_vector(tsl.TopologizedSemigroup(Z2, topo.discrete(2)))
