import itertools

import pytest

from topsl.core import (
    ChainFlags,
    FinitePoset,
    FiniteSemigroup,
    FiniteSemilattice,
    MalformedTableError,
    NotABandError,
    NotASemilatticeError,
    as_semilattice,
    bits,
    bound_extremum,
    chain_and_directed,
    cone,
    full_mask,
    is_linear,
    is_shift_homomorphic,
    mask_of,
    natural_order,
    popcount,
    subsets,
    verify_semigroup,
    verify_semilattice,
)
from topsl.verify import enumerate_semilattices

MIN3 = FiniteSemilattice(3, tuple(tuple(min(x, y) for y in range(3)) for x in range(3)))
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


def test_bitmask_helpers():
    assert full_mask(3) == 0b111
    assert list(bits(0b1011)) == [0, 1, 3]
    assert popcount(0b1011) == 3
    assert mask_of([0, 3]) == 0b1001
    assert list(subsets(2)) == [0, 1, 2, 3]


def test_verify_semigroup_reports_witness():
    # x*y = x+y capped at 1 on {0,1,2}... not associative in general
    table = [[0, 1, 1], [1, 2, 2], [1, 2, 2]]
    bad = verify_semigroup(table)
    assert bad
    x, y, z = bad[0]
    assert table[table[x][y]][z] != table[x][table[y][z]]


def test_verify_semilattice_law_names():
    failures = verify_semilattice([[0, 0], [1, 1]])
    assert ("commutative", (0, 1)) in failures
    failures = verify_semilattice([[1, 0], [0, 1]])
    assert any(law == "idempotent" for law, _ in failures)


def test_malformed_tables_rejected():
    with pytest.raises(MalformedTableError):
        FiniteSemigroup.from_rows([[0, 1]])
    with pytest.raises(MalformedTableError):
        FiniteSemigroup.from_rows([[0, 2], [1, 0]])
    with pytest.raises(NotASemilatticeError):
        FiniteSemilattice(2, ((0, 1), (1, 0)))
    # the semilattice constructor runs the base checks too
    with pytest.raises(MalformedTableError, match="carrier size"):
        FiniteSemilattice(5, ((0,),))


def test_semigroup_classification_flags():
    assert Z2.is_commutative and not Z2.is_band and not Z2.is_semilattice
    assert MIN3.is_semilattice
    left_zero = FiniteSemigroup.from_rows([[0, 0], [1, 1]])
    assert left_zero.is_band and not left_zero.is_commutative


def test_as_semilattice_promotes():
    sg = FiniteSemigroup(2, ((0, 0), (0, 1)))
    sl = as_semilattice(sg)
    assert isinstance(sl, FiniteSemilattice)
    assert sl.meet(0, 1) == 0


def test_natural_order_of_chain():
    poset = natural_order(MIN3)
    assert poset.leq(0, 2) and not poset.leq(2, 0)
    assert poset.up[0] == 0b111 and poset.up[2] == 0b100
    assert poset.down(2) == 0b111


def test_natural_order_requires_band():
    with pytest.raises(NotABandError, match="element 1"):
        natural_order(Z2)


def test_poset_validation():
    with pytest.raises(ValueError, match="reflexive"):
        FinitePoset(2, (0b10, 0b10))
    with pytest.raises(ValueError, match="antisymmetric"):
        FinitePoset(2, (0b11, 0b11))
    with pytest.raises(ValueError, match="transitive"):
        FinitePoset(3, (0b011, 0b110, 0b100))


def test_poset_dual_involution():
    poset = natural_order(DIAMOND)
    assert poset.dual().dual() == poset


def test_cone_union_of_principals():
    poset = natural_order(DIAMOND)
    assert cone(poset, 0b0110, "up") == 0b1110
    assert cone(poset, 0b0010, "down") == 0b0011
    with pytest.raises(ValueError):
        cone(poset, 1, "sideways")


def test_chain_and_directed_flags():
    poset = natural_order(DIAMOND)
    assert chain_and_directed(poset, 0) == ChainFlags(True, False, False)
    assert chain_and_directed(poset, 0b1001).is_chain
    ab = chain_and_directed(poset, 0b0110)
    assert not ab.is_chain and not ab.is_up_directed and not ab.is_down_directed
    abt = chain_and_directed(poset, 0b1110)
    assert abt.is_up_directed and not abt.is_down_directed


def test_bound_extremum():
    poset = natural_order(DIAMOND)
    assert bound_extremum(poset, 0b0110, "sup") == 3
    assert bound_extremum(poset, 0b0110, "inf") == 0
    # a two-element antichain with no common upper bound
    anti = FinitePoset(2, (0b01, 0b10))
    assert bound_extremum(anti, 0b11, "sup") is None
    with pytest.raises(ValueError):
        bound_extremum(poset, 0, "sup")


def test_maximal_chains_of_diamond():
    poset = natural_order(DIAMOND)
    assert sorted(poset.maximal_chains()) == [0b1011, 0b1101]


def test_semilattice_meet_matches_order_inf():
    for sl in enumerate_semilattices(3):
        poset = natural_order(sl)
        for x, y in itertools.product(range(3), repeat=2):
            assert bound_extremum(poset, 1 << x | 1 << y, "inf") == sl.table[x][y]


def test_shift_identities():
    assert is_shift_homomorphic(MIN3)
    assert not is_shift_homomorphic(Z2)
    for sl in enumerate_semilattices(3):
        assert is_shift_homomorphic(sl)


def test_linearity():
    assert is_linear(MIN3)
    assert not is_linear(DIAMOND)
    assert not is_linear(Z2)
