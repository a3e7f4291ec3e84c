import itertools
import sys
import tracemalloc

import pytest

from topsl.core import (
    FinitePoset,
    FiniteSemigroup,
    FiniteSemilattice,
    MalformedTableError,
    NotABandError,
    NotASemilatticeError,
    bits,
    bound_extremum,
    cone,
    full_mask,
    is_linear,
    is_shift_homomorphic,
    mask_of,
    natural_order,
    subsets,
    verify_semigroup,
)
from topsl import cli, core, topo, tsl, weak
from topsl.oracles import ChainFlags, chain_and_directed
from topsl.verify import enumerate_posets, enumerate_semilattices

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
    # masks below 2**10 read a precomputed table, larger ones walk the bits
    for m in range(1 << 11):
        assert list(bits(m)) == [i for i in range(11) if m >> i & 1]
    assert list(bits(1 << 80 | 0b101)) == [0, 2, 80]
    assert mask_of([0, 3]) == 0b1001
    assert list(subsets(2)) == [0, 1, 2, 3]


def test_bits_table_covers_every_cli_carrier():
    # a wider carrier would take bits' generator path on every mask
    assert len(core._BITS) == 1 << cli.CLI_MAX


def test_bits_rejects_a_negative_mask():
    # -1 has every bit set in two's complement: walking it never ends
    with pytest.raises(ValueError, match="negative mask -1"):
        bits(-1)
    with pytest.raises(ValueError, match="negative mask"):
        bound_extremum(natural_order(DIAMOND), -1, "sup")


def test_verify_semigroup_reports_witness():
    # x*y = x+y capped at 1 on {0,1,2}... not associative in general
    table = [[0, 1, 1], [1, 2, 2], [1, 2, 2]]
    bad = verify_semigroup(table)
    assert bad
    x, y, z = bad[0]
    assert table[table[x][y]][z] != table[x][table[y][z]]


def test_verify_semilattice_law_names():
    with pytest.raises(NotASemilatticeError) as exc:
        FiniteSemilattice(2, [[0, 0], [1, 1]])
    assert (exc.value.law, exc.value.witness) == ("commutative", (0, 1))
    with pytest.raises(NotASemilatticeError) as exc:
        FiniteSemilattice(2, [[1, 0], [0, 1]])
    assert (exc.value.law, exc.value.witness) == ("idempotent", (0,))


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


def test_poset_down_rows_match_literal_definition():
    for n in range(1, 5):
        for poset in enumerate_posets(n):
            for x in range(n):
                literal = mask_of(z for z in range(n) if poset.leq(z, x))
                assert poset.downs[x] == poset.down(x) == literal
                assert cone(poset, 1 << x, "down") == literal


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


def _validated_values():
    """Each validated type: a builder of the same object anew each call, its
    dataclass-style repr (None where it is too long to spell out), and a bad
    call with the error type and message it raises."""
    t = ((0, 0), (0, 1))

    def x():
        return tsl.TopologizedSemigroup(
            FiniteSemilattice(2, t), topo.FiniteTopology(2, (1, 2))
        )

    x_repr = (
        "TopologizedSemigroup(algebra=FiniteSemilattice(n=2, table=((0, 0), (0, 1))), "
        "topology=FiniteTopology(n=2, minimal=(1, 2)))"
    )
    return [
        (
            lambda: FiniteSemigroup(2, t),
            "FiniteSemigroup(n=2, table=((0, 0), (0, 1)))",
            lambda: FiniteSemigroup(2, ((1, 0), (0, 0))),
            MalformedTableError,
            "operation is not associative, e.g. at (0, 0, 1)",
        ),
        (
            lambda: FiniteSemilattice(2, t),
            "FiniteSemilattice(n=2, table=((0, 0), (0, 1)))",
            lambda: FiniteSemilattice(2, ((0, 1), (1, 0))),
            NotASemilatticeError,
            "idempotent law fails at (1,)",
        ),
        (
            lambda: FinitePoset(2, (3, 2)),
            "FinitePoset(n=2, up=(3, 2))",
            lambda: FinitePoset(2, (3, 3)),
            ValueError,
            "relation is not antisymmetric at (0, 1)",
        ),
        (
            lambda: topo.FiniteTopology(2, (1, 2)),
            "FiniteTopology(n=2, minimal=(1, 2))",
            lambda: topo.FiniteTopology(2, (1, 1)),
            ValueError,
            "minimal neighbourhood 0x1 of 1 misses 1",
        ),
        (
            x,
            x_repr,
            lambda: tsl.TopologizedSemigroup(FiniteSemilattice(2, t), topo.discrete(3)),
            ValueError,
            "algebra and topology carrier sizes differ",
        ),
        (
            lambda: tsl.ContinuousHom(x(), x(), (0, 1)),
            f"ContinuousHom(source={x_repr}, target={x_repr}, mapping=(0, 1))",
            lambda: tsl.ContinuousHom(x(), x(), (1, 0)),
            ValueError,
            "mapping is not a homomorphism",
        ),
        (lambda: weak.topology_comparison(x()), None, None, None, None),
    ]


def test_validated_types_are_immutable_values():
    for build, text, bad, error, message in _validated_values():
        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)
        assert not a != b
        field = type(a)._fields[0]
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(a, field, None)
        assert getattr(a, field) == getattr(b, field)
        if text is None:  # spelled out from the fields, as a dataclass does
            fields = ", ".join(f"{f}={getattr(a, f)!r}" for f in type(a)._fields)
            text = f"{type(a).__name__}({fields})"
        assert repr(a) == text
        if bad is not None:
            with pytest.raises(error) as raised:
                bad()
            assert type(raised.value) is error and str(raised.value) == message
    table = ((0, 0), (0, 1))
    # equal only within one class, as dataclass equality is
    assert FiniteSemigroup(2, table) != FiniteSemilattice(2, table)
    assert FiniteSemilattice(2, table) != FiniteSemigroup(2, table)


def test_values_built_from_lists_hash_and_equal_their_tuple_twins():
    x = tsl.TopologizedSemigroup(FiniteSemilattice(2, ((0, 0), (0, 1))), topo.discrete(2))
    pairs = [
        (topo.FiniteTopology(2, [1, 2]), topo.FiniteTopology(2, (1, 2))),
        (FiniteSemilattice(2, [[0, 0], [0, 1]]), FiniteSemilattice(2, ((0, 0), (0, 1)))),
        (FinitePoset(2, [3, 2]), FinitePoset(2, (3, 2))),
        (tsl.ContinuousHom(x, x, [0, 1]), tsl.ContinuousHom(x, x, (0, 1))),
    ]
    for from_lists, from_tuples in pairs:
        assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
        assert repr(from_lists) == repr(from_tuples)


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info < (3, 11),
    reason="before CPython 3.11 every instance carries a full dict",
)
def test_validated_values_keep_their_fields_inline():
    """Frozen stores the fields and _key with object.__setattr__, so they stay
    in the object's inline values: 152 B per topology and 130 B per instance
    below.  Filling the instance __dict__ instead makes a full dict per
    object: 295 and 273 B.  A cached property keeps its value inline too."""
    alg, top = MIN3, topo.FiniteTopology(3, (0b001, 0b011, 0b111))
    builds = [
        lambda: topo.FiniteTopology(3, top.minimal),
        lambda: tsl.TopologizedSemigroup(alg, top),
    ]
    count = 5000
    for build in builds:
        kept = [None] * count
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(count):
                kept[i] = build()
            per_object = (tracemalloc.get_traced_memory()[0] - before) / count
        finally:
            tracemalloc.stop()
        assert per_object < 220, (type(kept[0]).__name__, per_object)
    algebras = [FiniteSemilattice(3, MIN3.table) for _ in range(count)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for a in algebras:
            assert a.is_commutative  # kept inline: a written __dict__ adds 63 B
        per_read = (tracemalloc.get_traced_memory()[0] - before) / count
    finally:
        tracemalloc.stop()
    assert per_read < 30, per_read
