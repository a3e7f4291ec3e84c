"""Semigroups paired with topologies: continuity classes and subsemigroup
enumeration."""

from __future__ import annotations

from typing import NamedTuple

from . import topo
from .core import (
    FiniteSemigroup,
    FiniteSemilattice,
    Frozen,
    bits,
    derived,
    mask_of,
)


class TopologizedSemigroup(Frozen):
    _fields = ("algebra", "topology")

    def __init__(self, algebra: FiniteSemigroup, topology: topo.FiniteTopology):
        if algebra.n != topology.n:
            raise ValueError("algebra and topology carrier sizes differ")
        Frozen.__init__(self, algebra, topology)

    @property
    def n(self) -> int:
        return self.algebra.n

    def with_topology(self, top: topo.FiniteTopology) -> "TopologizedSemigroup":
        return TopologizedSemigroup(self.algebra, top)


def preimage(mapping, target_set: int, n_source: int) -> int:
    return mask_of(x for x in range(n_source) if target_set >> mapping[x] & 1)


def image_mask(mapping, source_set: int) -> int:
    return mask_of(mapping[x] for x in bits(source_set))


def is_homomorphism(src: FiniteSemigroup, tgt: FiniteSemigroup, mapping) -> bool:
    return all(
        mapping[src.table[x][y]] == tgt.table[mapping[x]][mapping[y]]
        for x in range(src.n)
        for y in range(src.n)
    )


def is_continuous(
    src: topo.FiniteTopology, tgt: topo.FiniteTopology, mapping
) -> bool:
    """A map f is continuous iff f(M_x) lies within M_f(x) for every x: the
    preimage of an open set around f(x) then holds M_x, and conversely the
    preimage of M_f(x) must.  oracles.is_continuous_by_preimages tests the
    preimage of every open set."""
    tm = tgt.minimal
    return all(
        tm[mapping[x]] >> mapping[y] & 1
        for x, mx in enumerate(src.minimal)
        for y in bits(mx)
    )


class ContinuousHom(Frozen):
    _fields = ("source", "target", "mapping")

    def __init__(
        self, source: TopologizedSemigroup, target: TopologizedSemigroup, mapping
    ):
        mapping = tuple(mapping)
        if len(mapping) != source.n:
            raise ValueError("mapping length does not match source carrier")
        if any(not 0 <= v < target.n for v in mapping):
            raise ValueError("mapping value out of target range")
        if not is_homomorphism(source.algebra, target.algebra, mapping):
            raise ValueError("mapping is not a homomorphism")
        if not is_continuous(source.topology, target.topology, mapping):
            raise ValueError("mapping is not continuous")
        Frozen.__init__(self, source, target, mapping)


class ContinuityProfile(NamedTuple):
    topological: bool
    semitopological: bool
    subtopological: bool


def translations_continuous(x_instance: TopologizedSemigroup) -> bool:
    """Whether every translation x -> a*x and x -> x*a is continuous, each
    decided from the minimal neighbourhoods by is_continuous.  On a
    commutative table x*a = a*x, so the left translations are all of them.
    oracles.translations_continuous_by_preimages tests every preimage."""
    alg, top = x_instance.algebra, x_instance.topology
    t, rng = alg.table, range(alg.n)
    if alg.is_commutative:
        return all(is_continuous(top, top, t[a]) for a in rng)
    return all(
        is_continuous(top, top, t[a])
        and is_continuous(top, top, [t[x][a] for x in rng])
        for a in rng
    )


def continuity_profile(x_instance: TopologizedSemigroup) -> ContinuityProfile:
    """Joint continuity equals separate continuity on a finite space.  The
    operation is jointly continuous at (x, y) iff it maps M_x x M_y into
    M_xy.  For a in M_x and b in M_y, continuity of a*- gives ab in M_ay,
    and continuity of -*y gives ay in M_xy, so M_ay lies within M_xy; the
    converse takes a = x or b = y.  No commutativity is needed.
    oracles.joint_continuity_by_minimal tests every M_x x M_y, and
    oracles.joint_continuity_via_product every open."""
    alg, top = x_instance.algebra, x_instance.topology
    semitopological = translations_continuous(x_instance)
    subs = derived(alg, subsemigroups)
    known = frozenset(subs)
    subtopological = all(topo.closure(top, s) in known for s in subs)
    return ContinuityProfile(semitopological, semitopological, subtopological)


def subsemigroups(alg: FiniteSemigroup) -> tuple[int, ...]:
    """All subsets closed under the operation (including the empty set),
    ascending by bitmask; read through core.derived, once per table.

    prod[s], the set of products of two members of s, is prod[m] | img[m]
    for m = s without its highest member h, where img[m] holds h*h and h*y,
    y*h for each y in m; s is closed iff prod[s] lies within s.  So each
    subset costs one OR.  oracles.subsemigroups_by_scan tests every pair."""
    t = alg.table
    prod, out = [0], [0]
    for h in range(alg.n):
        img = [1 << t[h][h]]  # img[m] for every m below 2**h, bit by bit
        for y in range(h):
            add = 1 << t[h][y] | 1 << t[y][h]
            img += [i | add for i in img]
        high = 1 << h
        grown = [p | i for p, i in zip(prod, img)]
        out += [m | high for m, p in enumerate(grown) if p & ~(m | high) == 0]
        prod += grown
    return tuple(out)


def enumerate_subsemigroups(
    x_instance: TopologizedSemigroup, closed_only: bool = False
) -> list[int]:
    """All subsets closed under the operation (including the empty set),
    ascending by bitmask; restricted to topologically closed sets on demand."""
    top = x_instance.topology
    subs = derived(x_instance.algebra, subsemigroups)
    return [s for s in subs if not closed_only or top.is_closed(s)]


class OrderProfile(NamedTuple):
    updown_closed: bool
    complete: bool
    chain_compact: bool
    down_chain_compact: bool


def order_profile(discrete: bool) -> OrderProfile:
    """The order fields of a semilattice, given whether its topology is
    discrete.  Every up x and down x is closed exactly then: every set of a
    discrete space is closed, and if they are, so is {x} = up x meet down x,
    and a finite T1 space is discrete.  The other three hold on every finite
    carrier: a chain holds its inf and sup, its min and max, and is compact.
    oracles.order_profile_by_scan scans the principal sets and every chain."""
    return OrderProfile(discrete, True, True, True)


def chain_semilattice(k: int) -> TopologizedSemigroup:
    """The k-element min-chain with the discrete topology."""
    table = tuple(tuple(min(x, y) for y in range(k)) for x in range(k))
    return TopologizedSemigroup(FiniteSemilattice(k, table), topo.discrete(k))
