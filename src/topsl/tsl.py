"""Semigroups paired with topologies: continuity classes, order-topological
predicates, subsemigroup and chain-homomorphism enumeration."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import topo
from .core import (
    FiniteSemigroup,
    FiniteSemilattice,
    NotASemilatticeError,
    bits,
    bound_extremum,
    mask_of,
    natural_order,
    subsets,
)


@dataclass(frozen=True)
class TopologizedSemigroup:
    algebra: FiniteSemigroup
    topology: topo.FiniteTopology

    def __post_init__(self):
        if self.algebra.n != self.topology.n:
            raise ValueError("algebra and topology carrier sizes differ")

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
    return all(src.is_open(preimage(mapping, u, src.n)) for u in tgt.opens)


@dataclass(frozen=True)
class ContinuousHom:
    source: TopologizedSemigroup
    target: TopologizedSemigroup
    mapping: tuple[int, ...]

    def __post_init__(self):
        if len(self.mapping) != self.source.n:
            raise ValueError("mapping length does not match source carrier")
        if any(not 0 <= v < self.target.n for v in self.mapping):
            raise ValueError("mapping value out of target range")
        if not is_homomorphism(self.source.algebra, self.target.algebra, self.mapping):
            raise ValueError("mapping is not a homomorphism")
        if not is_continuous(self.source.topology, self.target.topology, self.mapping):
            raise ValueError("mapping is not continuous")


@dataclass(frozen=True)
class ContinuityProfile:
    topological: bool
    semitopological: bool
    subtopological: bool


def translations_continuous(x_instance: TopologizedSemigroup) -> bool:
    alg, top = x_instance.algebra, x_instance.topology
    n = alg.n
    for a in range(n):
        left = [alg.table[a][x] for x in range(n)]
        right = [alg.table[x][a] for x in range(n)]
        for u in top.opens:
            if not top.is_open(preimage(left, u, n)):
                return False
            if not top.is_open(preimage(right, u, n)):
                return False
    return True


def continuity_profile(x_instance: TopologizedSemigroup) -> ContinuityProfile:
    alg, top = x_instance.algebra, x_instance.topology
    t, m = alg.table, top.minimal
    # the operation is jointly continuous at (x, y) iff it maps the smallest
    # neighbourhood M_x x M_y of the pair into the smallest one of xy
    topological = all(
        m[t[x][y]] >> t[a][b] & 1
        for x in range(alg.n)
        for y in range(alg.n)
        for a in bits(m[x])
        for b in bits(m[y])
    )
    semitopological = translations_continuous(x_instance)
    subtopological = True
    for s in enumerate_subsemigroups(x_instance, closed_only=False):
        cl = topo.closure(top, s)
        if not _is_subsemigroup(alg, cl):
            subtopological = False
            break
    return ContinuityProfile(topological, semitopological, subtopological)


def _is_subsemigroup(alg: FiniteSemigroup, s: int) -> bool:
    elems = list(bits(s))
    return all(s >> alg.table[x][y] & 1 for x in elems for y in elems)


def enumerate_subsemigroups(
    x_instance: TopologizedSemigroup, closed_only: bool = False
) -> list[int]:
    """All subsets closed under the operation (including the empty set),
    ascending by bitmask; restricted to topologically closed sets on demand."""
    alg, top = x_instance.algebra, x_instance.topology
    out = []
    for s in subsets(alg.n):
        if not _is_subsemigroup(alg, s):
            continue
        if closed_only and not top.is_closed(s):
            continue
        out.append(s)
    return out


@dataclass(frozen=True)
class OrderProfile:
    updown_closed: bool
    complete: bool
    chain_compact: bool
    down_chain_compact: bool


def order_profile(x_instance: TopologizedSemigroup) -> OrderProfile:
    alg, top = x_instance.algebra, x_instance.topology
    if not alg.is_semilattice:
        raise NotASemilatticeError("order profile needs a semilattice")
    poset = natural_order(alg)
    n = alg.n
    updown = all(
        top.is_closed(poset.up[x]) and top.is_closed(poset.down(x)) for x in range(n)
    )
    # every nonempty chain must have inf and sup inside its closure
    complete = True
    closed_chains = []
    for s in subsets(n):
        if not s or not poset.is_chain_set(s):
            continue
        if top.is_closed(s):
            closed_chains.append(s)
        lo = bound_extremum(poset, s, "inf")
        hi = bound_extremum(poset, s, "sup")
        cl = topo.closure(top, s)
        if lo is None or hi is None or not cl >> lo & 1 or not cl >> hi & 1:
            complete = False
    # every closed chain here is a finite set, hence compact; the scans above
    # enumerate them so the tautology is at least exercised
    chain_compact = all(isinstance(c, int) for c in closed_chains)
    down_chain_compact = True
    for x in range(n):
        down = poset.down(x)
        down_top = topo.subspace(top, down)
        down_chain_compact = down_chain_compact and down_top.n >= 1
    return OrderProfile(updown, complete, chain_compact, down_chain_compact)


def chain_semilattice(k: int) -> TopologizedSemigroup:
    """The k-element min-chain with the discrete topology."""
    table = tuple(tuple(min(x, y) for y in range(k)) for x in range(k))
    return TopologizedSemigroup(FiniteSemilattice(k, table), topo.discrete(k))


def enumerate_chain_homs(
    x_instance: TopologizedSemigroup, k_max: int | None = None
) -> list[ContinuousHom]:
    """All continuous meet-homomorphisms onto discrete min-chains of length
    at most k_max (default: the carrier size).  Constants are included (k=1).
    Deterministic order: chain length ascending, then mapping lexicographic."""
    alg = x_instance.algebra
    if not alg.is_semilattice:
        raise NotASemilatticeError("chain homomorphisms need a semilattice source")
    n = alg.n
    if k_max is None:
        k_max = n
    if k_max > n:
        raise ValueError("a homomorphic image chain has at most n elements")
    out = []
    for k in range(1, k_max + 1):
        target = chain_semilattice(k)
        for mapping in itertools.product(range(k), repeat=n):
            if len(set(mapping)) != k:
                continue  # onto the chain
            if not is_homomorphism(alg, target.algebra, mapping):
                continue
            if not is_continuous(x_instance.topology, target.topology, mapping):
                continue
            out.append(ContinuousHom(x_instance, target, tuple(mapping)))
    return out
