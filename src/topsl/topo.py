"""Finite topologies on the carrier 0..n-1.

Every point x of a finite space has a smallest open set M_x, the
intersection of the opens that contain x, and every open set is the union
of the M_x of its points (Alexandrov 1937; Stong 1966).  So a topology is
held as the tuple `minimal` = (M_0, ..., M_{n-1}), its one field besides n:
equality and hashing are those of the tuple.  Any tuple of sets with x in
M_x and M_y within M_x for every y in M_x (a preorder) is the `minimal` of
exactly one topology.  The ascending tuple of open sets, `opens`, is derived
on first use; `canonical` builds a topology from an open-set family and
checks that the family is one, naming a missing union or intersection.
Generation, subspaces, products, closure and interior all work from
`minimal`.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .core import TOPOLOGY_PRODUCT_MAX, Frozen, bits, cached, full_mask, mask_of


def _minimal(n: int, sets) -> tuple[int, ...]:
    """For each point, the AND of the given sets that contain it (the full
    set when none does)."""
    out = [full_mask(n)] * n
    for s in sets:
        for x in bits(s):
            out[x] &= s
    return tuple(out)


class FiniteTopology(Frozen):
    """`minimal[x]` is M_x, the smallest open set containing x."""

    _fields = ("n", "minimal")

    def __init__(self, n: int, minimal: tuple[int, ...]):
        minimal = tuple(minimal)
        if len(minimal) != n:
            raise ValueError(f"{len(minimal)} minimal neighbourhoods for {n} points")
        full = full_mask(n)
        for x, m in enumerate(minimal):
            if m & ~full:
                raise ValueError(f"minimal neighbourhood {m:#x} of {x} leaves the carrier")
            if not m >> x & 1:
                raise ValueError(f"minimal neighbourhood {m:#x} of {x} misses {x}")
            for y in bits(m):
                if minimal[y] & ~m:
                    raise ValueError(
                        f"minimal neighbourhoods are not a preorder: {y} lies in "
                        f"M_{x} = {m:#x} but M_{y} = {minimal[y]:#x} does not"
                    )
        Frozen.__init__(self, n, minimal)

    @cached
    def _open_set(self) -> frozenset[int]:
        """Every union of minimal neighbourhoods: one pass per distinct M_x
        joins it to each union found so far."""
        opens = {0}
        for m in set(self.minimal):
            opens |= {u | m for u in opens}
        return frozenset(opens)

    @cached
    def point_closures(self) -> tuple[int, ...]:
        """The closure {x : y in M_x} of each point y; the closure of a set
        is the OR of its points' closures."""
        out = [0] * self.n
        for x, m in enumerate(self.minimal):
            for y in bits(m):
                out[y] |= 1 << x
        return tuple(out)

    @cached
    def opens(self) -> tuple[int, ...]:
        """The open sets, ascending by bitmask.  M_x holds x, so the sum of
        the M_x is at least the full mask, with equality iff every M_x is
        {x}: the discrete topology, whose opens are every subset."""
        if sum(self.minimal) == full_mask(self.n):
            return tuple(range(1 << self.n))
        return tuple(sorted(self._open_set))

    def is_open(self, s: int) -> bool:
        return s in self._open_set

    def is_closed(self, s: int) -> bool:
        return (full_mask(self.n) ^ s) in self._open_set


def canonical(n: int, opens) -> FiniteTopology:
    """The topology whose open sets are exactly the given family, which may
    come in any order and with repeats: the family's M_x are the ANDs of its
    members, and it is a topology iff its members are the unions of the M_x.
    Raises ValueError naming a missing empty or full set, else the first
    listed pair (a, b) that lacks its union or else its intersection; that
    error's `missing` is ("union" or "intersection", a, b).
    oracles.saturate_family closes a family pair by pair."""
    listed = tuple(opens)
    family = frozenset(listed)
    full = full_mask(n)
    if 0 not in family:
        raise ValueError("missing empty set")
    if full not in family:
        raise ValueError("missing full set")
    for u in sorted(family):
        if u & ~full:
            raise ValueError(f"open set {u:#x} leaves the carrier")
    top = FiniteTopology(n, _minimal(n, family))
    if top._open_set != family:
        # a family with the empty and full sets, closed pairwise, is one
        kind, a, b = next(
            (kind, a, b)
            for a in listed
            for b in listed
            for kind, c in (("union", a | b), ("intersection", a & b))
            if c not in family
        )
        err = ValueError(f"missing {kind} of {a:#x} and {b:#x}")
        err.missing = (kind, a, b)
        raise err
    return top


def discrete(n: int) -> FiniteTopology:
    return FiniteTopology(n, tuple(1 << x for x in range(n)))


def indiscrete(n: int) -> FiniteTopology:
    return FiniteTopology(n, (full_mask(n),) * n)


def generate_topology(n: int, subbase) -> FiniteTopology:
    """Smallest topology containing the given subbase sets.  Its M_x is the
    AND of the subbase sets that contain x."""
    full = full_mask(n)
    for s in subbase:
        if s & ~full:
            raise ValueError(f"subbase set {s:#x} leaves the carrier")
    return FiniteTopology(n, _minimal(n, subbase))


def hull(top: FiniteTopology, s: int, mode: str) -> int:
    """Closure (smallest closed superset) or interior (largest open subset):
    closure(s) = {x : M_x meets s}, the OR of the point closures of s, and
    interior(s) = union of the M_x within s."""
    if s & ~full_mask(top.n):
        raise ValueError("subset leaves the carrier")
    out = 0
    if mode == "closure":
        pc = top.point_closures
        for y in bits(s):
            out |= pc[y]
        return out
    if mode == "interior":
        for m in top.minimal:
            if m & ~s == 0:
                out |= m
        return out
    raise ValueError(f"mode must be 'closure' or 'interior', got {mode!r}")


def closure(top: FiniteTopology, s: int) -> int:
    return hull(top, s, "closure")


def interior(top: FiniteTopology, s: int) -> int:
    return hull(top, s, "interior")


class SeparationProfile(NamedTuple):
    t0: bool
    t1: bool
    t2: bool
    discrete: bool


def separation_profile(top: FiniteTopology) -> SeparationProfile:
    """T0 fails exactly when two points lie in each other's M_x, as then
    every open set holds both or neither.  A finite T1 or T2 space is
    discrete (each singleton is the finite intersection of the opens missing
    the other points), and discrete means every M_x = {x}.
    oracles.separation_profile_by_scan scans the open and closed sets."""
    m = top.minimal
    t0 = not any(
        m[x] >> y & 1 and m[y] >> x & 1
        for x, y in itertools.combinations(range(top.n), 2)
    )
    disc = all(mx == 1 << x for x, mx in enumerate(m))
    return SeparationProfile(t0, disc, disc, disc)


def subspace(top: FiniteTopology, carrier_subset: int) -> FiniteTopology:
    """Trace topology, re-indexed onto the subset's elements in ascending
    order: the M_x of a point of the subset is its M_x there, traced on it.
    oracles.subspace_by_traces traces every open set."""
    if not carrier_subset:
        raise ValueError("subspace carrier must be nonempty")
    if carrier_subset & ~full_mask(top.n):
        raise ValueError("subset leaves the carrier")
    elems = list(bits(carrier_subset))
    index = {e: i for i, e in enumerate(elems)}
    return FiniteTopology(
        len(elems),
        tuple(
            mask_of(index[e] for e in bits(top.minimal[x] & carrier_subset))
            for x in elems
        ),
    )


def pair_index(i: int, j: int, n2: int) -> int:
    return i * n2 + j


def box_mask(u: int, v: int, n2: int) -> int:
    """Bitmask of U x V under the pair index (i, j) -> i*n2 + j."""
    out = 0
    for i in bits(u):
        for j in bits(v):
            out |= 1 << pair_index(i, j, n2)
    return out


def product(top1: FiniteTopology, top2: FiniteTopology) -> FiniteTopology:
    """The product topology: the M of the pair (x, y) is the box M_x x M_y.
    oracles.product_by_union_closure closes the boxes under union."""
    n = top1.n * top2.n
    if n > TOPOLOGY_PRODUCT_MAX:
        raise ValueError(
            f"product carrier {n} exceeds the supported bound {TOPOLOGY_PRODUCT_MAX}"
        )
    return FiniteTopology(
        n, tuple(box_mask(a, b, top2.n) for a in top1.minimal for b in top2.minimal)
    )
