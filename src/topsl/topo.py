"""Finite topologies on the carrier 0..n-1.

A topology is a canonically sorted tuple of open-set bitmasks, `opens`.
Canonical form means: ascending by bitmask value, no duplicates.  `opens` is
the one field, so equality, hashing and repr are those of the tuple.

Every point x of a finite space has a smallest open set M_x, the
intersection of the opens that contain x, and every open set is the union
of the M_x of its points (Alexandrov 1937; Stong 1966).  Construction
derives the tuple `minimal` = (M_0, ..., M_{n-1}) once.  A canonical family
of k subsets of the carrier is then a topology exactly when it contains the
empty set, the full set, every M_x, and u | M_x for every open u and every
point x: every intersection of opens is a union of M_x.  That check costs
O(k*n) set lookups, against O(k*k) for checking every pair.  Generation,
products, closure and interior all work from `minimal`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import bits, full_mask, mask_of, subsets


def _minimal(n: int, sets) -> tuple[int, ...]:
    """For each point, the AND of the given sets that contain it (the full
    set when none does)."""
    sets = list(sets)
    out = []
    for x in range(n):
        bit, m = 1 << x, full_mask(n)
        for s in sets:
            if s & bit:
                m &= s
        out.append(m)
    return tuple(out)


@dataclass(frozen=True)
class FiniteTopology:
    """Open sets in canonical form; `minimal[x]` (not a field) is the
    smallest open set containing x."""

    n: int
    opens: tuple[int, ...]

    def __post_init__(self):
        n, opens = self.n, self.opens
        full = full_mask(n)
        if list(opens) != sorted(set(opens)):
            raise ValueError("opens are not in canonical (sorted, deduped) form")
        if 0 not in opens:
            raise ValueError("missing empty set")
        if full not in opens:
            raise ValueError("missing full set")
        for u in opens:
            if u & ~full:
                raise ValueError(f"open set {u:#x} leaves the carrier")
        present = frozenset(opens)
        minimal = _minimal(n, opens)
        for x, m in enumerate(minimal):
            if m not in present:
                raise ValueError(
                    f"missing intersection {m:#x} of the open sets around {x}"
                )
        for u in opens:
            for m in minimal:
                if u | m not in present:
                    raise ValueError(f"missing union of {u:#x} and {m:#x}")
        object.__setattr__(self, "_open_set", present)
        object.__setattr__(self, "minimal", minimal)

    def is_open(self, s: int) -> bool:
        return s in self._open_set

    def is_closed(self, s: int) -> bool:
        return (full_mask(self.n) ^ s) in self._open_set

    def closed_sets(self) -> tuple[int, ...]:
        full = full_mask(self.n)
        return tuple(sorted(full ^ u for u in self.opens))


def canonical(n: int, opens) -> FiniteTopology:
    return FiniteTopology(n, tuple(sorted(set(opens))))


def discrete(n: int) -> FiniteTopology:
    return FiniteTopology(n, tuple(subsets(n)))


def indiscrete(n: int) -> FiniteTopology:
    return canonical(n, [0, full_mask(n)])


def _union_closure(n: int, minimal) -> FiniteTopology:
    """The topology whose minimal neighbourhoods are `minimal`: every union
    of them, found by a walk from the empty set over u | M_x."""
    minimal = set(minimal)
    opens = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for m in minimal:
            v = u | m
            if v not in opens:
                opens.add(v)
                frontier.append(v)
    return canonical(n, opens)


def generate_topology(n: int, subbase) -> FiniteTopology:
    """Smallest topology containing the given subbase sets.  Its M_x is the
    AND of the subbase sets that contain x."""
    full = full_mask(n)
    for s in subbase:
        if s & ~full:
            raise ValueError(f"subbase set {s:#x} leaves the carrier")
    return _union_closure(n, _minimal(n, subbase))


def hull(top: FiniteTopology, s: int, mode: str) -> int:
    """Closure (smallest closed superset) or interior (largest open subset):
    closure(s) = {x : M_x meets s}, interior(s) = union of the M_x within s."""
    if s & ~full_mask(top.n):
        raise ValueError("subset leaves the carrier")
    if mode == "closure":
        return mask_of(x for x, m in enumerate(top.minimal) if m & s)
    if mode == "interior":
        out = 0
        for m in top.minimal:
            if m & ~s == 0:
                out |= m
        return out
    raise ValueError(f"mode must be 'closure' or 'interior', got {mode!r}")


def closure(top: FiniteTopology, s: int) -> int:
    return hull(top, s, "closure")


def interior(top: FiniteTopology, s: int) -> int:
    return hull(top, s, "interior")


@dataclass(frozen=True)
class SeparationProfile:
    t0: bool
    t1: bool
    t2: bool
    discrete: bool


def separation_profile(top: FiniteTopology) -> SeparationProfile:
    n = top.n
    closed = top.closed_sets()
    t0 = all(
        any((c >> x & 1) != (c >> y & 1) for c in closed)
        for x, y in itertools.combinations(range(n), 2)
    )
    t1 = all(top.is_closed(1 << x) for x in range(n))
    t2 = all(
        any(
            u >> x & 1 and v >> y & 1 and not u & v
            for u in top.opens
            for v in top.opens
        )
        for x, y in itertools.combinations(range(n), 2)
    )
    disc = all(top.is_open(1 << x) for x in range(n))
    return SeparationProfile(t0, t1, t2, disc)


def specialization_preorder(top: FiniteTopology) -> tuple[int, ...]:
    """Row masks rel[x] = {y : x lies in the closure of {y}}, which is M_x."""
    return top.minimal


def subspace(top: FiniteTopology, carrier_subset: int) -> FiniteTopology:
    """Trace topology, re-indexed onto the subset's elements in ascending order."""
    if not carrier_subset:
        raise ValueError("subspace carrier must be nonempty")
    if carrier_subset & ~full_mask(top.n):
        raise ValueError("subset leaves the carrier")
    elems = list(bits(carrier_subset))
    index = {e: i for i, e in enumerate(elems)}
    traces = set()
    for u in top.opens:
        traces.add(mask_of(index[e] for e in bits(u & carrier_subset)))
    return canonical(len(elems), traces)


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
    n = top1.n * top2.n
    if n > 144:
        raise ValueError(f"product carrier {n} exceeds the supported bound 144")
    # the minimal neighbourhood of the pair (x, y) is the box M_x x M_y
    boxes = [box_mask(a, b, top2.n) for a in top1.minimal for b in top2.minimal]
    return _union_closure(n, boxes)


@dataclass(frozen=True)
class CenteredReport:
    is_centered: bool
    total_intersection: int


def centered_family_report(n: int, sets) -> CenteredReport:
    """Whether every nonempty finite subfamily has nonempty intersection.

    Over a carrier of size n it suffices to check subfamilies of size up to
    n + 1: a minimal subfamily with empty intersection shrinks strictly at
    each step, so it has at most n + 1 members.
    """
    family = list(sets)
    if not family:
        raise ValueError("centered-family check needs a nonempty family")
    total = full_mask(n)
    for s in family:
        total &= s
    centered = True
    cap = min(len(family), n + 1)
    for r in range(1, cap + 1):
        for combo in itertools.combinations(family, r):
            inter = full_mask(n)
            for s in combo:
                inter &= s
            if not inter:
                centered = False
                break
        if not centered:
            break
    return CenteredReport(centered, total)
