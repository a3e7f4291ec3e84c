"""Finite semigroups, bands, semilattices and the order they induce.

Carriers are the integers 0..n-1.  Subsets of the carrier are plain int
bitmasks: bit i is set iff element i is in the subset.  Everything here is
immutable and pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

MAX_CARRIER = 12


class MalformedTableError(ValueError):
    """Operation table has the wrong shape or an out-of-range entry."""


class NotABandError(ValueError):
    """An operation requiring idempotent elements got a non-band."""


class NotASemilatticeError(ValueError):
    """An operation requiring a semilattice got something weaker."""


def full_mask(n: int) -> int:
    return (1 << n) - 1


def bits(mask: int) -> Iterator[int]:
    """Element indices present in a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def mask_of(elems: Iterable[int]) -> int:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def subsets(n: int) -> range:
    """All bitmasks over 0..n-1, ascending (2**n of them)."""
    return range(1 << n)


def _check_shape(table) -> int:
    n = len(table)
    if n < 1:
        raise MalformedTableError("empty operation table")
    for x, row in enumerate(table):
        if len(row) != n:
            raise MalformedTableError(f"row {x} has length {len(row)}, expected {n}")
        for y, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < n:
                raise MalformedTableError(
                    f"entry table[{x}][{y}] = {v!r} out of range 0..{n - 1}"
                )
    return n


def verify_semigroup(table) -> list[tuple[int, int, int]]:
    """All triples (x, y, z) violating associativity; empty list means ok."""
    n = _check_shape(table)
    rng = range(n)
    return [
        (x, y, z)
        for x in rng
        for y in rng
        for z in rng
        if table[table[x][y]][z] != table[x][table[y][z]]
    ]


def verify_semilattice(table) -> list[tuple[str, tuple[int, ...]]]:
    """Failed semilattice laws, each with a witness tuple."""
    n = _check_shape(table)
    failures: list[tuple[str, tuple[int, ...]]] = []
    for x in range(n):
        if table[x][x] != x:
            failures.append(("idempotent", (x,)))
    for x in range(n):
        for y in range(x + 1, n):
            if table[x][y] != table[y][x]:
                failures.append(("commutative", (x, y)))
    failures.extend(("associative", t) for t in verify_semigroup(table))
    return failures


@dataclass(frozen=True)
class FiniteSemigroup:
    """An associative operation table over the carrier 0..n-1."""

    n: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n != len(self.table):
            raise MalformedTableError("carrier size does not match table")
        bad = verify_semigroup(self.table)
        if bad:
            raise MalformedTableError(f"operation is not associative, e.g. at {bad[0]}")

    @classmethod
    def from_rows(cls, rows) -> "FiniteSemigroup":
        return cls(len(rows), tuple(tuple(row) for row in rows))

    def op(self, x: int, y: int) -> int:
        return self.table[x][y]

    @property
    def is_band(self) -> bool:
        return all(self.table[x][x] == x for x in range(self.n))

    @property
    def is_commutative(self) -> bool:
        return all(
            self.table[x][y] == self.table[y][x]
            for x in range(self.n)
            for y in range(x + 1, self.n)
        )

    @property
    def is_semilattice(self) -> bool:
        return self.is_band and self.is_commutative


class FiniteSemilattice(FiniteSemigroup):
    """A commutative idempotent (associative) operation table."""

    def __post_init__(self):
        super().__post_init__()
        bad = verify_semilattice(self.table)
        if bad:
            law, witness = bad[0]
            raise NotASemilatticeError(f"{law} law fails at {witness}")

    def meet(self, x: int, y: int) -> int:
        return self.table[x][y]


def as_semilattice(sg: FiniteSemigroup) -> FiniteSemilattice:
    if isinstance(sg, FiniteSemilattice):
        return sg
    return FiniteSemilattice(sg.n, sg.table)


@dataclass(frozen=True)
class FinitePoset:
    """A partial order on 0..n-1; up[x] is the bitmask of {y : x <= y}."""

    n: int
    up: tuple[int, ...]

    def __post_init__(self):
        n, up = self.n, self.up
        if len(up) != n:
            raise ValueError("relation size does not match carrier")
        full = full_mask(n)
        for x in range(n):
            if up[x] & ~full:
                raise ValueError(f"relation row {x} leaves the carrier")
            if not up[x] >> x & 1:
                raise ValueError(f"relation is not reflexive at {x}")
        for x in range(n):
            for y in bits(up[x]):
                if y != x and up[y] >> x & 1:
                    raise ValueError(f"relation is not antisymmetric at ({x}, {y})")
                if up[y] & ~up[x]:
                    raise ValueError(f"relation is not transitive at ({x}, {y})")

    def leq(self, x: int, y: int) -> bool:
        return bool(self.up[x] >> y & 1)

    def down(self, x: int) -> int:
        """Bitmask of {z : z <= x}."""
        return mask_of(z for z in range(self.n) if self.up[z] >> x & 1)

    def comparable(self, x: int, y: int) -> bool:
        return self.leq(x, y) or self.leq(y, x)

    def dual(self) -> "FinitePoset":
        return FinitePoset(self.n, tuple(self.down(x) for x in range(self.n)))

    def is_chain_set(self, s: int) -> bool:
        elems = list(bits(s))
        return all(
            self.comparable(x, y) for x, y in itertools.combinations(elems, 2)
        )

    def maximal_chains(self) -> list[int]:
        """Bitmasks of the maximal chains (chains not properly extendable)."""
        chains = [s for s in subsets(self.n) if s and self.is_chain_set(s)]
        out = []
        for c in chains:
            if not any(
                self.is_chain_set(c | 1 << z) for z in range(self.n) if not c >> z & 1
            ):
                out.append(c)
        return out


def natural_order(band: FiniteSemigroup) -> FinitePoset:
    """The order x <= y iff xy = x = yx on a band."""
    t = band.table
    for x in range(band.n):
        if t[x][x] != x:
            raise NotABandError(f"element {x} is not idempotent ({x}*{x} = {t[x][x]})")
    up = tuple(
        mask_of(y for y in range(band.n) if t[x][y] == x == t[y][x])
        for x in range(band.n)
    )
    return FinitePoset(band.n, up)


def cone(poset: FinitePoset, s: int, direction: str) -> int:
    """Union of the principal upper (or lower) sets of the elements of s."""
    if s & ~full_mask(poset.n):
        raise ValueError("subset leaves the carrier")
    if direction == "up":
        rows = poset.up
    elif direction == "down":
        rows = tuple(poset.down(x) for x in range(poset.n))
    else:
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    out = 0
    for x in bits(s):
        out |= rows[x]
    return out


@dataclass(frozen=True)
class ChainFlags:
    is_chain: bool
    is_up_directed: bool
    is_down_directed: bool


def chain_and_directed(poset: FinitePoset, s: int) -> ChainFlags:
    """Chain / up-directed / down-directed flags for a subset.

    The empty set counts as a chain but not as directed.
    """
    if not s:
        return ChainFlags(True, False, False)
    elems = list(bits(s))
    chain = poset.is_chain_set(s)
    up_dir = all(
        any(poset.leq(x, z) and poset.leq(y, z) for z in elems)
        for x, y in itertools.combinations(elems, 2)
    )
    down_dir = all(
        any(poset.leq(z, x) and poset.leq(z, y) for z in elems)
        for x, y in itertools.combinations(elems, 2)
    )
    return ChainFlags(chain, up_dir, down_dir)


def bound_extremum(poset: FinitePoset, s: int, kind: str) -> Optional[int]:
    """Least upper bound / greatest lower bound of a nonempty subset, if any."""
    if not s:
        raise ValueError("extremum of the empty set is undefined")
    if kind == "sup":
        bounds = full_mask(poset.n)
        for x in bits(s):
            bounds &= poset.up[x]
        for b in bits(bounds):
            if bounds & ~poset.up[b] == 0:
                return b
        return None
    if kind == "inf":
        bounds = full_mask(poset.n)
        downs = tuple(poset.down(x) for x in range(poset.n))
        for x in bits(s):
            bounds &= downs[x]
        for b in bits(bounds):
            if bounds & ~downs[b] == 0:
                return b
        return None
    raise ValueError(f"kind must be 'sup' or 'inf', got {kind!r}")


def is_shift_homomorphic(sg: FiniteSemigroup) -> bool:
    """Whether a*x*a*y = a*x*y and x*a*y*a = x*y*a for all a, x, y."""
    t = sg.table
    rng = range(sg.n)
    for a in rng:
        for x in rng:
            for y in rng:
                if t[t[t[a][x]][a]][y] != t[t[a][x]][y]:
                    return False
                if t[t[t[x][a]][y]][a] != t[t[x][y]][a]:
                    return False
    return True


def is_linear(sg: FiniteSemigroup) -> bool:
    """Whether every product x*y lands in {x, y}."""
    return all(
        sg.table[x][y] in (x, y) for x in range(sg.n) for y in range(sg.n)
    )
