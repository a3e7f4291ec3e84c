"""Finite semigroups, bands, semilattices and the order they induce.

Carriers are the integers 0..n-1.  Subsets of the carrier are plain int
bitmasks: bit i is set iff element i is in the subset.  Everything here is
immutable and pure.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, Optional

# Size bounds, each with its reason.  verify and cli import theirs by name
# and read them as their own globals (verify.SWEEP_MAX, cli.CLI_MAX).
#
# Labeled enumeration (verify.enumerate_*): at n = 5 there are 4,231 partial
# orders and 6,942 topologies, made in about 0.05 s each; n = 6 has 130,023
# and 209,527.
ENUM_MAX = 5
# verify.canonicalize tries every relabeling: 720 at n = 6, 5,040 at n = 7.
CANON_MAX = 6
# verify.sweep and search walk every isomorphism class up to n_max: 1,255
# classes at 4, in about 0.4 s.  sweep(5) runs clean in about 20 s and
# 51 MiB but has no golden output yet.
SWEEP_MAX = 4
# sweep's threads argument is checked against it and changes nothing else:
# every sweep runs on the calling thread.
THREADS_MAX = 16
# Largest carrier an instance file may have (cli).  A check report lists
# 2**n open sets twice (lawson and interval): on the discrete min-chain
# (2 vCPUs) one in-process `check --format json` call takes 4.7 ms and
# prints 531 kB at n = 10, 26 ms and 2.5 MB at n = 12; a whole process
# takes about 0.06 s at n = 10.  bits() keeps a tuple for every mask below
# 2**CLI_MAX.
CLI_MAX = 10
# verify.product_instance builds an operation table of n**2 entries: 4,096
# for 64 points, two 8-point factors.  The sweep multiplies 2-point classes.
INSTANCE_PRODUCT_MAX = 64
# topo.product: 12 * 12 covers the product of any two carriers the CLI
# accepts, at most CLI_MAX**2 = 100 points.
TOPOLOGY_PRODUCT_MAX = 144

_set = object.__setattr__  # looked up once, not per Frozen field


def _law_error_init(self, message: str, law=None, witness=None):
    """A table law's error keeps the law that fails and its first witness."""
    ValueError.__init__(self, message)
    self.law, self.witness = law, witness


class MalformedTableError(ValueError):
    """Operation table has the wrong shape or an out-of-range entry, or is
    not associative: law "associative", witness the first (x, y, z)."""

    __init__ = _law_error_init


class NotABandError(ValueError):
    """An operation requiring idempotent elements got a non-band."""


class NotASemilatticeError(ValueError):
    """An operation requiring a semilattice got something weaker; from the
    FiniteSemilattice constructor, law "idempotent" or "commutative"."""

    __init__ = _law_error_init


def full_mask(n: int) -> int:
    return (1 << n) - 1


def _bits_loop(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _bits_table(width: int) -> tuple[tuple[int, ...], ...]:
    """The indices of every mask below 2**width: the masks with bit i set
    follow those without it, each with i appended."""
    table: list[tuple[int, ...]] = [()]
    for i in range(width):
        table += [t + (i,) for t in table]
    return tuple(table)


_BITS = _bits_table(CLI_MAX)  # every carrier the CLI accepts
_BITS_SIZE = len(_BITS)


def bits(mask: int) -> Iterable[int]:
    """Element indices present in a bitmask, ascending: a precomputed tuple
    for masks below 2**CLI_MAX, a generator for larger ones."""
    if 0 <= mask < _BITS_SIZE:
        return _BITS[mask]
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
    return _bits_loop(mask)


def mask_of(elems: Iterable[int]) -> int:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def derived(value, fn):
    """fn(value), computed once per object and kept on the object.

    For the immutable algebras and posets of this package: what is derived
    from one never goes stale, and it is dropped together with the object,
    so nothing outlives the values a caller holds.
    """
    memo = getattr(value, "_derived", None)
    if memo is None:  # set inline, as cached sets its value
        object.__setattr__(value, "_derived", memo := {})
    if fn not in memo:
        memo[fn] = fn(value)
    return memo[fn]


class cached(functools.cached_property):
    """A cached_property set with object.__setattr__, inline as Frozen's fields
    are: on CPython 3.11 reads from a written instance __dict__ are slower."""

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = self.func(obj)
        object.__setattr__(obj, self.attrname, value)
        return value


class Frozen:
    """An immutable value.  A subclass makes each sequence argument a tuple,
    so that the value hashes, and checks it; then Frozen.__init__ sets each
    field named in _fields, and their tuple _key, with object.__setattr__, as
    derived and cached set what they keep: inline on CPython 3.11, with no
    instance dict.  Equality (within one class) and hashing read _key."""

    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            _set(self, name, value)
        _set(self, "_key", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({fields})"


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


class FiniteSemigroup(Frozen):
    """An associative operation table over the carrier 0..n-1."""

    _fields = ("n", "table")

    def __init__(self, n: int, table: tuple[tuple[int, ...], ...]):
        table = tuple(map(tuple, table))
        if n != len(table):
            raise MalformedTableError("carrier size does not match table")
        bad = verify_semigroup(table)
        if bad:
            raise MalformedTableError(
                f"operation is not associative, e.g. at {bad[0]}", "associative", bad[0]
            )
        Frozen.__init__(self, n, table)

    @classmethod
    def from_rows(cls, rows) -> "FiniteSemigroup":
        return cls(len(rows), rows)

    @property
    def is_band(self) -> bool:
        return all(self.table[x][x] == x for x in range(self.n))

    @cached
    def is_commutative(self) -> bool:
        """Computed once per algebra object and kept on it."""
        return all(
            self.table[x][y] == self.table[y][x]
            for x in range(self.n)
            for y in range(x + 1, self.n)
        )

    @cached
    def is_semilattice(self) -> bool:
        """Computed once per algebra object and kept on it."""
        return self.is_band and self.is_commutative


class FiniteSemilattice(FiniteSemigroup):
    """A commutative idempotent (associative) operation table."""

    def __init__(self, n: int, table: tuple[tuple[int, ...], ...]):
        super().__init__(n, table)  # associativity first
        t = self.table
        bad = [("idempotent", (x,)) for x in range(n) if t[x][x] != x] or [
            ("commutative", (x, y))
            for x in range(n)
            for y in range(x + 1, n)
            if t[x][y] != t[y][x]
        ]
        if bad:
            law, witness = bad[0]
            raise NotASemilatticeError(f"{law} law fails at {witness}", law, witness)


class FinitePoset(Frozen):
    """A partial order on 0..n-1; up[x] is the bitmask of {y : x <= y}.
    `downs[x]` (not a field) is the bitmask of {z : z <= x}."""

    _fields = ("n", "up")

    def __init__(self, n: int, up: tuple[int, ...]):
        up = tuple(up)
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
        downs = [0] * n
        for x in range(n):
            for y in bits(up[x]):
                downs[y] |= 1 << x
        Frozen.__init__(self, n, up)
        object.__setattr__(self, "downs", tuple(downs))

    def leq(self, x: int, y: int) -> bool:
        return bool(self.up[x] >> y & 1)

    def down(self, x: int) -> int:
        """Bitmask of {z : z <= x}."""
        return self.downs[x]

    def comparable(self, x: int, y: int) -> bool:
        return self.leq(x, y) or self.leq(y, x)

    def is_chain_set(self, s: int) -> bool:
        elems = list(bits(s))
        return all(
            self.comparable(x, y) for x, y in itertools.combinations(elems, 2)
        )

    def maximal_chains(self) -> tuple[int, ...]:
        """Bitmasks of the maximal chains (chains not properly extendable)."""
        chains = [s for s in subsets(self.n) if s and self.is_chain_set(s)]
        return tuple(
            c
            for c in chains
            if not any(
                self.is_chain_set(c | 1 << z) for z in range(self.n) if not c >> z & 1
            )
        )


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
        rows = poset.downs
    else:
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    out = 0
    for x in bits(s):
        out |= rows[x]
    return out


def bound_extremum(poset: FinitePoset, s: int, kind: str) -> Optional[int]:
    """Least upper bound / greatest lower bound of a nonempty subset, if any."""
    if not s:
        raise ValueError("extremum of the empty set is undefined")
    if kind == "sup":
        rows = poset.up
    elif kind == "inf":
        rows = poset.downs
    else:
        raise ValueError(f"kind must be 'sup' or 'inf', got {kind!r}")
    # the common bounds of s; the extremum is the bound all others lie beyond
    bounds = full_mask(poset.n)
    for x in bits(s):
        bounds &= rows[x]
    for b in bits(bounds):
        if bounds & ~rows[b] == 0:
            return b
    return None


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
