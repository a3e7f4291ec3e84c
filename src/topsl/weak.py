"""Derived topologies on a topologized semigroup and their comparison.

Seven topologies per semilattice instance: the original one, the topology
generated by open subsemigroups, the one generated by complements of closed
subsemigroups, the initial topology of continuous homomorphisms into the
min-interval, and three order topologies (Scott, Lawson, interval) read off
the natural order.
"""

from __future__ import annotations

from operator import and_, lshift
from typing import NamedTuple

from . import topo, tsl
from .core import (
    FinitePoset,
    Frozen,
    NotASemilatticeError,
    bits,
    cached,
    derived,
    full_mask,
    mask_of,
    natural_order,
)

def law_topology(x_instance: tsl.TopologizedSemigroup) -> topo.FiniteTopology:
    """Topology with a base of open subsemigroups of the original topology,
    chosen from the table's subsemigroups (core.derived, once per table).
    oracles.law_topology_by_opens walks the open sets instead."""
    alg, top = x_instance.algebra, x_instance.topology
    base = [s for s in derived(alg, tsl.subsemigroups) if top.is_open(s)]
    return topo.generate_topology(alg.n, base)


def zar_topology(x_instance: tsl.TopologizedSemigroup) -> topo.FiniteTopology:
    """Topology with a subbase of complements of closed subsemigroups."""
    full = full_mask(x_instance.n)
    subbase = [
        full ^ f for f in tsl.enumerate_subsemigroups(x_instance, closed_only=True)
    ]
    return topo.generate_topology(x_instance.n, subbase)


def multiplicative_cuts(x_instance: tsl.TopologizedSemigroup) -> list[int]:
    """Clopen sets S with x*y in S iff both x and y are in S.

    These are exactly the upper level sets of continuous homomorphisms into
    the min-interval: every such homomorphism has a finite chain image, its
    level sets are clopen and multiplicatively biconditional, and conversely
    each such S is the support of a two-valued continuous homomorphism.
    A cut is closed under the operation, so the candidates are the table's
    subsemigroups, in their ascending order; a subsemigroup s is a cut iff no
    product with a factor x outside s lands in s, that is iff products[x],
    the row and column of x, misses s.  oracles.multiplicative_cuts_by_scan
    walks every subset and oracles.multiplicative_cuts_by_opens every open set.
    """
    alg, top = x_instance.algebra, x_instance.topology
    t, full = alg.table, full_mask(alg.n)
    products = [mask_of(row) for row in t]
    if not alg.is_commutative:  # then a column adds to its row
        products = [p | mask_of(col) for p, col in zip(products, zip(*t))]
    return [
        s
        for s in derived(alg, tsl.subsemigroups)
        if top.is_open(s)
        and top.is_closed(s)
        and not any(products[x] & s for x in bits(full ^ s))
    ]


def weak_topology(x_instance: tsl.TopologizedSemigroup) -> topo.FiniteTopology:
    """Initial topology of all continuous homomorphisms into the min-interval,
    generated by the multiplicative cuts and their complements."""
    full = full_mask(x_instance.n)
    subbase = [c for s in multiplicative_cuts(x_instance) for c in (s, full ^ s)]
    return topo.generate_topology(x_instance.n, subbase)


def scott_topology(poset: FinitePoset) -> topo.FiniteTopology:
    """Upper sets U such that every up-directed set with supremum in U meets U.

    On a finite poset: every upper set, since a directed set holds its
    supremum.  So M_x is the principal upper set of x.
    oracles.scott_topology_by_directed_sups is the literal route.
    """
    return topo.FiniteTopology(poset.n, poset.up)


def lawson_topology(poset: FinitePoset) -> topo.FiniteTopology:
    """Generated by the Scott opens and the complements of principal upper sets.

    Discrete on a finite poset, as it is T1: for y != x, either y is not
    below x and X minus the upper set of y holds x but not y, or x is not
    below y and the Scott-open upper set of x does.  A finite T1 space is
    discrete.  oracles.lawson_topology_by_generation is the literal route.
    """
    return topo.discrete(poset.n)


def interval_topology(poset: FinitePoset) -> topo.FiniteTopology:
    """Generated by the complements of principal upper and lower sets.

    Discrete on a finite poset, as lawson_topology is, with X minus the lower
    set of y in place of the upper set of x (oracles has the literal route);
    so it is the poset's Lawson topology object itself.
    """
    return derived(poset, lawson_topology)


class TopologyBundle(NamedTuple):
    tau: topo.FiniteTopology
    law: topo.FiniteTopology
    zar: topo.FiniteTopology
    weak: topo.FiniteTopology
    scott: topo.FiniteTopology
    lawson: topo.FiniteTopology
    interval: topo.FiniteTopology

    def as_dict(self) -> dict[str, topo.FiniteTopology]:
        return self._asdict()


TOPOLOGY_NAMES = TopologyBundle._fields


class ComparisonReport(Frozen):
    """The bundle, and whether law, zar, weak equal tau."""

    _fields = ("bundle", "weak_circ", "weak_bullet", "i_weak")

    @cached
    def inclusion(self) -> tuple[tuple[bool, ...], ...]:
        """inclusion[i][j]: family i within family j, in TOPOLOGY_NAMES
        order; built on first read (topsl check reads it, a sweep never).
        Each distinct topology's M_x are packed once into one int, M_x at
        bit n*x, so family_within is one AND per cell, and each distinct
        row is built once: lawson and interval are one topology."""
        n = self.bundle.tau.n
        shifts = range(0, n * n, n)
        packed = {}
        for top in self.bundle:
            if top.minimal not in packed:
                packed[top.minimal] = sum(map(lshift, top.minimal, shifts))
        cols = [packed[top.minimal] for top in self.bundle]
        rows = {a: tuple(b & ~a == 0 for b in cols) for a in packed.values()}
        return tuple(rows[a] for a in cols)


def family_within(a: topo.FiniteTopology, b: topo.FiniteTopology) -> bool:
    """Every a-open is b-open iff b.M_x lies within a.M_x for every x: each
    a-open U is then the union of the b.M_x of its points.
    oracles.family_within_by_opens compares the open-set families."""
    return tuple(map(and_, a.minimal, b.minimal)) == b.minimal


def topology_comparison(x_instance: tsl.TopologizedSemigroup) -> ComparisonReport:
    alg = x_instance.algebra
    if not alg.is_semilattice:
        raise NotASemilatticeError("topology comparison needs a semilattice")
    # the order topologies depend on the semilattice alone: they are derived
    # once per poset object and shared by every topology paired with it
    poset = derived(alg, natural_order)
    bundle = TopologyBundle(
        tau=x_instance.topology,
        law=law_topology(x_instance),
        zar=zar_topology(x_instance),
        weak=weak_topology(x_instance),
        scott=derived(poset, scott_topology),
        lawson=derived(poset, lawson_topology),
        interval=interval_topology(poset),
    )
    return ComparisonReport(
        bundle,
        bundle.law == bundle.tau,  # weak_circ
        bundle.zar == bundle.tau,  # weak_bullet
        bundle.weak == bundle.tau,  # i_weak
    )
