"""Derived topologies on a topologized semigroup and their comparison.

Seven topologies per semilattice instance: the original one, the topology
generated by open subsemigroups, the one generated by complements of closed
subsemigroups, the initial topology of continuous homomorphisms into the
min-interval, and three order topologies (Scott, Lawson, interval) read off
the natural order.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import topo, tsl
from .core import (
    FinitePoset,
    NotASemilatticeError,
    bits,
    bound_extremum,
    chain_and_directed,
    derived,
    full_mask,
    natural_order,
    subsets,
)

TOPOLOGY_NAMES = ("tau", "law", "zar", "weak", "scott", "lawson", "interval")


def law_topology(x_instance: tsl.TopologizedSemigroup) -> topo.FiniteTopology:
    """Topology with a base of open subsemigroups of the original topology."""
    alg, top = x_instance.algebra, x_instance.topology
    base = [u for u in top.opens if tsl._is_subsemigroup(alg, u)]
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
    """
    alg, top = x_instance.algebra, x_instance.topology
    full = full_mask(alg.n)
    cuts = []
    for s in subsets(alg.n):
        if not (top.is_open(s) and top.is_open(full ^ s)):
            continue
        ok = True
        for x in range(alg.n):
            for y in range(alg.n):
                if (s >> alg.table[x][y] & 1) != (s >> x & 1 and s >> y & 1):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            cuts.append(s)
    return cuts


def weak_topology(x_instance: tsl.TopologizedSemigroup) -> topo.FiniteTopology:
    """Initial topology of all continuous homomorphisms into the min-interval."""
    full = full_mask(x_instance.n)
    subbase = []
    for s in multiplicative_cuts(x_instance):
        subbase.append(s)
        subbase.append(full ^ s)
    return topo.generate_topology(x_instance.n, subbase)


def weak_topology_via_homs(x_instance: tsl.TopologizedSemigroup) -> topo.FiniteTopology:
    """Literal route for semilattices: generate from chain-homomorphism fibers.

    Retained as an independent cross-check of weak_topology.
    """
    subbase = []
    for h in tsl.enumerate_chain_homs(x_instance):
        for c in range(h.target.n):
            subbase.append(tsl.preimage(h.mapping, 1 << c, x_instance.n))
    return topo.generate_topology(x_instance.n, subbase)


def upper_set_topology(poset: FinitePoset) -> topo.FiniteTopology:
    """The family of all upper sets (always a topology on a finite poset)."""
    opens = [
        u
        for u in subsets(poset.n)
        if all(poset.up[x] & ~u == 0 for x in bits(u))
    ]
    return topo.canonical(poset.n, opens)


def _directed_sups(poset: FinitePoset) -> dict[int, int]:
    """sup of each nonempty up-directed subset that has one."""
    out = {}
    for d in subsets(poset.n):
        if not d:
            continue
        if not chain_and_directed(poset, d).is_up_directed:
            continue
        s = bound_extremum(poset, d, "sup")
        if s is not None:
            out[d] = s
    return out


def scott_topology(poset: FinitePoset) -> topo.FiniteTopology:
    """Upper sets U such that every up-directed set with supremum in U meets U.

    Computed by the literal definition and cross-checked against the
    upper-set family, which it must equal on a finite poset.
    """
    sups = _directed_sups(poset)
    opens = []
    for u in subsets(poset.n):
        if any(poset.up[x] & ~u for x in bits(u)):
            continue
        if all(d & u for d, s in sups.items() if u >> s & 1):
            opens.append(u)
    literal = topo.canonical(poset.n, opens)
    if literal != upper_set_topology(poset):
        raise AssertionError("directed-set and upper-set routes disagree")
    return literal


def lawson_topology(poset: FinitePoset) -> topo.FiniteTopology:
    """Generated by the Scott opens and the complements of principal upper
    sets.  The Scott topology is derived once per poset object
    (core.derived), so a comparison that needs both computes it once."""
    full = full_mask(poset.n)
    subbase = list(derived(poset, scott_topology).opens)
    subbase.extend(full ^ poset.up[x] for x in range(poset.n))
    return topo.generate_topology(poset.n, subbase)


def interval_topology(poset: FinitePoset) -> topo.FiniteTopology:
    full = full_mask(poset.n)
    subbase = [full ^ poset.up[x] for x in range(poset.n)]
    subbase.extend(full ^ poset.down(x) for x in range(poset.n))
    return topo.generate_topology(poset.n, subbase)


@dataclass(frozen=True)
class TopologyBundle:
    tau: topo.FiniteTopology
    law: topo.FiniteTopology
    zar: topo.FiniteTopology
    weak: topo.FiniteTopology
    scott: topo.FiniteTopology
    lawson: topo.FiniteTopology
    interval: topo.FiniteTopology

    def as_dict(self) -> dict[str, topo.FiniteTopology]:
        return {name: getattr(self, name) for name in TOPOLOGY_NAMES}


@dataclass(frozen=True)
class ComparisonReport:
    bundle: TopologyBundle
    inclusion: tuple[tuple[bool, ...], ...]  # inclusion[i][j]: family i within j
    weak_circ: bool
    weak_bullet: bool
    i_weak: bool


def family_within(a: topo.FiniteTopology, b: topo.FiniteTopology) -> bool:
    return set(a.opens) <= set(b.opens)


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
        interval=derived(poset, interval_topology),
    )
    tops = [getattr(bundle, name) for name in TOPOLOGY_NAMES]
    inclusion = tuple(
        tuple(family_within(a, b) for b in tops) for a in tops
    )
    for weaker, stronger in (
        ("weak", "law"),
        ("weak", "zar"),
        ("law", "tau"),
        ("zar", "tau"),
        ("interval", "lawson"),
        ("scott", "lawson"),
    ):
        i = TOPOLOGY_NAMES.index(weaker)
        j = TOPOLOGY_NAMES.index(stronger)
        if not inclusion[i][j]:
            raise AssertionError(f"structural inclusion {weaker} within {stronger} failed")
    return ComparisonReport(
        bundle=bundle,
        inclusion=inclusion,
        weak_circ=bundle.law == bundle.tau,
        weak_bullet=bundle.zar == bundle.tau,
        i_weak=bundle.weak == bundle.tau,
    )
