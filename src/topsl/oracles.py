"""Literal routes: each decides a quantity by its definition, scanning
subsets, subfamilies or a product space, where the package decides it by
its characterisation on a finite carrier or from minimal neighbourhoods.
Nothing in the package calls them; the tests compare each fast path with
its oracle here."""

from __future__ import annotations

import itertools

from . import topo, tsl
from .core import (
    FinitePoset,
    FiniteSemilattice,
    bits,
    bound_extremum,
    chain_and_directed,
    derived,
    full_mask,
    natural_order,
    subsets,
)


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
        if not d or not chain_and_directed(poset, d).is_up_directed:
            continue
        s = bound_extremum(poset, d, "sup")
        if s is not None:
            out[d] = s
    return out


def scott_topology_by_directed_sups(poset: FinitePoset) -> topo.FiniteTopology:
    """Upper sets U that every up-directed set with supremum in U meets."""
    sups = _directed_sups(poset)
    opens = []
    for u in subsets(poset.n):
        if any(poset.up[x] & ~u for x in bits(u)):
            continue
        if all(d & u for d, s in sups.items() if u >> s & 1):
            opens.append(u)
    return topo.canonical(poset.n, opens)


def lawson_topology_by_generation(poset: FinitePoset) -> topo.FiniteTopology:
    """Generated by the Scott opens and the complements of principal upper sets."""
    full = full_mask(poset.n)
    subbase = list(scott_topology_by_directed_sups(poset).opens)
    subbase.extend(full ^ poset.up[x] for x in range(poset.n))
    return topo.generate_topology(poset.n, subbase)


def interval_topology_by_generation(poset: FinitePoset) -> topo.FiniteTopology:
    """Generated by the complements of principal upper and lower sets."""
    full = full_mask(poset.n)
    subbase = [full ^ poset.up[x] for x in range(poset.n)]
    subbase.extend(full ^ poset.down(x) for x in range(poset.n))
    return topo.generate_topology(poset.n, subbase)


def order_profile_by_scan(x_instance: tsl.TopologizedSemigroup) -> tsl.OrderProfile:
    """tsl.order_profile, scanning every chain for its inf and sup."""
    alg, top = x_instance.algebra, x_instance.topology
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
    # every closed chain here is a finite set, hence compact
    chain_compact = all(isinstance(c, int) for c in closed_chains)
    down_chain_compact = True
    for x in range(n):
        down_top = topo.subspace(top, poset.down(x))
        down_chain_compact = down_chain_compact and down_top.n >= 1
    return tsl.OrderProfile(updown, complete, chain_compact, down_chain_compact)


def subsemigroups_by_scan(
    x_instance: tsl.TopologizedSemigroup, closed_only: bool = False
) -> list[int]:
    """tsl.enumerate_subsemigroups, scanning every subset pair by pair."""
    alg, top = x_instance.algebra, x_instance.topology
    t = alg.table
    return [
        s
        for s in subsets(alg.n)
        if all(s >> t[x][y] & 1 for x in bits(s) for y in bits(s))
        and (not closed_only or top.is_closed(s))
    ]


def joint_continuity_via_product(inst: tsl.TopologizedSemigroup) -> bool:
    """Whether the operation is continuous from the self-product topology,
    generated by the boxes U x V of open sets: the preimage of every open set
    must be open.  The topological flag of tsl.continuity_profile."""
    alg, top = inst.algebra, inst.topology
    n = alg.n
    boxes = [topo.box_mask(u, v, n) for u in top.opens for v in top.opens]
    prod = topo.generate_topology(n * n, boxes)
    op_map = [alg.table[i][j] for i in range(n) for j in range(n)]
    return all(prod.is_open(tsl.preimage(op_map, u, n * n)) for u in top.opens)


def zar_compact_centered_by_scan(inst: tsl.TopologizedSemigroup) -> bool:
    """props.zar_compact_centered: scan the subfamilies of
    the nonempty closed subsemigroups for a centered one with empty total
    intersection.  Over a finite carrier a family's total intersection is
    achieved by some subfamily of at most n + 1 members, so those suffice."""
    n = inst.n
    family = [f for f in tsl.enumerate_subsemigroups(inst, closed_only=True) if f]
    for r in range(1, min(len(family), n + 1) + 1):
        for combo in itertools.combinations(family, r):
            report = topo.centered_family_report(n, combo)
            if report.is_centered and not report.total_intersection:
                return False
    return True


def is_meet_continuous_by_scan(sl: FiniteSemilattice) -> bool:
    """props.is_meet_continuous: whether a * sup(D) is the supremum of a*D
    for every up-directed D that has a supremum."""
    poset = derived(sl, natural_order)
    n = sl.n
    for d in subsets(n):
        if not d or not chain_and_directed(poset, d).is_up_directed:
            continue
        s = bound_extremum(poset, d, "sup")
        if s is None:
            continue
        for a in range(n):
            ad = 0
            for x in bits(d):
                ad |= 1 << sl.table[a][x]
            if bound_extremum(poset, ad, "sup") != sl.table[a][s]:
                return False
    return True
