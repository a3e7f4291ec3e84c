"""Decision procedures for the named separation and order properties of a
topologized semilattice, assembled into one property vector per instance."""

from __future__ import annotations

import itertools
from typing import NamedTuple

from . import topo, tsl, weak
from .core import (
    NotASemilatticeError,
    bits,
    derived,
    full_mask,
    is_linear,
    natural_order,
)


class UVWProfile(NamedTuple):
    is_u: bool
    is_w: bool
    is_v: bool


def upper_interiors(x_instance: tsl.TopologizedSemigroup) -> tuple[int, ...]:
    """The interior of the principal upper set up v of each point v, in
    point order."""
    top = x_instance.topology
    return tuple(
        topo.interior(top, up) for up in derived(x_instance.algebra, natural_order).up
    )


def uvw_profile(x_instance: tsl.TopologizedSemigroup) -> UVWProfile:
    """U: every open V and x in V have some v in V with x in int(up v).
    Checking V = M_x suffices, as M_x lies within every open V around x.
    W: the same with a nonempty finite F within V and int(up F) in place of
    int(up v); it always holds, with F = V, as V is open and V lies within
    up V.  oracles.uvw_profile_by_scan scans every open V (and every F)."""
    alg, top = x_instance.algebra, x_instance.topology
    if not alg.is_semilattice:
        raise NotASemilatticeError("U/W/V profile needs a semilattice")
    poset = derived(alg, natural_order)
    n = alg.n
    int_up = upper_interiors(x_instance)
    is_u = all(
        any(int_up[v] >> x & 1 for v in bits(m)) for x, m in enumerate(top.minimal)
    )
    is_v = all(
        any(not poset.leq(v, y) and int_up[v] >> x & 1 for v in range(n))
        for x in range(n)
        for y in range(n)
        if not poset.leq(x, y)
    )
    return UVWProfile(is_u, True, is_v)


def law_hausdorff_witness(
    x_instance: tsl.TopologizedSemigroup, x: int, y: int
) -> tuple[int, int] | None:
    """Disjoint open subsemigroups around x and y, or None.

    Returns the lexicographically smallest witness pair (by bitmask).  The
    candidates are the table's subsemigroups (core.derived, once per table)
    that are open, ascending; oracles.law_hausdorff_witness_by_opens walks
    the open sets instead.
    """
    if x == y:
        raise ValueError("witness needs two distinct points")
    alg, top = x_instance.algebra, x_instance.topology
    open_subs = [s for s in derived(alg, tsl.subsemigroups) if top.is_open(s)]
    for a in open_subs:
        if not a >> x & 1:
            continue
        for b in open_subs:
            if b >> y & 1 and not a & b:
                return (a, b)
    return None


def zar_hausdorff_witness(
    x_instance: tsl.TopologizedSemigroup, x: int, y: int
) -> tuple[int, ...] | None:
    """A finite cover of the carrier by closed subsemigroups no member of
    which contains both x and y, or None.  Smallest cover first, ties broken
    lexicographically by bitmask.  When all the candidates together miss a
    point there is no cover, and no combination is tried;
    oracles.zar_hausdorff_witness_by_combinations tries them all."""
    if x == y:
        raise ValueError("witness needs two distinct points")
    full = full_mask(x_instance.n)
    closed_subs = [
        f
        for f in tsl.enumerate_subsemigroups(x_instance, closed_only=True)
        if f and not (f >> x & 1 and f >> y & 1)
    ]
    union = 0
    for f in closed_subs:
        union |= f
    if union != full:
        return None
    for r in range(1, len(closed_subs) + 1):
        for combo in itertools.combinations(closed_subs, r):
            cover = 0
            for f in combo:
                cover |= f
            if cover == full:
                return combo
    return None


def is_meet_continuous(sl) -> bool:
    """Whether a * sup(D) is the supremum of a*D for every up-directed D:
    always, as a finite D holds its maximum m = sup(D), and a*m is the
    maximum of a*D since multiplication by a is monotone.
    oracles.is_meet_continuous_by_scan is the literal scan."""
    return True


def zar_compact_centered(x_instance: tsl.TopologizedSemigroup) -> bool:
    """Every centered family of closed subsemigroups has nonempty
    intersection: always, as a family of subsets of a finite carrier is
    finite, so a centered one meets in its total intersection.
    oracles.zar_compact_centered_by_scan is the literal scan."""
    return True


class PropertyVector(NamedTuple):
    is_u: bool
    is_w: bool
    is_v: bool
    i_separated: bool
    law_tau_separated: bool
    zar_tau_separated: bool
    law_hausdorff: bool
    zar_hausdorff: bool
    weak_hausdorff: bool
    weak_circ: bool
    weak_bullet: bool
    i_weak: bool
    meet_continuous: bool
    linear: bool
    shift_homomorphic: bool
    zar_compact_centered: bool
    t0: bool
    t1: bool
    t2: bool
    discrete: bool
    topological: bool
    semitopological: bool
    subtopological: bool
    updown_closed: bool
    complete: bool
    chain_compact: bool
    down_chain_compact: bool

    def as_dict(self) -> dict[str, bool]:
        return self._asdict()


PROPERTY_NAMES = PropertyVector._fields


def property_vector(
    x_instance: tsl.TopologizedSemigroup,
    comparison: weak.ComparisonReport | None = None,
) -> PropertyVector:
    """Decide every named property of a topologized semilattice instance.

    On a finite carrier the paper's hypotheses collapse (oracles has each
    field's literal route).  Seven fields are constant: is_w (uvw_profile),
    meet_continuous, shift_homomorphic, zar_compact_centered and three flags
    of tsl.order_profile.  Ten equal discrete, that is every M_x = {x}: t1
    and t2 (topo.separation_profile), updown_closed (tsl.order_profile), and
    - law_hausdorff, zar_hausdorff and weak_hausdorff: law, zar and weak
      are coarser than tau, and a finite Hausdorff space is discrete.  When
      tau is discrete, each {x} is an open subsemilattice, so law is
      discrete.  Each up z is a subsemilattice, and so is X minus up z, as
      it is down-closed; both are closed, so {x}, which is up x minus the
      up z for z > x, is open in zar.  The characters 1_{up x} into {0, 1}
      are continuous and separate points, so weak is discrete too;
    - i_separated: the cuts separate the points iff weak, generated by the
      cuts and their complements, is Hausdorff.  A cut s holding x but not
      y gives the disjoint opens s and X minus s; if no subbase set tells x
      from y, no weak open does;
    - law_tau_separated and zar_tau_separated: when coarse M_x misses
      tau M_y, which holds y, for every x != y, each coarse M_x = {x}, and
      tau, which is finer, is discrete.  Conversely a discrete tau makes law
      and zar discrete, as above.
    """
    alg = x_instance.algebra
    if not alg.is_semilattice:
        raise NotASemilatticeError("property vector needs a semilattice")
    if comparison is None:
        comparison = weak.topology_comparison(x_instance)
    sep = topo.separation_profile(x_instance.topology)
    # each profile's fields are the vector's, in the vector's order
    return PropertyVector(
        *uvw_profile(x_instance),
        *(sep.discrete,) * 6,  # i_separated, two *_tau_separated, three *_hausdorff
        comparison.weak_circ,
        comparison.weak_bullet,
        comparison.i_weak,
        is_meet_continuous(alg),
        derived(alg, is_linear),
        True,  # shift_homomorphic: a*x*a*y = a*a*x*y = a*x*y in a semilattice
        zar_compact_centered(x_instance),
        *sep,
        *tsl.continuity_profile(x_instance),
        *tsl.order_profile(sep.discrete),
    )
