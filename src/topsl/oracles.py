"""Literal routes: each decides a quantity by its definition, scanning
subsets, subfamilies or a product space, where the package decides it by
its characterisation on a finite carrier or from minimal neighbourhoods.
Nothing in the package calls them; the tests compare each fast path with
its oracle here."""

from __future__ import annotations

import itertools
from typing import NamedTuple

from . import props, topo, tsl, verify
from .core import (
    FinitePoset,
    FiniteSemigroup,
    FiniteSemilattice,
    NotASemilatticeError,
    bits,
    bound_extremum,
    cone,
    derived,
    full_mask,
    mask_of,
    natural_order,
    subsets,
)


class ChainFlags(NamedTuple):
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


def saturate_family(n: int, seeds) -> tuple[int, ...]:
    """Closure of a family of subsets under pairwise union and intersection,
    with the empty and full sets adjoined: the opens of
    topo.generate_topology."""
    fam = set(seeds)
    fam.add(0)
    fam.add(full_mask(n))
    grew = True
    while grew:
        grew = False
        for a, b in itertools.combinations(sorted(fam), 2):
            for c in (a | b, a & b):
                if c not in fam:
                    fam.add(c)
                    grew = True
    return tuple(sorted(fam))


def brute_force_topology_count(n: int) -> int:
    """Count union/intersection-closed subset families containing the empty
    and full sets, by scanning all 2**(2**n) candidate families (n <= 4)."""
    if not 1 <= n <= 4:
        raise ValueError(f"brute-force topology oracle supports n in 1..4, got {n}")
    m = 1 << n
    required = 1 | 1 << (m - 1)
    count = 0
    for fam in range(1 << m):
        if fam & required != required:
            continue
        members = [s for s in range(m) if fam >> s & 1]
        if all(
            fam >> (a | b) & 1 and fam >> (a & b) & 1
            for a, b in itertools.combinations(members, 2)
        ):
            count += 1
    return count


def brute_force_semilattice_tables(n: int) -> list[tuple[int, ...]]:
    """All flattened semilattice tables by scanning n**(n*n) candidates."""
    if not 1 <= n <= 3:
        raise ValueError(f"brute-force table oracle supports n in 1..3, got {n}")
    out = []
    for flat in itertools.product(range(n), repeat=n * n):
        t = [flat[i * n : (i + 1) * n] for i in range(n)]
        if any(t[x][x] != x for x in range(n)):
            continue
        if any(t[x][y] != t[y][x] for x in range(n) for y in range(x + 1, n)):
            continue
        if any(
            t[t[x][y]][z] != t[x][t[y][z]]
            for x in range(n)
            for y in range(n)
            for z in range(n)
        ):
            continue
        out.append(flat)
    return out


def subspace_by_traces(top: topo.FiniteTopology, carrier_subset: int) -> topo.FiniteTopology:
    """topo.subspace: the trace of every open set, re-indexed ascending."""
    elems = list(bits(carrier_subset))
    index = {e: i for i, e in enumerate(elems)}
    traces = {mask_of(index[e] for e in bits(u & carrier_subset)) for u in top.opens}
    return topo.canonical(len(elems), traces)


def product_by_union_closure(
    top1: topo.FiniteTopology, top2: topo.FiniteTopology
) -> topo.FiniteTopology:
    """topo.product: every union of the boxes M_x x M_y, found by a walk from
    the empty set, as an open-set family."""
    n2 = top2.n
    boxes = {topo.box_mask(a, b, n2) for a in top1.minimal for b in top2.minimal}
    opens, frontier = {0}, [0]
    while frontier:
        u = frontier.pop()
        for box in boxes:
            if u | box not in opens:
                opens.add(u | box)
                frontier.append(u | box)
    return topo.canonical(top1.n * n2, opens)


def law_topology_by_opens(x_instance: tsl.TopologizedSemigroup) -> topo.FiniteTopology:
    """weak.law_topology, generated by the open sets that are subsemigroups."""
    alg, top = x_instance.algebra, x_instance.topology
    base = [u for u in top.opens if is_subsemigroup(alg, u)]
    return topo.generate_topology(alg.n, base)


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
    """tsl.order_profile: whether principal upper and lower sets are
    closed, scanning every chain for its inf and sup."""
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


def is_subsemigroup(alg: FiniteSemigroup, s: int) -> bool:
    """Whether s is closed under the operation, tested pair by pair."""
    elems = list(bits(s))
    return all(s >> alg.table[x][y] & 1 for x in elems for y in elems)


def subsemigroups_by_scan(
    x_instance: tsl.TopologizedSemigroup, closed_only: bool = False
) -> list[int]:
    """tsl.enumerate_subsemigroups, scanning every subset pair by pair."""
    alg, top = x_instance.algebra, x_instance.topology
    return [
        s
        for s in subsets(alg.n)
        if is_subsemigroup(alg, s) and (not closed_only or top.is_closed(s))
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


def joint_continuity_by_minimal(inst: tsl.TopologizedSemigroup) -> bool:
    """The topological flag of tsl.continuity_profile: the operation is
    jointly continuous at (x, y) iff it maps the smallest neighbourhood
    M_x x M_y of the pair into the smallest one of xy."""
    t, m = inst.algebra.table, inst.topology.minimal
    return all(
        m[t[x][y]] >> t[a][b] & 1
        for x in range(inst.n)
        for y in range(inst.n)
        for a in bits(m[x])
        for b in bits(m[y])
    )


def zar_compact_centered_by_scan(inst: tsl.TopologizedSemigroup) -> bool:
    """props.zar_compact_centered: scan the subfamilies of
    the nonempty closed subsemigroups for a centered one with empty total
    intersection.  Over a finite carrier a family's total intersection is
    achieved by some subfamily of at most n + 1 members, so those suffice."""
    n = inst.n
    family = [f for f in tsl.enumerate_subsemigroups(inst, closed_only=True) if f]
    for r in range(1, min(len(family), n + 1) + 1):
        for combo in itertools.combinations(family, r):
            report = centered_family_report(n, combo)
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


def separation_profile_by_scan(top: topo.FiniteTopology) -> topo.SeparationProfile:
    """topo.separation_profile: T0 by closed sets that tell each pair apart,
    T1 by closed singletons, T2 by pairs of disjoint opens, discreteness by
    open singletons."""
    n = top.n
    closed = [full_mask(n) ^ u for u in top.opens]
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
    return topo.SeparationProfile(t0, t1, t2, disc)


def two_topology_separated_by_scan(
    fine: topo.FiniteTopology, coarse: topo.FiniteTopology
) -> bool:
    """The law_tau_separated and zar_tau_separated fields of
    props.property_vector, with tau as fine and law or zar as coarse: for
    every ordered pair x != y, scan the pairs of a coarse open around x and
    a fine open around y for a disjoint one."""
    n = fine.n
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            if not any(
                a >> x & 1 and b >> y & 1 and not a & b
                for a in coarse.opens
                for b in fine.opens
            ):
                return False
    return True


def i_separated_by_cuts(x_instance: tsl.TopologizedSemigroup, cuts) -> bool:
    """The i_separated field of props.property_vector: continuous
    homomorphisms into the min-interval separate all points.  Two points get
    different values under some homomorphism exactly when some
    multiplicative cut (a level set of one) holds one of them but not the
    other."""
    return all(
        any((s >> x & 1) != (s >> y & 1) for s in cuts)
        for x, y in itertools.combinations(range(x_instance.n), 2)
    )


def upper_interiors(x_instance: tsl.TopologizedSemigroup) -> list[int]:
    """The interior of the principal upper set up v of each point v: the
    transpose of props.upper_covers."""
    top = x_instance.topology
    return [topo.interior(top, up) for up in derived(x_instance.algebra, natural_order).up]


def uvw_profile_by_scan(x_instance: tsl.TopologizedSemigroup) -> props.UVWProfile:
    """props.uvw_profile, checking U and W at every open set and W at every
    nonempty F within it."""
    alg, top = x_instance.algebra, x_instance.topology
    if not alg.is_semilattice:
        raise NotASemilatticeError("U/W/V profile needs a semilattice")
    poset = derived(alg, natural_order)
    n = alg.n
    int_up = upper_interiors(x_instance)

    def u_ok(v_set: int, x: int) -> bool:
        return any(int_up[v] >> x & 1 for v in bits(v_set))

    def w_ok(v_set: int, x: int) -> bool:
        elems = list(bits(v_set))
        for r in range(1, len(elems) + 1):
            for f in itertools.combinations(elems, r):
                up_f = cone(poset, sum(1 << e for e in f), "up")
                if topo.interior(top, up_f) >> x & 1:
                    return True
        return False

    is_u = all(u_ok(v_set, x) for v_set in top.opens for x in bits(v_set))
    is_w = all(w_ok(v_set, x) for v_set in top.opens for x in bits(v_set))
    is_v = all(
        any(not poset.leq(v, y) and int_up[v] >> x & 1 for v in range(n))
        for x in range(n)
        for y in range(n)
        if not poset.leq(x, y)
    )
    return props.UVWProfile(is_u, is_w, is_v)


def is_continuous_by_preimages(
    src: topo.FiniteTopology, tgt: topo.FiniteTopology, mapping
) -> bool:
    """tsl.is_continuous: the preimage of every open set is open."""
    return all(src.is_open(tsl.preimage(mapping, u, src.n)) for u in tgt.opens)


def open_map_by_opens(src: topo.FiniteTopology, tgt: topo.FiniteTopology, mapping) -> bool:
    """verify._is_open_map: the image of every open set is open."""
    return all(tgt.is_open(tsl.image_mask(mapping, u)) for u in src.opens)


def closed_map_by_closed_sets(
    src: topo.FiniteTopology, tgt: topo.FiniteTopology, mapping
) -> bool:
    """verify._is_closed_map: the image of every closed set is closed."""
    full = full_mask(src.n)
    return all(tgt.is_closed(tsl.image_mask(mapping, full ^ u)) for u in src.opens)


def embedding_by_traces(src: topo.FiniteTopology, tgt: topo.FiniteTopology, mapping) -> bool:
    """verify._is_embedding: injective, and the preimages of the open sets
    of tgt are exactly the open sets of src."""
    if len(set(mapping)) != len(mapping):
        return False
    return {tsl.preimage(mapping, v, src.n) for v in tgt.opens} == set(src.opens)


def translations_continuous_by_preimages(x_instance: tsl.TopologizedSemigroup) -> bool:
    """tsl.translations_continuous: the preimage of every open set under
    every left and right translation is open."""
    alg, top = x_instance.algebra, x_instance.topology
    n = alg.n
    for a in range(n):
        left = [alg.table[a][x] for x in range(n)]
        right = [alg.table[x][a] for x in range(n)]
        for u in top.opens:
            if not top.is_open(tsl.preimage(left, u, n)):
                return False
            if not top.is_open(tsl.preimage(right, u, n)):
                return False
    return True


def subtopological_by_scan(x_instance: tsl.TopologizedSemigroup) -> bool:
    """The subtopological flag of tsl.continuity_profile: test the closure
    of every subsemigroup against the operation."""
    alg, top = x_instance.algebra, x_instance.topology
    return all(
        is_subsemigroup(alg, topo.closure(top, s))
        for s in tsl.enumerate_subsemigroups(x_instance, closed_only=False)
    )


def _cuts_among(x_instance: tsl.TopologizedSemigroup, candidates) -> list[int]:
    alg, top = x_instance.algebra, x_instance.topology
    t, rng = alg.table, range(alg.n)
    return [
        s
        for s in candidates
        if top.is_open(s)
        and top.is_closed(s)
        and all((s >> t[x][y] & 1) == (s >> x & s >> y & 1) for x in rng for y in rng)
    ]


def multiplicative_cuts_by_scan(x_instance: tsl.TopologizedSemigroup) -> list[int]:
    """weak.multiplicative_cuts, walking every subset of the carrier."""
    return _cuts_among(x_instance, subsets(x_instance.n))


def multiplicative_cuts_by_opens(x_instance: tsl.TopologizedSemigroup) -> list[int]:
    """weak.multiplicative_cuts, walking the open sets."""
    return _cuts_among(x_instance, x_instance.topology.opens)


def reflexive_transitive_by_product(n: int, antisymmetric: bool):
    """verify._enumerate_reflexive_transitive: every tuple of rows that hold
    their own point, in product order, filtered by transitivity (and
    antisymmetry when asked) over all pairs."""
    row_options = [[m for m in subsets(n) if m >> x & 1] for x in range(n)]
    for rows in itertools.product(*row_options):
        if all(
            not rows[y] & ~rows[x]
            and not (antisymmetric and y != x and rows[y] >> x & 1)
            for x in range(n)
            for y in bits(rows[x])
        ):
            yield rows


def enumerate_semilattices_by_bounds(n: int) -> list[FiniteSemilattice]:
    """verify.enumerate_semilattices, finding each meet as the greatest lower
    bound of the pair (core.bound_extremum)."""
    out = []
    for poset in verify.enumerate_posets(n):
        meets = [
            [bound_extremum(poset, 1 << x | 1 << y, "inf") for y in range(n)]
            for x in range(n)
        ]
        if all(m is not None for row in meets for m in row):
            out.append(FiniteSemilattice(n, tuple(tuple(row) for row in meets)))
    out.sort(key=lambda sl: sl.table)
    return out


def semilattice_classes_by_semilattices(n: int) -> list[tuple[FiniteSemilattice, tuple]]:
    """verify.semilattice_classes, walking the built and validated
    semilattices of enumerate_semilattices."""
    perms = list(itertools.permutations(range(n)))
    seen = set()
    out = []
    for sl in verify.enumerate_semilattices(n):
        if sl.table in seen:
            continue
        aut = []
        for perm in perms:
            image = verify._permute_table(sl.table, perm)
            seen.add(image)
            if image == sl.table:
                aut.append(perm)
        out.append((sl, tuple(aut)))
    return out


def search_by_labeled_instances(
    satisfy, violate: str, n_max: int
) -> verify.CounterexampleRecord | None:
    """verify.search, walking every labeled instance of verify.universe and
    canonicalizing the first that answers; it writes no catalog."""
    if violate in verify.SEARCH_PSEUDO_PROPERTIES:
        return None
    for inst in verify.universe(n_max):
        pv = props.property_vector(inst).as_dict()
        pv["semilattice"] = True
        if all(pv[p] for p in satisfy) and not pv[violate]:
            canon, _ = verify.canonicalize(inst)
            return verify.CounterexampleRecord(
                query={"satisfy": list(satisfy), "violate": violate, "n_max": n_max},
                document=verify.instance_document(canon),
                properties=dict(sorted(pv.items())),
                canonical_hash=verify.canonical_hash(inst),
            )
    return None


def law_hausdorff_witness_by_opens(
    x_instance: tsl.TopologizedSemigroup, x: int, y: int
) -> tuple[int, int] | None:
    """props.law_hausdorff_witness, choosing the open subsemigroups from the
    open sets of the topology, each tested for closure under the operation."""
    if x == y:
        raise ValueError("witness needs two distinct points")
    alg, top = x_instance.algebra, x_instance.topology
    open_subs = [u for u in top.opens if is_subsemigroup(alg, u)]
    for a in open_subs:
        if not a >> x & 1:
            continue
        for b in open_subs:
            if b >> y & 1 and not a & b:
                return (a, b)
    return None


def zar_hausdorff_witness_by_combinations(
    x_instance: tsl.TopologizedSemigroup, x: int, y: int
) -> tuple[int, ...] | None:
    """props.zar_hausdorff_witness, trying every combination of the closed
    subsemigroups that do not hold both x and y, smallest first."""
    if x == y:
        raise ValueError("witness needs two distinct points")
    full = full_mask(x_instance.n)
    closed_subs = [
        f
        for f in tsl.enumerate_subsemigroups(x_instance, closed_only=True)
        if f and not (f >> x & 1 and f >> y & 1)
    ]
    for r in range(1, len(closed_subs) + 1):
        for combo in itertools.combinations(closed_subs, r):
            cover = 0
            for f in combo:
                cover |= f
            if cover == full:
                return combo
    return None


def open_covers_by_scan(top: topo.FiniteTopology) -> list[tuple[int, int]]:
    """cli._open_covers: the Hasse edges of the inclusion poset of all opens,
    scanning every triple for an open in between."""
    index = {u: i for i, u in enumerate(top.opens)}
    rows = tuple(
        mask_of(index[v] for v in top.opens if u | v == v) for u in top.opens
    )
    return hasse_edges_by_scan(FinitePoset(len(top.opens), rows))


def hasse_edges_by_scan(poset: FinitePoset) -> list[tuple[int, int]]:
    """cli._hasse_edges: each pair x < y with no z strictly between them,
    trying every z."""
    edges = []
    for x in range(poset.n):
        for y in range(poset.n):
            if x == y or not poset.leq(x, y):
                continue
            if any(
                poset.leq(x, z) and poset.leq(z, y)
                for z in range(poset.n)
                if z not in (x, y)
            ):
                continue
            edges.append((x, y))
    return edges


def family_within_by_opens(a: topo.FiniteTopology, b: topo.FiniteTopology) -> bool:
    """weak.family_within: every open set of a is an open set of b."""
    return set(a.opens) <= set(b.opens)


class CenteredReport(NamedTuple):
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


def weak_topology_via_homs(x_instance: tsl.TopologizedSemigroup) -> topo.FiniteTopology:
    """weak.weak_topology for semilattices: generated by the fibers of every
    continuous homomorphism onto a discrete min-chain."""
    subbase = []
    for h in enumerate_chain_homs(x_instance):
        for c in range(h.target.n):
            subbase.append(tsl.preimage(h.mapping, 1 << c, x_instance.n))
    return topo.generate_topology(x_instance.n, subbase)


def enumerate_chain_homs(
    x_instance: tsl.TopologizedSemigroup, k_max: int | None = None
) -> list[tsl.ContinuousHom]:
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
        target = tsl.chain_semilattice(k)
        for mapping in itertools.product(range(k), repeat=n):
            if len(set(mapping)) != k:
                continue  # onto the chain
            if not tsl.is_homomorphism(alg, target.algebra, mapping):
                continue
            if not tsl.is_continuous(x_instance.topology, target.topology, mapping):
                continue
            out.append(tsl.ContinuousHom(x_instance, target, tuple(mapping)))
    return out
