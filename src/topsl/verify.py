"""Exhaustive small-scale verification: enumeration of labeled topologies
and semilattices, canonical forms, a rule sweep over every pairing, audits
of homomorphisms and products, and counterexample search with a catalog.

Rule ids are grouped by prefix: "diagram." for inclusion facts, "sep." for
separation implications, "uw."/"u."/"v." for the neighborhood separation
properties, "zar." for facts about the closed-subsemigroup topology,
"order."/"chains."/"scott." for order-topological facts, "shifts." and
"linear." for algebraic ones, and "hom."/"sub."/"product." for the
cross-instance phases.  "compact_hausdorff.all_equivalent" runs in its own
discrete-only phase.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable, Optional

from . import props, topo, tsl, weak
from .core import (
    FinitePoset,
    FiniteSemilattice,
    bits,
    bound_extremum,
    cone,
    full_mask,
    is_shift_homomorphic,
    mask_of,
    natural_order,
    subsets,
)
from .tsl import is_homomorphism

ENUM_MAX = 5
CANON_MAX = 6
SWEEP_MAX = 3


# ---------------------------------------------------------------------------
# enumeration


def _enumerate_reflexive_transitive(n: int, antisymmetric: bool):
    """All relation row-tuples (row[x] = mask of {y : x R y}) that are
    reflexive, transitive, and optionally antisymmetric, in ascending order."""
    if not 1 <= n <= ENUM_MAX:
        raise ValueError(f"n must be in 1..{ENUM_MAX}, got {n}")
    row_options = [
        [m for m in subsets(n) if m >> x & 1] for x in range(n)
    ]
    for rows in itertools.product(*row_options):
        ok = True
        for x in range(n):
            rx = rows[x]
            for y in bits(rx):
                if rows[y] & ~rx:
                    ok = False
                    break
                if antisymmetric and y != x and rows[y] >> x & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield rows


def enumerate_posets(n: int) -> list[FinitePoset]:
    """All labeled partial orders on n points, ascending by row tuple."""
    return [
        FinitePoset(n, rows) for rows in _enumerate_reflexive_transitive(n, True)
    ]


def enumerate_topologies(n: int) -> list[topo.FiniteTopology]:
    """All labeled topologies on n points via their specialization preorders,
    sorted ascending by opens tuple."""
    tops = []
    for rows in _enumerate_reflexive_transitive(n, False):
        opens = [
            u for u in subsets(n) if all(rows[x] & ~u == 0 for x in bits(u))
        ]
        tops.append(topo.canonical(n, opens))
    tops.sort(key=lambda t: t.opens)
    return tops


def enumerate_semilattices(n: int) -> list[FiniteSemilattice]:
    """All labeled semilattice tables, via posets in which every pair has a
    greatest lower bound; sorted ascending by flattened table."""
    out = []
    for poset in enumerate_posets(n):
        meets = {}
        ok = True
        for x in range(n):
            for y in range(n):
                m = bound_extremum(poset, 1 << x | 1 << y, "inf")
                if m is None:
                    ok = False
                    break
                meets[x, y] = m
            if not ok:
                break
        if ok:
            table = tuple(tuple(meets[x, y] for y in range(n)) for x in range(n))
            out.append(FiniteSemilattice(n, table))
    out.sort(key=lambda sl: sl.table)
    return out


# ---------------------------------------------------------------------------
# brute-force oracles (independent of the enumerators above)


def saturate_family(n: int, seeds) -> tuple[int, ...]:
    """Closure of a family of subsets under pairwise union and intersection,
    with the empty and full sets adjoined.  Independent oracle for
    generate_topology."""
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


def joint_continuity_via_product(inst: tsl.TopologizedSemigroup) -> bool:
    """Whether the operation is continuous from the self-product topology,
    generated by the boxes U x V of open sets: the preimage of every open set
    must be open.  Literal route, kept as the oracle for the topological flag
    of tsl.continuity_profile."""
    alg, top = inst.algebra, inst.topology
    n = alg.n
    boxes = [topo.box_mask(u, v, n) for u in top.opens for v in top.opens]
    prod = topo.generate_topology(n * n, boxes)
    op_map = [alg.table[i][j] for i in range(n) for j in range(n)]
    return all(prod.is_open(tsl.preimage(op_map, u, n * n)) for u in top.opens)


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


# ---------------------------------------------------------------------------
# canonical forms


def _permute_instance(inst: tsl.TopologizedSemigroup, perm):
    n = inst.n
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[perm[x]][perm[y]] = perm[inst.algebra.table[x][y]]
    opens = [mask_of(perm[i] for i in bits(u)) for u in inst.topology.opens]
    return tuple(tuple(row) for row in table), tuple(sorted(opens))


def canonicalize(
    inst: tsl.TopologizedSemigroup,
) -> tuple[tsl.TopologizedSemigroup, tuple[int, ...]]:
    """Minimum relabeling over all carrier permutations; two instances are
    isomorphic iff their canonical forms are equal."""
    n = inst.n
    if n > CANON_MAX:
        raise ValueError(f"canonicalize supports n <= {CANON_MAX}, got {n}")
    best = None
    best_perm = None
    for perm in itertools.permutations(range(n)):
        key = _permute_instance(inst, perm)
        if best is None or key < best:
            best = key
            best_perm = perm
    table, opens = best
    algebra = type(inst.algebra)(n, table)
    return tsl.TopologizedSemigroup(algebra, topo.FiniteTopology(n, opens)), best_perm


def canonical_hash(inst: tsl.TopologizedSemigroup) -> str:
    canon, _ = canonicalize(inst)
    payload = {
        "n": canon.n,
        "table": [list(row) for row in canon.algebra.table],
        "opens": list(canon.topology.opens),
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("ascii")
    ).hexdigest()


def instance_document(inst: tsl.TopologizedSemigroup, names=None) -> dict:
    """The instance as a plain JSON-ready document (the CLI file format)."""
    n = inst.n
    if names is None:
        names = [f"e{i}" for i in range(n)]
    if len(names) != n or len(set(names)) != n:
        raise ValueError("need one distinct name per element")
    key = "meet" if inst.algebra.is_semilattice else "op"
    return {
        "schema_version": 1,
        "elements": list(names),
        key: [[names[inst.algebra.table[x][y]] for y in range(n)] for x in range(n)],
        "opens": [[names[i] for i in bits(u)] for u in inst.topology.opens],
    }


# ---------------------------------------------------------------------------
# instance helpers shared by rules and audits


def sub_instance(
    inst: tsl.TopologizedSemigroup, s: int
) -> tsl.TopologizedSemigroup:
    """Subsemigroup s with the subspace topology, re-indexed ascending."""
    if not s:
        raise ValueError("subsemigroup carrier must be nonempty")
    elems = list(bits(s))
    index = {e: i for i, e in enumerate(elems)}
    table = tuple(
        tuple(index[inst.algebra.table[x][y]] for y in elems) for x in elems
    )
    return tsl.TopologizedSemigroup(
        type(inst.algebra)(len(elems), table), topo.subspace(inst.topology, s)
    )


def product_instance(
    a: tsl.TopologizedSemigroup, b: tsl.TopologizedSemigroup
) -> tsl.TopologizedSemigroup:
    """Product semigroup under the pair index (i, j) -> i*n_b + j with the
    product topology."""
    n = a.n * b.n
    if n > 64:
        raise ValueError(f"product carrier {n} exceeds the supported bound 64")
    ta, tb = a.algebra.table, b.algebra.table
    table = tuple(
        tuple(
            topo.pair_index(ta[i1][i2], tb[j1][j2], b.n)
            for i2 in range(a.n)
            for j2 in range(b.n)
        )
        for i1 in range(a.n)
        for j1 in range(b.n)
    )
    alg_cls = (
        FiniteSemilattice
        if a.algebra.is_semilattice and b.algebra.is_semilattice
        else type(a.algebra)
    )
    return tsl.TopologizedSemigroup(
        alg_cls(n, table), topo.product(a.topology, b.topology)
    )


def _describe(inst: tsl.TopologizedSemigroup) -> str:
    flat = tuple(v for row in inst.algebra.table for v in row)
    return f"n={inst.n} table={flat} opens={inst.topology.opens}"


# ---------------------------------------------------------------------------
# audits


@dataclass(frozen=True)
class FunctorialAudit:
    """How a continuous homomorphism behaves under the derived topologies.

    None marks a clause whose precondition does not hold for this map.
    """

    weak_continuity: bool
    law_openness: Optional[bool]
    zar_closedness: Optional[bool]
    zar_embedding: Optional[bool]
    details: tuple[str, ...]


def _is_open_map(src: topo.FiniteTopology, tgt: topo.FiniteTopology, mapping) -> bool:
    return all(tgt.is_open(tsl.image_mask(mapping, u)) for u in src.opens)


def _is_closed_map(src: topo.FiniteTopology, tgt: topo.FiniteTopology, mapping) -> bool:
    return all(tgt.is_closed(tsl.image_mask(mapping, c)) for c in src.closed_sets())


def _is_embedding(src: topo.FiniteTopology, tgt: topo.FiniteTopology, mapping) -> bool:
    if len(set(mapping)) != len(mapping):
        return False
    traces = {tsl.preimage(mapping, v, src.n) for v in tgt.opens}
    return traces == set(src.opens)


def functorial_audit(h: tsl.ContinuousHom) -> FunctorialAudit:
    src, tgt, mapping = h.source, h.target, h.mapping
    law_s, law_t = weak.law_topology(src), weak.law_topology(tgt)
    zar_s, zar_t = weak.zar_topology(src), weak.zar_topology(tgt)
    weak_s, weak_t = weak.weak_topology(src), weak.weak_topology(tgt)
    details = []
    continuity = True
    for name, a, b in (("law", law_s, law_t), ("zar", zar_s, zar_t), ("weak", weak_s, weak_t)):
        if not tsl.is_continuous(a, b, mapping):
            continuity = False
            details.append(f"not continuous for the {name} topologies")
    openness = None
    if _is_open_map(src.topology, tgt.topology, mapping):
        openness = _is_open_map(law_s, law_t, mapping)
        if not openness:
            details.append("open map fails to stay open for the law topologies")
    closedness = None
    if _is_closed_map(src.topology, tgt.topology, mapping):
        closedness = _is_closed_map(zar_s, zar_t, mapping)
        if not closedness:
            details.append("closed map fails to stay closed for the zar topologies")
    embedding = None
    if (
        _is_embedding(src.topology, tgt.topology, mapping)
        and tsl.continuity_profile(tgt).subtopological
    ):
        embedding = _is_embedding(zar_s, zar_t, mapping)
        if not embedding:
            details.append("embedding fails to stay an embedding for the zar topologies")
    return FunctorialAudit(continuity, openness, closedness, embedding, tuple(details))


@dataclass(frozen=True)
class ProductAudit:
    """Preservation of the derived-topology coincidence flags by a binary
    product.  None marks a flag not shared by both factors."""

    weak_circ_preserved: Optional[bool]
    weak_bullet_preserved: Optional[bool]
    i_weak_preserved: Optional[bool]
    zar_factorizes: Optional[bool]


def product_audit(
    a: tsl.TopologizedSemigroup, b: tsl.TopologizedSemigroup
) -> ProductAudit:
    prod = product_instance(a, b)
    comp_a = weak.topology_comparison(a)
    comp_b = weak.topology_comparison(b)
    comp_p = weak.topology_comparison(prod)
    circ = comp_p.weak_circ if comp_a.weak_circ and comp_b.weak_circ else None
    bullet = comp_p.weak_bullet if comp_a.weak_bullet and comp_b.weak_bullet else None
    i_weak = comp_p.i_weak if comp_a.i_weak and comp_b.i_weak else None
    factorizes = None
    sep_a = props._two_topology_separated(a.topology, comp_a.bundle.zar)
    sep_b = props._two_topology_separated(b.topology, comp_b.bundle.zar)
    if (
        sep_a
        and sep_b
        and tsl.translations_continuous(a)
        and tsl.translations_continuous(b)
    ):
        factorizes = (
            comp_p.bundle.zar == topo.product(comp_a.bundle.zar, comp_b.bundle.zar)
            and comp_p.bundle.weak
            == topo.product(comp_a.bundle.weak, comp_b.bundle.weak)
            and comp_p.bundle.zar == comp_p.bundle.weak
        )
    return ProductAudit(circ, bullet, i_weak, factorizes)


# ---------------------------------------------------------------------------
# per-instance rules


@dataclass
class InstanceContext:
    inst: tsl.TopologizedSemigroup
    poset: FinitePoset
    comp: weak.ComparisonReport
    pv: dict


@dataclass(frozen=True)
class Rule:
    id: str
    hypotheses: tuple[str, ...]
    check: Callable[[InstanceContext], list[str]]


def _implies(*conclusions: str):
    def check(ctx: InstanceContext) -> list[str]:
        return [f"expected {c} to hold" for c in conclusions if not ctx.pv[c]]

    return check


def _all_equal(label: str, values_of: Callable[[InstanceContext], tuple]):
    def check(ctx: InstanceContext) -> list[str]:
        values = values_of(ctx)
        if len(set(values)) > 1:
            return [f"{label} conditions disagree: {values}"]
        return []

    return check


def _submasks(mask: int):
    """Nonempty submasks of a bitmask, ascending."""
    out = []
    s = mask
    while s:
        out.append(s)
        s = (s - 1) & mask
    return sorted(out)


def _chain_max(poset: FinitePoset, chain_mask: int) -> int:
    for x in bits(chain_mask):
        if chain_mask & ~poset.down(x) == 0:
            return x
    raise AssertionError("finite chain without a largest element")


def _chain_min(poset: FinitePoset, chain_mask: int) -> int:
    for x in bits(chain_mask):
        if chain_mask & ~poset.up[x] == 0:
            return x
    raise AssertionError("finite chain without a smallest element")


def _check_diagram(pairs):
    def check(ctx: InstanceContext) -> list[str]:
        out = []
        for lo, hi in pairs:
            a = getattr(ctx.comp.bundle, lo)
            b = getattr(ctx.comp.bundle, hi)
            if not weak.family_within(a, b):
                out.append(f"{lo} not within {hi}")
        return out

    return check


def _check_uw_equivalence(ctx: InstanceContext) -> list[str]:
    inst, poset = ctx.inst, ctx.poset
    top = inst.topology
    cond3 = True
    for u in top.opens:
        if cone(poset, u, "up") != u:
            continue
        for x in bits(u):
            if not any(
                topo.interior(top, poset.up[y]) >> x & 1 for y in bits(u)
            ):
                cond3 = False
    values = (ctx.pv["is_u"], ctx.pv["is_w"], cond3)
    if len(set(values)) > 1:
        return [f"U/W/upper-set conditions disagree: {values}"]
    return []


def _check_finite_upper_refines(ctx: InstanceContext) -> list[str]:
    inst, poset = ctx.inst, ctx.poset
    top = inst.topology
    out = []
    for f in subsets(inst.n):
        if not f:
            continue
        up_f = cone(poset, f, "up")
        inner = topo.interior(top, up_f)
        for x in bits(inner):
            if not any(
                topo.interior(top, poset.up[e]) >> x & 1 for e in bits(f)
            ):
                out.append(f"no single generator of upper set {f:#x} works at {x}")
    return out


def _check_chain_closures(ctx: InstanceContext) -> list[str]:
    inst, poset = ctx.inst, ctx.poset
    out = []
    for c in subsets(inst.n):
        if not poset.is_chain_set(c):
            continue
        cl = topo.closure(inst.topology, c)
        if not poset.is_chain_set(cl):
            out.append(f"closure {cl:#x} of chain {c:#x} is not a chain")
    return out


def _check_open_upper_scott(ctx: InstanceContext) -> list[str]:
    scott = ctx.comp.bundle.scott
    out = []
    for u in ctx.inst.topology.opens:
        if cone(ctx.poset, u, "up") == u and not scott.is_open(u):
            out.append(f"open upper set {u:#x} is not in the Scott family")
    return out


def _check_maxchain_extrema(ctx: InstanceContext) -> list[str]:
    poset = ctx.poset
    out = []
    for m in poset.maximal_chains():
        for c in _submasks(m):
            lo = bound_extremum(poset, c, "inf")
            hi = bound_extremum(poset, c, "sup")
            if lo is None or not m >> lo & 1:
                out.append(f"inf of {c:#x} escapes maximal chain {m:#x}")
            if hi is None or not m >> hi & 1:
                out.append(f"sup of {c:#x} escapes maximal chain {m:#x}")
    return out


def _check_scott_gap(ctx: InstanceContext) -> list[str]:
    poset = ctx.poset
    out = []
    for u in ctx.comp.bundle.scott.opens:
        for m in poset.maximal_chains():
            gap = m & ~u
            if not gap:
                continue
            x = _chain_max(poset, gap)
            if gap != m & poset.down(x):
                out.append(
                    f"chain gap {gap:#x} is not the down-trace of its maximum {x}"
                )
    return out


def _check_down_trace(ctx: InstanceContext) -> list[str]:
    poset = ctx.poset
    out = []
    for x in range(ctx.inst.n):
        for m in poset.maximal_chains():
            trace = m & poset.down(x)
            if not trace:
                continue
            c = _chain_max(poset, trace)
            if trace != m & poset.down(c):
                out.append(f"down-trace {trace:#x} of {x} is not principal")
    return out


def _check_up_trace(ctx: InstanceContext) -> list[str]:
    poset = ctx.poset
    out = []
    for x in range(ctx.inst.n):
        for m in poset.maximal_chains():
            trace = m & poset.up[x]
            if not trace:
                continue
            c = _chain_min(poset, trace)
            if trace != m & poset.up[c]:
                out.append(f"up-trace {trace:#x} of {x} is not principal")
    return out


def _check_shift_identities(ctx: InstanceContext) -> list[str]:
    alg = ctx.inst.algebra
    t = alg.table
    literal = all(
        is_homomorphism(alg, alg, [t[a][x] for x in range(alg.n)])
        and is_homomorphism(alg, alg, [t[x][a] for x in range(alg.n)])
        for a in range(alg.n)
    )
    if literal != is_shift_homomorphic(alg):
        return [f"shift identities ({is_shift_homomorphic(alg)}) vs literal ({literal})"]
    return []


def _check_shift_continuity(*names: str):
    def check(ctx: InstanceContext) -> list[str]:
        out = []
        for name in names:
            repaired = ctx.inst.with_topology(getattr(ctx.comp.bundle, name))
            if not tsl.translations_continuous(repaired):
                out.append(f"shifts lose continuity in the {name} topology")
        return out

    return check


def _check_law_witnesses(ctx: InstanceContext) -> list[str]:
    inst = ctx.inst
    have_all = all(
        props.law_hausdorff_witness(inst, x, y) is not None
        for x, y in itertools.combinations(range(inst.n), 2)
    )
    if have_all != ctx.pv["law_hausdorff"]:
        return [
            f"law_hausdorff={ctx.pv['law_hausdorff']} but witnesses for all pairs={have_all}"
        ]
    return []


def _check_zar_witnesses(ctx: InstanceContext) -> list[str]:
    inst = ctx.inst
    have_all = all(
        props.zar_hausdorff_witness(inst, x, y) is not None
        for x, y in itertools.combinations(range(inst.n), 2)
    )
    if have_all != ctx.pv["zar_hausdorff"]:
        return [
            f"zar_hausdorff={ctx.pv['zar_hausdorff']} but witnesses for all pairs={have_all}"
        ]
    return []


def _final_conditions(ctx: InstanceContext) -> tuple:
    b = ctx.comp.bundle
    pv = ctx.pv
    lawson_t2 = topo.separation_profile(b.lawson).t2
    return (
        pv["zar_hausdorff"],
        pv["weak_hausdorff"],
        pv["i_separated"],
        pv["is_v"] and pv["t1"],
        pv["t0"] and b.weak == b.zar,
        b.weak == b.lawson == b.zar,
        pv["discrete"] and lawson_t2,
    )


def _vc_conditions(ctx: InstanceContext) -> tuple:
    pv = ctx.pv
    return (
        pv["zar_hausdorff"],
        pv["zar_tau_separated"],
        pv["is_v"] and pv["t1"],
    )


def _cc_conditions(ctx: InstanceContext) -> tuple:
    pv = ctx.pv
    return (pv["complete"], pv["zar_compact_centered"], pv["chain_compact"])


HAUS_SEMI = ("t2", "semitopological")

PER_INSTANCE_RULES = (
    Rule(
        "diagram.weak_within_law_within_tau",
        (),
        _check_diagram((("weak", "law"), ("law", "tau"))),
    ),
    Rule(
        "diagram.weak_within_zar_within_tau",
        (),
        _check_diagram((("weak", "zar"), ("zar", "tau"))),
    ),
    Rule(
        "diagram.interval_within_lawson",
        (),
        _check_diagram((("interval", "lawson"),)),
    ),
    # separation implications under the Hausdorff semitopological hypotheses
    Rule(
        "sep.weak_circ_implies_law_hausdorff",
        HAUS_SEMI + ("weak_circ",),
        _implies("law_hausdorff"),
    ),
    Rule(
        "sep.i_weak_implies_weak_circ", HAUS_SEMI + ("i_weak",), _implies("weak_circ")
    ),
    Rule(
        "sep.i_weak_implies_weak_bullet",
        HAUS_SEMI + ("i_weak",),
        _implies("weak_bullet"),
    ),
    Rule(
        "sep.i_weak_implies_weak_hausdorff",
        HAUS_SEMI + ("i_weak",),
        _implies("weak_hausdorff"),
    ),
    Rule(
        "sep.weak_bullet_implies_zar_hausdorff",
        HAUS_SEMI + ("weak_bullet",),
        _implies("zar_hausdorff"),
    ),
    Rule(
        "sep.weak_hausdorff_implies_law_hausdorff",
        HAUS_SEMI + ("weak_hausdorff",),
        _implies("law_hausdorff"),
    ),
    Rule(
        "sep.weak_hausdorff_implies_zar_hausdorff",
        HAUS_SEMI + ("weak_hausdorff",),
        _implies("zar_hausdorff"),
    ),
    Rule(
        "sep.weak_hausdorff_iff_i_separated",
        HAUS_SEMI,
        _all_equal(
            "weak-Hausdorff / point-separation",
            lambda ctx: (ctx.pv["weak_hausdorff"], ctx.pv["i_separated"]),
        ),
    ),
    Rule(
        "sep.law_hausdorff_implies_law_tau_separated",
        HAUS_SEMI + ("law_hausdorff",),
        _implies("law_tau_separated"),
    ),
    Rule(
        "sep.zar_hausdorff_implies_zar_tau_separated",
        HAUS_SEMI + ("zar_hausdorff",),
        _implies("zar_tau_separated"),
    ),
    Rule(
        "sep.i_separated_implies_law_tau_separated",
        HAUS_SEMI + ("i_separated",),
        _implies("law_tau_separated"),
    ),
    Rule(
        "sep.i_separated_implies_zar_tau_separated",
        HAUS_SEMI + ("i_separated",),
        _implies("zar_tau_separated"),
    ),
    Rule(
        "sep.w_implies_law_tau_separated",
        HAUS_SEMI + ("is_w",),
        _implies("law_tau_separated"),
    ),
    Rule("sep.u_implies_v", HAUS_SEMI + ("is_u",), _implies("is_v")),
    Rule(
        "sep.v_implies_zar_tau_separated",
        HAUS_SEMI + ("is_v",),
        _implies("zar_tau_separated"),
    ),
    Rule(
        "u.hausdorff_implies_i_separated",
        HAUS_SEMI + ("is_u",),
        _implies("i_separated"),
    ),
    # neighborhood separation properties
    Rule("uw.equivalence", ("semitopological",), _check_uw_equivalence),
    Rule(
        "uw.finite_upper_nbhd_refines",
        ("semitopological",),
        _check_finite_upper_refines,
    ),
    Rule(
        "v.t1_implies_zar_hausdorff",
        ("semitopological", "is_v", "t1"),
        _implies("zar_hausdorff"),
    ),
    Rule(
        "v.down_chain_compact_equivalences",
        ("semitopological", "down_chain_compact"),
        _all_equal("Hausdorffness of the zar topology", _vc_conditions),
    ),
    # the closed-subsemigroup topology
    Rule(
        "zar.t0_iff",
        ("subtopological",),
        _all_equal(
            "T0 for original vs zar",
            lambda ctx: (
                ctx.pv["t0"],
                topo.separation_profile(ctx.comp.bundle.zar).t0,
            ),
        ),
    ),
    Rule(
        "zar.t1_iff",
        (),
        _all_equal(
            "T1 for original vs zar",
            lambda ctx: (
                ctx.pv["t1"],
                topo.separation_profile(ctx.comp.bundle.zar).t1,
            ),
        ),
    ),
    Rule(
        "zar.compact_iff_centered",
        (),
        _implies("zar_compact_centered"),
    ),
    Rule(
        "zar.updown_closed_equivalences",
        ("updown_closed",),
        _all_equal("completeness/compactness", _cc_conditions),
    ),
    Rule(
        "sep.law_hausdorff_witness_characterization",
        (),
        _check_law_witnesses,
    ),
    Rule(
        "sep.zar_hausdorff_witness_characterization",
        (),
        _check_zar_witnesses,
    ),
    # equivalence bundles
    Rule(
        "complete.separation_equivalences",
        ("semitopological", "complete"),
        _all_equal("completeness separation", _final_conditions),
    ),
    Rule(
        "complete.weak_lawson_zar_tau_chain",
        HAUS_SEMI,
        _check_diagram(
            (("weak", "lawson"), ("lawson", "zar"), ("zar", "tau"))
        ),
    ),
    Rule("lawson.compact_iff_complete", (), _implies("complete", "chain_compact")),
    Rule("order.meet_continuity_holds", (), _implies("meet_continuous")),
    # order-topological lemmas
    Rule("chains.closure_of_chain_is_chain", ("updown_closed",), _check_chain_closures),
    Rule("scott.open_upper_sets_are_scott_open", (), _check_open_upper_scott),
    Rule("chains.maxchain_contains_extrema", (), _check_maxchain_extrema),
    Rule("scott.maxchain_gap_is_principal", (), _check_scott_gap),
    Rule("order.maxchain_down_trace_principal", (), _check_down_trace),
    Rule("order.maxchain_up_trace_principal", (), _check_up_trace),
    # algebraic rules
    Rule("shifts.homomorphic_iff_identities", (), _check_shift_identities),
    Rule(
        "shifts.law_zar_remain_semitopological",
        ("shift_homomorphic", "semitopological"),
        _check_shift_continuity("law", "zar"),
    ),
    Rule(
        "shifts.weak_remains_semitopological",
        ("shift_homomorphic", "semitopological"),
        _check_shift_continuity("weak"),
    ),
    Rule(
        "linear.weak_circ_and_bullet",
        ("linear",),
        _implies("weak_circ", "weak_bullet"),
    ),
)

SUB_RULE_IDS = (
    "sub.weak_circ_inherited",
    "sub.weak_bullet_inherited",
    "sub.i_weak_inherited",
    "sub.zar_subspace_coincides",
)

HOM_RULE_IDS = (
    "hom.weak_continuity",
    "hom.law_openness",
    "hom.zar_closedness",
    "hom.zar_embedding",
)

PRODUCT_RULE_IDS = (
    "product.weak_circ_preserved",
    "product.weak_bullet_preserved",
    "product.i_weak_preserved",
    "product.zar_weak_factorizes",
)

MAIN_RULE_ID = "compact_hausdorff.all_equivalent"

# rules evaluated by the per-instance loop of the sweep
INSTANCE_RULE_IDS = tuple(r.id for r in PER_INSTANCE_RULES) + SUB_RULE_IDS

ALL_RULE_IDS = tuple(
    sorted(INSTANCE_RULE_IDS + HOM_RULE_IDS + PRODUCT_RULE_IDS + (MAIN_RULE_ID,))
)


# ---------------------------------------------------------------------------
# the sweep


@dataclass
class RuleStats:
    applied: int = 0
    vacuous: int = 0
    violations: list = field(default_factory=list)

    def merge(self, other: "RuleStats") -> None:
        self.applied += other.applied
        self.vacuous += other.vacuous
        self.violations.extend(other.violations)


@dataclass
class SweepReport:
    n_max: int
    instances_checked: int
    rules: dict

    @property
    def total_violations(self) -> int:
        return sum(len(s.violations) for s in self.rules.values())

    def render(self) -> str:
        lines = [f"sweep n_max={self.n_max}", f"instances checked: {self.instances_checked}"]
        for rule_id in sorted(self.rules):
            s = self.rules[rule_id]
            lines.append(
                f"rule {rule_id}: applied={s.applied} vacuous={s.vacuous} "
                f"violations={len(s.violations)}"
            )
        for rule_id in sorted(self.rules):
            for v in sorted(self.rules[rule_id].violations):
                lines.append(f"violation {rule_id}: {v}")
        lines.append(f"total violations: {self.total_violations}")
        return "\n".join(lines) + "\n"


def universe(n_max: int):
    """All (semilattice, topology) pairings up to n_max, in sweep order."""
    out = []
    for n in range(1, n_max + 1):
        sls = enumerate_semilattices(n)
        tops = enumerate_topologies(n)
        for sl in sls:
            for top in tops:
                out.append(tsl.TopologizedSemigroup(sl, top))
    return out


def _want(rule_ids, rule_id: str) -> bool:
    return rule_ids is None or rule_id in rule_ids


def _evaluate_instance(inst: tsl.TopologizedSemigroup, rule_ids) -> dict:
    stats = {}
    comp = weak.topology_comparison(inst)
    pv = props.property_vector(inst, comp).as_dict()
    ctx = InstanceContext(inst, natural_order(inst.algebra), comp, pv)
    where = _describe(inst)
    for rule in PER_INSTANCE_RULES:
        if not _want(rule_ids, rule.id):
            continue
        s = stats.setdefault(rule.id, RuleStats())
        if all(pv[h] for h in rule.hypotheses):
            s.applied += 1
            for detail in rule.check(ctx):
                s.violations.append(f"{where} :: {detail}")
        else:
            s.vacuous += 1
    if any(_want(rule_ids, rid) for rid in SUB_RULE_IDS):
        _evaluate_sub_rules(inst, comp, pv, stats, rule_ids, where)
    return stats


def _evaluate_sub_rules(inst, comp, pv, stats, rule_ids, where) -> None:
    for s_mask in tsl.enumerate_subsemigroups(inst):
        if not s_mask:
            continue
        sub = sub_instance(inst, s_mask)
        sub_comp = weak.topology_comparison(sub)
        for rule_id, parent_flag, sub_flag in (
            ("sub.weak_circ_inherited", comp.weak_circ, sub_comp.weak_circ),
            ("sub.weak_bullet_inherited", comp.weak_bullet, sub_comp.weak_bullet),
            ("sub.i_weak_inherited", comp.i_weak, sub_comp.i_weak),
        ):
            if not _want(rule_ids, rule_id):
                continue
            s = stats.setdefault(rule_id, RuleStats())
            if parent_flag:
                s.applied += 1
                if not sub_flag:
                    s.violations.append(
                        f"{where} :: subsemigroup {s_mask:#x} loses the property"
                    )
            else:
                s.vacuous += 1
        if _want(rule_ids, "sub.zar_subspace_coincides"):
            s = stats.setdefault("sub.zar_subspace_coincides", RuleStats())
            if pv["subtopological"]:
                s.applied += 1
                expected = topo.subspace(comp.bundle.zar, s_mask)
                if sub_comp.bundle.zar != expected:
                    s.violations.append(
                        f"{where} :: zar of subsemigroup {s_mask:#x} is not the trace"
                    )
            else:
                s.vacuous += 1


def _hom_phase(univ, rule_ids, stats) -> None:
    bundles = [weak.topology_comparison(inst).bundle for inst in univ]
    subtop = [tsl.continuity_profile(inst).subtopological for inst in univ]
    for (ia, a), (ib, b) in itertools.product(enumerate(univ), repeat=2):
        ba, bb = bundles[ia], bundles[ib]
        for mapping in itertools.product(range(b.n), repeat=a.n):
            if not is_homomorphism(a.algebra, b.algebra, mapping):
                continue
            if not tsl.is_continuous(a.topology, b.topology, mapping):
                continue
            where = f"hom {mapping} from [{_describe(a)}] to [{_describe(b)}]"
            if _want(rule_ids, "hom.weak_continuity"):
                s = stats.setdefault("hom.weak_continuity", RuleStats())
                s.applied += 1
                for name in ("law", "zar", "weak"):
                    if not tsl.is_continuous(
                        getattr(ba, name), getattr(bb, name), mapping
                    ):
                        s.violations.append(f"{where} :: loses {name} continuity")
            if _want(rule_ids, "hom.law_openness"):
                s = stats.setdefault("hom.law_openness", RuleStats())
                if _is_open_map(a.topology, b.topology, mapping):
                    s.applied += 1
                    if not _is_open_map(ba.law, bb.law, mapping):
                        s.violations.append(f"{where} :: loses law openness")
                else:
                    s.vacuous += 1
            if _want(rule_ids, "hom.zar_closedness"):
                s = stats.setdefault("hom.zar_closedness", RuleStats())
                if _is_closed_map(a.topology, b.topology, mapping):
                    s.applied += 1
                    if not _is_closed_map(ba.zar, bb.zar, mapping):
                        s.violations.append(f"{where} :: loses zar closedness")
                else:
                    s.vacuous += 1
            if _want(rule_ids, "hom.zar_embedding"):
                s = stats.setdefault("hom.zar_embedding", RuleStats())
                if _is_embedding(a.topology, b.topology, mapping) and subtop[ib]:
                    s.applied += 1
                    if not _is_embedding(ba.zar, bb.zar, mapping):
                        s.violations.append(f"{where} :: loses zar embedding")
                else:
                    s.vacuous += 1


def _product_phase(univ, rule_ids, stats) -> None:
    comps = [weak.topology_comparison(inst) for inst in univ]
    semitop = [tsl.translations_continuous(inst) for inst in univ]
    zar_sep = [
        props._two_topology_separated(inst.topology, comp.bundle.zar)
        for inst, comp in zip(univ, comps)
    ]
    for (ia, a), (ib, b) in itertools.combinations_with_replacement(
        enumerate(univ), 2
    ):
        prod = product_instance(a, b)
        comp_p = weak.topology_comparison(prod)
        ca, cb = comps[ia], comps[ib]
        where = f"product of [{_describe(a)}] and [{_describe(b)}]"
        for rule_id, fa, fb, fp in (
            ("product.weak_circ_preserved", ca.weak_circ, cb.weak_circ, comp_p.weak_circ),
            (
                "product.weak_bullet_preserved",
                ca.weak_bullet,
                cb.weak_bullet,
                comp_p.weak_bullet,
            ),
            ("product.i_weak_preserved", ca.i_weak, cb.i_weak, comp_p.i_weak),
        ):
            if not _want(rule_ids, rule_id):
                continue
            s = stats.setdefault(rule_id, RuleStats())
            if fa and fb:
                s.applied += 1
                if not fp:
                    s.violations.append(f"{where} :: product loses the property")
            else:
                s.vacuous += 1
        if _want(rule_ids, "product.zar_weak_factorizes"):
            s = stats.setdefault("product.zar_weak_factorizes", RuleStats())
            if zar_sep[ia] and zar_sep[ib] and semitop[ia] and semitop[ib]:
                s.applied += 1
                zar_ok = comp_p.bundle.zar == topo.product(
                    ca.bundle.zar, cb.bundle.zar
                )
                weak_ok = comp_p.bundle.weak == topo.product(
                    ca.bundle.weak, cb.bundle.weak
                )
                if not (zar_ok and weak_ok and comp_p.bundle.zar == comp_p.bundle.weak):
                    s.violations.append(f"{where} :: zar/weak do not factorize")
            else:
                s.vacuous += 1


def _main_conditions(inst, comp) -> tuple:
    b = comp.bundle
    uvw = props.uvw_profile(inst)
    return (
        comp.i_weak,
        comp.weak_circ,
        comp.weak_bullet,
        b.weak == b.lawson,
        weak.family_within(b.lawson, b.law),
        topo.separation_profile(b.law).t2,
        topo.separation_profile(b.zar).t2,
        topo.separation_profile(b.weak).t2,
        topo.separation_profile(b.lawson).t2,
        props._two_topology_separated(inst.topology, b.law),
        props._two_topology_separated(inst.topology, b.zar),
        props.i_separated(inst),
        uvw.is_w,
        uvw.is_u,
        uvw.is_v,
    )


def _main_phase(main_n_max: int, stats) -> None:
    """Fifteen-way equivalence on finite discrete instances, which are
    exactly the compact Hausdorff ones."""
    s = stats.setdefault(MAIN_RULE_ID, RuleStats())
    for n in range(1, main_n_max + 1):
        disc = topo.discrete(n)
        for sl in enumerate_semilattices(n):
            inst = tsl.TopologizedSemigroup(sl, disc)
            comp = weak.topology_comparison(inst)
            s.applied += 1
            values = _main_conditions(inst, comp)
            if len(set(values)) > 1:
                s.violations.append(f"{_describe(inst)} :: conditions disagree: {values}")


def sweep(
    n_max: int,
    rule_ids=None,
    threads: int = 1,
    main_n_max: int = 4,
) -> SweepReport:
    """Evaluate every rule over all topology x semilattice pairings up to
    n_max, plus the cross-instance phases.  Deterministic for any thread
    count: per-instance results are merged commutatively and violation lists
    sorted at render time."""
    if not 1 <= n_max <= SWEEP_MAX:
        raise ValueError(f"sweep supports n_max in 1..{SWEEP_MAX}, got {n_max}")
    if threads < 1:
        raise ValueError("threads must be positive")
    if rule_ids is not None:
        rule_ids = frozenset(rule_ids)
        unknown = rule_ids - set(ALL_RULE_IDS)
        if unknown:
            raise ValueError(f"unknown rule ids: {sorted(unknown)}")
    univ = universe(n_max)
    stats: dict = {}

    def shard_of(inst) -> int:
        key = repr((inst.algebra.table, inst.topology.opens)).encode("ascii")
        return int(hashlib.sha256(key).hexdigest(), 16) % threads

    def run_shard(k: int) -> dict:
        partial: dict = {}
        for inst in univ:
            if shard_of(inst) != k:
                continue
            for rule_id, rs in _evaluate_instance(inst, rule_ids).items():
                partial.setdefault(rule_id, RuleStats()).merge(rs)
        return partial

    if not any(_want(rule_ids, rid) for rid in INSTANCE_RULE_IDS):
        shards = []
    elif threads == 1:
        shards = [run_shard(0)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            shards = list(pool.map(run_shard, range(threads)))
    for partial in shards:
        for rule_id, rs in partial.items():
            stats.setdefault(rule_id, RuleStats()).merge(rs)

    univ2 = universe(min(n_max, 2))
    if any(_want(rule_ids, rid) for rid in HOM_RULE_IDS):
        _hom_phase(univ2, rule_ids, stats)
    if any(_want(rule_ids, rid) for rid in PRODUCT_RULE_IDS):
        _product_phase(univ2, rule_ids, stats)
    if _want(rule_ids, MAIN_RULE_ID):
        _main_phase(main_n_max, stats)
    return SweepReport(n_max, len(univ), stats)


# ---------------------------------------------------------------------------
# counterexample search


@dataclass(frozen=True)
class CounterexampleRecord:
    query: dict
    document: dict
    properties: dict
    discovered_at: str
    canonical_hash: str


SEARCH_PSEUDO_PROPERTIES = ("semilattice",)


def _validate_property_names(names) -> None:
    valid = set(props.PROPERTY_NAMES) | set(SEARCH_PSEUDO_PROPERTIES)
    unknown = [p for p in names if p not in valid]
    if unknown:
        raise ValueError(f"unknown property names: {unknown}")


def search(
    satisfy,
    violate: str,
    n_max: int,
    catalog: Optional[str] = None,
) -> Optional[CounterexampleRecord]:
    """First instance (in enumeration order, canonicalized) satisfying every
    `satisfy` property and violating `violate`, or None if the search space
    up to n_max is exhausted.  The search universe is all semilattice
    instances, so the pseudo-property "semilattice" is always satisfied."""
    satisfy = tuple(satisfy)
    if not 1 <= n_max <= SWEEP_MAX:
        raise ValueError(f"search supports n_max in 1..{SWEEP_MAX}, got {n_max}")
    _validate_property_names(satisfy + (violate,))
    if violate in SEARCH_PSEUDO_PROPERTIES:
        return None
    for inst in universe(n_max):
        pv = props.property_vector(inst).as_dict()
        for p in SEARCH_PSEUDO_PROPERTIES:
            pv[p] = True
        if all(pv[p] for p in satisfy) and not pv[violate]:
            canon, _ = canonicalize(inst)
            record = CounterexampleRecord(
                query={"satisfy": list(satisfy), "violate": violate, "n_max": n_max},
                document=instance_document(canon),
                properties={k: v for k, v in sorted(pv.items())},
                discovered_at=datetime.now(timezone.utc).isoformat(),
                canonical_hash=canonical_hash(inst),
            )
            if catalog is not None:
                _append_record(catalog, record)
            return record
    return None


def _append_record(path: str, record: CounterexampleRecord) -> None:
    from dataclasses import asdict

    with open(path, "a", encoding="ascii") as fh:
        fh.write(json.dumps(asdict(record), sort_keys=True) + "\n")


def load_catalog(path: str) -> list[CounterexampleRecord]:
    out = []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            raw = json.loads(line)
            out.append(CounterexampleRecord(**raw))
    return out
