"""Exhaustive small-scale verification: enumeration of labeled topologies
and semilattices, canonical forms and isomorphism classes, a rule sweep over
every pairing (evaluated once per class, counted once per labeling), audits
of homomorphisms and products, and counterexample search with a catalog.

Rule ids are grouped by prefix: "diagram." for inclusion facts, "sep." for
separation implications, "uw."/"u."/"v." for the neighborhood separation
properties, "zar." for facts about the closed-subsemigroup topology,
"order."/"chains."/"scott." for order-topological facts, "shifts." and
"linear." for algebraic ones, and "hom."/"sub."/"product." for the
cross-instance phases.  "compact_hausdorff.all_equivalent" runs in its own
discrete-only phase.

The per-instance rules are rows of data (PER_INSTANCE_RULES): hypotheses,
then conditions that must hold and conditions that must agree, each a
PropertyVector field or a CONDITIONS key; _rule builds the check of such a
row.  The rows that list their own witnesses keep a check function.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Callable, NamedTuple, Optional

from . import props, topo, tsl, weak
from .core import (
    CANON_MAX,
    ENUM_MAX,
    INSTANCE_PRODUCT_MAX,
    SWEEP_MAX,
    THREADS_MAX,
    FinitePoset,
    FiniteSemigroup,
    FiniteSemilattice,
    bits,
    bound_extremum,
    cone,
    derived,
    is_shift_homomorphic,
    mask_of,
    natural_order,
    subsets,
)
from .tsl import is_homomorphism


# ---------------------------------------------------------------------------
# enumeration


def _enumerate_reflexive_transitive(n: int, antisymmetric: bool):
    """All relation row-tuples (row[x] = mask of {y : x R y}) that are
    reflexive, transitive, and optionally antisymmetric, in ascending order.

    Rows are fixed in order by backtracking, each candidate row (ascending,
    holding its own point) checked only against the rows already fixed: a
    pair of points is decided once both rows are.  This prunes the product
    of the row candidates and keeps its order;
    oracles.reflexive_transitive_by_product filters the whole product."""
    if not 1 <= n <= ENUM_MAX:
        raise ValueError(f"n must be in 1..{ENUM_MAX}, got {n}")
    row_options = [
        [m for m in subsets(n) if m >> x & 1] for x in range(n)
    ]
    rows = [0] * n

    def fits(k: int, m: int) -> bool:
        for x in range(k):
            rx = rows[x]
            if rx >> k & 1 and m & ~rx:  # x R k: row k lies within row x
                return False
            if m >> x & 1 and rx & ~m:  # k R x: row x lies within row k
                return False
            if antisymmetric and rx >> k & 1 and m >> x & 1:
                return False
        return True

    def extend(k: int):
        if k == n:
            yield tuple(rows)
            return
        for m in row_options[k]:
            if fits(k, m):
                rows[k] = m
                yield from extend(k + 1)

    return extend(0)


def enumerate_posets(n: int) -> list[FinitePoset]:
    """All labeled partial orders on n points, ascending by row tuple."""
    return [
        FinitePoset(n, rows) for rows in _enumerate_reflexive_transitive(n, True)
    ]


def enumerate_topologies(n: int) -> list[topo.FiniteTopology]:
    """All labeled topologies on n points: their specialization preorders
    are their minimal neighbourhoods.  Sorted ascending by opens tuple."""
    tops = [
        topo.FiniteTopology(n, rows)
        for rows in _enumerate_reflexive_transitive(n, False)
    ]
    tops.sort(key=lambda t: t.opens)
    return tops


def _semilattice_tables(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All labeled semilattice tables as raw tuples, via the partial orders
    (as row tuples) in which every pair has a greatest lower bound; sorted
    ascending."""
    out = []
    rng = range(n)
    for up in _enumerate_reflexive_transitive(n, True):
        downs = [0] * n
        for x in rng:
            for y in bits(up[x]):
                downs[y] |= 1 << x
        # x and y have a meet exactly when their common lower bounds form
        # the down-set of one point, and that point is the meet
        point_of = {d: x for x, d in enumerate(downs)}
        try:
            table = tuple(
                tuple(point_of[downs[x] & downs[y]] for y in rng) for x in rng
            )
        except KeyError:
            continue
        out.append(table)
    out.sort()
    return out


def enumerate_semilattices(n: int) -> list[FiniteSemilattice]:
    """All labeled semilattice tables, sorted ascending by flattened table."""
    return [FiniteSemilattice(n, table) for table in _semilattice_tables(n)]


# ---------------------------------------------------------------------------
# canonical forms


def _permute_table(table, perm) -> tuple[tuple[int, ...], ...]:
    """The operation table with each element x relabeled perm[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x]][perm[y]] = perm[table[x][y]]
    return tuple(tuple(row) for row in out)


def _permute_opens(opens, perm) -> tuple[int, ...]:
    """The open sets with each element x relabeled perm[x], sorted."""
    return tuple(sorted(mask_of(perm[i] for i in bits(u)) for u in opens))


def _permute_instance(inst: tsl.TopologizedSemigroup, perm):
    return (
        _permute_table(inst.algebra.table, perm),
        _permute_opens(inst.topology.opens, perm),
    )


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
    return tsl.TopologizedSemigroup(algebra, topo.canonical(n, opens)), best_perm


def canonical_hash(inst: tsl.TopologizedSemigroup) -> str:
    import hashlib  # loads OpenSSL; only search and its callers need it

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


def _sub_algebra(alg: FiniteSemigroup, s: int) -> FiniteSemigroup:
    """Subsemigroup s of alg, re-indexed ascending."""
    if not s:
        raise ValueError("subsemigroup carrier must be nonempty")
    elems = list(bits(s))
    index = {e: i for i, e in enumerate(elems)}
    table = tuple(tuple(index[alg.table[x][y]] for y in elems) for x in elems)
    return type(alg)(len(elems), table)


def sub_algebras(alg: FiniteSemigroup) -> tuple[tuple[int, FiniteSemigroup], ...]:
    """Each nonempty subsemigroup s of alg, ascending, paired with its
    re-indexed algebra; derived once per table (core.derived)."""
    subs = derived(alg, tsl.subsemigroups)
    return tuple((s, _sub_algebra(alg, s)) for s in subs if s)


def product_instance(
    a: tsl.TopologizedSemigroup, b: tsl.TopologizedSemigroup
) -> tsl.TopologizedSemigroup:
    """Product semigroup under the pair index (i, j) -> i*n_b + j with the
    product topology."""
    n = a.n * b.n
    if n > INSTANCE_PRODUCT_MAX:
        raise ValueError(
            f"product carrier {n} exceeds the supported bound {INSTANCE_PRODUCT_MAX}"
        )
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


class FunctorialAudit(NamedTuple):
    """How a continuous homomorphism behaves under the derived topologies.

    None marks a clause whose precondition does not hold for this map.
    """

    weak_continuity: bool
    law_openness: Optional[bool]
    zar_closedness: Optional[bool]
    zar_embedding: Optional[bool]
    details: tuple[str, ...]


def _is_open_map(src: topo.FiniteTopology, tgt: topo.FiniteTopology, mapping) -> bool:
    """Every open set is a union of M_x and images keep unions, so the map
    is open iff the image of each M_x is.  oracles.open_map_by_opens maps
    every open set."""
    return all(tgt.is_open(tsl.image_mask(mapping, m)) for m in src.minimal)


def _is_closed_map(src: topo.FiniteTopology, tgt: topo.FiniteTopology, mapping) -> bool:
    """Every closed set is the union of its points' closures, so the map is
    closed iff the image of each point closure is.
    oracles.closed_map_by_closed_sets maps every closed set."""
    return all(
        tgt.is_closed(tsl.image_mask(mapping, topo.closure(src, 1 << x)))
        for x in range(src.n)
    )


def _is_embedding(src: topo.FiniteTopology, tgt: topo.FiniteTopology, mapping) -> bool:
    """Injective, and the preimage of each M_f(x) is M_x: the preimages of
    the open sets form the topology whose M_x those are.
    oracles.embedding_by_traces compares every preimage of an open set."""
    if len(set(mapping)) != len(mapping):
        return False
    return all(
        tsl.preimage(mapping, tgt.minimal[fx], src.n) == m
        for fx, m in zip(mapping, src.minimal)
    )


def _audit_hom(a, b, da, db, mapping, b_subtopological: bool) -> FunctorialAudit:
    """The audit of the continuous hom `mapping` from a to b, given the
    (law, zar, weak) topologies da of a and db of b.  Each detail names the
    clause that fails."""
    details = [
        f"loses {name} continuity"
        for name, ta, tb in zip(("law", "zar", "weak"), da, db)
        if not tsl.is_continuous(ta, tb, mapping)
    ]
    continuity = not details
    (law_a, zar_a, _), (law_b, zar_b, _) = da, db
    openness = closedness = embedding = None
    if _is_open_map(a.topology, b.topology, mapping):
        openness = _is_open_map(law_a, law_b, mapping)
        if not openness:
            details.append("loses law openness")
    if _is_closed_map(a.topology, b.topology, mapping):
        closedness = _is_closed_map(zar_a, zar_b, mapping)
        if not closedness:
            details.append("loses zar closedness")
    if _is_embedding(a.topology, b.topology, mapping) and b_subtopological:
        embedding = _is_embedding(zar_a, zar_b, mapping)
        if not embedding:
            details.append("loses zar embedding")
    return FunctorialAudit(continuity, openness, closedness, embedding, tuple(details))


def functorial_audit(h: tsl.ContinuousHom) -> FunctorialAudit:
    src, tgt = h.source, h.target
    da, db = (
        (weak.law_topology(x), weak.zar_topology(x), weak.weak_topology(x))
        for x in (src, tgt)
    )
    subtop = tsl.continuity_profile(tgt).subtopological
    return _audit_hom(src, tgt, da, db, h.mapping, subtop)


class ProductAudit(NamedTuple):
    """Preservation of the derived-topology coincidence flags by a binary
    product.  None marks a flag not shared by both factors."""

    weak_circ_preserved: Optional[bool]
    weak_bullet_preserved: Optional[bool]
    i_weak_preserved: Optional[bool]
    zar_factorizes: Optional[bool]


def _factors_hypothesis(inst: tsl.TopologizedSemigroup) -> bool:
    """A factor's hypothesis of product.zar_weak_factorizes: zar and tau
    separated, and every translation continuous.  The first is tau being
    discrete (props.property_vector), and that makes every map continuous."""
    return topo.separation_profile(inst.topology).discrete


def _audit_product(comp_a, comp_b, comp_p, factors_ok: bool) -> ProductAudit:
    """The audit of a product from the comparison reports of its factors and
    of itself; factors_ok is the factorization hypothesis of both factors."""
    flags = [
        getattr(comp_p, f) if getattr(comp_a, f) and getattr(comp_b, f) else None
        for f in ("weak_circ", "weak_bullet", "i_weak")
    ]
    factorizes = None
    if factors_ok:
        a, b, p = comp_a.bundle, comp_b.bundle, comp_p.bundle
        factorizes = (
            p.zar == topo.product(a.zar, b.zar)
            and p.weak == topo.product(a.weak, b.weak)
            and p.zar == p.weak
        )
    return ProductAudit(*flags, factorizes)


def product_audit(
    a: tsl.TopologizedSemigroup, b: tsl.TopologizedSemigroup
) -> ProductAudit:
    comp_a = weak.topology_comparison(a)
    comp_b = weak.topology_comparison(b)
    comp_p = weak.topology_comparison(product_instance(a, b))
    factors_ok = _factors_hypothesis(a) and _factors_hypothesis(b)
    return _audit_product(comp_a, comp_b, comp_p, factors_ok)


# ---------------------------------------------------------------------------
# per-instance rules


class InstanceContext(NamedTuple):
    """What the rules read of one instance: its natural order, its
    comparison report and its property vector as a dict."""

    inst: tsl.TopologizedSemigroup
    poset: FinitePoset
    comp: weak.ComparisonReport
    pv: dict


def _context(inst: tsl.TopologizedSemigroup, comp) -> InstanceContext:
    pv = props.property_vector(inst, comp).as_dict()
    return InstanceContext(inst, derived(inst.algebra, natural_order), comp, pv)


def _within(lo: str, hi: str):
    return lambda ctx: weak.family_within(
        getattr(ctx.comp.bundle, lo), getattr(ctx.comp.bundle, hi)
    )


def _shifts(name: str):
    """Whether every translation is continuous in the named topology."""
    return lambda ctx: tsl.translations_continuous(
        ctx.inst.with_topology(getattr(ctx.comp.bundle, name))
    )


def _witnessed(witness):
    """Whether witness finds a witness for every pair of points."""
    return lambda ctx: all(
        witness(ctx.inst, x, y) is not None
        for x, y in itertools.combinations(range(ctx.inst.n), 2)
    )


def _u_on_open_upper_sets(ctx: InstanceContext) -> bool:
    """Each point x of an open upper set u is inside the interior of the
    upper set of some point of u: covers[x] (props.upper_covers) meets u."""
    covers = props.upper_covers(ctx.inst)
    return all(
        covers[x] & u
        for u in ctx.inst.topology.opens
        if cone(ctx.poset, u, "up") == u
        for x in bits(u)
    )


# The conditions a rule may name besides the PropertyVector fields, each
# decided on an InstanceContext.  "lo within hi" compares two topologies of
# the comparison bundle.
CONDITIONS = {
    **{
        f"{lo} within {hi}": _within(lo, hi)
        for lo, hi in (
            ("weak", "law"), ("law", "tau"), ("weak", "zar"), ("zar", "tau"),
            ("interval", "lawson"), ("weak", "lawson"), ("lawson", "zar"),
            ("lawson", "law"),
        )
    },
    **{f"shifts continuous in {t}": _shifts(t) for t in ("law", "zar", "weak")},
    "zar t0": lambda ctx: topo.separation_profile(ctx.comp.bundle.zar).t0,
    "is_v and t1": lambda ctx: ctx.pv["is_v"] and ctx.pv["t1"],
    "t0 and weak = zar": lambda ctx: (
        ctx.pv["t0"] and ctx.comp.bundle.weak == ctx.comp.bundle.zar
    ),
    "weak = lawson": lambda ctx: ctx.comp.bundle.weak == ctx.comp.bundle.lawson,
    "weak = lawson = zar": lambda ctx: (
        ctx.comp.bundle.weak == ctx.comp.bundle.lawson == ctx.comp.bundle.zar
    ),
    "law_hausdorff witnesses for all pairs": _witnessed(props.law_hausdorff_witness),
    "zar_hausdorff witnesses for all pairs": _witnessed(props.zar_hausdorff_witness),
    "U on open upper sets": _u_on_open_upper_sets,
    # Lawson is discrete, so T2, on a finite poset (weak.lawson_topology)
    "lawson t2": lambda ctx: True,
}


class Rule(NamedTuple):
    """A row of the rule table.  A rule applies where each of its hypotheses,
    PropertyVector fields, holds; its check then returns the details of its
    violations.  A row made by _rule states its conclusion as data: holds,
    the conditions that must hold, and agree, those that must take one value,
    each a PropertyVector field or a CONDITIONS key.  A row that lists its
    own witnesses has a check of its own.  Checks take an InstanceContext,
    but a per_table rule reads only the semilattice table: its check takes
    the algebra and runs once per table (core.derived)."""

    id: str
    hypotheses: tuple[str, ...]
    check: Callable[..., list[str]]
    per_table: bool = False
    holds: tuple[str, ...] = ()
    agree: tuple[str, ...] = ()


def _rule(rule_id: str, hypotheses=(), holds=(), agree=()) -> Rule:
    """The row whose check finds each condition of holds true and every
    condition of agree equal, and otherwise names the condition that fails,
    or each condition of agree with its value.  Names are looked up once,
    here: a CONDITIONS key gives its function, a PropertyVector field None."""
    holds, agree = tuple(holds), tuple(agree)
    hold_fns = [(c, CONDITIONS.get(c)) for c in holds]
    agree_fns = [(c, CONDITIONS.get(c)) for c in agree]

    def check(ctx: InstanceContext) -> list[str]:
        pv = ctx.pv
        out = []
        for c, f in hold_fns:
            if not (pv[c] if f is None else f(ctx)):
                out.append(f"expected {c} to hold")
        if agree_fns:
            values = [pv[c] if f is None else f(ctx) for c, f in agree_fns]
            if len(set(values)) > 1:
                named = ", ".join(f"{c}={v}" for c, v in zip(agree, values))
                out.append(f"conditions disagree: {named}")
        return out

    return Rule(rule_id, tuple(hypotheses), check, holds=holds, agree=agree)


def _check_finite_upper_refines(ctx: InstanceContext) -> list[str]:
    inst, poset = ctx.inst, ctx.poset
    covers = props.upper_covers(inst)
    out = []
    for f in range(1, 1 << inst.n):
        inner = topo.interior(inst.topology, cone(poset, f, "up"))
        for x in bits(inner):
            if not covers[x] & f:
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


def _order_of(alg: FiniteSemigroup) -> tuple[FinitePoset, tuple[int, ...]]:
    """The natural order of a table and its maximal chains."""
    poset = derived(alg, natural_order)
    return poset, derived(poset, FinitePoset.maximal_chains)


def _check_maxchain_extrema(alg: FiniteSemigroup) -> list[str]:
    poset, chains = _order_of(alg)
    out = []
    for m in chains:
        for c in range(1, m + 1):
            if c & ~m:  # not within the chain
                continue
            lo = bound_extremum(poset, c, "inf")
            hi = bound_extremum(poset, c, "sup")
            if lo is None or not m >> lo & 1:
                out.append(f"inf of {c:#x} escapes maximal chain {m:#x}")
            if hi is None or not m >> hi & 1:
                out.append(f"sup of {c:#x} escapes maximal chain {m:#x}")
    return out


def _check_scott_gap(ctx: InstanceContext) -> list[str]:
    poset, chains = _order_of(ctx.inst.algebra)
    out = []
    for u in ctx.comp.bundle.scott.opens:
        for m in chains:
            gap = m & ~u
            if not gap:
                continue
            x = bound_extremum(poset, gap, "sup")
            if gap != m & poset.down(x):
                out.append(
                    f"chain gap {gap:#x} is not the down-trace of its maximum {x}"
                )
    return out


def _check_trace(direction: str):
    """The trace of each principal down-set (up-set) on a maximal chain is
    the principal down-set (up-set) of its maximum (minimum)."""
    kind = "sup" if direction == "down" else "inf"

    def check(alg: FiniteSemigroup) -> list[str]:
        poset, chains = _order_of(alg)
        rows = poset.downs if direction == "down" else poset.up
        out = []
        for x in range(alg.n):
            for m in chains:
                trace = m & rows[x]
                if trace and trace != m & rows[bound_extremum(poset, trace, kind)]:
                    out.append(f"{direction}-trace {trace:#x} of {x} is not principal")
        return out

    return check


def _check_shift_identities(alg: FiniteSemigroup) -> list[str]:
    t = alg.table
    literal = all(
        is_homomorphism(alg, alg, [t[a][x] for x in range(alg.n)])
        and is_homomorphism(alg, alg, [t[x][a] for x in range(alg.n)])
        for a in range(alg.n)
    )
    identities = is_shift_homomorphic(alg)
    if literal != identities:
        return [f"shift identities ({identities}) vs literal ({literal})"]
    return []


HAUS_SEMI = ("t2", "semitopological")
SEMI = ("semitopological",)

# The rule table: (id, hypotheses, holds, agree) rows made by _rule, and the
# rows with a check of their own.
PER_INSTANCE_RULES = (
    _rule("diagram.weak_within_law_within_tau", (),
          ["weak within law", "law within tau"]),
    _rule("diagram.weak_within_zar_within_tau", (),
          ["weak within zar", "zar within tau"]),
    _rule("diagram.interval_within_lawson", (), ["interval within lawson"]),
    # separation implications under the Hausdorff semitopological hypotheses
    _rule("sep.weak_circ_implies_law_hausdorff",
          (*HAUS_SEMI, "weak_circ"), ["law_hausdorff"]),
    _rule("sep.i_weak_implies_weak_circ", (*HAUS_SEMI, "i_weak"), ["weak_circ"]),
    _rule("sep.i_weak_implies_weak_bullet", (*HAUS_SEMI, "i_weak"), ["weak_bullet"]),
    _rule("sep.i_weak_implies_weak_hausdorff",
          (*HAUS_SEMI, "i_weak"), ["weak_hausdorff"]),
    _rule("sep.weak_bullet_implies_zar_hausdorff",
          (*HAUS_SEMI, "weak_bullet"), ["zar_hausdorff"]),
    _rule("sep.weak_hausdorff_implies_law_hausdorff",
          (*HAUS_SEMI, "weak_hausdorff"), ["law_hausdorff"]),
    _rule("sep.weak_hausdorff_implies_zar_hausdorff",
          (*HAUS_SEMI, "weak_hausdorff"), ["zar_hausdorff"]),
    _rule("sep.weak_hausdorff_iff_i_separated",
          HAUS_SEMI, agree=["weak_hausdorff", "i_separated"]),
    _rule("sep.law_hausdorff_implies_law_tau_separated",
          (*HAUS_SEMI, "law_hausdorff"), ["law_tau_separated"]),
    _rule("sep.zar_hausdorff_implies_zar_tau_separated",
          (*HAUS_SEMI, "zar_hausdorff"), ["zar_tau_separated"]),
    _rule("sep.i_separated_implies_law_tau_separated",
          (*HAUS_SEMI, "i_separated"), ["law_tau_separated"]),
    _rule("sep.i_separated_implies_zar_tau_separated",
          (*HAUS_SEMI, "i_separated"), ["zar_tau_separated"]),
    _rule("sep.w_implies_law_tau_separated",
          (*HAUS_SEMI, "is_w"), ["law_tau_separated"]),
    _rule("sep.u_implies_v", (*HAUS_SEMI, "is_u"), ["is_v"]),
    _rule("sep.v_implies_zar_tau_separated",
          (*HAUS_SEMI, "is_v"), ["zar_tau_separated"]),
    _rule("u.hausdorff_implies_i_separated", (*HAUS_SEMI, "is_u"), ["i_separated"]),
    # neighborhood separation properties
    _rule("uw.equivalence", SEMI, agree=["is_u", "is_w", "U on open upper sets"]),
    Rule("uw.finite_upper_nbhd_refines", SEMI, _check_finite_upper_refines),
    _rule("v.t1_implies_zar_hausdorff", (*SEMI, "is_v", "t1"), ["zar_hausdorff"]),
    _rule("v.down_chain_compact_equivalences", (*SEMI, "down_chain_compact"),
          agree=["zar_hausdorff", "zar_tau_separated", "is_v and t1"]),
    # the closed-subsemigroup topology
    _rule("zar.t0_iff", ("subtopological",), agree=["t0", "zar t0"]),
    # a finite T1 space is discrete, so zar is T1 iff it is Hausdorff
    _rule("zar.t1_iff", (), agree=["t1", "zar_hausdorff"]),
    _rule("zar.compact_iff_centered", (), ["zar_compact_centered"]),
    _rule("zar.updown_closed_equivalences", ("updown_closed",),
          agree=["complete", "zar_compact_centered", "chain_compact"]),
    _rule("sep.law_hausdorff_witness_characterization",
          agree=["law_hausdorff", "law_hausdorff witnesses for all pairs"]),
    _rule("sep.zar_hausdorff_witness_characterization",
          agree=["zar_hausdorff", "zar_hausdorff witnesses for all pairs"]),
    # equivalence bundles.  The paper's "the Lawson topology is T2" is read
    # as tau being discrete: read literally ("lawson t2"), it holds on every
    # finite poset, and the rule fails on each non-discrete instance.
    _rule("complete.separation_equivalences", (*SEMI, "complete"),
          agree=["zar_hausdorff", "weak_hausdorff", "i_separated", "is_v and t1",
                 "t0 and weak = zar", "weak = lawson = zar", "discrete"]),
    _rule("complete.weak_lawson_zar_tau_chain", HAUS_SEMI,
          ["weak within lawson", "lawson within zar", "zar within tau"]),
    _rule("lawson.compact_iff_complete", (), ["complete", "chain_compact"]),
    _rule("order.meet_continuity_holds", (), ["meet_continuous"]),
    # order-topological lemmas
    Rule("chains.closure_of_chain_is_chain", ("updown_closed",), _check_chain_closures),
    Rule("scott.open_upper_sets_are_scott_open", (), _check_open_upper_scott),
    Rule("chains.maxchain_contains_extrema", (), _check_maxchain_extrema,
         per_table=True),
    Rule("scott.maxchain_gap_is_principal", (), _check_scott_gap),
    Rule("order.maxchain_down_trace_principal", (), _check_trace("down"),
         per_table=True),
    Rule("order.maxchain_up_trace_principal", (), _check_trace("up"), per_table=True),
    # algebraic rules
    Rule("shifts.homomorphic_iff_identities", (), _check_shift_identities,
         per_table=True),
    _rule("shifts.law_zar_remain_semitopological", ("shift_homomorphic", *SEMI),
          ["shifts continuous in law", "shifts continuous in zar"]),
    _rule("shifts.weak_remains_semitopological", ("shift_homomorphic", *SEMI),
          ["shifts continuous in weak"]),
    _rule("linear.weak_circ_and_bullet", ("linear",), ["weak_circ", "weak_bullet"]),
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
# The fifteen conditions of the main equivalence (_main_phase).  Eight are
# constants or tau's discreteness: "lawson t2" and is_w always hold, and the
# three *_hausdorff and three *_separated fields are discreteness
# (props.property_vector).
MAIN_RULE = _rule(
    MAIN_RULE_ID,
    agree=[
        "i_weak", "weak_circ", "weak_bullet", "weak = lawson", "lawson within law",
        "law_hausdorff", "zar_hausdorff", "weak_hausdorff", "lawson t2",
        "law_tau_separated", "zar_tau_separated", "i_separated",
        "is_w", "is_u", "is_v",
    ],
)

ALL_RULE_IDS = tuple(sorted(
    [r.id for r in PER_INSTANCE_RULES]
    + [*SUB_RULE_IDS, *HOM_RULE_IDS, *PRODUCT_RULE_IDS, MAIN_RULE_ID]
))


# ---------------------------------------------------------------------------
# the sweep


class RuleStats:
    def __init__(self, applied: int = 0, vacuous: int = 0, violations=None):
        self.applied, self.vacuous = applied, vacuous
        self.violations = [] if violations is None else violations

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)


class SweepReport:
    def __init__(self, n_max: int, instances_checked: int, rules: dict):
        self.n_max, self.instances_checked, self.rules = n_max, instances_checked, rules

    __eq__ = RuleStats.__eq__

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
    """All labeled (semilattice, topology) pairings up to n_max, in
    enumeration order: the tests' and oracles' reference walk."""
    out = []
    for n in range(1, n_max + 1):
        sls = enumerate_semilattices(n)
        tops = enumerate_topologies(n)
        for sl in sls:
            for top in tops:
                out.append(tsl.TopologizedSemigroup(sl, top))
    return out


def semilattice_classes(n: int) -> list[tuple[FiniteSemilattice, tuple]]:
    """One semilattice per isomorphism class on n points, with its
    automorphism group (the permutations that fix its table).  The
    representative is the first labeled table of its class in
    enumerate_semilattices order; its class has n!/|Aut| labeled tables.
    Classes are found on the raw tables, and only a representative is
    built (and so validated) as a FiniteSemilattice;
    oracles.semilattice_classes_by_semilattices walks the built ones."""
    perms = list(itertools.permutations(range(n)))
    seen = set()
    out = []
    for table in _semilattice_tables(n):
        if table in seen:
            continue
        aut = []
        for perm in perms:
            image = _permute_table(table, perm)
            seen.add(image)
            if image == table:
                aut.append(perm)
        out.append((FiniteSemilattice(n, table), tuple(aut)))
    return out


def instance_classes(n_max: int) -> list[tuple[tsl.TopologizedSemigroup, int]]:
    """One instance per isomorphism class up to n_max, in sweep order, with
    the size of its labeled orbit.

    Over each semilattice representative S the topologies fall into orbits
    of Aut(S); the first topology of an orbit in enumerate_topologies order
    represents it.  By orbit-stabilizer the labeled orbit of (S, T) has
    n!/|Aut(S) & Aut(T)| = n!/|Aut(S)| * |Aut(S) T| members, so the weights
    sum to the number of labeled instances."""
    out = []
    for n in range(1, n_max + 1):
        tops = enumerate_topologies(n)
        for sl, aut in semilattice_classes(n):
            tables = math.factorial(n) // len(aut)
            seen = set()
            for top in tops:
                if top.opens in seen:
                    continue
                orbit = {_permute_opens(top.opens, perm) for perm in aut}
                seen |= orbit
                out.append((tsl.TopologizedSemigroup(sl, top), tables * len(orbit)))
    return out


class SweepMemo:
    """The comparison report of each distinct instance of one sweep() call,
    computed once and kept until its last reader is done: the phases run
    first, and the loop drops each report of a class with n = n_max once
    the class is evaluated (sweep).  Order data is derived (core.derived)
    on each algebra object, which the classes of one table share."""

    def __init__(self):
        self.comparisons: dict = {}

    def comparison(self, inst: tsl.TopologizedSemigroup) -> weak.ComparisonReport:
        comp = self.comparisons.get(inst)
        if comp is None:
            # through the module attribute, so that a wrapper sees each
            # computation that is not a hit
            comp = weak.topology_comparison(inst)
            self.comparisons[inst] = comp
        return comp


def _where(inst: tsl.TopologizedSemigroup, weight: int) -> str:
    """How a violation line names a class: its representative and orbit."""
    return f"{_describe(inst)} orbit={weight}"


def _evaluate_instance(
    inst: tsl.TopologizedSemigroup,
    rules,
    memo: SweepMemo,
    weight: int,
    stats: dict,
    sub_reports: dict,
) -> dict:
    """The rows of rules, and the sub rules that stats tallies, on inst,
    each counted weight times: inst stands for its labeled orbit of that
    size.  The details of a per-table rule are decided once per table and
    named with each class that has them.  stats holds a tally (rule id ->
    RuleStats) for each rule to evaluate, and is returned.  sub_reports is
    the sub phase's memo for inst's table."""
    comp = memo.comparison(inst)
    ctx = _context(inst, comp)
    pv = ctx.pv
    for rule in rules:
        s = stats[rule.id]
        for h in rule.hypotheses:
            if not pv[h]:
                s.vacuous += weight
                break
        else:
            s.applied += weight
            if rule.per_table:
                details = derived(inst.algebra, rule.check)
            else:
                details = rule.check(ctx)
            if details:
                s.violations.extend(f"{_where(inst, weight)} :: {d}" for d in details)
    if not stats.keys().isdisjoint(SUB_RULE_IDS):
        _evaluate_sub_rules(inst, comp, pv, stats, memo, weight, sub_reports)
    return stats


def _tally(stats, rule_id, verdict, weight, violations) -> None:
    """Count one evaluation of a rule weight times, if stats tallies it:
    vacuous when verdict is None, applied otherwise, with the violation
    lines added when verdict is false."""
    s = stats.get(rule_id)
    if s is None:
        return
    if verdict is None:
        s.vacuous += weight
        return
    s.applied += weight
    if not verdict:
        s.violations.extend(violations)


def _sub_report(inst: tsl.TopologizedSemigroup, s: int, sub_alg, memo: SweepMemo):
    """What the sub rules read of the subsemigroup s of inst under the
    subspace topology: its weak_circ, weak_bullet and i_weak flags, and the
    minimal neighbourhoods of its zar topology on the points of inst."""
    sub = tsl.TopologizedSemigroup(sub_alg, topo.subspace(inst.topology, s))
    sub_comp = memo.comparison(sub)
    elems = tuple(bits(s))
    zar = tuple(mask_of(elems[i] for i in bits(m)) for m in sub_comp.bundle.zar.minimal)
    return sub_comp.weak_circ, sub_comp.weak_bullet, sub_comp.i_weak, zar


# the violation line of each of SUB_RULE_IDS, for a subsemigroup s
_SUB_LINES = ("subsemigroup {:#x} loses the property",) * 3 + (
    "zar of subsemigroup {:#x} is not the trace",
)


def _evaluate_sub_rules(inst, comp, pv, stats, memo, weight, reports) -> None:
    """SUB_RULE_IDS over every nonempty subsemigroup s of inst, counted
    weight times each.  The raw trace (M_x & s for x in s) fixes the
    subspace on s, and s itself, the union of its entries, so reports, the
    memo of inst's table, keeps the _sub_report of each trace, and the
    subspace is built only on a miss.  The zar rule compares the minimal
    neighbourhoods of the subspace's zar with the trace of inst's zar on s."""
    subs = derived(inst.algebra, sub_algebras)
    minimal, zar = inst.topology.minimal, comp.bundle.zar.minimal
    applies = (comp.weak_circ, comp.weak_bullet, comp.i_weak, pv["subtopological"])
    failed = ([], [], [], [])
    for s, sub_alg in subs:
        elems = bits(s)
        trace = tuple(minimal[x] & s for x in elems)
        report = reports.get(trace)
        if report is None:
            report = reports[trace] = _sub_report(inst, s, sub_alg, memo)
        *inherited, sub_zar = report
        for lost, applied, holds in zip(failed, applies, inherited):
            if applied and not holds:
                lost.append(s)
        if applies[3] and sub_zar != tuple(zar[x] & s for x in elems):
            failed[3].append(s)
    count = weight * len(subs)
    for rule_id, applied, lost, line in zip(SUB_RULE_IDS, applies, failed, _SUB_LINES):
        lines = [f"{_where(inst, weight)} :: {line.format(s)}" for s in lost]
        _tally(stats, rule_id, not lost if applied else None, count, lines)


# the clause each of HOM_RULE_IDS audits, as the audit's details end
_CLAUSES = ("continuity", "openness", "closedness", "embedding")
# the violation line of each of PRODUCT_RULE_IDS
_PRODUCT_LINES = ("product loses the property",) * 3 + ("zar/weak do not factorize",)


def _hom_phase(classes, stats, memo) -> None:
    """Every continuous hom between two class representatives counts w_a*w_b
    times: each labeled hom between members of the two orbits is conjugate
    to exactly one hom between the representatives."""
    derived3 = [
        (b.law, b.zar, b.weak) for b in (memo.comparison(x).bundle for x, _ in classes)
    ]
    subtop = [tsl.continuity_profile(x).subtopological for x, _ in classes]
    for (ia, (a, wa)), (ib, (b, wb)) in itertools.product(enumerate(classes), repeat=2):
        for mapping in itertools.product(range(b.n), repeat=a.n):
            if not is_homomorphism(a.algebra, b.algebra, mapping):
                continue
            if not tsl.is_continuous(a.topology, b.topology, mapping):
                continue
            audit = _audit_hom(a, b, derived3[ia], derived3[ib], mapping, subtop[ib])
            # the audit's first four fields are the verdicts of HOM_RULE_IDS
            for rule_id, verdict, clause in zip(HOM_RULE_IDS, audit, _CLAUSES):
                lines = []
                if verdict is False:
                    where = (
                        f"hom {mapping} from [{_describe(a)} orbit={wa}] "
                        f"to [{_describe(b)} orbit={wb}]"
                    )
                    lines = [f"{where} :: {d}" for d in audit.details if d.endswith(clause)]
                _tally(stats, rule_id, verdict, wa * wb, lines)


def _product_phase(classes, stats, memo) -> None:
    """Every unordered pair of class representatives, the same one twice
    included.  Any product of members of two orbits is isomorphic to the
    representatives' product, so a pair of two classes counts w_a*w_b times
    and a class with itself w*(w+1)/2 times, as many as the unordered
    labeled pairs.  Each product table gets one algebra object, on which its
    order data is derived (core.derived) once."""
    comps = [memo.comparison(x) for x, _ in classes]
    factors_ok = [_factors_hypothesis(x) for x, _ in classes]
    algebras: dict = {}
    for (ia, (a, wa)), (ib, (b, wb)) in itertools.combinations_with_replacement(
        enumerate(classes), 2
    ):
        p = product_instance(a, b)
        alg = algebras.setdefault(p.algebra, p.algebra)
        comp_p = memo.comparison(tsl.TopologizedSemigroup(alg, p.topology))
        ok = factors_ok[ia] and factors_ok[ib]
        audit = _audit_product(comps[ia], comps[ib], comp_p, ok)
        weight = wa * (wa + 1) // 2 if ia == ib else wa * wb
        # the audit's fields are the verdicts of PRODUCT_RULE_IDS
        for rule_id, verdict, lost in zip(PRODUCT_RULE_IDS, audit, _PRODUCT_LINES):
            lines = []
            if verdict is False:
                where = f"product of [{_describe(a)} orbit={wa}] and [{_describe(b)} orbit={wb}]"
                lines = [f"{where} :: {lost}"]
            _tally(stats, rule_id, verdict, weight, lines)


def _main_phase(classes, n_max: int, stats, memo) -> None:
    """Fifteen-way equivalence on finite discrete instances, which are
    exactly the compact Hausdorff ones, with n <= max(n_max, 4).  Every
    permutation fixes the discrete topology, so each semilattice class
    counts n!/|Aut(S)| times: for n <= n_max, its discrete class among
    classes has that weight."""
    disc = {n: topo.discrete(n) for n in range(1, max(n_max, 4) + 1)}
    reps = [(x, weight) for x, weight in classes if x.topology == disc[x.n]]
    for n in range(n_max + 1, 5):
        reps += [
            (tsl.TopologizedSemigroup(sl, disc[n]), math.factorial(n) // len(aut))
            for sl, aut in semilattice_classes(n)
        ]
    for inst, weight in reps:
        details = MAIN_RULE.check(_context(inst, memo.comparison(inst)))
        lines = [f"{_where(inst, weight)} :: {d}" for d in details]
        _tally(stats, MAIN_RULE_ID, not details, weight, lines)


def sweep(
    n_max: int,
    rule_ids=None,
    threads: int = 1,
) -> SweepReport:
    """Evaluate every rule over all topology x semilattice pairings up to
    n_max, plus the cross-instance phases.  rule_ids (all by default) is
    resolved here, once, into a tally per rule and the selected rows of
    PER_INSTANCE_RULES; a phase runs only if it has a tally to add to.

    Every property and rule is invariant under relabeling the carrier, so
    the per-instance loop and the main phase evaluate one instance per
    isomorphism class and count it as many times as its labeled orbit has
    members; applied/vacuous counts and instances_checked are those of the
    labeled sweep.  The hom and product phases pair the classes with n <= 2
    the same way, weighted as _hom_phase and _product_phase say.  The loop
    runs on the calling thread at every thread count: threads is checked
    (1..THREADS_MAX) and changes nothing else.  Each comparison report is
    computed once per distinct instance (SweepMemo) and each order quantity
    once per algebra object; nothing is kept after the call returns."""
    if not 1 <= n_max <= SWEEP_MAX:
        raise ValueError(f"sweep supports n_max in 1..{SWEEP_MAX}, got {n_max}")
    if threads < 1:
        raise ValueError("threads must be positive")
    if threads > THREADS_MAX:
        raise ValueError(f"threads must be at most {THREADS_MAX}, got {threads}")
    selected = frozenset(ALL_RULE_IDS if rule_ids is None else rule_ids)
    unknown = selected.difference(ALL_RULE_IDS)
    if unknown:
        raise ValueError(f"unknown rule ids: {sorted(unknown)}")
    # a tally for each selected rule: every phase adds only to these
    stats = {rule_id: RuleStats() for rule_id in sorted(selected)}
    rules = [r for r in PER_INSTANCE_RULES if r.id in stats]
    classes = instance_classes(n_max)
    memo = SweepMemo()
    # the phases first, so that the loop finds the reports they computed
    small = [(x, weight) for x, weight in classes if x.n <= 2]
    if not stats.keys().isdisjoint(HOM_RULE_IDS):
        _hom_phase(small, stats, memo)
    if not stats.keys().isdisjoint(PRODUCT_RULE_IDS):
        _product_phase(small, stats, memo)
    if MAIN_RULE_ID in stats:
        _main_phase(classes, n_max, stats, memo)
    if rules or not stats.keys().isdisjoint(SUB_RULE_IDS):
        table, sub_reports = None, {}
        for inst, weight in classes:
            # drop a table's sub reports on moving on to the next table
            if inst.algebra != table:
                table, sub_reports = inst.algebra, {}
            _evaluate_instance(inst, rules, memo, weight, stats, sub_reports)
            if inst.n == n_max:
                # its own sub phase, through the whole carrier, read the
                # report last: sub-instances are smaller, the phases done
                del memo.comparisons[inst]
    return SweepReport(n_max, sum(weight for _, weight in classes), stats)


# ---------------------------------------------------------------------------
# counterexample search


class CounterexampleRecord(NamedTuple):
    query: dict
    document: dict
    properties: dict
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
    """First class (in sweep order) satisfying every `satisfy` property and
    violating `violate`, or None if the classes up to n_max are exhausted.
    Each representative is the first labeled member of its class and its own
    canonical form, so this is the first labeled answer too
    (oracles.search_by_labeled_instances).  "semilattice" always holds."""
    satisfy = tuple(satisfy)
    if not 1 <= n_max <= SWEEP_MAX:
        raise ValueError(f"search supports n_max in 1..{SWEEP_MAX}, got {n_max}")
    _validate_property_names(satisfy + (violate,))
    if violate in SEARCH_PSEUDO_PROPERTIES:
        return None
    for inst, _ in instance_classes(n_max):
        pv = props.property_vector(inst).as_dict()
        for p in SEARCH_PSEUDO_PROPERTIES:
            pv[p] = True
        if all(pv[p] for p in satisfy) and not pv[violate]:
            record = CounterexampleRecord(
                query={"satisfy": list(satisfy), "violate": violate, "n_max": n_max},
                document=instance_document(inst),
                properties={k: v for k, v in sorted(pv.items())},
                canonical_hash=canonical_hash(inst),
            )
            if catalog is not None:
                _append_record(catalog, record)
            return record
    return None


def _append_record(path: str, record: CounterexampleRecord) -> None:
    with open(path, "a", encoding="ascii") as fh:
        fh.write(json.dumps(record._asdict(), sort_keys=True) + "\n")


def load_catalog(path: str) -> list[CounterexampleRecord]:
    out = []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            raw = json.loads(line)
            raw.pop("discovered_at", None)  # written by older versions
            out.append(CounterexampleRecord(**raw))
    return out
