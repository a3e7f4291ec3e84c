"""Reference computations for finite topologized semilattices, written apart
from the program.

A finite topology is held as its minimal neighbourhoods: nbhd[x] is the
smallest open set around x, a bitmask over the carrier 0..n-1.  The open sets
are the unions of minimal neighbourhoods, and a topology generated by a
subbase has nbhd[x] = intersection of the subbase sets that contain x.  Maps
are continuous iff f(M_x) lies in M_f(x) for every x, so joint continuity of
the operation is M_x * M_y within M_xy.

Nothing here imports the program.  The benchmark compares the program's
reports with these results, and the self-test checks the agreement over all
instances with n <= 3.
"""

from __future__ import annotations

import itertools


def members(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def neighbourhoods(n, sets):
    """Smallest open set around each point, in the topology generated by
    sets (a subbase, or every open set)."""
    nbhd = [(1 << n) - 1] * n
    for u in sets:
        for x in members(u):
            nbhd[x] &= u
    return tuple(nbhd)


def opens_of(n, nbhd):
    """Every open set, ascending: the sets holding M_x for each of their x."""
    return [
        u
        for u in range(1 << n)
        if all(nbhd[x] & ~u == 0 for x in members(u))
    ]


def upper_sets(n, table):
    """Upper sets of the natural order x <= y iff xy = x."""
    up = [sum(1 << y for y in range(n) if table[x][y] == x) for x in range(n)]
    return [
        u for u in range(1 << n) if all(up[x] & ~u == 0 for x in members(u))
    ], up


def is_subsemigroup(table, s):
    elems = members(s)
    return all(s >> table[x][y] & 1 for x in elems for y in elems)


def clopen_filters(n, table, nbhd):
    """Clopen filters: open, closed, upward closed and closed under meets."""
    full = (1 << n) - 1
    opens = set(opens_of(n, nbhd))
    _, up = upper_sets(n, table)
    return [
        f
        for f in range(1 << n)
        if f in opens
        and full ^ f in opens
        and all(up[x] & ~f == 0 for x in members(f))
        and is_subsemigroup(table, f)
    ]


def derived(n, table, opens):
    """Minimal neighbourhoods of tau, law, zar and weak."""
    full = (1 << n) - 1
    tau = neighbourhoods(n, opens)
    law = neighbourhoods(n, [u for u in opens if is_subsemigroup(table, u)])
    closed = [full ^ u for u in opens]
    zar = neighbourhoods(n, [full ^ c for c in closed if is_subsemigroup(table, c)])
    filters = clopen_filters(n, table, tau)
    weak = neighbourhoods(n, filters + [full ^ f for f in filters])
    return {"tau": tau, "law": law, "zar": zar, "weak": weak}


def is_discrete(nbhd):
    return all(m == 1 << x for x, m in enumerate(nbhd))


def closure(nbhd, s):
    return sum(1 << x for x, m in enumerate(nbhd) if m & s)


def properties(n, table, opens):
    """The properties that the reference decides, by characterisation.

    A finite space is T1 and T2 exactly when it is discrete; joint and
    separate continuity are read off the minimal neighbourhoods.  The
    finite collapses (directed sets have maxima, chains are finite) make
    meet continuity, completeness and the compactness fields true, and the
    shift identities hold in every semilattice.
    """
    tops = derived(n, table, opens)
    tau = tops["tau"]
    _, up = upper_sets(n, table)
    down = [sum(1 << y for y in range(n) if up[y] >> x & 1) for x in range(n)]
    disc = is_discrete(tau)
    filters = clopen_filters(n, table, tau)
    subs = [s for s in range(1 << n) if is_subsemigroup(table, s)]
    return {
        "t0": len(set(tau)) == n,
        "t1": disc,
        "t2": disc,
        "discrete": disc,
        "topological": all(
            tau[table[x][y]] >> table[a][b] & 1
            for x in range(n)
            for y in range(n)
            for a in members(tau[x])
            for b in members(tau[y])
        ),
        "semitopological": all(
            tau[table[c][x]] >> table[c][b] & 1
            and tau[table[x][c]] >> table[b][c] & 1
            for c in range(n)
            for x in range(n)
            for b in members(tau[x])
        ),
        "subtopological": all(
            is_subsemigroup(table, closure(tau, s)) for s in subs
        ),
        "updown_closed": all(
            closure(tau, up[x]) == up[x] and closure(tau, down[x]) == down[x]
            for x in range(n)
        ),
        "weak_circ": tops["law"] == tau,
        "weak_bullet": tops["zar"] == tau,
        "i_weak": tops["weak"] == tau,
        "law_hausdorff": is_discrete(tops["law"]),
        "zar_hausdorff": is_discrete(tops["zar"]),
        "weak_hausdorff": is_discrete(tops["weak"]),
        "i_separated": all(
            any((f >> x & 1) != (f >> y & 1) for f in filters)
            for x, y in itertools.combinations(range(n), 2)
        ),
        "linear": all(
            table[x][y] in (x, y) for x in range(n) for y in range(n)
        ),
        "shift_homomorphic": True,
        "meet_continuous": True,
        "complete": True,
        "chain_compact": True,
        "down_chain_compact": True,
        "zar_compact_centered": True,
    }, tops


def expected_report(n, table, opens):
    """Reference properties and open-set families of all seven topologies."""
    props, tops = properties(n, table, opens)
    families = {name: opens_of(n, nbhd) for name, nbhd in tops.items()}
    families["scott"], _ = upper_sets(n, table)
    families["lawson"] = families["interval"] = list(range(1 << n))
    return props, families


# ---------------------------------------------------------------------------
# independent counts for n <= 3


def semilattice_tables(n):
    """Every labeled semilattice table, by scanning the symmetric tables with
    an idempotent diagonal for associativity."""
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for values in itertools.product(range(n), repeat=len(pairs)):
        t = [[x if x == y else None for y in range(n)] for x in range(n)]
        for (x, y), v in zip(pairs, values):
            t[x][y] = t[y][x] = v
        if all(
            t[t[x][y]][z] == t[x][t[y][z]]
            for x in range(n)
            for y in range(n)
            for z in range(n)
        ):
            out.append(tuple(tuple(row) for row in t))
    return out


def topology_families(n):
    """Every labeled topology as its ascending open sets, by scanning the
    families of proper nonempty subsets for closure under union and
    intersection."""
    full = (1 << n) - 1
    inner = list(range(1, full))
    out = []
    for pick in range(1 << len(inner)):
        fam = {0, full} | {s for i, s in enumerate(inner) if pick >> i & 1}
        if all(a | b in fam and a & b in fam for a in fam for b in fam):
            out.append(sorted(fam))
    return out
