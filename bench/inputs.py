"""Seeded inputs for the check workloads, generated apart from the program.

Semilattices come from naturally labeled posets (x < y in the order implies
x < y as integers) in which every pair has a greatest lower bound, relabeled
by every permutation.  Topologies come from a closure search that adds one
subset at a time to {empty, full} and keeps families of at most max_opens
open sets; every such topology is reached, because the sublattice generated
by some of its join-irreducible opens is a topology with fewer opens.

A run draws its instances in rounds.  Every round holds the same number of
instances from each stratum of open-set counts, so a seed changes which
instances are checked but not the mix of their sizes.  No (table, opens)
pair is drawn twice in a run.
"""

from __future__ import annotations

import itertools
import json
import random

from reference import members

# Per-round draw, by number of open sets of tau.  check4 follows the share of
# each open count among the 342 four-point topologies with at most 10 opens;
# the 12- and 16-open ones are left out (see the README).  check5 follows the
# share among the five-point topologies with 3 to 5 opens; the indiscrete
# topology is left out, as its 1,065 instances would run out in a long run.
WORKLOADS = {
    "check4": {"n": 4, "max_opens": 10,
               "round": {3: 1, 4: 2, 5: 3, 6: 4, 7: 3, 8: 3, 9: 1, 10: 1}},
    "check5": {"n": 5, "max_opens": 5,
               "round": {3: 2, 4: 11, 5: 27}},
}


def semilattices(n):
    """Every labeled semilattice table on n points, ascending."""
    posets = {()}
    for x in range(n - 1, -1, -1):
        # posets on x..n-1, as tuples of upper-set masks for x..n-1
        grown = set()
        for ups in posets:
            later = {x + 1 + i: u for i, u in enumerate(ups)}
            for r in range(len(later) + 1):
                for above in itertools.combinations(later, r):
                    u = 1 << x
                    for y in above:
                        u |= later[y]
                    grown.add((u,) + ups)
        posets = grown
    tables = set()
    for up in posets:
        down = [sum(1 << y for y in range(n) if up[y] >> x & 1) for x in range(n)]
        table = [[0] * n for _ in range(n)]
        ok = True
        for x, y in itertools.product(range(n), repeat=2):
            lower = down[x] & down[y]
            glb = [m for m in members(lower) if lower & ~down[m] == 0]
            if not glb:
                ok = False
                break
            table[x][y] = glb[0]
        if not ok:
            continue
        for perm in itertools.permutations(range(n)):
            t = [[0] * n for _ in range(n)]
            for x, y in itertools.product(range(n), repeat=2):
                t[perm[x]][perm[y]] = perm[table[x][y]]
            tables.add(tuple(tuple(row) for row in t))
    return sorted(tables)


def topologies(n, max_opens):
    """Every labeled topology on n points with at most max_opens open sets,
    as ascending tuples of open-set masks, ascending."""
    full = (1 << n) - 1
    start = frozenset((0, full))
    seen = {start}
    todo = [start]
    while todo:
        fam = todo.pop()
        for s in range(1, full):
            if s in fam:
                continue
            grown = set(fam) | {s}
            frontier = [s]
            while frontier and len(grown) <= max_opens:
                a = frontier.pop()
                for b in list(grown):
                    for c in (a | b, a & b):
                        if c not in grown:
                            grown.add(c)
                            frontier.append(c)
            if len(grown) > max_opens:
                continue
            grown = frozenset(grown)
            if grown not in seen:
                seen.add(grown)
                todo.append(grown)
    return sorted(tuple(sorted(f)) for f in seen)


class Draw:
    """The seeded stream of distinct instances of one check workload."""

    def __init__(self, workload, seed):
        spec = WORKLOADS[workload]
        self.round_spec = spec["round"]
        self.tables = semilattices(spec["n"])
        strata = {}
        for opens in topologies(spec["n"], spec["max_opens"]):
            strata.setdefault(len(opens), []).append(opens)
        self.strata = strata
        self.rng = random.Random(f"{workload}:{seed}")
        self.seen = set()
        # stop at half of the smallest stratum, so that the rejection draw
        # below stays cheap
        self.rounds_left = min(
            len(self.tables) * len(strata[k]) // (2 * count)
            for k, count in self.round_spec.items()
        )

    def next_round(self):
        """One round of instances in a seeded order, or None once the
        draw has used half of some stratum."""
        if not self.rounds_left:
            return None
        self.rounds_left -= 1
        out = []
        for k, count in sorted(self.round_spec.items()):
            tops = self.strata[k]
            for _ in range(count):
                while True:
                    inst = (self.rng.choice(self.tables), self.rng.choice(tops))
                    if inst not in self.seen:
                        break
                self.seen.add(inst)
                out.append(inst)
        self.rng.shuffle(out)
        return out


def document(table, opens):
    """The instance in the CLI's JSON file format."""
    n = len(table)
    names = [f"e{i}" for i in range(n)]
    return json.dumps({
        "schema_version": 1,
        "elements": names,
        "meet": [[names[v] for v in row] for row in table],
        "opens": [[names[i] for i in members(u)] for u in opens],
    })
