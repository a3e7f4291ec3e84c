"""Hypothesis strategies shared by the test modules."""

from hypothesis import assume
from hypothesis import strategies as st

from topsl import topo, tsl
from topsl.core import FiniteSemilattice, mask_of


def _meet_closure(family):
    family = set(family)
    while True:
        new = {a & b for a in family for b in family} - family
        if not new:
            return family
        family |= new


@st.composite
def large_instances(draw, lo=6, hi=8):
    """A semilattice with lo to hi points (by default 6 to 8, past
    verify.ENUM_MAX), and the topology generated by a random subbase.
    Every finite semilattice is a family of sets closed under intersection
    (x maps to its down-set less the bottom, within hi - 1 points), so the
    family grows by drawn subsets of an (hi - 1)-point set, each kept if
    the family stays within hi members, and is then indexed in a drawn
    order.  About half the subsets have at most 3 points, so that a bottom
    with many atoms is drawn too."""
    n = draw(st.integers(lo, hi))
    family = set()
    points = st.integers(0, hi - 2)
    subset = st.one_of(st.sets(points, max_size=3), st.sets(points))
    for u in draw(st.lists(subset.map(mask_of), min_size=16, max_size=16)):
        if len(family) >= n:
            break
        grown = _meet_closure(family | {u})
        if len(grown) <= hi:
            family = grown
    assume(lo <= len(family))
    n = len(family)
    members = draw(st.permutations(sorted(family)))
    index = {u: i for i, u in enumerate(members)}
    table = [[index[a & b] for b in members] for a in members]
    subbase = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    return tsl.TopologizedSemigroup(
        FiniteSemilattice(n, table), topo.generate_topology(n, subbase)
    )
