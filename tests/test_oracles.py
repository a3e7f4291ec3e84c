"""Each fast path decided from minimal neighbourhoods against its literal
route in topsl.oracles, and a guard that the package never calls them."""

import ast
import functools
import itertools
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import topsl
from topsl import oracles, props, topo, tsl, verify, weak
from topsl.core import (
    FiniteSemigroup,
    bits,
    full_mask,
    is_shift_homomorphic,
    subsets,
    verify_semigroup,
)

from helpers import large_instances


def _pairs(comp):
    tops = list(comp.bundle.as_dict().values())
    return itertools.product(tops, repeat=2)


def _separation(x, comp):
    for top in comp.bundle.as_dict().values():
        assert topo.separation_profile(top) == oracles.separation_profile_by_scan(top)


def _discrete_group_by_scans(x, comp) -> dict:
    """The fields props.property_vector reads as tau's discreteness, besides
    t1, t2 and discrete, each by its literal route."""
    b, tau = comp.bundle, x.topology
    return {
        "law_hausdorff": oracles.separation_profile_by_scan(b.law).t2,
        "zar_hausdorff": oracles.separation_profile_by_scan(b.zar).t2,
        "weak_hausdorff": oracles.separation_profile_by_scan(b.weak).t2,
        "law_tau_separated": oracles.two_topology_separated_by_scan(tau, b.law),
        "zar_tau_separated": oracles.two_topology_separated_by_scan(tau, b.zar),
        "i_separated": oracles.i_separated_by_cuts(x, oracles.multiplicative_cuts_by_scan(x)),
        "updown_closed": oracles.order_profile_by_scan(x).updown_closed,
    }


def _discrete_group(x, comp):
    disc = topo.separation_profile(x.topology).discrete
    literal = _discrete_group_by_scans(x, comp)
    assert literal == dict.fromkeys(literal, disc)
    pv = props.property_vector(x, comp).as_dict()
    assert {f: pv[f] for f in literal} == literal


def _joint_continuity(x, comp):
    for top in comp.bundle.as_dict().values():
        y = x.with_topology(top)
        joint = oracles.joint_continuity_by_minimal(y)
        assert joint == tsl.translations_continuous(y) == tsl.continuity_profile(y).topological


def _uvw(x, comp):
    assert props.uvw_profile(x) == oracles.uvw_profile_by_scan(x)


def _upper_covers(x, comp):
    interiors = oracles.upper_interiors(x)
    assert props.upper_covers(x) == [
        sum(1 << v for v, inner in enumerate(interiors) if inner >> p & 1)
        for p in range(x.n)
    ]


def _is_continuous(x, comp):
    t, n = x.algebra.table, x.n
    maps = [t[a] for a in range(n)] + [tuple(reversed(range(n))), (0,) * n]
    for (src, tgt), mapping in itertools.product(_pairs(comp), maps):
        assert tsl.is_continuous(src, tgt, mapping) == oracles.is_continuous_by_preimages(
            src, tgt, mapping
        )


def _translations(x, comp):
    for top in comp.bundle.as_dict().values():
        y = x.with_topology(top)
        assert tsl.translations_continuous(y) == oracles.translations_continuous_by_preimages(y)


def _subtopological(x, comp):
    for top in comp.bundle.as_dict().values():
        y = x.with_topology(top)
        assert tsl.continuity_profile(y).subtopological == oracles.subtopological_by_scan(y)


def _cuts(x, comp):
    assert weak.multiplicative_cuts(x) == oracles.multiplicative_cuts_by_scan(x)


def _family_within(x, comp):
    for a, b in _pairs(comp):
        assert weak.family_within(a, b) == oracles.family_within_by_opens(a, b)
    tops = list(comp.bundle.as_dict().values())
    assert comp.inclusion == tuple(
        tuple(oracles.family_within_by_opens(a, b) for b in tops) for a in tops
    )


FAST_PATHS = {
    "separation_profile": _separation,
    "discrete_group": _discrete_group,
    "joint_continuity": _joint_continuity,
    "uvw_profile": _uvw,
    "upper_covers": _upper_covers,
    "is_continuous": _is_continuous,
    "translations_continuous": _translations,
    "subtopological": _subtopological,
    "multiplicative_cuts": _cuts,
    "family_within": _family_within,
}


@functools.cache
def _exhaustive_cases():
    """Every instance with n <= 3 and the 76 discrete 4-point ones, each
    with its comparison report."""
    discrete4 = [
        tsl.TopologizedSemigroup(sl, topo.discrete(4))
        for sl in verify.enumerate_semilattices(4)
    ]
    return [(x, weak.topology_comparison(x)) for x in verify.universe(3) + discrete4]


@functools.cache
def _semilattices(n):
    return verify.enumerate_semilattices(n)


@st.composite
def instances(draw, n=None):
    """A semilattice with n points (by default 1 to 5) and the topology
    generated by a random subbase (every topology is generated by its own
    opens)."""
    if n is None:
        n = draw(st.integers(1, 5))
    sl = draw(st.sampled_from(_semilattices(n)))
    subbase = draw(st.lists(st.integers(0, full_mask(n)), max_size=6))
    return tsl.TopologizedSemigroup(sl, topo.generate_topology(n, subbase))


@pytest.mark.parametrize("name", sorted(FAST_PATHS))
def test_fast_path_matches_oracle(name):
    cases = _exhaustive_cases()
    assert len(cases) == 270 + 76
    for x, comp in cases:
        FAST_PATHS[name](x, comp)


@pytest.mark.parametrize("name", sorted(FAST_PATHS))
@settings(max_examples=30, deadline=None)
@given(x=instances())
def test_fast_path_matches_oracle_on_random_instances(name, x):
    FAST_PATHS[name](x, weak.topology_comparison(x))


@pytest.mark.parametrize("name", sorted(FAST_PATHS))
@settings(max_examples=30, deadline=None)
@given(x=large_instances())
def test_fast_path_matches_oracle_past_enum_max(name, x):
    # n = 6..8, which no enumeration reaches
    FAST_PATHS[name](x, weak.topology_comparison(x))


@pytest.mark.skipif(
    os.environ.get("TOPSL_LARGE") != "1", reason="opt-in: set TOPSL_LARGE=1 (under a minute)"
)
@settings(max_examples=12, deadline=None)
@given(x=large_instances(9, 10))
def test_fast_paths_match_oracles_up_to_cli_max(x):
    # n = 9..10, up to cli.CLI_MAX; the oracles take seconds per instance
    comp = weak.topology_comparison(x)
    for check in FAST_PATHS.values():
        check(x, comp)


def _bottom_atoms(alg) -> int:
    """The number of atoms: the points whose only lower bounds are
    themselves and the bottom."""
    t, rng = alg.table, range(alg.n)
    bottom = functools.reduce(lambda a, b: t[a][b], rng)
    return sum(y != bottom and all(t[z][y] in (y, bottom) for z in rng) for y in rng)


def test_large_draws_reach_a_bottom_with_five_atoms():
    # the atoms of an intersection-closed family are disjoint beyond its
    # bottom, so k atoms need k points; the draws use hi - 1, enough for all
    atoms = []

    @settings(max_examples=60, database=None, derandomize=True)
    @given(x=large_instances(9, 10))
    def draw(x):
        atoms.append(_bottom_atoms(x.algebra))

    draw()
    assert max(atoms) >= 5


def _semigroups(n_max):
    """Every semigroup table with at most n_max points."""
    for n in range(1, n_max + 1):
        for flat in itertools.product(range(n), repeat=n * n):
            table = tuple(flat[i * n : (i + 1) * n] for i in range(n))
            if not verify_semigroup(table):
                yield FiniteSemigroup(n, table)


def test_finite_collapses_on_every_class_up_to_four_points():
    """The collapses props.property_vector reads, each by its literal route
    on every isomorphism class with n <= 4: seven fields hold everywhere,
    ten equal discreteness, and joint continuity equals separate
    continuity.  The last needs no semilattice laws, so it is checked on
    every semigroup with n <= 2 under every topology too."""
    classes = [x for x, _ in verify.instance_classes(4)]
    assert len(classes) == 1255
    discrete = 0
    for x in classes:
        order = oracles.order_profile_by_scan(x)
        assert oracles.uvw_profile_by_scan(x).is_w
        assert oracles.is_meet_continuous_by_scan(x.algebra)
        assert is_shift_homomorphic(x.algebra)
        assert oracles.zar_compact_centered_by_scan(x)
        assert order.complete and order.chain_compact and order.down_chain_compact
        sep = oracles.separation_profile_by_scan(x.topology)
        literal = _discrete_group_by_scans(x, weak.topology_comparison(x))
        assert literal == dict.fromkeys(literal, sep.discrete)
        assert sep.t1 == sep.t2 == sep.discrete
        joint = oracles.joint_continuity_via_product(x)
        assert joint == oracles.translations_continuous_by_preimages(x)
        discrete += sep.discrete
    assert discrete == 1 + 1 + 2 + 5  # one per semilattice class
    small = [
        tsl.TopologizedSemigroup(alg, top)
        for alg in _semigroups(2)
        for top in verify.enumerate_topologies(alg.n)
    ]
    assert len(small) == 1 + 8 * 4
    for x in small:
        joint = oracles.joint_continuity_via_product(x)
        assert joint == oracles.translations_continuous_by_preimages(x)


SMALL_TOPOLOGIES = [t for n in (1, 2) for t in verify.enumerate_topologies(n)]


def _generated(x):
    subs = tsl.subsemigroups(x.algebra)
    assert topo.generate_topology(x.n, subs).opens == oracles.saturate_family(x.n, subs)


def _subspace(x):
    for s in range(1, 1 << x.n):
        assert topo.subspace(x.topology, s) == oracles.subspace_by_traces(x.topology, s)


def _product(x):
    for other in SMALL_TOPOLOGIES:
        assert topo.product(x.topology, other) == oracles.product_by_union_closure(
            x.topology, other
        )


def _law(x):
    assert weak.law_topology(x) == oracles.law_topology_by_opens(x)


def _cuts_by_opens(x):
    assert weak.multiplicative_cuts(x) == oracles.multiplicative_cuts_by_opens(x)


def _canonical(x):
    top, n = x.topology, x.n
    again = topo.canonical(n, reversed(top.opens))
    assert again == top and hash(again) == hash(top)
    # drop each open, and add each subset: a topology exactly when the
    # family is closed under pairwise union and intersection
    families = [set(top.opens) - {u} for u in top.opens]
    families += [set(top.opens) | {s} for s in subsets(n)]
    for fam in families:
        closed = oracles.saturate_family(n, fam) == tuple(sorted(fam))
        try:
            assert topo.canonical(n, fam).opens == tuple(sorted(fam))
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == closed, sorted(fam)


REPRESENTATION_ROUTES = {
    "generate_topology": _generated,
    "subspace": _subspace,
    "product": _product,
    "law_topology": _law,
    "multiplicative_cuts": _cuts_by_opens,
    "canonical": _canonical,
}


@pytest.mark.parametrize("name", sorted(REPRESENTATION_ROUTES))
def test_minimal_route_matches_opens_route(name):
    """Each route that works from the minimal neighbourhoods against the
    route over open sets that it replaced, on every instance with n <= 3
    and on every isomorphism class with n <= 4."""
    cases = verify.universe(3) + [x for x, _ in verify.instance_classes(4)]
    assert len(cases) == 270 + 1255
    for x in cases:
        REPRESENTATION_ROUTES[name](x)


@pytest.mark.parametrize("name", sorted(REPRESENTATION_ROUTES))
@settings(max_examples=25, deadline=None)
@given(x=instances(n=5))
def test_minimal_route_matches_opens_route_on_five_points(name, x):
    REPRESENTATION_ROUTES[name](x)


def test_equal_topologies_have_equal_opens():
    tops = [t for n in (1, 2, 3) for t in verify.enumerate_topologies(n)]
    for a, b in itertools.product(tops, repeat=2):
        assert (a == b) == (a.n == b.n and a.opens == b.opens)
        if a == b:
            assert hash(a) == hash(b)


def test_enumeration_order_matches_subset_filter():
    # the open sets of a preorder's topology are its up-sets
    for n in (1, 2, 3, 4):
        expected = sorted(
            tuple(u for u in subsets(n) if all(rows[x] & ~u == 0 for x in bits(u)))
            for rows in verify._enumerate_reflexive_transitive(n, False)
        )
        assert [t.opens for t in verify.enumerate_topologies(n)] == expected


def test_backtracking_enumeration_matches_product_filter():
    counts = {}
    for n in (1, 2, 3, 4, 5):
        for antisymmetric in (True, False):
            rows = list(verify._enumerate_reflexive_transitive(n, antisymmetric))
            by_product = oracles.reflexive_transitive_by_product(n, antisymmetric)
            assert rows == list(by_product)
            counts[n, antisymmetric] = len(rows)
    assert counts[5, False] == 6942  # topologies
    assert counts[5, True] == 4231  # partial orders


@functools.cache
def _witness_cases():
    """Every instance with n <= 3 and every isomorphism class with n = 4."""
    return verify.universe(3) + [x for x, _ in verify.instance_classes(4) if x.n == 4]


def test_law_hausdorff_witness_matches_opens_route():
    cases = _witness_cases()
    assert len(cases) == 270 + 1203
    for x in cases:
        for a, b in itertools.permutations(range(x.n), 2):
            assert props.law_hausdorff_witness(
                x, a, b
            ) == oracles.law_hausdorff_witness_by_opens(x, a, b)


def test_main_conditions_match_literal_routes():
    """The main row's fifteen conditions (verify.MAIN_RULE), read off the
    property vector and CONDITIONS, against each condition's literal route.
    The instances are not only the discrete ones, on which all fifteen
    hold, so a misread field shows."""
    disagreeing = 0
    for x in _witness_cases():
        comp = weak.topology_comparison(x)
        b = comp.bundle
        law, zar, wk, lawson = (
            oracles.separation_profile_by_scan(t).t2
            for t in (b.law, b.zar, b.weak, b.lawson)
        )
        uvw = oracles.uvw_profile_by_scan(x)
        literal = (
            comp.i_weak,
            comp.weak_circ,
            comp.weak_bullet,
            b.weak == b.lawson,
            oracles.family_within_by_opens(b.lawson, b.law),
            law,
            zar,
            wk,
            lawson,
            oracles.two_topology_separated_by_scan(x.topology, b.law),
            oracles.two_topology_separated_by_scan(x.topology, b.zar),
            oracles.i_separated_by_cuts(x, oracles.multiplicative_cuts_by_scan(x)),
            uvw.is_w,
            uvw.is_u,
            uvw.is_v,
        )
        ctx = verify._context(x, comp)
        values = tuple(
            verify.CONDITIONS[c](ctx) if c in verify.CONDITIONS else ctx.pv[c]
            for c in verify.MAIN_RULE.agree
        )
        assert values == literal, verify._describe(x)
        disagreeing += len(set(literal)) > 1
    assert disagreeing > 0


def test_zar_hausdorff_witness_matches_combination_search():
    found = {True: 0, False: 0}
    for x in _witness_cases():
        for a, b in itertools.permutations(range(x.n), 2):
            witness = props.zar_hausdorff_witness(x, a, b)
            assert witness == oracles.zar_hausdorff_witness_by_combinations(x, a, b)
            found[witness is None] += 1
    assert found[True] and found[False]


def _non_commutative_semigroups(n_max):
    return [alg for alg in _semigroups(n_max) if not alg.is_commutative]


def test_continuity_fast_paths_on_non_commutative_semigroups():
    # left and right translations differ here
    algebras = _non_commutative_semigroups(3)
    assert len(algebras) == 2 + 50
    for alg in algebras:
        for top in verify.enumerate_topologies(alg.n):
            x = tsl.TopologizedSemigroup(alg, top)
            assert tsl.translations_continuous(
                x
            ) == oracles.translations_continuous_by_preimages(x)
            assert tsl.continuity_profile(x).subtopological == oracles.subtopological_by_scan(x)


def _zero_band(n, side):
    """x*y = x (left) or x*y = y (right) on n points."""
    pick = (lambda x, y: x) if side == "left" else (lambda x, y: y)
    return FiniteSemigroup.from_rows([[pick(x, y) for y in range(n)] for x in range(n)])


def _with_identity(alg):
    """alg with a new point n that is an identity."""
    n = alg.n
    rows = [list(row) + [x] for x, row in enumerate(alg.table)]
    return FiniteSemigroup.from_rows(rows + [list(range(n + 1))])


def _cyclic_group(n):
    return FiniteSemigroup.from_rows([[(x + y) % n for y in range(n)] for x in range(n)])


def test_translations_shortcut_is_taken_only_on_commutative_tables():
    # bands whose left and right translations differ: the left- and
    # right-zero bands, and the same with an identity adjoined, on which
    # the left translations alone would misjudge some topologies
    bands = [_zero_band(n, side) for n in (2, 3) for side in ("left", "right")]
    bands += [_with_identity(alg) for alg in bands]
    misjudged = 0
    for alg in bands:
        assert alg.is_band and not alg.is_commutative
        for top in verify.enumerate_topologies(alg.n):
            x = tsl.TopologizedSemigroup(alg, top)
            expected = oracles.translations_continuous_by_preimages(x)
            assert tsl.translations_continuous(x) == expected
            left = all(tsl.is_continuous(top, top, row) for row in alg.table)
            misjudged += left != expected
    assert misjudged
    # commutative tables that are not semilattices take the shortcut too
    for alg in (_cyclic_group(2), _cyclic_group(3), _with_identity(_cyclic_group(3))):
        assert alg.is_commutative and not alg.is_semilattice
        for top in verify.enumerate_topologies(alg.n):
            x = tsl.TopologizedSemigroup(alg, top)
            assert tsl.translations_continuous(x) == oracles.translations_continuous_by_preimages(x)
    for x in verify.universe(3):
        assert tsl.translations_continuous(x) == oracles.translations_continuous_by_preimages(x)


def test_is_continuous_matches_preimages_on_all_small_maps():
    for n in (1, 2, 3):
        tops = verify.enumerate_topologies(n)
        for src, tgt in itertools.product(tops, repeat=2):
            for mapping in itertools.product(range(n), repeat=n):
                assert tsl.is_continuous(
                    src, tgt, mapping
                ) == oracles.is_continuous_by_preimages(src, tgt, mapping)


def test_hom_audits_match_literal_routes_on_small_classes():
    """Every homomorphism between the 52 classes with n <= 3, under each of
    tau, law, zar and weak on both ends: open, closed and embedding decided
    from minimal neighbourhoods against the scans of every open set."""
    classes = [x for x, _ in verify.instance_classes(3)]
    bundles = {x: weak.topology_comparison(x).bundle for x in classes}
    cases = 0
    for a, b in itertools.product(classes, repeat=2):
        for mapping in itertools.product(range(b.n), repeat=a.n):
            if not tsl.is_homomorphism(a.algebra, b.algebra, mapping):
                continue
            for kind in ("tau", "law", "zar", "weak"):
                args = (getattr(bundles[a], kind), getattr(bundles[b], kind), mapping)
                assert verify._is_open_map(*args) == oracles.open_map_by_opens(*args)
                closed = oracles.closed_map_by_closed_sets(*args)
                assert verify._is_closed_map(*args) == closed
                assert verify._is_embedding(*args) == oracles.embedding_by_traces(*args)
                cases += 1
    assert cases == 86_940


def test_shift_identities_and_shared_discrete_topology():
    for x, comp in _exhaustive_cases():
        # the property vector fixes shift_homomorphic to true on semilattices
        pv = props.property_vector(x, comp)
        assert pv.shift_homomorphic == is_shift_homomorphic(x.algebra)
        assert comp.bundle.lawson is comp.bundle.interval


def _imported_modules(tree):
    """Names of the topsl modules a module imports, relative or absolute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative, from within the topsl package
                base = "topsl" + (f".{node.module}" if node.module else "")
            else:
                base = node.module
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def test_package_never_imports_oracles():
    src = pathlib.Path(props.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert {p.name for p in modules} >= {"oracles.py", "props.py", "cli.py"}
    for path in modules:
        if path.name == "oracles.py":
            continue
        imported = _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        assert "topsl.oracles" not in imported, f"{path.name} imports topsl.oracles"


# modules that import topsl must not load: each would add to every cold
# start of the CLI (hashlib is imported inside canonical_hash, on purpose)
UNLOADED_BY_IMPORT = (
    "hashlib",
    "dataclasses",
    "inspect",
    "subprocess",
    "concurrent.futures",
    "multiprocessing",
    "topsl.oracles",
)


def test_import_topsl_loads_no_costly_module():
    src = str(pathlib.Path(topsl.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "import topsl\n"
        "print(' '.join(sys.modules))\n"
    )
    run = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    loaded = set(run.stdout.split())
    assert "topsl.verify" in loaded and "topsl.cli" in loaded
    assert loaded.isdisjoint(UNLOADED_BY_IMPORT), loaded & set(UNLOADED_BY_IMPORT)


# defined in the package but never named by it, each for its reason
UNNAMED_ALLOWED = {
    "error": "argparse calls _Parser.error",
    "from_rows": "public constructor of FiniteSemigroup",
    "load_catalog": "public reader of the catalogs that search writes",
    "universe": "the benchmark's tracer names verify.universe",
}


def test_package_defines_no_function_only_tests_use():
    """Every function and method of the package outside oracles.py is named
    somewhere in it or exported in topsl.__all__; dunder methods are called
    by Python itself."""
    src = pathlib.Path(props.__file__).parent
    named, defined = set(topsl.__all__), set()
    for path in src.glob("*.py"):
        if path.name == "oracles.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
    unnamed = {
        f for f in defined - named if not (f.startswith("__") and f.endswith("__"))
    }
    assert unnamed == set(UNNAMED_ALLOWED)


def test_import_guard_sees_every_import_form():
    for line in (
        "from . import oracles",
        "from .oracles import upper_set_topology",
        "from topsl import oracles",
        "from topsl.oracles import upper_set_topology",
        "import topsl.oracles",
        "from . import topo, oracles as o",
    ):
        assert "topsl.oracles" in _imported_modules(ast.parse(line)), line
    assert "topsl.oracles" not in _imported_modules(ast.parse("from . import topo"))
