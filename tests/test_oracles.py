"""Each fast path decided from minimal neighbourhoods against its literal
route in topsl.oracles, and a guard that the package never calls them."""

import ast
import functools
import itertools
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topsl import oracles, props, topo, tsl, verify, weak
from topsl.core import FiniteSemigroup, full_mask, is_shift_homomorphic, verify_semigroup


def _pairs(comp):
    tops = list(comp.bundle.as_dict().values())
    return itertools.product(tops, repeat=2)


def _separation(x, comp):
    for top in comp.bundle.as_dict().values():
        assert topo.separation_profile(top) == oracles.separation_profile_by_scan(top)


def _two_topology(x, comp):
    for fine, coarse in _pairs(comp):
        assert props._two_topology_separated(
            fine, coarse
        ) == oracles.two_topology_separated_by_scan(fine, coarse)


def _uvw(x, comp):
    assert props.uvw_profile(x) == oracles.uvw_profile_by_scan(x)


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
    "two_topology_separated": _two_topology,
    "uvw_profile": _uvw,
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
def instances(draw):
    """A semilattice with n <= 5 points and the topology generated by a
    random subbase (every topology is generated by its own opens)."""
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


def _non_commutative_semigroups(n_max):
    out = []
    for n in range(1, n_max + 1):
        for flat in itertools.product(range(n), repeat=n * n):
            table = tuple(flat[i * n : (i + 1) * n] for i in range(n))
            if not verify_semigroup(table):
                alg = FiniteSemigroup(n, table)
                if not alg.is_commutative:
                    out.append(alg)
    return out


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


def test_is_continuous_matches_preimages_on_all_small_maps():
    for n in (1, 2, 3):
        tops = verify.enumerate_topologies(n)
        for src, tgt in itertools.product(tops, repeat=2):
            for mapping in itertools.product(range(n), repeat=n):
                assert tsl.is_continuous(
                    src, tgt, mapping
                ) == oracles.is_continuous_by_preimages(src, tgt, mapping)


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
