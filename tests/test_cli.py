import contextlib
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topsl import cli, core, oracles, props, topo, tsl, verify, weak
from topsl.core import FinitePoset, FiniteSemilattice, bits, natural_order

from helpers import large_instances

SIERPINSKI_DOC = {
    "schema_version": 1,
    "elements": ["z", "u"],
    "meet": [["z", "z"], ["z", "u"]],
    "opens": [[], ["u"], ["z", "u"]],
}


def doc_text(**overrides):
    doc = dict(SIERPINSKI_DOC)
    doc.update(overrides)
    return json.dumps(doc)


def test_parse_valid_document():
    inst = cli.parse_instance(doc_text())
    assert inst.n == 2
    assert inst.algebra.is_semilattice
    assert inst.topology.opens == (0, 0b10, 0b11)


def test_round_trip_identity():
    for x in verify.universe(2):
        assert cli.parse_instance(cli.serialize(x)) == x
    text = cli.serialize(cli.parse_instance(doc_text()), ["z", "u"])
    assert cli.parse_instance(text) == cli.parse_instance(doc_text())


def test_parse_errors():
    with pytest.raises(cli.InstanceFormatError, match="missing full set"):
        cli.parse_instance(doc_text(opens=[[], ["u"]]))
    with pytest.raises(cli.InstanceFormatError, match="missing empty set"):
        cli.parse_instance(doc_text(opens=[["u"], ["z", "u"]]))
    with pytest.raises(cli.InstanceFormatError, match="unknown name 'w'"):
        cli.parse_instance(doc_text(opens=[[], ["w"], ["z", "u"]]))
    with pytest.raises(cli.InstanceFormatError, match="unknown name 'w'"):
        cli.parse_instance(doc_text(meet=[["z", "w"], ["z", "u"]]))
    with pytest.raises(cli.InstanceFormatError, match="schema_version"):
        cli.parse_instance(doc_text(schema_version=2))
    # names are strings: a nested array or object is an unknown name, and
    # the schema version is the integer 1, not a bool or float equal to it
    with pytest.raises(cli.InstanceFormatError, match=r"unknown name \['z'\] at table\[0\]\[1\]"):
        cli.parse_instance(doc_text(meet=[["z", ["z"]], ["z", "u"]]))
    with pytest.raises(cli.InstanceFormatError, match=r"unknown name \{'u': 1\} in open set 1"):
        cli.parse_instance(doc_text(opens=[[], [{"u": 1}], ["z", "u"]]))
    for version in (True, 1.0):
        with pytest.raises(cli.InstanceFormatError, match=f"got {version}"):
            cli.parse_instance(doc_text(schema_version=version))
    with pytest.raises(cli.InstanceFormatError, match="not valid JSON"):
        cli.parse_instance("{")
    with pytest.raises(cli.InstanceFormatError, match="distinct"):
        cli.parse_instance(doc_text(elements=["z", "z"]))


def test_parse_names_missing_union():
    doc = {
        "schema_version": 1,
        "elements": ["a", "b", "c"],
        "meet": [["a", "a", "a"], ["a", "b", "a"], ["a", "a", "c"]],
        "opens": [[], ["b"], ["c"], ["a", "b", "c"]],
    }
    with pytest.raises(
        cli.InstanceFormatError, match=r"missing union of \{b\} and \{c\}"
    ):
        cli.parse_instance(json.dumps(doc))


CHAIN4 = ["a", "b", "c", "d"]


@pytest.mark.parametrize(
    "opens, message",
    [
        ([], "missing empty set"),
        ([["a"], CHAIN4], "missing empty set"),
        ([[], ["a"]], "missing full set"),
        ([[], ["b"], ["c"], CHAIN4], "missing union of {b} and {c}: {b, c}"),
        (
            [[], ["a", "b"], ["b", "c"], ["a", "b", "c"], CHAIN4],
            "missing intersection of {a, b} and {b, c}: {b}",
        ),
        ([[], ["a"], ["a"], ["b"], CHAIN4], "missing union of {a} and {b}: {a, b}"),
        # no union and no intersection of {a, b} and {b, c}: the union is
        # named, as it is tested first for each pair
        ([[], ["a", "b"], ["b", "c"], CHAIN4], "missing union of {a, b} and {b, c}: {a, b, c}"),
        # here the first pair in listed order lacks only its intersection,
        # though {a} and {d} lack their union
        (
            [[], CHAIN4, ["a", "b", "c"], ["b", "c", "d"], ["a"], ["d"]],
            "missing intersection of {a, b, c} and {b, c, d}: {b, c}",
        ),
    ],
)
def test_open_set_error_messages(opens, message):
    meet = [[CHAIN4[min(x, y)] for y in range(4)] for x in range(4)]
    doc = {"schema_version": 1, "elements": CHAIN4, "meet": meet, "opens": opens}
    with pytest.raises(cli.InstanceFormatError) as exc:
        cli.parse_instance(json.dumps(doc))
    assert str(exc.value) == message


def test_parse_rejects_bad_algebra():
    doc = {
        "schema_version": 1,
        "elements": ["x", "y"],
        "meet": [["x", "x"], ["y", "y"]],
        "opens": [[], ["x", "y"]],
    }
    with pytest.raises(cli.InstanceFormatError, match="commutative"):
        cli.parse_instance(json.dumps(doc))
    doc["op"] = doc.pop("meet")
    # the same table is a fine (left-zero style) plain semigroup
    inst = cli.parse_instance(json.dumps(doc))
    assert not inst.algebra.is_commutative


def test_export_dot_poset_and_topology():
    chain = natural_order(FiniteSemilattice(2, ((0, 0), (0, 1))))
    assert cli.export_dot(chain, ["z", "u"]) == (
        'digraph order {\n  n0 [label="z"];\n  n1 [label="u"];\n'
        "  n0 -> n1;\n}\n"
    )
    sier = topo.canonical(2, [0, 0b10, 0b11])
    dot = cli.export_dot(sier, ["z", "u"])
    assert dot.count("->") == 2
    assert '[label="{u}"]' in dot


def test_export_dot_open_covers_match_inclusion_scan(monkeypatch):
    tops = [t for n in (1, 2, 3, 4) for t in verify.enumerate_topologies(n)]
    assert len(tops) == 389
    tops.append(topo.discrete(6))
    fast = [cli.export_dot(t) for t in tops]
    monkeypatch.setattr(cli, "_open_covers", oracles.open_covers_by_scan)
    assert fast == [cli.export_dot(t) for t in tops]


def test_export_dot_diamond_hasse():
    diamond = FinitePoset(4, (0b1111, 0b1010, 0b1100, 0b1000))
    dot = cli.export_dot(diamond)
    assert dot.count("->") == 4


def test_export_dot_rejects_unknown():
    with pytest.raises(TypeError):
        cli.export_dot(42)


# --- command level tests -----------------------------------------------------


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "sierpinski.json"
    path.write_text(doc_text())
    return str(path)


def test_cmd_check_table(instance_file, capsys):
    assert cli.main(["check", instance_file]) == 0
    out = capsys.readouterr().out
    assert "weak_circ" in out and "true" in out
    assert "interval" in out


def test_cmd_check_json(instance_file, capsys):
    assert cli.main(["check", instance_file, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["properties"]["weak_circ"] is True
    assert report["properties"]["i_weak"] is False
    assert report["topologies"]["weak"] == [[], ["z", "u"]]
    assert len(report["inclusion"]) == 7


@pytest.mark.parametrize(
    "x, topological",
    [
        # the discrete 4-point min-chain
        (tsl.chain_semilattice(4), True),
        # 12 opens: every subset of {0, 1, 2}, and 3 only together with 0
        (
            tsl.TopologizedSemigroup(
                tsl.chain_semilattice(4).algebra,
                topo.generate_topology(4, [0b0001, 0b0010, 0b0100, 0b1001]),
            ),
            False,
        ),
    ],
)
def test_cmd_check_dense_four_point_instances(x, topological, tmp_path, capsys):
    # dense tau: its self-product has 65,536 and 7,776 opens
    assert len(x.topology.opens) in (12, 16)
    assert oracles.joint_continuity_via_product(x) is topological
    path = tmp_path / "dense.json"
    path.write_text(cli.serialize(x))
    assert cli.main(["check", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["properties"]["topological"] is topological


def test_cmd_derive(instance_file, capsys):
    assert cli.main(["derive", instance_file, "--topology", "law"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"law": [[], ["u"], ["z", "u"]]}


def test_cmd_derive_generated(instance_file, tmp_path, capsys):
    subbase = tmp_path / "subbase.json"
    subbase.write_text(json.dumps([["z"]]))
    assert (
        cli.main(
            [
                "derive",
                instance_file,
                "--topology",
                "generated",
                "--subbase",
                str(subbase),
            ]
        )
        == 0
    )
    out = json.loads(capsys.readouterr().out)
    assert out == {"generated": [[], ["z"], ["z", "u"]]}


@pytest.mark.parametrize("raw", [5, [5], {"a": 1}, "ab"])
def test_cmd_derive_rejects_malformed_subbase(raw, instance_file, tmp_path, capsys):
    subbase = tmp_path / "subbase.json"
    subbase.write_text(json.dumps(raw))
    argv = ["derive", instance_file, "--topology", "generated", "--subbase", str(subbase)]
    assert cli.main(argv) == cli.VALIDATION_EXIT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: subbase must be a list of lists")


def test_cmd_derive_names_a_subbase_that_is_not_json(instance_file, tmp_path, capsys):
    subbase = tmp_path / "subbase.json"
    argv = ["derive", instance_file, "--topology", "generated", "--subbase", str(subbase)]
    for text in ("[[", "[" * 100_000):  # truncated, and nested too deeply
        subbase.write_text(text)
        assert cli.main(argv) == cli.VALIDATION_EXIT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: subbase is not valid JSON: ")
        assert captured.err.count("\n") == 1


def test_cmd_enumerate(capsys):
    assert cli.main(["enumerate", "--what", "topologies", "--n", "3", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "29"
    assert cli.main(["enumerate", "--what", "semilattices", "--n", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [json.loads(line) for line in lines] == [
        [[0, 0], [0, 1]],
        [[0, 1], [1, 1]],
    ]


def test_cmd_sweep(capsys):
    assert cli.main(["sweep", "--n-max", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("sweep n_max=2\ninstances checked: 9\n")
    assert "total violations: 0" in out


def test_cmd_sweep_rules_file(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("# comment\ndiagram.interval_within_lawson\n")
    assert cli.main(["sweep", "--n-max", "1", "--rules", str(rules)]) == 0
    out = capsys.readouterr().out
    assert "rule diagram.interval_within_lawson: applied=1" in out


def test_cmd_search(capsys):
    argv = [
        "search",
        "--satisfy",
        "weak_circ,weak_bullet,topological",
        "--violate",
        "i_weak",
        "--n-max",
        "2",
    ]
    assert cli.main(argv) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["document"]["opens"] == [[], ["e0"], ["e0", "e1"]]
    assert cli.main(["search", "--violate", "complete", "--n-max", "2"]) == 0
    assert "exhausted up to n_max=2" in capsys.readouterr().out


def test_cmd_export(instance_file, tmp_path, capsys):
    assert cli.main(["export", instance_file]) == 0
    assert "n0 -> n1;" in capsys.readouterr().out
    out_path = tmp_path / "opens.dot"
    assert cli.main(["export", instance_file, "--what", "opens", "--output", str(out_path)]) == 0
    assert out_path.read_text().startswith("digraph opens {")


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_output_path_is_a_usage_error(instance_file, tmp_path, capsys, where):
    path = tmp_path if where == "directory" else tmp_path / "absent" / "out"
    search = ["search", "--violate", "t1", "--n-max", "2"]
    export = ["export", instance_file, "--output", str(path)]
    for argv in (export, search + ["--catalog", str(path)]):
        assert cli.main(argv) == cli.USAGE_EXIT
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and str(path) in err
        assert "Traceback" not in err


def test_exit_codes(instance_file, tmp_path, capsys):
    assert cli.main(["no-such-command"]) == cli.USAGE_EXIT
    capsys.readouterr()
    assert cli.main(["check", str(tmp_path / "absent.json")]) == cli.USAGE_EXIT
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text(doc_text(opens=[[], ["u"]]))
    assert cli.main(["check", str(bad)]) == cli.VALIDATION_EXIT
    err = capsys.readouterr().err
    assert "missing full set" in err
    bad.write_text(doc_text(meet=[["z", ["z"]], ["z", "u"]]))
    assert cli.main(["check", str(bad)]) == cli.VALIDATION_EXIT
    err = capsys.readouterr().err
    assert "unknown name ['z'] at table[0][1]" in err and "Traceback" not in err
    assert cli.main(["search", "--violate", "bogus", "--n-max", "1"]) == cli.VALIDATION_EXIT
    assert cli.main(["--help"]) == 0


def test_parser_is_built_once_and_reused(instance_file, capsys, monkeypatch):
    """Each call in one process prints and returns what the same call prints
    and returns first thing in a fresh interpreter, though the parser is
    built only once."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    calls = [
        ["check", instance_file, "--format", "bogus"],
        ["--help"],
        ["check", instance_file, "--format", "json"],
        ["derive", instance_file],
        ["check", instance_file, "--format", "table"],
    ]
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    fresh = [
        subprocess.run(
            [sys.executable, "-m", "topsl", *argv],
            capture_output=True,
            text=True,
            env=env,
        )
        for argv in calls
    ]
    assert [p.returncode for p in fresh] == [cli.USAGE_EXIT, 0, 0, 0, 0]
    cli.build_parser.cache_clear()
    for argv, p in zip(calls, fresh):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert (out, err, code) == (p.stdout, p.stderr, p.returncode), argv
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(calls) - 1)


def _check_report(x, names):
    """The check report as a dict: `check --format json` must print
    exactly json.dumps(report, indent=2)."""
    comp = weak.topology_comparison(x)
    pv = props.property_vector(x, comp).as_dict()
    return {
        "schema_version": cli.SCHEMA_VERSION,
        "properties": {k: v for k, v in sorted(pv.items())},
        "topologies": {
            name: [[names[i] for i in bits(u)] for u in top.opens]
            for name, top in comp.bundle.as_dict().items()
        },
        "inclusion_order": list(weak.TOPOLOGY_NAMES),
        "inclusion": [list(row) for row in comp.inclusion],
    }


def test_check_json_matches_json_dumps_byte_for_byte(tmp_path, capsys):
    odd = ['q"', "b\\", "é", "t\tab"]
    cases = [(x, None) for x in verify.universe(3)]
    cases.append((tsl.chain_semilattice(5), None))
    # the 5-chain under every 5-point topology with at most 5 opens: equal
    # bundle topologies share a block, and the discrete one lists 32 sets
    chain5 = tsl.chain_semilattice(5).algebra
    few_opens = [t for t in verify.enumerate_topologies(5) if len(t.opens) <= 5]
    assert len(few_opens) == 586
    cases += [(tsl.TopologizedSemigroup(chain5, t), None) for t in few_opens]
    cases.append((tsl.TopologizedSemigroup(tsl.chain_semilattice(4).algebra, topo.indiscrete(4)), odd))
    cases.append((tsl.chain_semilattice(4), odd))
    path = tmp_path / "x.json"
    for x, names in cases:
        names = names or [f"e{i}" for i in range(x.n)]
        path.write_text(cli.serialize(x, names), encoding="utf-8")
        assert cli.main(["check", str(path), "--format", "json"]) == 0
        want = json.dumps(_check_report(x, names), indent=2) + "\n"
        assert capsys.readouterr().out == want
    assert "\\u00e9" in want and '"q\\""' in want and "\\t" in want


def _meet_doc(table):
    names = ["a", "b", "c"]
    return {
        "schema_version": 1,
        "elements": names,
        "meet": [[names[v] for v in row] for row in table],
        "opens": [[], names],
    }


@pytest.mark.parametrize("key", ["meet", "op"])
def test_check_scans_associativity_once(key, tmp_path, capsys, monkeypatch):
    calls = []
    real = core.verify_semigroup

    def counting(table):
        calls.append(table)
        return real(table)

    monkeypatch.setattr(core, "verify_semigroup", counting)
    path = tmp_path / "x.json"
    # a semilattice, then a table that is not associative at (a, a, a)
    tables = [[0, 0, 0], [0, 1, 0], [0, 0, 2]], [[1, 0, 2], [2, 1, 0], [0, 0, 2]]
    for table, code in zip(tables, (0, cli.VALIDATION_EXIT)):
        calls.clear()
        doc = _meet_doc(table)
        doc[key] = doc.pop("meet")
        path.write_text(json.dumps(doc))
        assert cli.main(["check", str(path)]) == code
        capsys.readouterr()
        # the FiniteSemigroup constructor's scan, which also names the witness
        assert len(calls) == 1


@pytest.mark.parametrize(
    "key, table, message",
    [
        # not associative ((a*a)*a = c, a*(a*a) = a) and not commutative:
        # associativity is reported first
        ("meet", [[1, 0, 2], [2, 1, 0], [0, 0, 2]], "table is not associative at (a, a, a)"),
        ("op", [[1, 0, 2], [2, 1, 0], [0, 0, 2]], "table is not associative at (a, a, a)"),
        ("meet", [[0, 0, 0], [1, 1, 1], [2, 2, 2]], "meet table fails the commutative law at (0, 1)"),
        ("meet", [[1, 0, 0], [0, 1, 1], [0, 1, 2]], "meet table fails the idempotent law at (0,)"),
    ],
)
def test_table_error_messages(key, table, message):
    doc = _meet_doc(table)
    doc[key] = doc.pop("meet")
    with pytest.raises(cli.InstanceFormatError) as exc:
        cli.parse_instance(json.dumps(doc))
    assert str(exc.value) == message


def _expected_error(names, key, table, opens):
    """The message parsing must raise, or None, by the documented rule: the
    first failing table law (associativity at the first (x, y, z), then for
    `meet` idempotence, then commutativity), then a missing empty or full
    set, then the first listed pair of opens whose union, else whose
    intersection, is not listed."""
    n = len(names)
    rng = range(n)

    def label(mask):
        return "{" + ", ".join(sorted(names[i] for i in rng if mask >> i & 1)) + "}"

    for x, y, z in itertools.product(rng, repeat=3):
        if table[table[x][y]][z] != table[x][table[y][z]]:
            return f"table is not associative at ({names[x]}, {names[y]}, {names[z]})"
    if key == "meet":
        for x in rng:
            if table[x][x] != x:
                return f"meet table fails the idempotent law at ({x},)"
        for x, y in itertools.combinations(rng, 2):
            if table[x][y] != table[y][x]:
                return f"meet table fails the commutative law at ({x}, {y})"
    if 0 not in opens:
        return "missing empty set"
    if (1 << n) - 1 not in opens:
        return "missing full set"
    for a, b in itertools.product(opens, repeat=2):
        if a | b not in opens:
            return f"missing union of {label(a)} and {label(b)}: {label(a | b)}"
        if a & b not in opens:
            return f"missing intersection of {label(a)} and {label(b)}: {label(a & b)}"
    return None


def _error_corpus():
    """(names, key, table, opens) for every one-entry corruption of every
    semilattice table with n <= 3, under `meet` and `op`, and for every
    family of subsets with n <= 3 in up to four distinct listed orders."""
    corpus = []
    for n in (1, 2, 3):
        names = ["b", "c", "a"][:n]  # labels sort names, not indices
        full = (1 << n) - 1
        for sl in verify.enumerate_semilattices(n):
            for x, y in itertools.product(range(n), repeat=2):
                for v in range(n):
                    if v != sl.table[x][y]:
                        table = [list(row) for row in sl.table]
                        table[x][y] = v
                        corpus += [(names, key, table, [0, full]) for key in ("meet", "op")]
        chain = [[min(x, y) for y in range(n)] for x in range(n)]
        weight = [bin(u).count("1") for u in range(1 << n)]
        for pick in range(1 << (1 << n)):
            family = [u for u in range(1 << n) if pick >> u & 1]
            orders = {
                tuple(family),
                tuple(reversed(family)),
                tuple(sorted(family, key=lambda u: (weight[u], u))),
                tuple(sorted(family, key=lambda u: (-weight[u], u))),
            }
            corpus += [(names, "meet", chain, list(o)) for o in sorted(orders)]
    return corpus


def test_every_small_document_fails_by_the_documented_rule():
    corpus = _error_corpus()
    assert len(corpus) == 340 + 788
    valid = 0
    for names, key, table, opens in corpus:
        doc = {
            "schema_version": 1,
            "elements": names,
            key: [[names[v] for v in row] for row in table],
            "opens": [[names[i] for i in bits(u)] for u in opens],
        }
        message = _expected_error(names, key, table, opens)
        if message is None:
            inst = cli.parse_instance(json.dumps(doc))
            assert inst.algebra.table == tuple(map(tuple, table))
            assert inst.topology.opens == tuple(sorted(set(opens)))
            valid += 1
            continue
        with pytest.raises(cli.InstanceFormatError) as exc:
            cli.parse_instance(json.dumps(doc))
        assert str(exc.value) == message
    assert valid == 149


def _check_json_of(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "x.json")
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["check", str(path), "--format", "json"]) == 0
    return json.loads(out.getvalue())


@settings(max_examples=30, deadline=None)
@given(x=large_instances(), data=st.data())
def test_round_trip_and_renaming_past_enum_max(x, data):
    assert x.n > verify.ENUM_MAX
    assert cli.parse_instance(cli.serialize(x)) == x
    names = data.draw(
        st.lists(st.text(min_size=1, max_size=4), min_size=x.n, max_size=x.n, unique=True)
    )
    renamed = cli.serialize(x, names)
    assert cli.parse_instance(renamed) == x
    rename = dict(zip([f"e{i}" for i in range(x.n)], names))
    want = _check_json_of(cli.serialize(x))
    for opens in want["topologies"].values():
        opens[:] = [[rename[v] for v in u] for u in opens]
    assert _check_json_of(renamed) == want


def test_deeply_nested_json_exits_2_with_one_line(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)  # deeper than the decoder's recursion limit
    good = tmp_path / "good.json"
    good.write_text(doc_text())
    subbase = ["--topology", "generated", "--subbase", str(deep)]
    for argv in (
        ["check", str(deep)],
        ["export", str(deep)],
        ["derive", str(deep)],
        ["derive", str(good), *subbase],
    ):
        assert cli.main(argv) == cli.VALIDATION_EXIT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "recursion" in err and "Traceback" not in err


def test_carrier_bound_is_checked_before_the_table(tmp_path, capsys):
    names = [f"e{i}" for i in range(cli.CLI_MAX + 1)]
    doc = {"schema_version": 1, "elements": names, "meet": "never read", "opens": []}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    for argv in (["check", str(path)], ["derive", str(path)], ["export", str(path)]):
        assert cli.main(argv) == cli.VALIDATION_EXIT
        err = capsys.readouterr().err
        assert err == f"error: at most {cli.CLI_MAX} elements are supported, got {cli.CLI_MAX + 1}\n"
    doc["elements"] = names[:-1]
    with pytest.raises(cli.InstanceFormatError, match="operation table must have"):
        cli.parse_document(json.dumps(doc))


def test_import_loads_no_dataclasses_thread_pool_or_hashlib():
    """A fresh interpreter that imports topsl.cli loads none of these: each
    costs startup time that no command needs at import (hashlib loads
    OpenSSL, which canonical_hash imports on first call)."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    unneeded = ("dataclasses", "inspect", "concurrent.futures", "hashlib")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import topsl.cli; "
        f"print([m for m in {unneeded!r} if m in sys.modules])"
    )
    fresh = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    assert fresh.stdout == "[]\n"
    x = tsl.TopologizedSemigroup(
        FiniteSemilattice(3, ((0, 0, 0), (0, 1, 0), (0, 0, 2))),
        topo.canonical(3, (0, 2, 6, 7)),
    )
    assert verify.canonical_hash(x) == (
        "e5cd3075ee423be3f1e8b356b0ea28869cd0a05134bed55663e14c919aa1d1d1"
    )


def test_sweep_rejects_too_many_threads_before_starting_any(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(threading, "Thread", no_pool)
    monkeypatch.setattr(verify, "instance_classes", no_pool)
    too_many = str(verify.THREADS_MAX + 1)
    assert cli.main(["sweep", "--n-max", "1", "--threads", too_many]) == cli.VALIDATION_EXIT
    err = capsys.readouterr().err
    assert err == f"error: threads must be at most {verify.THREADS_MAX}, got {too_many}\n"
    with pytest.raises(ValueError, match="at most"):
        verify.sweep(1, threads=verify.THREADS_MAX + 1)
