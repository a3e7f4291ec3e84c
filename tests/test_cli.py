import json

import pytest

from topsl import cli, topo, tsl, verify
from topsl.core import FinitePoset, FiniteSemilattice, natural_order

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
    assert verify.joint_continuity_via_product(x) is topological
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
    assert cli.main(["search", "--violate", "bogus", "--n-max", "1"]) == cli.VALIDATION_EXIT
    assert cli.main(["--help"]) == 0
