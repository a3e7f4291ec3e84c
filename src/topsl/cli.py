"""Command line front end: a JSON instance file format, property reports,
topology derivations, enumeration, the rule sweep, counterexample search,
and DOT export.

Exit codes: 0 success, 1 usage error (bad flags, unreadable file),
2 validation failure (malformed instance, bad property or rule name),
3 rule violation found by sweep.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import NamedTuple

from . import props, topo, tsl, verify, weak
from .core import (
    CLI_MAX,
    FinitePoset,
    FiniteSemigroup,
    FiniteSemilattice,
    MalformedTableError,
    NotASemilatticeError,
    bits,
    mask_of,
    natural_order,
)

SCHEMA_VERSION = 1

USAGE_EXIT = 1
VALIDATION_EXIT = 2
VIOLATION_EXIT = 3


class InstanceFormatError(ValueError):
    """The instance document violates the file format or its invariants."""


class InstanceDocument(NamedTuple):
    """A well-formed instance file, its names resolved to indices: `table`
    holds int rows and `opens` the bitmask of each listed open set, in the
    file's order.  Whether the table and the opens satisfy their laws is
    left to document_to_instance."""

    elements: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    opens: tuple[int, ...]
    is_meet: bool


def _set_label(names) -> str:
    return "{" + ", ".join(sorted(names)) + "}"


def _resolve(index: dict, names, where) -> list[int]:
    """The index of each name; where(k) says where the first unknown (or
    non-string) k-th name is."""
    try:
        return [index[v] for v in names]
    except (KeyError, TypeError):  # TypeError: an unhashable list or object
        k, v = next(
            (k, v)
            for k, v in enumerate(names)
            if not isinstance(v, str) or v not in index
        )
        raise InstanceFormatError(f"unknown name {v!r} {where(k)}") from None


def parse_document(text: str) -> InstanceDocument:
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise InstanceFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InstanceFormatError("document must be a JSON object")
    version = raw.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # not True or 1.0
        raise InstanceFormatError(
            f"schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    elements = raw.get("elements")
    if (
        not isinstance(elements, list)
        or not elements
        or not all(isinstance(e, str) for e in elements)
    ):
        raise InstanceFormatError("elements must be a nonempty list of names")
    if len(elements) > CLI_MAX:
        raise InstanceFormatError(
            f"at most {CLI_MAX} elements are supported, got {len(elements)}"
        )
    if len(set(elements)) != len(elements):
        raise InstanceFormatError("element names must be distinct")
    is_meet = "meet" in raw
    table = raw.get("meet") if is_meet else raw.get("op")
    if table is None:
        raise InstanceFormatError("missing operation table (key 'meet' or 'op')")
    n = len(elements)
    index = {name: i for i, name in enumerate(elements)}
    if not isinstance(table, list) or len(table) != n:
        raise InstanceFormatError(f"operation table must have {n} rows")
    rows = []
    for x, row in enumerate(table):
        if not isinstance(row, list) or len(row) != n:
            raise InstanceFormatError(f"table row {x} must have {n} entries")
        rows.append(tuple(_resolve(index, row, lambda y: f"at table[{x}][{y}]")))
    opens_raw = raw.get("opens")
    if not isinstance(opens_raw, list):
        raise InstanceFormatError("opens must be a list of lists of names")
    opens = []
    for i, u in enumerate(opens_raw):
        if not isinstance(u, list):
            raise InstanceFormatError(f"open set {i} must be a list of names")
        opens.append(mask_of(_resolve(index, u, lambda _: f"in open set {i}")))
    return InstanceDocument(tuple(elements), tuple(rows), tuple(opens), is_meet)


def document_to_instance(doc: InstanceDocument) -> tsl.TopologizedSemigroup:
    """The instance a document describes.  Its constructors check every law
    and name the first failure; this only words their witness with the
    document's element names."""
    names, n = doc.elements, len(doc.elements)
    try:
        algebra = (FiniteSemilattice if doc.is_meet else FiniteSemigroup)(n, doc.table)
    except (MalformedTableError, NotASemilatticeError) as exc:
        if exc.law == "associative":
            x, y, z = exc.witness
            raise InstanceFormatError(
                f"table is not associative at ({names[x]}, {names[y]}, {names[z]})"
            )
        if exc.law is not None:
            raise InstanceFormatError(
                f"meet table fails the {exc.law} law at {exc.witness}"
            )
        raise
    try:
        top = topo.canonical(n, doc.opens)
    except ValueError as exc:
        if not hasattr(exc, "missing"):  # the empty or the full set
            raise InstanceFormatError(str(exc))
        kind, a, b = exc.missing
        c = a | b if kind == "union" else a & b
        a, b, c = (_set_label(names[i] for i in bits(m)) for m in (a, b, c))
        raise InstanceFormatError(f"missing {kind} of {a} and {b}: {c}")
    return tsl.TopologizedSemigroup(algebra, top)


def parse_instance(text: str) -> tsl.TopologizedSemigroup:
    return document_to_instance(parse_document(text))


def serialize(inst: tsl.TopologizedSemigroup, names=None) -> str:
    return json.dumps(verify.instance_document(inst, names), indent=2) + "\n"


# ---------------------------------------------------------------------------
# DOT export


def _open_covers(top: topo.FiniteTopology) -> list[tuple[int, int]]:
    """The Hasse edges (i, j) of the inclusion order of top's opens, as
    indices into top.opens.  An open v covers u exactly when it is minimal
    among the sets u | M_x for x outside u: any open strictly above u that
    contains x also contains u | M_x.  oracles.open_covers_by_scan scans the
    inclusion poset of all opens."""
    index = {u: i for i, u in enumerate(top.opens)}
    edges = []
    for i, u in enumerate(top.opens):
        above = {u | m for x, m in enumerate(top.minimal) if not u >> x & 1}
        for v in above:
            if not any(w != v and w & ~v == 0 for w in above):
                edges.append((i, index[v]))
    return edges


def _hasse_edges(poset: FinitePoset) -> list[tuple[int, int]]:
    """The covering pairs (x, y) of poset: y covers x iff y != x and the
    interval up x & down y is {x, y}.  oracles.hasse_edges_by_scan tries
    every z in between."""
    up, downs = poset.up, poset.downs
    return [
        (x, y)
        for x in range(poset.n)
        for y in bits(up[x])
        if y != x and up[x] & downs[y] == 1 << x | 1 << y
    ]


def export_dot(obj, names=None) -> str:
    """Deterministic DOT rendering: the order diagram (transitive reduction)
    for posets and semilattice instances, the inclusion diagram of open sets
    for topologies."""
    if isinstance(obj, tsl.TopologizedSemigroup):
        return export_dot(natural_order(obj.algebra), names)
    if not isinstance(obj, (FinitePoset, topo.FiniteTopology)):
        raise TypeError(f"cannot export {type(obj).__name__} as DOT")
    if names is None:
        names = [f"e{i}" for i in range(obj.n)]
    if isinstance(obj, FinitePoset):
        graph, edges = "order", _hasse_edges(obj)
        labels = [names[i] for i in range(obj.n)]
    else:
        graph, edges = "opens", _open_covers(obj)
        labels = [_set_label(names[e] for e in bits(u)) for u in obj.opens]
    lines = [f"digraph {graph} {{"]
    lines += [f'  n{i} [label="{label}"];' for i, label in enumerate(labels)]
    lines += [f"  n{x} -> n{y};" for x, y in sorted(edges)]
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)
    except UnicodeDecodeError as exc:  # a ValueError: exits VALIDATION_EXIT
        raise ValueError(f"cannot read {path} as UTF-8: {exc}") from None


def _load_named_instance(path: str):
    doc = parse_document(_read_file(path))
    return document_to_instance(doc), list(doc.elements)


def _opens_as_names(top: topo.FiniteTopology, names) -> list:
    return [[names[i] for i in bits(u)] for u in top.opens]


def _json_block(items, depth: int, brackets: str) -> str:
    """A nonempty JSON array or object of encoded items, laid out as
    json.dumps(..., indent=2) lays it out at nesting depth `depth`."""
    pad = "\n" + "  " * (depth + 1)
    return f"{brackets[0]}{pad}{(',' + pad).join(items)}\n{'  ' * depth}{brackets[1]}"


# The check report's fixed text, built once: the whole document as one %
# template whose slots are the 27 property flags (in sorted key order), the
# topologies block and the inclusion block.
_enc = json.encoder.encode_basestring_ascii
_FLAG = ("false", "true")
_PROPERTY_FIELDS = sorted(
    range(len(props.PROPERTY_NAMES)), key=props.PROPERTY_NAMES.__getitem__
)
_REPORT = _json_block(
    [
        f'"schema_version": {SCHEMA_VERSION}',
        '"properties": '
        + _json_block(
            [f"{_enc(props.PROPERTY_NAMES[i])}: %s" for i in _PROPERTY_FIELDS], 1, "{}"
        ),
        '"topologies": %s',
        '"inclusion_order": ' + _json_block(map(_enc, weak.TOPOLOGY_NAMES), 1, "[]"),
        '"inclusion": %s',
    ],
    0,
    "{}",
)
_TOPOLOGY_KEYS = [f"{_enc(k)}: " for k in weak.TOPOLOGY_NAMES]
_ROW = _json_block(["%s"] * len(weak.TOPOLOGY_NAMES), 2, "[]")


def _check_json(pv: props.PropertyVector, comp: weak.ComparisonReport, names) -> str:
    """json.dumps(report, indent=2) of the check report, written directly.
    Every subset is encoded by doubling, as core._bits_table lists indices:
    the text of u | 1 << i is the text of u with name i added before its
    close.  lawson and interval list every subset, and the other five
    topologies reuse those strings; each distinct topology (by its minimal
    tuple) and each distinct inclusion row is rendered once."""
    pad = "\n" + "  " * 4  # one open set's names, as _json_block(..., 3, "[]")
    close = "\n" + "  " * 3 + "]"
    encoded = ["[]"]  # every subset, by bitmask
    for q in map(_enc, names):
        more = f",{pad}{q}{close}"
        encoded += [f"[{pad}{q}{close}"] + [u[: -len(close)] + more for u in encoded[1:]]
    blocks = {}
    for top in comp.bundle:
        if top.minimal not in blocks:
            blocks[top.minimal] = _json_block(map(encoded.__getitem__, top.opens), 2, "[]")
    topologies = _json_block(
        [k + blocks[top.minimal] for k, top in zip(_TOPOLOGY_KEYS, comp.bundle)], 1, "{}"
    )
    rows = {row: _ROW % tuple(map(_FLAG.__getitem__, row)) for row in set(comp.inclusion)}
    inclusion = _json_block(map(rows.__getitem__, comp.inclusion), 1, "[]")
    flags = [_FLAG[pv[i]] for i in _PROPERTY_FIELDS]
    return _REPORT % (*flags, topologies, inclusion)


def _cmd_check(args) -> int:
    inst, names = _load_named_instance(args.file)
    comp = weak.topology_comparison(inst)
    pv = props.property_vector(inst, comp)
    if args.format == "json":
        print(_check_json(pv, comp, names))
        return 0
    pv = pv.as_dict()
    width = max(len(k) for k in pv)
    print("properties:")
    for k in sorted(pv):
        print(f"  {k:<{width}}  {str(pv[k]).lower()}")
    print("topologies:")
    for name, top in comp.bundle.as_dict().items():
        sets = ", ".join(_set_label(names[i] for i in bits(u)) for u in top.opens)
        print(f"  {name:<8}  {sets}")
    print("inclusion (row within column):")
    header = " ".join(f"{name:>8}" for name in weak.TOPOLOGY_NAMES)
    print(f"  {'':8} {header}")
    for name, row in zip(weak.TOPOLOGY_NAMES, comp.inclusion):
        cells = " ".join(f"{'yes' if v else '.':>8}" for v in row)
        print(f"  {name:<8} {cells}")
    return 0


def _cmd_derive(args) -> int:
    inst, names = _load_named_instance(args.file)
    out = {}
    if args.topology == "generated":
        if args.subbase is None:
            print("error: --topology generated requires --subbase", file=sys.stderr)
            return USAGE_EXIT
        try:
            raw = json.loads(_read_file(args.subbase))
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise InstanceFormatError(f"subbase is not valid JSON: {exc}") from None
        if not isinstance(raw, list) or not all(
            isinstance(u, list) and all(isinstance(v, str) for v in u) for u in raw
        ):
            print(
                "error: subbase must be a list of lists of element names",
                file=sys.stderr,
            )
            return VALIDATION_EXIT
        index = {name: i for i, name in enumerate(names)}
        seeds = [mask_of(_resolve(index, u, lambda _: "in subbase")) for u in raw]
        out["generated"] = _opens_as_names(
            topo.generate_topology(inst.n, seeds), names
        )
    else:
        derivations = {
            "tau": lambda: inst.topology,
            "law": lambda: weak.law_topology(inst),
            "zar": lambda: weak.zar_topology(inst),
            "weak": lambda: weak.weak_topology(inst),
            "scott": lambda: weak.scott_topology(natural_order(inst.algebra)),
            "lawson": lambda: weak.lawson_topology(natural_order(inst.algebra)),
            "interval": lambda: weak.interval_topology(natural_order(inst.algebra)),
        }
        wanted = (
            list(weak.TOPOLOGY_NAMES)
            if args.topology == "all"
            else [args.topology]
        )
        if args.topology == "all" and not inst.algebra.is_band:
            # order topologies need the natural order, which needs a band
            wanted = ["tau", "law", "zar", "weak"]
        for name in wanted:
            out[name] = _opens_as_names(derivations[name](), names)
    print(json.dumps(out, indent=2))
    return 0


def _cmd_enumerate(args) -> int:
    if args.what == "topologies":
        items = verify.enumerate_topologies(args.n)
        rows = ([sorted(bits(u)) for u in top.opens] for top in items)
    else:
        items = verify.enumerate_semilattices(args.n)
        rows = ([list(row) for row in sl.table] for sl in items)
    if args.count_only:
        print(len(items))
    else:
        for row in rows:
            print(json.dumps(row))
    return 0


def _cmd_sweep(args) -> int:
    rule_ids = None
    if args.rules is not None:
        rule_ids = [
            line.strip()
            for line in _read_file(args.rules).splitlines()
            if line.strip() and not line.strip().startswith("#")
        ]
    report = verify.sweep(args.n_max, rule_ids=rule_ids, threads=args.threads)
    sys.stdout.write(report.render())
    return VIOLATION_EXIT if report.total_violations else 0


def _cmd_search(args) -> int:
    satisfy = [p for p in args.satisfy.split(",") if p] if args.satisfy else []
    record = verify.search(satisfy, args.violate, args.n_max, catalog=args.catalog)
    if record is None:
        print(f"exhausted up to n_max={args.n_max}")
    else:
        print(json.dumps(record._asdict(), indent=2))
    return 0


def _cmd_export(args) -> int:
    inst, names = _load_named_instance(args.file)
    if args.what == "opens":
        text = export_dot(inst.topology, names)
    else:
        text = export_dot(inst, names)
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


@functools.cache
def build_parser() -> _Parser:
    """Built on first use and kept: each parse_args returns a fresh namespace."""
    parser = _Parser(prog="topsl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide every property of an instance")
    p.add_argument("file")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("derive", help="emit derived topologies")
    p.add_argument("file")
    p.add_argument(
        "--topology",
        choices=("law", "zar", "weak", "scott", "lawson", "interval", "generated", "all"),
        default="all",
    )
    p.add_argument("--subbase", help="JSON file of subbase sets for --topology generated")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("enumerate", help="enumerate labeled structures")
    p.add_argument("--what", choices=("topologies", "semilattices"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("sweep", help="run the exhaustive rule sweep")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--rules", help="file with one rule id per line")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("search", help="search for a counterexample instance")
    p.add_argument("--satisfy", default="", help="comma-separated property names")
    p.add_argument("--violate", required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--catalog", help="append any finding to this JSONL file")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("export", help="export a DOT diagram")
    p.add_argument("file")
    p.add_argument("--what", choices=("hasse", "opens"), default="hasse")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse raises SystemExit for both --help (code 0) and usage errors
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        return args.func(args)
    except (InstanceFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except OSError as exc:  # an output or catalog path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
