"""Checks on the program's outputs.  Each returns a list of faults; an empty
list means the output is correct.  Nothing is compared with a stored copy of
an earlier output."""

from __future__ import annotations

import json
import re

import reference

SEVEN = ("tau", "law", "zar", "weak", "scott", "lawson", "interval")


def _family(sets, n):
    masks = []
    for names in sets:
        mask = 0
        for name in names:
            i = int(name[1:])
            if not 0 <= i < n:
                raise ValueError(f"element {name!r} leaves the carrier")
            mask |= 1 << i
        masks.append(mask)
    return masks


def check_report(text, table, opens):
    """Faults in the JSON report of `topsl check` for one instance."""
    n = len(table)
    try:
        report = json.loads(text)
        props = report["properties"]
        families = {name: _family(report["topologies"][name], n) for name in SEVEN}
        order = report["inclusion_order"]
        inclusion = report["inclusion"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    faults = []
    want_props, want_families = reference.expected_report(n, table, opens)
    for name, value in want_props.items():
        if props.get(name) is not value:
            faults.append(f"property {name} is {props.get(name)!r}, expected {value}")
    for name in SEVEN:
        if families[name] != want_families[name]:
            faults.append(f"{name} opens {families[name]} differ from {want_families[name]}")
    sets = {name: set(fam) for name, fam in families.items()}
    for low, high in (("weak", "law"), ("law", "tau"), ("weak", "zar"), ("zar", "tau")):
        if not sets[low] <= sets[high]:
            faults.append(f"{low} is not within {high}")
    if list(order) != list(SEVEN):
        faults.append(f"inclusion order {order}")
    elif inclusion != [[sets[a] <= sets[b] for b in SEVEN] for a in SEVEN]:
        faults.append("inclusion matrix does not match the reported topologies")
    return faults


RULE_LINE = re.compile(r"rule (\S+): applied=(\d+) vacuous=(\d+) violations=(\d+)$")


def expected_instances(n_max):
    """Labeled instances up to n_max, from the reference's own counts."""
    return sum(
        len(reference.semilattice_tables(n)) * len(reference.topology_families(n))
        for n in range(1, n_max + 1)
    )


def check_sweep(text, n_max, instances, all_rule_ids, per_instance_ids):
    """Faults in the rendered report of `topsl sweep --n-max n_max`."""
    lines = text.splitlines()
    faults = []
    if lines[:2] != [f"sweep n_max={n_max}", f"instances checked: {instances}"]:
        faults.append(f"header {lines[:2]}, expected {instances} instances")
    rules = {}
    for line in lines[2:-1]:
        m = RULE_LINE.match(line)
        if not m:
            faults.append(f"unexpected line {line!r}")
            continue
        rules[m.group(1)] = tuple(int(g) for g in m.group(2, 3, 4))
    if lines[-1:] != ["total violations: 0"]:
        faults.append(f"last line {lines[-1:]}")
    if sorted(rules) != sorted(all_rule_ids):
        faults.append("rule ids differ from the program's rule list")
    for rule_id, (applied, vacuous, violations) in rules.items():
        if violations:
            faults.append(f"{rule_id}: {violations} violations")
        if applied + vacuous == 0:
            faults.append(f"{rule_id} never ran")
        if rule_id in per_instance_ids and applied + vacuous != instances:
            faults.append(f"{rule_id} ran on {applied + vacuous} of {instances} instances")
    return faults
