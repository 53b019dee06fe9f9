"""The declared field tables: docs/scenario-format.md states them, and
``load_config`` refuses a mutated scenario with a ScenarioError naming its
path, never with another exception."""

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wparab import cli, fields
from wparab.fields import OPTIONAL, REQUIRED, Catalog, Spec

FORMAT = Path(__file__).resolve().parent.parent / "docs" / "scenario-format.md"


def _tables():
    """Every Spec and Catalog reachable from the scenario table, by noun."""
    found = {}

    def visit(spec):
        if spec.noun in found:
            return
        found[spec.noun] = spec
        entries = spec.entries.values() if isinstance(spec, Catalog) else []
        for field in [*spec.fields.values(), *(f for e in entries for f in e.fields.values())]:
            if isinstance(field.kind, Spec):
                visit(field.kind)

    visit(cli.SCENARIO)
    return found


def _default(field):
    shown = ("required" if field.default is REQUIRED else "optional"
             if field.default is OPTIONAL else json.dumps(field.default))
    return shown + (f"; only {field.only[0]}" if field.only else "")


def _kind(kind):
    return f"{kind.noun} object" if isinstance(kind, Spec) else kind.doc


def _declared(spec):
    """(entry, field, kind, default) rows of one table, as the document
    writes them less its backticks."""
    if not isinstance(spec, Catalog):
        return [("", key, _kind(f.kind), _default(f)) for key, f in spec.fields.items()]
    tag = spec.fields[spec.key]
    rows = [("", spec.key, "one of " + ", ".join(spec.entries), _default(tag))]
    rows += [("", k, _kind(f.kind), _default(f)) for k, f in spec.fields.items() if f is not tag]
    for name, entry in spec.entries.items():
        rows += [(name, key, _kind(f.kind), _default(f)) for key, f in entry.fields.items()]
        rows += [] if entry.fields else [(name, "—", "", "")]
    return rows


def _documented():
    """The rows of each ``### <noun>`` table of the Fields section."""
    section = FORMAT.read_text().split("\n## Fields\n", 1)[1].split("\n## ", 1)[0]
    tables = {}
    for block in section.split("\n### ")[1:]:
        noun, body = block.split("\n", 1)
        cells = [[c.strip().replace("`", "") for c in re.split(r"(?<!\\)\|", line)[1:-1]]
                 for line in body.splitlines() if line.startswith("|")]
        catalog = len(cells[0]) == 5     # an entry column before the field
        tables[noun] = [tuple(row[:4]) if catalog else ("", *row[:3]) for row in cells[2:]]
    return tables


def test_the_format_document_states_every_declared_field():
    declared, documented = _tables(), _documented()
    assert sorted(documented) == sorted(declared)
    for noun, spec in declared.items():
        assert documented[noun] == _declared(spec), noun


# ---------------------------------------------------------------------------
# load_config on scenarios drawn from the tables, each with one mutation

def _one_of(doc):
    return st.sampled_from(doc.removeprefix("one of ").split(", "))


def _finite():
    return st.floats(-1e3, 1e3, allow_nan=False) | st.integers(-5, 5)


VALUES = {
    "a finite number": lambda m: _finite(),
    "a positive finite number": lambda m: st.floats(1e-3, 1e3),
    "a positive integer": lambda m: st.integers(1, 4),
    "a non-negative integer": lambda m: st.integers(0, 4),
    "true or false": lambda m: st.booleans(),
    "a string": lambda m: st.text(max_size=4),
    "an expression string": lambda m: st.sampled_from(["t", "x1", "-t^2/2", "sin("]),
    '"inf" or a finite number': lambda m: st.just("inf") | _finite(),
    "a list of finite numbers": lambda m: st.lists(_finite(), max_size=3),
    "a list of 2 finite numbers": lambda m: st.lists(_finite(), min_size=2, max_size=2),
    "a list of m finite numbers": lambda m: st.lists(_finite(), min_size=m, max_size=m),
    "a list of m-1 [lo, hi] pairs of finite numbers": lambda m: st.lists(
        st.lists(_finite(), min_size=2, max_size=2), min_size=m - 1, max_size=m - 1),
    "a non-empty list of distinct integers in [0, m)": lambda m: st.lists(
        st.integers(0, m - 1), min_size=1, max_size=m, unique=True),
}
WRONG = [None, True, "x", [], {}, 2.5, -1, [True], {"name": 3}]


def _draw(data, kind, m):
    if kind is fields.DIMENSION:
        return m
    if isinstance(kind, Spec):
        return _draw_spec(data, kind, m)
    strategy = _one_of(kind.doc) if kind.doc.startswith("one of ") else VALUES[kind.doc](m)
    return data.draw(strategy)


def _draw_spec(data, spec, m):
    """A valid object of ``spec``: its required fields and objects, and
    some others."""
    table, out = dict(spec.fields), {}
    if isinstance(spec, Catalog):
        out[spec.key] = data.draw(st.sampled_from(sorted(spec.entries)))
        table = spec.entries[out[spec.key]].fields
    for key, field in table.items():
        if field.default is REQUIRED or isinstance(field.kind, Spec) or data.draw(st.booleans()):
            out[key] = _draw(data, field.kind, m)
    unread = True
    while unread:       # leave out the fields read only next to absent ones
        unread = [k for k, f in table.items() if k in out and f.only and not f.only[1](out)]
        for key in unread:
            del out[key]
    return out


def _objects(value):
    """``value`` and every object nested in it."""
    if isinstance(value, dict):
        yield value
        for item in value.values():
            yield from _objects(item)


def _mutate(data, scenario):
    """One mutation of one field, or one extra key."""
    objects = list(_objects(scenario))
    mutation = data.draw(st.sampled_from(["drop", "wrong", "bool", "extra", "null"]))
    if mutation == "extra":
        data.draw(st.sampled_from(objects))["extra_key"] = 1
        return
    obj, key = data.draw(st.sampled_from([(obj, key) for obj in objects for key in obj]))
    if mutation == "drop":
        del obj[key]
    else:
        obj[key] = {"wrong": data.draw(st.sampled_from(WRONG)), "bool": True,
                    "null": None}[mutation]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_mutated_scenario_loads_or_names_its_path(data, tmp_path_factory):
    m = data.draw(st.integers(2, 4))
    scenario = _draw_spec(data, cli.SCENARIO, m)
    _mutate(data, scenario)
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps({"scenarios": [scenario]}))
    try:
        cli.load_config(path)
    except cli.ScenarioError as err:
        assert str(err).startswith("scenarios[0]"), err


@pytest.mark.parametrize("kind", [fields.FINITE, fields.POSITIVE])
def test_an_int_beyond_the_float_range_is_not_finite(kind):
    with pytest.raises(cli.ScenarioError, match="finite number, got 1000"):
        kind.check(10 ** 400, "x", {})
