"""Every result record reaches a report through one rule: its dataclass
fields in declaration order, less the fields marked internal."""

import dataclasses
import json
import math
import re
from enum import Enum
from pathlib import Path

from wparab import catalogs, criteria, montecarlo as mc, radial as rd
from wparab.verdicts import Record

SCHEMA = Path(__file__).resolve().parent.parent / "docs" / "report-schema.md"

INTERNAL = {"Verdict": {"capacity_bound"}, "IntegralVerdict": {"increments"},
            "CapacityReport": {"potential", "phi_prime"},
            "RecurrenceProbe": {"estimates"}}


def _records():
    return {cls.__name__: cls for cls in Record.__subclasses__()}


def _reported(cls):
    return [f.name for f in dataclasses.fields(cls) if not f.metadata.get("internal")]


def _documented():
    """The ``Record: field, field, ...`` lines of the schema's field list."""
    section = SCHEMA.read_text().split("## Result records", 1)[1]
    block = re.search(r"```text\n(.*?)```", section, re.S).group(1)
    return {name: fields.split(", ")
            for name, fields in (line.split(": ", 1) for line in block.splitlines())}


def test_reported_fields_match_the_schema_document():
    records, documented = _records(), _documented()
    assert sorted(documented) == sorted(records) == sorted(
        ["HypothesisCheck", "Verdict", "IntegralVerdict", "CapacityReport",
         "HitEstimate", "ComparisonReport", "RecurrenceProbe"])
    for name, cls in records.items():
        assert documented[name] == _reported(cls), name
        internal = {f.name for f in dataclasses.fields(cls)} - set(_reported(cls))
        assert internal == INTERNAL.get(name, set()), name


def _check_entry(record, entry):
    """``entry`` holds the reported fields of ``record`` in declaration
    order, each serialized by the same rule, and no internal field."""
    assert list(entry) == _reported(type(record))
    assert not INTERNAL.get(type(record).__name__, set()) & set(entry)
    for name, value in entry.items():
        _check_value(getattr(record, name), value)


def _check_value(field, value):
    if isinstance(field, Record):
        _check_entry(field, value)
    elif isinstance(field, (list, tuple)):
        assert type(value) is list and len(value) == len(field)
        for item, shown in zip(field, value):
            _check_value(item, shown)
    elif isinstance(field, Enum):
        assert value == field.value and not isinstance(value, Enum)
    else:
        assert value is field


def _comparison_setup(warping):
    return criteria.ComparisonSetup(warping, 2, math.sqrt(2.0),
                                    rd.RadialProfile.from_expression("-t"))


def test_internal_fields_never_reach_a_report_entry_and_order_is_declared():
    gauss = catalogs.resolve_model({"m": 3, "weight": {"name": "gaussian"}})
    verdict = criteria.classify_parabolic(_comparison_setup(gauss.w))
    capacity = gauss.capacity_potential(1.0, 2.0)
    warping, plane = catalogs.resolve_immersion(
        {"model": {"m": 3, "weight": {"name": "gaussian"}},
         "submanifold": {"name": "plane", "axes": [0, 1]}})
    comparison = mc.comparison_check(mc.DiffusionSpec(plane, 1e-3, seed=5),
                                     _comparison_setup(warping), [2.0, 0.0], 1.0, 4.0, 20)
    _, flat = catalogs.resolve_immersion(
        {"model": {"m": 2}, "submanifold": {"name": "radial_scenario"}})
    probe = mc.recurrence_probe(mc.DiffusionSpec(flat, 1e-3, seed=3), [1.5, 0.0], 1.0,
                                [4.0, 8.0, 16.0], 20)

    # the internal fields are there to leave out
    assert verdict.capacity_bound is not None
    assert any(isinstance(c.window, tuple) for c in verdict.checks)   # a list in the entry
    assert verdict.integral_evidence.increments
    assert callable(capacity.potential) and callable(capacity.phi_prime)
    assert len(probe.estimates) == 3
    for record in (verdict, capacity, comparison, probe, probe.estimates[0]):
        entry = record.to_dict()
        _check_entry(record, entry)
        json.dumps(entry)       # nothing but JSON values
    assert probe.to_dict()["ci"] == [[e.ci_low, e.ci_high] for e in probe.estimates]
    assert probe.p_hats == [e.p_hat for e in probe.estimates]
