"""Declared scenario fields and the one walk that checks them.

Each task, criterion and catalog entry declares its fields once, as a dict
of ``Field``s: a kind, and a default or ``REQUIRED``/``OPTIONAL``.  A
check walks a spec against its fields and returns the values the program
reads, defaults filled in; the first bad field raises a ``ScenarioError``
naming its path, e.g. ``scenarios[3].params.range``.  Undeclared keys are
errors, and ``null`` is of the wrong kind: leaving a field out is the only
way to get its default.  Kinds only are checked; expressions are parsed
when a scenario runs.  ``montecarlo.DiffusionSpec`` guards its own numbers
with the same kinds.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import ScenarioError

REQUIRED = object()
OPTIONAL = object()     # absent stays absent: the reader tests for the key


def is_number(x):
    """A real number; bools, strings and containers are not."""
    return (isinstance(x, (int, float, np.integer, np.floating))
            and not isinstance(x, bool))


def _finite(x, m=None):
    try:
        return is_number(x) and math.isfinite(x)
    except OverflowError:       # an int beyond the float range
        return False


def _integer(low):
    return lambda x, m=None: (is_number(x) and x >= low
                              and (isinstance(x, int) or float(x).is_integer()))


def _list_of(item, length=lambda m: None):
    return lambda x, m=None: (isinstance(x, (list, tuple))
                              and length(m) in (None, len(x)) and all(item(v, m) for v in x))


class Kind(NamedTuple):
    """``doc`` names the values in messages and docs/scenario-format.md,
    ``accepts(value, m)`` tests one (m is the model dimension, which sizes
    some lists) and ``convert`` gives the value the program reads."""

    doc: str
    accepts: Callable
    convert: Callable | None = None

    def check(self, value, path, ctx):
        if not self.accepts(value, ctx.get("m")):
            raise ScenarioError(f"{path} must be {self.doc}, got {value!r}")
        return value if self.convert is None else self.convert(value)


def _floats(x):
    return [float(v) for v in x]


FINITE = Kind("a finite number", _finite, float)
# catalog profile parameters reach the constructors as written: profile
# names such as power(a=1, k=2) echo them
AS_WRITTEN = FINITE._replace(convert=None)
POSITIVE = Kind("a positive finite number", lambda x, m: _finite(x) and x > 0, float)
COUNT = Kind("a positive integer", _integer(1), int)
DIMENSION = Kind(*COUNT)    # the model dimension m, which sizes VECTOR, WINDOW and AXES
SEED = Kind("a non-negative integer", _integer(0), int)
BOOL = Kind("true or false", lambda x, m: isinstance(x, bool))
TEXT = Kind("a string", lambda x, m: isinstance(x, str))
EXPRESSION = TEXT._replace(doc="an expression string")
INF_OR_FINITE = Kind('"inf" or a finite number', lambda x, m: x == "inf" or _finite(x),
                     lambda x: x if x == "inf" else float(x))
NUMBERS = Kind("a list of finite numbers", _list_of(_finite), _floats)
PAIR = Kind("a list of 2 finite numbers", _list_of(_finite, lambda m: 2), _floats)
VECTOR = Kind("a list of m finite numbers", _list_of(_finite, lambda m: m), _floats)
WINDOW = Kind("a list of m-1 [lo, hi] pairs of finite numbers",
              _list_of(PAIR.accepts, lambda m: m - 1),
              lambda x: tuple(tuple(_floats(pair)) for pair in x))
AXES = Kind("a non-empty list of distinct integers in [0, m)",
            lambda x, m: (_list_of(_integer(0))(x) and 0 < len(x) == len(set(x))
                          and max(x) < m),
            lambda x: tuple(int(a) for a in x))


def one_of(*values):
    return Kind("one of " + ", ".join(values), lambda x, m: isinstance(x, str) and x in values)


class Field(NamedTuple):
    """A kind, a default (or REQUIRED or OPTIONAL) and, for a field read
    only next to others, ``only``: (phrase, test of the spec as written)."""

    kind: object
    default: object = REQUIRED
    only: tuple | None = None


# the object at the empty path, a scenario checked alone, whose fields are
# named from it: params.rho
TOP = "scenario"


def _at(path, key):
    return f"{path}.{key}" if path else key


class Spec:
    """An object with declared fields."""

    def __init__(self, noun, fields):
        self.noun, self.fields = noun, fields

    def table(self, spec, path):
        """The fields that ``spec`` may hold, and their owner's name."""
        return self.fields, self.noun

    def check(self, spec, path, ctx=None):
        if not isinstance(spec, dict):
            raise ScenarioError(f"{path or TOP} must be an object, got {spec!r}")
        fields, owner = self.table(spec, path)
        ctx = {} if ctx is None else ctx
        out = {}
        for key, field in fields.items():
            if field.only is not None and not field.only[1](spec):
                if key in spec:
                    raise ScenarioError(f"{_at(path, key)} is read only {field.only[0]}")
            elif key in spec or field.default is not OPTIONAL:
                if key not in spec and field.default is REQUIRED:
                    raise ScenarioError(f"{path or TOP} is missing {key!r}")
                out[key] = field.kind.check(spec.get(key, field.default), _at(path, key), ctx)
                if field.kind is DIMENSION:
                    ctx["m"] = out[key]
        for key in spec:
            if key not in fields:
                raise ScenarioError(f"{_at(path, key)} is not a field of {owner}")
        return out


class Entry(NamedTuple):
    fields: dict
    build: Callable


class Catalog(Spec):
    """Objects whose ``key`` field names the entry that declares their other
    fields, after the ``common`` ones, and builds the object."""

    def __init__(self, noun, default, entries, key="name", common=()):
        super().__init__(noun, {key: Field(TEXT, default), **dict(common)})
        self.entries, self.key = entries, key

    def table(self, spec, path):
        name = spec.get(self.key, self.fields[self.key].default)
        if name is REQUIRED:        # the walk names the missing key
            return self.fields, self.noun
        if not (isinstance(name, str) and name in self.entries):
            raise ScenarioError(f"{_at(path, self.key)} names an unknown {self.noun} {name!r}")
        return {**self.fields, **self.entries[name].fields}, f"{self.noun} {name!r}"

    def build(self, checked, *args):
        return self.entries[checked[self.key]].build(checked, *args)
