"""Name-based catalogs resolving scenario specs to objects.

Each catalog entry declares the fields of its spec (``wparab.fields``)
and the builder that makes its object from the checked spec.  The names
are the stable public contract of the scenario format: warpings
{euclidean, hyperbolic, paraboloid, custom}; radial weights {zero,
gaussian, antigaussian, power, logpow, custom}; ambient weights, the
radial ones plus {height, translator, split, custom_coords}; submanifolds
{sphere, plane, cylinder, graph, paraboloid_graph, helicoid, grim_curve,
radial_scenario}.
"""

from __future__ import annotations

import numpy as np

from . import expr as ex
from . import geometry as ge
from . import radial as rd
from .fields import (AS_WRITTEN, AXES, COUNT, DIMENSION, EXPRESSION, FINITE, OPTIONAL,
                     REQUIRED, VECTOR, WINDOW, Catalog, Entry, Field, Spec)
from .model import WeightedModel


WARPINGS = Catalog("warping", "euclidean", {
    "euclidean": Entry({}, lambda s: rd.warping_euclidean()),
    "hyperbolic": Entry({"kappa": Field(AS_WRITTEN, -1.0)},
                        lambda s: rd.warping_hyperbolic(s["kappa"])),
    "paraboloid": Entry({}, lambda s: rd.warping_paraboloid()),
    "custom": Entry({"expr": Field(EXPRESSION)},
                    lambda s: rd.WarpingFunction.from_expression(s["expr"])),
})


def _logpow(spec, warping):
    if warping is None:
        raise ValueError("logpow weight needs the warping function")
    return rd.weight_logpow(spec["k"], warping)


# builders take the checked spec and the model's warping
WEIGHTS = Catalog("weight", "zero", {
    "zero": Entry({}, lambda s, w: rd.weight_zero()),
    "gaussian": Entry({}, lambda s, w: rd.weight_gaussian()),
    "antigaussian": Entry({}, lambda s, w: rd.weight_antigaussian()),
    "power": Entry({"a": Field(AS_WRITTEN), "k": Field(AS_WRITTEN)},
                   lambda s, w: rd.weight_power(s["a"], s["k"])),
    "logpow": Entry({"k": Field(AS_WRITTEN)}, _logpow),
    "custom": Entry({"expr": Field(EXPRESSION), "t_min": Field(AS_WRITTEN, 0.0)},
                    lambda s, w: rd.RadialProfile.from_expression(s["expr"],
                                                                  t_min=s["t_min"])),
})


def _radial(entry):
    return Entry(entry.fields, lambda s, m, w: ge.RadialWeight(entry.build(s, w)))


# builders take the checked spec, the dimension and the model's warping
AMBIENT_WEIGHTS = Catalog("ambient weight", "zero", {
    **{name: _radial(entry) for name, entry in WEIGHTS.entries.items()},
    "zero": Entry({}, lambda s, m, w: ge.ZeroWeight()),
    "height": Entry({"mu": Field(WEIGHTS, {"name": "custom", "expr": "t"})},
                    lambda s, m, w: ge.HeightWeight(WEIGHTS.build(s["mu"], w), m)),
    "translator": Entry({}, lambda s, m, w: ge.HeightWeight(rd.weight_height(), m)),
    "custom_coords": Entry({"expr": Field(EXPRESSION)},
                           lambda s, m, w: ge.ExprWeight(s["expr"], m)),
})
AMBIENT_WEIGHTS.entries["split"] = Entry(
    {"eta": Field(AMBIENT_WEIGHTS), "mu": Field(WEIGHTS)},
    lambda s, m, w: ge.SplitWeight(AMBIENT_WEIGHTS.build(s["eta"], m - 1, w),
                                   WEIGHTS.build(s["mu"], w), m))

MODEL = Spec("model", {"m": Field(DIMENSION), "warping": Field(WARPINGS, {}),
                       "weight": Field(WEIGHTS, {})})
IMMERSION_MODEL = Spec("immersion model",
                       {**MODEL.fields, "weight": Field(AMBIENT_WEIGHTS, {})})


def _plane(spec, m, weight):
    if "axes" in spec:
        return ge.coordinate_plane(m, spec["axes"], weight)
    return ge.hyperplane(m, np.asarray(spec["normal"]), spec["offset"], weight)


def _graph(spec, m, weight):
    names = [f"x{i + 1}" for i in range(m - 1)]
    ast = ex.parse(spec["expr"], names)

    def phi(u):
        return ex.evaluate(ast, dict(zip(names, u)))

    return ge.graph_hypersurface(phi, m, weight, window=spec.get("window"),
                                 name=f"graph({spec['expr']})")


WITHOUT_AXES = ("without axes", lambda spec: "axes" not in spec)
# builders take the checked spec, the dimension and the ambient weight
SUBMANIFOLDS = Catalog("submanifold", REQUIRED, {
    "sphere": Entry({"a": Field(FINITE)},
                    lambda s, m, w: ge.euclidean_sphere(s["a"], m, w)),
    "plane": Entry({"axes": Field(AXES, OPTIONAL),
                    "normal": Field(VECTOR, only=WITHOUT_AXES),
                    "offset": Field(FINITE, 0.0, only=WITHOUT_AXES)}, _plane),
    "cylinder": Entry({"a": Field(FINITE), "k": Field(COUNT)},
                      lambda s, m, w: ge.cylinder_hypersurface(s["a"], s["k"], m, w)),
    "graph": Entry({"expr": Field(EXPRESSION), "window": Field(WINDOW, OPTIONAL)}, _graph),
    "paraboloid_graph": Entry({}, lambda s, m, w: ge.paraboloid_graph(m, w)),
    "helicoid": Entry({"pitch": Field(FINITE, 1.0)}, lambda s, m, w: ge.helicoid(s["pitch"], w)),
    "grim_curve": Entry({}, lambda s, m, w: ge.grim_curve()),
    "radial_scenario": Entry({}, lambda s, m, w: ge.identity_chart(m, w)),
})


def resolve_warping(spec):
    return WARPINGS.build(WARPINGS.check(spec, "warping"))


def resolve_weight_profile(spec, warping=None):
    return WEIGHTS.build(WEIGHTS.check(spec, "weight"), warping)


def resolve_model(spec):
    spec = MODEL.check(spec, "model")
    warping = resolve_warping(spec["warping"])
    return WeightedModel(spec["m"], warping, resolve_weight_profile(spec["weight"], warping))


def resolve_ambient_weight(spec, m, warping=None):
    """Euclidean ambient weight: a radial catalog entry, height, translator,
    split or custom_coords."""
    return AMBIENT_WEIGHTS.build(AMBIENT_WEIGHTS.check(spec, "weight"), m, warping)


def resolve_immersion(scenario):
    """Warping and immersion (model dimension, ambient weight and
    submanifold) of an ``mc-verify`` or ``check-identities`` scenario."""
    model = IMMERSION_MODEL.check(scenario["model"], "model")
    m, warping = model["m"], resolve_warping(model["warping"])
    weight = resolve_ambient_weight(model["weight"], m, warping)
    return warping, resolve_submanifold(scenario["submanifold"], m, weight)


def resolve_submanifold(spec, m, weight):
    return SUBMANIFOLDS.build(SUBMANIFOLDS.check(spec, "submanifold", {"m": m}), m, weight)
