"""Name-based catalogs resolving scenario references to objects.

The names here are the stable public contract of the scenario format:
models {euclidean, hyperbolic, paraboloid, custom}, weights {zero,
gaussian, antigaussian, power, logpow, custom}, submanifolds {sphere,
plane, cylinder, graph, helicoid, grim_curve}.
"""

from __future__ import annotations

import numpy as np

from . import expr as ex
from . import geometry as ge
from . import radial as rd
from .errors import CatalogError
from .model import WeightedModel


def _param(spec, key, part):
    """spec[key], or a CatalogError naming the part and its missing field."""
    try:
        return spec[key]
    except KeyError:
        raise CatalogError(f"{part} is missing parameter {key!r}") from None


def resolve_warping(spec):
    name = spec.get("name", "euclidean")
    if name == "euclidean":
        return rd.warping_euclidean()
    if name == "hyperbolic":
        return rd.warping_hyperbolic(spec.get("kappa", -1.0))
    if name == "paraboloid":
        return rd.warping_paraboloid()
    if name == "custom":
        source = _param(spec, "expr", "warping 'custom'")
        profile = rd.RadialProfile.from_expression(source)
        return rd.WarpingFunction(profile.fn, profile.d1, profile.d2,
                                  name=source)
    raise CatalogError(f"unknown warping {name!r}")


def resolve_weight_profile(spec, warping=None):
    name = spec.get("name", "zero")
    part = f"weight {name!r}"
    if name == "zero":
        return rd.weight_zero()
    if name == "gaussian":
        return rd.weight_gaussian()
    if name == "antigaussian":
        return rd.weight_antigaussian()
    if name == "power":
        return rd.weight_power(_param(spec, "a", part), _param(spec, "k", part))
    if name == "logpow":
        if warping is None:
            raise ValueError("logpow weight needs the warping function")
        return rd.weight_logpow(_param(spec, "k", part), warping)
    if name == "custom":
        return rd.RadialProfile.from_expression(_param(spec, "expr", part),
                                                t_min=spec.get("t_min", 0.0))
    raise CatalogError(f"unknown weight {name!r}")


def resolve_model(spec):
    warping = resolve_warping(spec.get("warping", spec.get("w", {})))
    weight = resolve_weight_profile(spec.get("weight", spec.get("f", {})),
                                    warping=warping)
    return WeightedModel(int(_param(spec, "m", "model")), warping, weight)


def resolve_ambient_weight(spec, m, warping=None):
    """Euclidean ambient weight: radial catalog entries, height, or custom."""
    name = spec.get("name", "zero")
    part = f"weight {name!r}"
    if name == "zero":
        return ge.ZeroWeight()
    if name == "height":
        mu = resolve_weight_profile(spec.get("mu", {"name": "custom",
                                                    "expr": "t"}))
        return ge.HeightWeight(mu, m)
    if name == "translator":
        mu = rd.RadialProfile(lambda t: t + 0.0 * t, lambda t: 1.0 + 0.0 * t,
                              lambda t: 0.0 * t, name="height")
        return ge.HeightWeight(mu, m)
    if name == "split":
        eta = resolve_ambient_weight(_param(spec, "eta", part), m - 1, warping)
        mu = resolve_weight_profile(_param(spec, "mu", part))
        return ge.SplitWeight(eta, mu, m)
    if name == "custom_coords":
        return ge.ExprWeight(_param(spec, "expr", part), m)
    return ge.RadialWeight(resolve_weight_profile(spec, warping=warping))


def resolve_immersion(scenario, default_submanifold=None):
    """Warping and immersion (model dimension, ambient weight and
    submanifold) of an ``mc-verify`` or ``check-identities`` scenario."""
    model = _param(scenario, "model", "scenario")
    m = int(_param(model, "m", "model"))
    warping = resolve_warping(model.get("warping", {}))
    weight = resolve_ambient_weight(model.get("weight", {"name": "zero"}), m,
                                    warping)
    if default_submanifold is not None:
        scenario = {"submanifold": default_submanifold, **scenario}
    sub = _param(scenario, "submanifold", "scenario")
    return warping, resolve_submanifold(sub, m, weight)


def resolve_submanifold(spec, m, weight):
    name = _param(spec, "name", "submanifold")
    part = f"submanifold {name!r}"
    if name == "sphere":
        return ge.euclidean_sphere(float(_param(spec, "a", part)), m, weight)
    if name == "plane":
        if "axes" in spec:
            return ge.coordinate_plane(m, tuple(spec["axes"]), weight)
        return ge.hyperplane(m, np.asarray(_param(spec, "normal", part), dtype=float),
                             float(spec.get("offset", 0.0)), weight)
    if name == "cylinder":
        return ge.cylinder_hypersurface(float(_param(spec, "a", part)),
                                        int(_param(spec, "k", part)), m, weight)
    if name == "graph":
        source = _param(spec, "expr", part)
        ast = ex.parse(source, [f"x{i + 1}" for i in range(m - 1)])

        def phi(u):
            return ex.evaluate(ast, {f"x{i + 1}": u[i] for i in range(m - 1)})

        window = tuple(tuple(w) for w in spec["window"]) if "window" in spec else None
        return ge.graph_hypersurface(phi, m, weight, window=window,
                                     name=f"graph({source})")
    if name == "paraboloid_graph":
        return ge.paraboloid_graph(m, weight)
    if name == "helicoid":
        return ge.helicoid(float(spec.get("pitch", 1.0)), weight)
    if name == "grim_curve":
        return ge.grim_curve()
    if name == "radial_scenario":
        return ge.identity_chart(m, weight)
    raise CatalogError(f"unknown submanifold {name!r}")
