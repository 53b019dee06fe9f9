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
from .errors import (CatalogError, DomainError, finite_number, json_object, number_list,
                     whole_number)
from .model import WeightedModel


def _param(spec, key, part):
    """spec[key], or a CatalogError naming the part and its missing field."""
    try:
        return spec[key]
    except KeyError:
        raise CatalogError(f"{part} is missing parameter {key!r}") from None


def _number(spec, key, part, default=None, check=finite_number):
    """spec[key], or ``default`` for an absent key when one is given, once
    ``check`` passes it: a DomainError names the part and the field, e.g.
    ``weight 'power' parameter 'a' must be a finite number, got True``.  The
    value is returned unconverted, as profile names such as power(a=1, k=2)
    echo it."""
    value = spec.get(key, default) if default is not None else _param(spec, key, part)
    check(f"{part} parameter {key!r}", value)
    return value


def _window(spec, part, n):
    """A graph's parameter box: n [lo, hi] pairs of finite numbers."""
    name, window = f"{part} parameter 'window'", spec["window"]
    if not isinstance(window, (list, tuple)) or len(window) != n:
        raise DomainError(f"{name} must be a list of {n} [lo, hi] pairs, got {window!r}")
    return tuple(tuple(number_list(name, w, 2)) for w in window)


def _axes(spec, part, m):
    """A plane's coordinate axes: distinct whole numbers in [0, m)."""
    name, axes = f"{part} parameter 'axes'", spec["axes"]
    if not isinstance(axes, (list, tuple)) or not axes:
        raise DomainError(f"{name} must be a non-empty list of axes, got {axes!r}")
    checked = [whole_number(name, a, positive=False) for a in axes]
    if max(checked) >= m or len(set(checked)) < len(checked):
        raise DomainError(f"{name} must be distinct axes in [0, {m}), got {axes!r}")
    return tuple(checked)


def resolve_warping(spec):
    name = json_object("warping", spec).get("name", "euclidean")
    if name == "euclidean":
        return rd.warping_euclidean()
    if name == "hyperbolic":
        return rd.warping_hyperbolic(_number(spec, "kappa", "warping 'hyperbolic'", -1.0))
    if name == "paraboloid":
        return rd.warping_paraboloid()
    if name == "custom":
        source = _param(spec, "expr", "warping 'custom'")
        profile = rd.RadialProfile.from_expression(source)
        return rd.WarpingFunction(profile.fn, profile.d1, profile.d2,
                                  name=source)
    raise CatalogError(f"unknown warping {name!r}")


def resolve_weight_profile(spec, warping=None):
    name = json_object("weight", spec).get("name", "zero")
    part = f"weight {name!r}"
    if name == "zero":
        return rd.weight_zero()
    if name == "gaussian":
        return rd.weight_gaussian()
    if name == "antigaussian":
        return rd.weight_antigaussian()
    if name == "power":
        return rd.weight_power(_number(spec, "a", part), _number(spec, "k", part))
    if name == "logpow":
        if warping is None:
            raise ValueError("logpow weight needs the warping function")
        return rd.weight_logpow(_number(spec, "k", part), warping)
    if name == "custom":
        return rd.RadialProfile.from_expression(_param(spec, "expr", part),
                                                t_min=_number(spec, "t_min", part, 0.0))
    raise CatalogError(f"unknown weight {name!r}")


def _dimension(model):
    """The model dimension m of a model spec, checked like a catalog number."""
    return int(_number(json_object("model", model), "m", "model", check=whole_number))


def resolve_model(spec):
    m = _dimension(spec)
    warping = resolve_warping(spec.get("warping", spec.get("w", {})))
    weight = resolve_weight_profile(spec.get("weight", spec.get("f", {})),
                                    warping=warping)
    return WeightedModel(m, warping, weight)


def resolve_ambient_weight(spec, m, warping=None):
    """Euclidean ambient weight: radial catalog entries, height, or custom."""
    name = json_object("weight", spec).get("name", "zero")
    part = f"weight {name!r}"
    if name == "zero":
        return ge.ZeroWeight()
    if name == "height":
        mu = resolve_weight_profile(spec.get("mu", {"name": "custom", "expr": "t"}),
                                    warping=warping)
        return ge.HeightWeight(mu, m)
    if name == "translator":
        return ge.HeightWeight(rd.weight_height(), m)
    if name == "split":
        eta = resolve_ambient_weight(_param(spec, "eta", part), m - 1, warping)
        mu = resolve_weight_profile(_param(spec, "mu", part), warping=warping)
        return ge.SplitWeight(eta, mu, m)
    if name == "custom_coords":
        return ge.ExprWeight(_param(spec, "expr", part), m)
    return ge.RadialWeight(resolve_weight_profile(spec, warping=warping))


def resolve_immersion(scenario, default_submanifold=None):
    """Warping and immersion (model dimension, ambient weight and
    submanifold) of an ``mc-verify`` or ``check-identities`` scenario."""
    model = _param(scenario, "model", "scenario")
    m = _dimension(model)
    warping = resolve_warping(model.get("warping", {}))
    weight = resolve_ambient_weight(model.get("weight", {"name": "zero"}), m,
                                    warping)
    if default_submanifold is not None:
        scenario = {"submanifold": default_submanifold, **scenario}
    sub = _param(scenario, "submanifold", "scenario")
    return warping, resolve_submanifold(sub, m, weight)


def resolve_submanifold(spec, m, weight):
    name = _param(json_object("submanifold", spec), "name", "submanifold")
    part = f"submanifold {name!r}"
    if name == "sphere":
        return ge.euclidean_sphere(float(_number(spec, "a", part)), m, weight)
    if name == "plane":
        if "axes" in spec:
            return ge.coordinate_plane(m, _axes(spec, part, m), weight)
        normal = number_list(f"{part} parameter 'normal'", _param(spec, "normal", part), m)
        return ge.hyperplane(m, np.asarray(normal), float(_number(spec, "offset", part, 0.0)),
                             weight)
    if name == "cylinder":
        return ge.cylinder_hypersurface(float(_number(spec, "a", part)),
                                        int(_number(spec, "k", part, check=whole_number)),
                                        m, weight)
    if name == "graph":
        source = _param(spec, "expr", part)
        ast = ex.parse(source, [f"x{i + 1}" for i in range(m - 1)])

        def phi(u):
            return ex.evaluate(ast, {f"x{i + 1}": u[i] for i in range(m - 1)})

        window = _window(spec, part, m - 1) if "window" in spec else None
        return ge.graph_hypersurface(phi, m, weight, window=window,
                                     name=f"graph({source})")
    if name == "paraboloid_graph":
        return ge.paraboloid_graph(m, weight)
    if name == "helicoid":
        return ge.helicoid(float(_number(spec, "pitch", part, 1.0)), weight)
    if name == "grim_curve":
        return ge.grim_curve()
    if name == "radial_scenario":
        return ge.identity_chart(m, weight)
    raise CatalogError(f"unknown submanifold {name!r}")
