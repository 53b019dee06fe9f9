"""Span tracing of the program's layers, installed from outside the program.

``Tracer.install()`` replaces public functions of ``wparab`` with
wrappers at every binding site: the defining module and every other
``wparab`` module that imported the name with ``from ... import``
(``wparab.model.integrate``, ``wparab.montecarlo.classify_parabolic``,
...).  ``uninstall()`` puts the originals back.

A span is recorded at each layer boundary, that is when a wrapped
function of one layer is entered from another layer (or from a job).
Calls within one layer are counted but add no span, so the span count
stays proportional to the number of boundary crossings.  A layer's self
time is the duration of its spans minus the time covered by their child
spans; it is accumulated on the fly and can be recomputed from the
written spans.

``expr`` is flat: its functions call each other and themselves
recursively, so a call made from inside ``expr`` passes straight through
without being counted.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("expr", "radial", "model", "geometry", "criteria", "montecarlo",
          "cli")
JOB = "job"
FLAT = {"expr"}

# (layer, module, class or None, function names).  catalogs is folded
# into cli and verdicts into criteria.
TARGETS = (
    ("expr", "wparab.expr", None, ("evaluate", "eval_dual", "derivatives_1d")),
    ("radial", "wparab.radial", None,
     ("integrate", "classify_improper", "find_root", "expand_bracket")),
    ("model", "wparab.model", "WeightedModel",
     ("capacity_potential", "capacity_to_infinity", "ahlfors_classify",
      "critical_sphere_radius", "sphere_area", "ball_volume",
      "mean_curvature", "weighted_mean_curvature")),
    ("geometry", "wparab.geometry", None,
     ("geometry_at", "weighted_laplacian", "index_form",
      "radial_identity_residual", "radial_hypothesis_profile")),
    ("criteria", "wparab.criteria", None,
     ("classify_parabolic", "classify_hyperbolic", "classify_bounded_drift",
      "classify_radial_weight", "classify_warping_power",
      "classify_translator_halfspace")),
    ("criteria", "wparab.verdicts", None, ("one_sided",)),
    ("montecarlo", "wparab.montecarlo", None,
     ("hit_probability", "comparison_check", "recurrence_probe")),
    ("cli", "wparab.cli", None, ("run_config", "run_scenario")),
    ("cli", "wparab.catalogs", None,
     ("resolve_model", "resolve_warping", "resolve_weight_profile",
      "resolve_ambient_weight", "resolve_submanifold")),
)


class Tracer:
    """In-memory spans, per-function counts and per-layer self time."""

    def __init__(self):
        self.names = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []             # [layer, span index, start, child time]
        self.counts = Counter()
        self.self_time = defaultdict(float)
        self.inclusive = defaultdict(float)   # outermost calls per function
        self.active = Counter()
        self.mc = Counter()         # path-step accounting of hit_probability
        self.job_self = {}
        self.job_inclusive = {}
        self._saved = []

    # -- spans -----------------------------------------------------------

    def _open(self, layer, name, t0):
        idx = len(self.span_start)
        nid = self.names.setdefault(name, len(self.names))
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1][1] if self.stack else -1)
        self.span_start.append(t0)
        self.span_end.append(t0)
        self.stack.append([layer, idx, t0, 0.0])

    def _close(self, t1):
        layer, idx, t0, child = self.stack.pop()
        self.span_end[idx] = t1
        dur = t1 - t0
        self.self_time[layer] += dur - child
        if self.stack:
            self.stack[-1][3] += dur

    @contextmanager
    def job(self, job_id):
        """Root span of one job; keeps the job's own share of the layer
        self times and of the per-function times."""
        self_before = dict(self.self_time)
        incl_before = dict(self.inclusive)
        self._open(JOB, f"job:{job_id}", perf_counter())
        try:
            yield
        finally:
            self._close(perf_counter())
            self.job_self[job_id] = _delta(self.self_time, self_before)
            self.job_inclusive[job_id] = _delta(self.inclusive, incl_before)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, layer, qualname, fn):
        tracer = self
        stack = self.stack
        counts = self.counts
        flat = layer in FLAT
        pre = _PRE.get(qualname)
        post = _POST.get(qualname)

        def wrapper(*args, **kwargs):
            if flat and stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            counts[qualname] += 1
            if pre is not None:
                args, finish = pre(tracer, args)
            boundary = not stack or stack[-1][0] != layer
            outermost = tracer.active[qualname] == 0
            tracer.active[qualname] += 1
            t0 = perf_counter()
            if boundary:
                tracer._open(layer, qualname, t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                if boundary:
                    tracer._close(t1)
                tracer.active[qualname] -= 1
                if outermost:
                    tracer.inclusive[qualname] += t1 - t0
                if pre is not None:
                    finish()
            if post is not None:
                post(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "wparab" or name.startswith("wparab.")]
        for layer, modname, clsname, names in TARGETS:
            owner = sys.modules[modname]
            if clsname is not None:
                cls = getattr(owner, clsname)
                for name in names:
                    orig = cls.__dict__[name]
                    self._saved.append((cls, name, orig))
                    setattr(cls, name, self._wrap(layer, f"{layer}.{name}", orig))
                continue
            for name in names:
                orig = getattr(owner, name)
                wrapped = self._wrap(layer, f"{layer}.{name}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._saved.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- output ------------------------------------------------------------

    def write(self, path):
        """Spans as JSON lines: a header naming the fields, then one
        [name, parent, start_s, end_s] row per span in start order."""
        names = sorted(self.names, key=self.names.get)
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "parent", "start_s",
                                            "end_s"], "names": names}) + "\n")
            for row in zip(self.span_name, self.span_parent,
                           self.span_start, self.span_end):
                fh.write(json.dumps(row) + "\n")


def self_times_from_spans(names, rows):
    """Recompute per-layer self time from written spans."""
    child = defaultdict(float)
    for _, parent, start, end in rows:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(float)
    for idx, (nid, _, start, end) in enumerate(rows):
        name = names[nid]
        layer = JOB if name.startswith("job:") else name.split(".")[0]
        out[layer] += end - start - child[idx]
    return out


def _delta(now, before):
    return {k: v - before.get(k, 0.0) for k, v in now.items()
            if v != before.get(k, 0.0)}


# -- hooks ---------------------------------------------------------------


def _count_integrand(tracer, args):
    f, *rest = args
    evals = [0]

    def counted(x):
        evals[0] += 1
        return f(x)

    def finish():
        tracer.counts["radial.integrate.evals"] += evals[0]

    return (counted, *rest), finish


def _doublings(tracer, args, verdict):
    tracer.counts["radial.classify_improper.doublings"] += len(verdict.cutoffs)


def _path_steps(tracer, args, est):
    """Path-steps of one estimate, computed from its report: a path that
    exits at time tau took tau/dtau + 1 - lambda steps, lambda in [0, 1)
    averaging 1/2; an unresolved path ran the full max_steps."""
    spec = args[0]
    resolved = est.n_inner + est.n_outer
    steps = resolved / 2.0 + est.n_unresolved * spec.max_steps
    if resolved:
        steps += est.mean_exit_time * resolved / est.dtau
    weight = getattr(spec.P.ambient, "weight", None)
    drifted = type(weight).__name__ != "ZeroWeight"
    tracer.mc["path_steps"] += steps
    tracer.mc["drifted_path_steps" if drifted else "driftless_path_steps"] += steps
    tracer.mc["paths"] += est.n_paths
    tracer.mc["unresolved"] += est.n_unresolved


_PRE = {"radial.integrate": _count_integrand}
_POST = {"radial.classify_improper": _doublings,
         "montecarlo.hit_probability": _path_steps}
