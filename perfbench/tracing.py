"""Spans around nnstokes' public functions, recorded from outside the package.

Every module of the package that bound a traced function (``from .spectral
import pad_coeffs`` in ``stokes``, say) gets its binding replaced by a
wrapper, so a span names the place the call came from, such as
``nnstokes.stokes.pad_coeffs``. Spans are kept in memory; a layer's self
time is its span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

_SCHEME_LABELS = {"spectral_rk4": "rk4", "semi_lagrangian": "sl"}

# Counts that are a pure function of the inputs; a difference between two
# runs of one seed is a failure, not noise.
EXACT_COUNTS = (
    "stokes.iters",
    "stokes.evals",
    "simulator.solves",
    "simulator.steps",
    "spectral.pad_coeffs.calls",
    "spectral.restrict_coeffs.calls",
)

_CALLS_AND_SELF = (
    "spectral.pad_coeffs", "spectral.restrict_coeffs", "spectral.project_div_free",
    "spectral.to_grid", "spectral.to_spectral", "stokes.solve", "stokes.diagnostics",
    "stokes.gap", "transport.advect_step.rk4", "transport.advect_step.sl",
    "transport.speed_sup", "simulator.smooth", "fields.generate",
)
_SELF_ONLY = ("simulator.run", "io_formats.write", "batteries.monotonicity", "cli.main")


def _array_bytes(args, kwargs, result):
    """Bytes read plus bytes written by a pad or restrict call, computed from
    the array sizes; per-axis temporaries are not counted."""
    return {"bytes": args[0].nbytes + result.nbytes}


def _solve_info(args, kwargs, result):
    report = result[1]
    return {"iters": report.iterations, "evals": report.n_evals,
            "converged": bool(report.converged)}


def _written_bytes(args, kwargs, result):
    if isinstance(result, str):  # write_diagnostics returns the CSV text
        return {"bytes": len(result.encode("utf-8"))}
    return {"bytes": os.path.getsize(args[0])}  # write_snapshot(path, ...)


def _scheme_label(args, kwargs):
    scheme = kwargs["scheme"] if "scheme" in kwargs else args[2]
    return "transport.advect_step." + _SCHEME_LABELS[scheme.kind]


# (layer label, or a function of the call's arguments giving it; defining
# module; function names; function of (args, kwargs, result) giving the span's info)
_TARGETS = (
    ("spectral.pad_coeffs", "spectral", ("pad_coeffs",), _array_bytes),
    ("spectral.restrict_coeffs", "spectral", ("restrict_coeffs",), _array_bytes),
    ("spectral.project_div_free", "spectral", ("project_div_free",), None),
    ("spectral.to_grid", "spectral", ("to_grid",), None),
    ("spectral.to_spectral", "spectral", ("to_spectral",), None),
    ("stokes.solve", "stokes", ("solve_stokes",), _solve_info),
    ("stokes.diagnostics", "stokes", ("solution_diagnostics",), None),
    ("stokes.gap", "stokes", ("monotonicity_gap", "monotonicity_gap_with_scale"), None),
    (_scheme_label, "transport", ("advect_step",), None),
    ("transport.speed_sup", "transport", ("speed_sup",), None),
    ("simulator.run", "simulator", ("run",), None),
    ("simulator.smooth", "simulator", ("smooth_density", "smooth_velocity"), None),
    ("io_formats.parse_config", "io_formats", ("parse_config",), None),
    ("io_formats.write", "io_formats", ("write_diagnostics", "write_snapshot"), _written_bytes),
    ("batteries.monotonicity", "batteries", ("run_monotonicity_battery",), None),
    ("fields.generate", "fields", ("constant_field", "sine1_field", "sines2_field",
                                   "stratified_field", "random_band_field", "rough_field",
                                   "random_velocity"), None),
    ("cli.main", "cli", ("main",), None),
)


class Tracer:
    """Records one span per call of a traced function while installed.

    A span is ``[label, site, parent, start, end, info]``; ``parent`` is the
    index of the enclosing span or -1.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, fn, label, site, info):
        spans = self.spans
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label(args, kwargs) if callable(label) else label
            span = [name, site, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Replace every binding of a traced function in every loaded
        nnstokes module, including module-level dicts such as BATTERIES."""
        targets = {}
        for label, module, names, info in _TARGETS:
            mod = sys.modules["nnstokes." + module]
            for name in names:
                fn = getattr(mod, name)
                targets[id(fn)] = (fn, label, info)
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "nnstokes" or key.startswith("nnstokes.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in targets:
                    self._patch(vars(mod), attr, f"{mod.__name__}.{attr}", targets[id(value)])
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if id(entry) in targets:
                            self._patch(value, key, f"{mod.__name__}.{attr}[{key!r}]",
                                        targets[id(entry)])

    def _patch(self, namespace, key, site, target):
        fn, label, info = target
        self._patches.append((namespace, key, fn))
        namespace[key] = self._wrap(fn, label, site, info)

    def uninstall(self):
        for namespace, key, fn in reversed(self._patches):
            namespace[key] = fn
        self._patches.clear()

    def write(self, path, origin):
        """Write the spans as JSON lines: id, parent, label, site, start and
        end in seconds after ``origin``, and the call's info."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (label, site, parent, start, end, info) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, label, site, round(start - origin, 9),
                                     round(end - origin, 9), info]) + "\n")


def layer_metrics(spans, first=0):
    """Per-layer counts and self times of the spans from index ``first`` on."""
    child_time = {}
    for label, site, parent, start, end, info in spans[first:]:
        if parent >= first:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    calls = {}
    self_s = {}
    total_s = {}
    sums = {}
    sim_children = {}
    for i in range(first, len(spans)):
        label, site, parent, start, end, info = spans[i]
        dur = end - start
        calls[label] = calls.get(label, 0) + 1
        self_s[label] = self_s.get(label, 0.0) + dur - child_time.get(i, 0.0)
        total_s[label] = total_s.get(label, 0.0) + dur
        for key, value in (info or {}).items():
            sums[(label, key)] = sums.get((label, key), 0) + value
        if parent >= first and spans[parent][0] == "simulator.run":
            sim_children[label] = sim_children.get(label, 0) + 1

    out = {}
    for label in _CALLS_AND_SELF:
        out[label + ".calls"] = calls.get(label, 0)
        out[label + ".self_s"] = self_s.get(label, 0.0)
    for label in _SELF_ONLY:
        out[label + ".self_s"] = self_s.get(label, 0.0)
    for label in ("spectral.pad_coeffs", "spectral.restrict_coeffs"):
        out[label + ".bytes"] = sums.get((label, "bytes"), 0)

    iters = sums.get(("stokes.solve", "iters"), 0)
    evals = sums.get(("stokes.solve", "evals"), 0)
    out["stokes.iters"] = iters
    out["stokes.evals"] = evals
    out["stokes.ms_per_eval"] = 1000.0 * total_s.get("stokes.solve", 0.0) / evals if evals else 0.0
    out["stokes.iters_per_eval"] = iters / evals if evals else 0.0
    out["stokes.unconverged"] = calls.get("stokes.solve", 0) - sums.get(("stokes.solve", "converged"), 0)

    out["simulator.solves"] = sim_children.get("stokes.solve", 0)
    out["simulator.steps"] = (sim_children.get("transport.advect_step.rk4", 0)
                              + sim_children.get("transport.advect_step.sl", 0))
    out["simulator.outputs"] = sim_children.get("stokes.diagnostics", 0)

    out["io_formats.parse_config_s"] = total_s.get("io_formats.parse_config", 0.0)
    out["io_formats.bytes_written"] = sums.get(("io_formats.write", "bytes"), 0)
    return out
