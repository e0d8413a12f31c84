"""Span tracer that wraps hyperglue's public functions from the outside.

`Tracer.install` replaces every public function and public method of the
hyperglue modules with a timing wrapper.  A name is patched where it is
defined and in every module that rebinds it with `from ... import` (found
by object identity), and `voronoi.linprog` is wrapped to count LP calls and
statuses.  Spans (name, start, end, parent) are kept in memory; each span's
self time is its duration minus the time of the wrapped calls inside it.

Element operations of `numfield` and the steps of generators are so frequent
that they are aggregated per name instead of being kept as spans; their time
is still subtracted from the enclosing span.
"""

from __future__ import annotations

import enum
import functools
import inspect
import time
from collections import defaultdict

from hyperglue import cli, glueing, hyperboloid, numfield, qforms, svgout, voronoi
from hyperglue.numfield import QuadFieldElement

MODULES = (numfield, qforms, hyperboloid, voronoi, glueing, svgout, cli)
_NUMFIELD_DUNDERS = {
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__eq__", "__hash__", "__bool__",
}


def _exact_arg(a) -> bool:
    if isinstance(a, (list, tuple)) and a:
        head = a[0]
        if isinstance(head, QuadFieldElement):
            return True
        return isinstance(head, (list, tuple)) and bool(head) and isinstance(head[0], QuadFieldElement)
    return False


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.active = False
        self._stack: list[list] = []  # frames: [child_time, span id]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self._last_undecidable = None

    # -- spans --------------------------------------------------------------------

    def call(self, name: str, fn, args=(), kwargs=None, record: bool = True):
        """Run fn(*args) as a span; a non-recorded span only aggregates its time."""
        stack = self._stack
        if record:
            span_id = self._next_id
            self._next_id += 1
        else:
            span_id = stack[-1][1] if stack else -1
        parent = stack[-1][1] if stack else -1
        frame = [0.0, span_id]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            self.self_s[name] += duration - frame[0]
            self.calls[name] += 1
            if stack:
                stack[-1][0] += duration
            if record:
                self.spans.append((name, start, end, parent))

    def _wrap(self, fn, name, record=True, classify=None, hook=None):
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                return _TracedIterator(tracer, name, gen) if tracer.active else gen

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = classify(args) if classify else name
            try:
                result = tracer.call(span, fn, args, kwargs, record)
            except voronoi.UndecidableError as exc:
                # count each error once, in the innermost wrapper it leaves
                if exc is not tracer._last_undecidable:
                    tracer._last_undecidable = exc
                    tracer.counts["voronoi.undecidable"] += 1
                raise
            if hook:
                hook(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    # -- patching -----------------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}  # id(original) -> wrapper
        originals: dict[int, object] = {}
        for mod in MODULES:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__ or attr.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._function_wrapper(layer, attr, obj)
                    originals[id(obj)] = obj
                elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, tuple, BaseException)):
                    self._patch_methods(layer, obj)
        for mod in MODULES:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and originals[id(obj)] is obj:
                    self._set(mod, attr, wrappers[id(obj)])
        self._set(
            voronoi,
            "linprog",
            self._wrap(voronoi.linprog, "voronoi.lp", hook=_count_lp_status),
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _set(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _function_wrapper(self, layer, attr, fn):
        if layer == "numfield":
            return self._wrap(fn, "numfield.fn", record=False)
        if layer == "hyperboloid":
            exact, floating = f"hyperboloid.exact.{attr}", f"hyperboloid.float.{attr}"
            if attr.startswith("exact_"):
                return self._wrap(fn, exact)
            # bilinear, reflection, is_isometry, ... take the exact path for exact vectors
            return self._wrap(
                fn, floating, classify=lambda args: exact if any(map(_exact_arg, args)) else floating
            )
        record = not inspect.isgeneratorfunction(fn)
        return self._wrap(fn, f"{layer}.{attr}", record=record, hook=_HOOKS.get(f"{layer}.{attr}"))

    def _patch_methods(self, layer, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            binder = type(obj) if isinstance(obj, (classmethod, staticmethod)) else None
            fn = obj.__func__ if binder else obj
            if not inspect.isfunction(fn):
                continue
            if cls is QuadFieldElement:
                if attr.startswith("_") and attr not in _NUMFIELD_DUNDERS:
                    continue
                name = {"embed": "numfield.embed", "__init__": "numfield.init"}.get(
                    attr, "numfield.fn" if binder else "numfield.op"
                )
                wrapper = self._wrap(fn, name, record=False)
            elif attr.startswith("_") and attr != "__init__":
                continue
            else:
                kind = "hyperboloid.float" if layer == "hyperboloid" else layer
                wrapper = self._wrap(fn, f"{kind}.{cls.__name__}.{attr}")
            self._set(cls, attr, binder(wrapper) if binder else wrapper)

    # -- results --------------------------------------------------------------------

    def layer_self(self, prefix: str) -> float:
        return sum(v for k, v in self.self_s.items() if k == prefix or k.startswith(prefix + "."))

    def layer_calls(self, prefix: str) -> int:
        return sum(v for k, v in self.calls.items() if k == prefix or k.startswith(prefix + "."))


class _TracedIterator:
    """Times each step of a library generator as an aggregated span."""

    __slots__ = ("tracer", "name", "gen")

    def __init__(self, tracer, name, gen):
        self.tracer, self.name, self.gen = tracer, name, gen

    def __iter__(self):
        return self

    def __next__(self):
        item = self.tracer.call(self.name, next, (self.gen,), record=False)
        self.tracer.counts[f"{self.name}.items"] += 1
        return item


def _count_lp_status(counts, _args, _kwargs, result):
    counts["voronoi.lp.nonoptimal"] += int(result.status != 0)


def _count_orbit(counts, _args, _kwargs, result):
    counts["voronoi.orbit_points"] += len(result.points)


def _count_cell(counts, args, kwargs, result):
    orbit = args[1] if len(args) > 1 else kwargs["orbit"]
    counts["voronoi.candidates"] += len(orbit.points) - 1
    counts["voronoi.facets_kept"] += len(result.facets)


_HOOKS = {
    "voronoi.build_orbit": _count_orbit,
    "voronoi.dirichlet_cell": _count_cell,
}


def per_layer_metrics(tracer: Tracer, passes: int, traced_pass_s: float,
                      untraced_pass_s: float, task_counts: dict) -> dict:
    """Per-pass layer numbers named as in BENCHMARK.json's per_layer list."""
    t = tracer

    candidates = t.counts["voronoi.candidates"]
    values = {
        "numfield.self_s": (t.layer_self("numfield"), "s"),
        "numfield.ops": (t.calls["numfield.op"], "count"),
        "numfield.embed.calls": (t.calls["numfield.embed"], "count"),
        "qforms.self_s": (t.layer_self("qforms"), "s"),
        "qforms.calls": (t.layer_calls("qforms"), "count"),
        "hyperboloid.exact.self_s": (t.layer_self("hyperboloid.exact"), "s"),
        "hyperboloid.float.self_s": (t.layer_self("hyperboloid.float"), "s"),
        "hyperboloid.float.calls": (t.layer_calls("hyperboloid.float"), "count"),
        "hyperboloid.float_coefficients.calls": (t.calls["hyperboloid.float.float_coefficients"], "count"),
        "hyperboloid.jn_chart.calls": (t.calls["hyperboloid.float.jn_chart"], "count"),
        "hyperboloid.same_as.calls": (t.calls["hyperboloid.float.Hyperplane.same_as"], "count"),
        "voronoi.self_s": (t.layer_self("voronoi") - t.layer_self("voronoi.lp"), "s"),
        "voronoi.build_orbit.self_s": (t.self_s["voronoi.build_orbit"], "s"),
        "voronoi.orbit_points": (t.counts["voronoi.orbit_points"], "count"),
        "voronoi.dirichlet_cell.self_s": (t.self_s["voronoi.dirichlet_cell"], "s"),
        "voronoi.dirichlet_cell.calls": (t.calls["voronoi.dirichlet_cell"], "count"),
        "voronoi.candidates": (candidates, "count"),
        "voronoi.facets_kept": (t.counts["voronoi.facets_kept"], "count"),
        "voronoi.lp.calls": (t.calls["voronoi.lp"], "count"),
        "voronoi.lp.self_s": (t.self_s["voronoi.lp"], "s"),
        "voronoi.lp.nonoptimal": (t.counts["voronoi.lp.nonoptimal"], "count"),
        "voronoi.classify_facets.self_s": (t.self_s["voronoi.classify_facets"], "s"),
        "voronoi.check_admissible.self_s": (t.self_s["voronoi.check_admissible"], "s"),
        "voronoi.check_poincare_2d.self_s": (t.self_s["voronoi.check_poincare_2d"], "s"),
        "voronoi.sphere_shrink_report.self_s": (t.self_s["voronoi.sphere_shrink_report"], "s"),
        "voronoi.undecidable": (t.counts["voronoi.undecidable"], "count"),
        "voronoi.cert_shell_violations": (task_counts.get("voronoi.cert_shell_violations", 0), "count"),
        "glueing.self_s": (t.layer_self("glueing"), "s"),
        "glueing.count_graphs.self_s": (t.self_s["glueing.count_graphs"], "s"),
        "glueing.enumerate_base_graphs.self_s": (t.self_s["glueing.enumerate_base_graphs"], "s"),
        "glueing.proper_labelings.self_s": (t.self_s["glueing.proper_labelings"], "s"),
        "glueing.base_graphs": (t.counts["glueing.enumerate_base_graphs.items"], "count"),
        "glueing.assemble.self_s": (t.self_s["glueing.assemble"], "s"),
        "glueing.assemble.calls": (t.calls["glueing.assemble"], "count"),
        "svgout.self_s": (t.layer_self("svgout"), "s"),
        "cli.self_s": (t.layer_self("cli"), "s"),
        "cli.bytes_written": (task_counts.get("cli.bytes_written", 0), "bytes"),
        "cli.exit_nonzero": (task_counts.get("cli.exit_nonzero", 0), "count"),
        "trace.uncovered_s": (t.layer_self("task"), "s"),
    }
    out = {
        name: {"value": v / passes, "unit": unit}
        for name, (v, unit) in values.items()
    }
    out["voronoi.kept_ratio"] = {
        "value": t.counts["voronoi.facets_kept"] / candidates if candidates else 0.0,
        "unit": "ratio",
    }
    out["trace.pass_s"] = {"value": traced_pass_s, "unit": "s"}
    out["trace.overhead_s"] = {"value": traced_pass_s - untraced_pass_s, "unit": "s"}
    out["trace.spans"] = {"value": len(t.spans) / passes, "unit": "count"}
    return out
