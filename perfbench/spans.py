"""Span recorder for the traced run, installed from outside the efdyn sources.

Each wrapped public function records a span: name, start, end, parent span and
the id of the operation it belongs to. Spans are kept in memory and written out
when the run ends. The hottest leaf functions (the two vector fields) are far
too frequent to keep one span per call, so their calls and time are folded into
the innermost open span as counters; scipy's ``rk_step`` is counted the same
way, which gives the attempted integrator steps of the span that called it.

Functions that efdyn imports by name are wrapped at every name a caller looks
up: installation patches every attribute of every loaded ``efdyn`` module that
is the same object as the function being wrapped.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# (layer name, module, attribute). A "leaf" layer is counted, not spanned.
SPANNED = (
    ("equilibria.fixed_point_catalog", "efdyn.equilibria", "fixed_point_catalog"),
    ("spectra.spectrum_at", "efdyn.spectra", "spectrum_at"),
    ("spectra.local_verdicts", "efdyn.spectra", "local_verdicts"),
    ("energies.predict_existence", "efdyn.energies", "predict_existence"),
    ("scalar.scalar_classify", "efdyn.scalar", "scalar_classify"),
    ("scalar.scalar_integrate", "efdyn.scalar", "scalar_integrate"),
    ("scalar.scalar_integrate_radial", "efdyn.scalar", "scalar_integrate_radial"),
    ("scalar.poincare_returns", "efdyn.scalar", "poincare_returns"),
    ("dynamics.integrate_m", "efdyn.dynamics", "integrate_m"),
    ("dynamics.integrate_radial", "efdyn.dynamics", "integrate_radial"),
    ("dynamics.classify_shot", "efdyn.dynamics", "classify_shot"),
    ("dynamics.sweep_angles", "efdyn.dynamics", "sweep_angles"),
    ("dynamics.search_ground_state", "efdyn.dynamics", "search_ground_state"),
    ("dynamics.search_dirichlet", "efdyn.dynamics", "search_dirichlet"),
    ("dynamics.oracle_compare", "efdyn.dynamics", "oracle_compare"),
    ("cli.parse_config", "efdyn.cli", "parse_config"),
    ("cli.run", "efdyn.cli", "run"),
)
LEAVES = (
    ("model.vector_field_arr", "efdyn.model", "vector_field_arr"),
    ("scalar.scalar_vector_field", "efdyn.scalar", "scalar_vector_field"),
)
RK_STEP = ("scipy.integrate._ivp.rk", "rk_step")


class Recorder:
    """In-memory spans of one process. A span is a list:
    [id, parent, op, name, start, end, covered, counters] where ``covered`` is
    the time taken by its direct children and folded leaf calls."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.op: str | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def open(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else None
        span = [len(self.spans), parent, self.op, name, time.perf_counter(), None, 0.0, {}]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1][6] += span[5] - span[4]

    # -- wrappers ---------------------------------------------------------
    def _spanned(self, name, fn, note=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.op is None:
                return fn(*args, **kwargs)
            span = rec.open(name)
            try:
                out = fn(*args, **kwargs)
                if note is not None:
                    note(span[7], args, out)
                return out
            finally:
                rec.close(span)
        return wrapper

    def _leaf(self, name, fn):
        rec = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.stack:
                return fn(*args, **kwargs)
            t0 = clock()
            out = fn(*args, **kwargs)
            dt = clock() - t0
            top = rec.stack[-1]
            top[6] += dt
            c = top[7]
            c[name] = c.get(name, 0) + 1
            c[name + ".s"] = c.get(name + ".s", 0.0) + dt
            return out
        return wrapper

    def _rk_counter(self, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.stack:
                c = rec.stack[-1][7]
                c["rk_step"] = c.get("rk_step", 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch_everywhere(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "efdyn" or modname.startswith("efdyn.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        """Wrap every layer entry point. A name missing from this efdyn
        version is skipped, so the benchmark still runs after refactors."""
        import importlib
        for name, modname, attr in SPANNED + LEAVES:
            fn = getattr(importlib.import_module(modname), attr, None)
            if fn is None:
                continue
            if (name, modname, attr) in LEAVES:
                wrapped = self._leaf(name, fn)
            else:
                wrapped = self._spanned(name, fn, _NOTES.get(name))
            self._patch_everywhere(fn, wrapped)
        bundle = getattr(sys.modules.get("efdyn.cli"), "ReportBundle", None)
        if bundle is not None and "write" in vars(bundle):
            fn = vars(bundle)["write"]
            self._patches.append((bundle, "write", fn))
            bundle.write = self._spanned("cli.write", fn, _note_write)
        rk = importlib.import_module(RK_STEP[0])
        fn = getattr(rk, RK_STEP[1])
        self._patches.append((rk, RK_STEP[1], fn))
        setattr(rk, RK_STEP[1], self._rk_counter(fn))

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._patches):
            setattr(holder, attr, value)
        self._patches.clear()


def merge(into: list[list], more: list[list]) -> None:
    """Append the spans of another process, renumbering their ids."""
    offset = len(into)
    for s in more:
        s[0] += offset
        if s[1] is not None:
            s[1] += offset
        into.append(s)


# -- per-layer annotations read from return values ------------------------------

def _note_integrate_m(counters, args, traj):
    n = len(traj.t) - 1
    counters["steps_accepted"] = counters.get("steps_accepted", 0) + n
    hits = [t for t, name in traj.events if name in ("x-bound", "y-bound")]
    if hits:
        after = int((traj.t[1:] > min(hits)).sum())
        counters["steps_after_decision"] = counters.get("steps_after_decision", 0) + after


def _note_integrate_radial(counters, args, rad):
    counters["steps_accepted"] = counters.get("steps_accepted", 0) + len(rad.r) - 1


def _note_write(counters, args, files):
    out_dir = args[1]
    counters["bytes"] = counters.get("bytes", 0) + sum(
        os.path.getsize(os.path.join(out_dir, f)) for f in files)


_NOTES = {
    "dynamics.integrate_m": _note_integrate_m,
    "dynamics.integrate_radial": _note_integrate_radial,
}


# -- aggregation -----------------------------------------------------------------

def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer calls, busy time, self time and counters for one set of spans.

    ``busy_s`` counts only the outermost span of a name, so recursion is not
    counted twice; ``self_s`` is each span's duration minus what its children
    and folded leaf calls cover.
    """
    by_id = {s[0]: s for s in spans}
    out: dict[str, float] = {}

    def add(key, v):
        out[key] = out.get(key, 0) + v

    for s in spans:
        sid, parent, _op, name, t0, t1, covered, counters = s
        dur = t1 - t0
        add(name + ".calls", 1)
        add(name + ".self_s", dur - covered)
        p, nested = parent, False
        while p is not None:
            if by_id[p][3] == name:
                nested = True
                break
            p = by_id[p][1]
        if not nested:
            add(name + ".busy_s", dur)
        for key, v in counters.items():
            if key.endswith(".s"):
                leaf = key[:-2]
                add(leaf + ".busy_s", v)
                add(leaf + ".self_s", v)
            elif key in ("model.vector_field_arr", "scalar.scalar_vector_field"):
                add(key + ".calls", v)
            elif key == "rk_step":
                add(name + ".steps_attempted", v)
                if name.startswith("scalar."):
                    add("scalar.steps_attempted", v)
            else:
                add(name + "." + key, v)
        if name == "dynamics.classify_shot":
            parent_name = by_id[parent][3] if parent is not None else None
            if parent_name == "dynamics.search_ground_state":
                add("dynamics.bisection.shots", 1)
                add("dynamics.bisection.busy_s", dur)
        if name == "dynamics.integrate_m" and parent is not None \
                and by_id[parent][3] == "dynamics.classify_shot":
            add("dynamics.classify_shot.integrations", 1)

    shots = out.get("dynamics.classify_shot.calls", 0)
    out["dynamics.classify_shot.horizon_extensions"] = \
        out.pop("dynamics.classify_shot.integrations", 0) - shots
    acc = out.get("dynamics.integrate_m.steps_accepted", 0)
    if "dynamics.integrate_m.steps_attempted" in out:
        out["dynamics.integrate_m.steps_rejected"] = \
            out["dynamics.integrate_m.steps_attempted"] - acc
    after = out.pop("dynamics.integrate_m.steps_after_decision", 0)
    out["dynamics.integrate_m.steps_after_decision_frac"] = after / acc if acc else 0.0
    return out
