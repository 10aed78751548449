"""Span tracer that wraps the public functions of every ebench module.

Spans are recorded at each layer boundary as (name, start, end, parent, op)
and kept in memory until the run ends.  Modules import functions by name
(``from .fock import coherent_ket``) and the package re-exports them, so the
tracer rebinds every module-level name that refers to a wrapped function, not
only the defining one.  Methods are wrapped in the dict of the class that
defines them, which covers subclass overrides such as
``KrausChannel.transfer``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("fock", "quadrature", "channels", "witness", "cv", "dv", "cli")

# span names shared by several functions
ALIASES = {
    "channels.Channel.transfer": "channels.transfer",
    "channels.KrausChannel.transfer": "channels.transfer",
    "channels.MeasurePrepareChannel.transfer": "channels.transfer",
    "channels.Channel.apply": "channels.apply",
    "channels.Channel.apply_ket": "channels.apply",
    "channels.MeasurePrepareChannel.povm_closure_defect": "channels.povm_closure_defect",
    "quadrature.QuadratureGrid.gauss_laguerre": "quadrature.grid",
    "quadrature.QuadratureGrid.flat_disk": "quadrature.grid",
}


class Tracer:
    """Collects spans, per-name self time and calls, and computed counters."""

    def __init__(self, eb):
        self.eb = eb
        self.spans = []             # [name, start_ns, end_ns, parent, op]
        self.stack = []             # [span index, child ns]
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.op = -1
        self._undo = []
        self._errors = eb.EvaluationError

    # -- spans -------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark's own code."""
        self._enter(name)
        try:
            yield
        except BaseException as exc:
            self._exit(exc)
            raise
        self._exit(None)

    def _enter(self, name):
        self.spans.append([name, perf_counter_ns(), 0, self.stack[-1][0] if self.stack else -1,
                           self.op])
        self.stack.append([len(self.spans) - 1, 0])

    def _exit(self, exc):
        end = perf_counter_ns()
        idx, child = self.stack.pop()
        span = self.spans[idx]
        span[2] = end
        dur = end - span[1]
        self.self_ns[span[0]] += dur - child
        self.calls[span[0]] += 1
        if self.stack:
            self.stack[-1][1] += dur
        if isinstance(exc, self._errors) and not getattr(exc, "_traced", False):
            exc._traced = True
            self.counts["witness.errors"] += 1

    def _wrap(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(exc)
                raise
            tracer._exit(None)
            if after is not None:
                out = after(tracer, args, kwargs, out)
            return out
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap public functions and methods; rebind them in every ebench module."""
        modules = [sys.modules[f"ebench.{m}"] for m in LAYERS]
        replaced = {}
        for mod in modules:
            short = mod.__name__.split(".")[-1]
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(val):
                    name = ALIASES.get(f"{short}.{attr}", f"{short}.{attr}")
                    replaced[id(val)] = (val, self._wrap(val, name, AFTER.get(name)))
                elif inspect.isclass(val):
                    self._wrap_class(val, short)
        for mod in modules + [self.eb]:
            for attr, val in list(vars(mod).items()):
                if id(val) in replaced and replaced[id(val)][0] is val:
                    setattr(mod, attr, replaced[id(val)][1])
                    self._undo.append((mod, attr, val))

    def _wrap_class(self, cls, short):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__qualname__}.{attr}"
            name = ALIASES.get(name, name)
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(raw.__func__, name, AFTER.get(name)))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, name, AFTER.get(name))
            else:
                continue
            setattr(cls, attr, new)
            self._undo.append((cls, attr, raw))

    def uninstall(self):
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def self_s(self, name):
        return self.self_ns.get(name, 0) / 1e9

    def layer_self_s(self, layer):
        return sum(ns for n, ns in self.self_ns.items() if n.split(".")[0] == layer) / 1e9

    def write(self, path):
        """Write spans as CSV: op, span, name, start_ns, end_ns, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,name,start_ns,end_ns,parent\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{op},{i},{name},{start},{end},{parent}\n")


# ---------------------------------------------------------------------------
# counters derived from arguments and results; sizes are computed from array
# shapes, so they ignore cache misses and allocator behaviour
# ---------------------------------------------------------------------------

def _grid_nodes(tr, args, kwargs, grid):
    tr.counts["quadrature.grid.nodes"] += grid.size
    return grid


def _heterodyne(tr, args, kwargs, ch):
    kept = ch.measure.shape[0]
    tr.counts["channels.heterodyne_mp.kept"] += kept
    tr.counts["channels.heterodyne_mp.nodes"] += kept + ch.grid_meta.get("dropped_nodes", 0)
    return ch


def _transfer(tr, args, kwargs, out):
    channel, inputs = args[0], args[1]
    measure = getattr(channel, "measure", None)
    if measure is not None:
        mb = inputs.shape[0] * measure.shape[0] * 16 / 1e6
        tr.counts["channels.transfer.tmp_mb"] = max(tr.counts["channels.transfer.tmp_mb"], mb)
    return out


def _choi_state(tr, args, kwargs, cs):
    dim = cs.J.matrix.shape[0]
    tr.counts["channels.choi_state.J_mb"] = max(tr.counts["channels.choi_state.J_mb"],
                                                dim * dim * 16 / 1e6)
    return cs


def _choi_expectation(tr, args, kwargs, out):
    w, cs = args[0], args[1]
    dim = cs.J.matrix.shape[0]
    nodes = 1
    if isinstance(w, tr.eb.CoherentIntegralWitness):
        bound = inspect.signature(tr.eb.witness.choi_witness_expectation.__wrapped__) \
            .bind(*args, **kwargs)
        bound.apply_defaults()
        nodes = bound.arguments["radial"] * bound.arguments["angular"]
    tr.counts["witness.choi_witness_expectation.gflop"] += 8 * nodes * dim * dim / 1e9
    return out


def _ensemble(tr, args, kwargs, ens):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    tr.counts["witness.ensemble.kept"] += len(ens)
    tr.counts["witness.ensemble.nodes"] += grid.size
    return ens


def _pairs_conversion(tr, args, kwargs, out):
    w = args[0]
    ens, evaluator = out
    tr.counts["witness.ensemble.kept"] += len(ens)
    tr.counts["witness.ensemble.nodes"] += len(w.pairs) * w.b_dim
    return ens, tr._wrap(evaluator, "witness.pairs_evaluator")


AFTER = {
    "quadrature.grid": _grid_nodes,
    "channels.heterodyne_mp": _heterodyne,
    "channels.transfer": _transfer,
    "channels.choi_state": _choi_state,
    "witness.choi_witness_expectation": _choi_expectation,
    "witness.ensemble_from_state": _ensemble,
    "cv.gaussian_coherent_ensemble": _ensemble,
    "witness.pairs_conversion": _pairs_conversion,
}
