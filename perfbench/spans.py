"""Spans around focklab's public functions, installed from outside the package.

``Tracer.installed()`` replaces every public module-level function of every
``focklab`` module, and the public methods of the harness classes, with a
wrapper that records a span: name, start, end, parent span and operation id.
A function is wrapped in each module that binds it by name (for example
``focklab.rdm.ladder_matrix`` as well as ``focklab.fock.ladder_matrix``), so
calls through any import site are seen.  The originals are restored on exit.
Spans stay in memory; ``Tracer.summary()`` and ``Tracer.metrics()`` read them
when the run ends.

Counts are recorded at the same boundaries, from the wrapped call's
arguments and result (see ``_COUNTERS``).
"""

import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict
from contextlib import contextmanager

import focklab

# classes whose public methods count as harness work (config parsing, fits,
# report writing)
METHOD_CLASSES = {"focklab.harness": ("ExperimentConfig", "ConvergenceReport")}

INVARIANT_CHECKS = (
    "ccr", "adjointness", "number_identity", "field_bounds", "weyl",
    "coherent_identity", "theta_methods", "ak_oracle", "ak_invariance",
    "krasikov", "weighted_moment", "hartree_conservation", "norm_ordering",
    "gram_forms",
)

# per-layer metrics read from the trace: (name, unit, better)
PER_LAYER = [
    ("dynamics.make_plan.s", "s", "lower"),
    ("dynamics.make_plan.dense_eig", "count", "lower"),
    ("dynamics.make_plan.krylov", "count", "higher"),
    ("dynamics.make_plan.eig_dim3", "dim3", "lower"),
    ("dynamics.evolve_fock.calls", "count", "lower"),
    ("dynamics.evolve_fock.s", "s", "lower"),
    ("fock.ladder_matrix.calls", "count", "lower"),
    ("fock.ladder_matrix.self_s", "s", "lower"),
    ("fock.ladder_matrix.states", "count", "lower"),
    ("fock.field_matrix.self_s", "s", "lower"),
    ("fock.weyl_apply.calls", "count", "lower"),
    ("fock.weyl_apply.self_s", "s", "lower"),
    ("fock.weyl_apply.loss_max", "ratio", "lower"),
    ("fock.build_hamiltonian.s", "s", "lower"),
    ("fock.build_hamiltonian.nnz", "count", "lower"),
    ("fock.second_quantize.self_s", "s", "lower"),
    ("fock.enumerate_basis.calls", "count", "lower"),
    ("fock.enumerate_basis.s", "s", "lower"),
    ("states.theta_state.s", "s", "lower"),
    ("states.coherent_state.calls", "count", "lower"),
    ("states.coherent_state.self_s", "s", "lower"),
    ("states.component_states.calls", "count", "lower"),
    ("states.superposition.self_s", "s", "lower"),
    ("states.random_excitation.s", "s", "lower"),
    ("states.product_state.s", "s", "lower"),
    ("rdm.reduced_dm.calls", "count", "lower"),
    ("rdm.reduced_dm.s", "s", "lower"),
    ("rdm.distance.calls", "count", "lower"),
    ("rdm.distance.s", "s", "lower"),
    ("hartree.evolve_hartree.calls", "count", "lower"),
    ("hartree.evolve_hartree.s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
] + [(f"invariants.{c}.s", "s", "lower") for c in INVARIANT_CHECKS]


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_plan(counts, args, kwargs, plan):
    counts[f"dynamics.make_plan.{plan.method}"] += 1
    counts["dynamics.make_plan.eig_dim3"] += sum(
        (sl.stop - sl.start) ** 3 for sl, _vals, _vecs in plan.blocks)


def _count_ladder(counts, args, kwargs, result):
    counts["fock.ladder_matrix.states"] += _arg(args, kwargs, 2, "basis").dim


def _count_weyl(counts, args, kwargs, result):
    key = "fock.weyl_apply.loss_max"
    counts[key] = max(counts[key], result[1])


def _count_hamiltonian(counts, args, kwargs, op):
    counts["fock.build_hamiltonian.nnz"] += op.matrix.nnz


def _count_suite(counts, args, kwargs, report):
    for c in report.checks:
        counts[f"invariants.{c.name}.s"] += c.seconds


_COUNTERS = {
    "dynamics.make_plan": _count_plan,
    "fock.ladder_matrix": _count_ladder,
    "fock.weyl_apply": _count_weyl,
    "fock.build_hamiltonian": _count_hamiltonian,
    "invariants.run_invariant_suite": _count_suite,
}


def _short(module_name):
    return module_name.rsplit(".", 1)[-1]


def focklab_modules():
    mods = [focklab]
    for info in pkgutil.iter_modules(focklab.__path__):
        mods.append(importlib.import_module(f"focklab.{info.name}"))
    return mods


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "outermost")

    def __init__(self, name, start, parent, op, outermost):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.outermost = outermost  # no enclosing span of the same name


class Tracer:
    """Collects spans and counts for operations run inside ``installed()``."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.ops = 0
        self._stack = []
        self._active = defaultdict(int)
        self._op = None

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, parent, self._op, self._active[name] == 0)
            self.spans.append(span)
            self._stack.append(span)
            self._active[name] += 1
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._active[name] -= 1
                self._stack.pop()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _targets(self):
        """(owner, attribute, span name, replacement) for every wrap site."""
        wrappers = {}  # original function -> wrapper, shared by import sites
        out = []
        for mod in focklab_modules():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("focklab.")):
                    continue
                name = f"{_short(obj.__module__)}.{obj.__name__}"
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(name, obj)
                out.append((mod, attr, wrappers[obj]))
            for cls_name in METHOD_CLASSES.get(mod.__name__, ()):
                cls = getattr(mod, cls_name)
                for attr, raw in list(vars(cls).items()):
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    if attr.startswith("_") or not inspect.isfunction(fn):
                        continue
                    w = self._wrap(f"{_short(mod.__name__)}.{cls_name}.{attr}", fn)
                    out.append((cls, attr,
                                staticmethod(w) if isinstance(raw, staticmethod) else w))
        return out

    @contextmanager
    def installed(self):
        """Trace one operation: wrap every site, restore the originals after."""
        targets = self._targets()
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
        self._op = self.ops
        self.ops += 1
        try:
            for owner, attr, replacement in targets:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
            self._op = None

    def summary(self):
        """{span name: [calls, total s, self s]} over all traced operations.

        Total time counts only spans with no enclosing span of the same
        name; self time is a span's duration minus its child spans'.
        """
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[id(s.parent)] += s.end - s.start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for s in self.spans:
            dur = s.end - s.start
            row = out[s.name]
            row[0] += 1
            if s.outermost:
                row[1] += dur
            row[2] += dur - child[id(s)]
        return dict(out)

    def metrics(self):
        """Per-layer metrics, per traced operation, keyed as in PER_LAYER."""
        ops = max(self.ops, 1)
        spans = self.summary()
        values = {}
        for name, _unit, _better in PER_LAYER:
            if name in self.counts:
                values[name] = self.counts[name]
                if not name.endswith(".loss_max"):
                    values[name] /= ops
                continue
            if name == "harness.self_s":
                values[name] = sum(v[2] for k, v in spans.items()
                                   if k.startswith("harness.")) / ops
                continue
            span, quantity = name.rsplit(".", 1)
            row = spans.get(span, [0, 0.0, 0.0])
            values[name] = {"calls": row[0], "s": row[1], "self_s": row[2]}.get(
                quantity, 0.0) / ops
        return values
