"""Outside-in tracing of the mixfit layers by attribute replacement.

The tracer replaces public functions and methods of the ``mixfit``
modules with thin wrappers that record one span per call: a name, the
start and end times, the index of the enclosing span and the fit the
call belongs to.  Module-level functions are replaced in every
``mixfit`` namespace that holds them, so calls that go through a
module global (``solve`` calling ``_reduce_to_cone``, ``fine_tune``
calling ``line_search``) or through a ``from ... import`` name
(``mixture_eval`` in ``mldeconv``) are caught too.  Nothing under
``src/`` is edited; :meth:`Tracer.uninstall` restores every attribute.

Besides spans the tracer keeps exact counters taken from returned
values: kernel evaluations from array sizes, iteration and deletion
counts from ``SolverTrace``/``FineTuneTrace``, and damped-update trials
from the accepted step ``2**-k``.  Spans stay in memory until
:meth:`Tracer.write_spans` is called once at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import math
import time

import numpy as np

#: Span names whose inclusive time, call count and counters are reported.
#: Each entry: (span name, module, owner class or None, attribute).
TARGETS = (
    ("families.kernel", "families", "GaussianFamily", "kernel"),
    ("families.kernel", "families", "TriangularFamily", "kernel"),
    ("families.theta_deriv", "families", "GaussianFamily", "theta_deriv"),
    ("families.theta_deriv", "families", "TriangularFamily", "theta_deriv"),
    ("families.mixture_eval", "families", None, "mixture_eval"),
    ("core.solve", "core", None, "solve"),
    ("core.reduce", "core", None, "_reduce_to_cone"),
    ("core.min_alt_dir_deriv", "core", None, "min_alt_dir_deriv"),
    ("core.check_optimality", "core", None, "check_optimality"),
    ("lsconvex.H", "lsconvex", "LsModel", "H"),
    ("lsconvex.unrestricted_min", "lsconvex", "LsModel", "unrestricted_min"),
    ("lsconvex.location_gradient", "lsconvex", "LsModel", "location_gradient"),
    ("mldeconv.newton_solve", "mldeconv", None, "newton_solve"),
    ("mldeconv.damped_update", "mldeconv", None, "_damped_update"),
    ("mldeconv.MlModel.objective", "mldeconv", "MlModel", "objective"),
    ("mldeconv.minimize_over_support", "mldeconv", "MlModel",
     "minimize_over_support"),
    ("mldeconv.QuadLocalModel.init", "mldeconv", "QuadLocalModel", "__init__"),
    ("mldeconv.quad_coefficients", "mldeconv", "QuadLocalModel",
     "quad_coefficients"),
    ("mldeconv.QuadLocalModel.unrestricted_min", "mldeconv", "QuadLocalModel",
     "unrestricted_min"),
    ("gridless.fine_tune", "gridless", None, "fine_tune"),
    ("gridless.line_search", "gridless", None, "line_search"),
    ("gridless.tau_gradient", "gridless", None, "tau_gradient"),
    ("pipeline.fit", "pipeline", None, "fit"),
    ("pipeline.simulate_sample", "pipeline", None, "simulate_sample"),
)

#: Counters filled from returned values, all exact integers.
COUNTERS = (
    "families.kernel.evals",
    "core.outer_iters",
    "core.deletions",
    "mldeconv.newton_iters",
    "mldeconv.damped_update.trials",
    "gridless.steps",
    "gridless.step_cap_hits",
)

_BYTES_PER_EVAL = 8  # float64 kernel values
_STEP_CAP_REASON = "step cap reached"  # FineTuneTrace.stop_reason at the cap


class Tracer:
    """Span recorder that patches the ``mixfit`` modules while installed.

    Use as a context manager, or call :meth:`install` and
    :meth:`uninstall`.  ``fit_id`` is set by the caller before each fit
    so spans of one fit share an identifier.
    """

    def __init__(self):
        self.names = sorted({t[0] for t in TARGETS})
        self._name_id = {n: i for i, n in enumerate(self.names)}
        # (name id, start, end, parent, fit id, nested in its own name)
        self.spans = []
        self._active = [0] * len(self.names)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.fit_id = -1
        self._stack = []
        self._saved = []         # (namespace, attribute, original)

    # -- patching -----------------------------------------------------

    def install(self):
        import mixfit

        modules = {name: importlib.import_module(f"mixfit.{name}")
                   for name in {t[1] for t in TARGETS}}
        namespaces = [mixfit, *modules.values()]
        self._max_halvings = modules["mldeconv"]._MAX_HALVINGS
        hooks = {
            "families.kernel": self._count_kernel,
            "core.solve": self._count_solve,
            "mldeconv.newton_solve": self._count_newton,
            "mldeconv.damped_update": self._count_damped,
            "gridless.fine_tune": self._count_fine_tune,
        }
        error_hooks = {"mldeconv.damped_update": self._count_damped_stall}
        for name, mod_name, owner_name, attr in TARGETS:
            module = modules[mod_name]
            if owner_name is not None:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(
                    name, original, hooks.get(name), error_hooks.get(name)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, hooks.get(name),
                                 error_hooks.get(name))
            for ns in namespaces:
                if ns.__dict__.get(attr) is original:
                    self._patch(ns, attr, wrapper)
        return self

    def uninstall(self):
        while self._saved:
            ns, attr, original = self._saved.pop()
            setattr(ns, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, ns, attr, value):
        self._saved.append((ns, attr, ns.__dict__[attr]))
        setattr(ns, attr, value)

    def _wrap(self, name, fn, on_result, on_error):
        name_id = self._name_id[name]
        spans = self.spans
        stack = self._stack
        active = self._active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            nested = active[name_id] > 0
            active[name_id] += 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                if on_error is not None:
                    on_error()
                raise
            finally:
                end = clock()
                stack.pop()
                active[name_id] -= 1
                spans[idx] = (name_id, start, end,
                              stack[-1] if stack else -1, self.fit_id, nested)
            if on_result is not None:
                on_result(out)
            return out

        return functools.wraps(fn)(traced)

    # -- counters from returned values ----------------------------------

    def _count_kernel(self, out):
        self.counters["families.kernel.evals"] += int(np.size(out))

    def _count_solve(self, out):
        _, trace = out
        self.counters["core.outer_iters"] += trace.n_iterations
        self.counters["core.deletions"] += int(sum(trace.deletions))

    def _count_newton(self, out):
        self.counters["mldeconv.newton_iters"] += out[1].n_iterations

    def _count_damped(self, out):
        _, _, lam, tied = out
        # An accepted step 2**-k took k + 1 objective trials; a tie is
        # only returned after every halving was tried.
        trials = self._max_halvings if tied else round(-math.log2(lam)) + 1
        self.counters["mldeconv.damped_update.trials"] += trials

    def _count_damped_stall(self):
        self.counters["mldeconv.damped_update.trials"] += self._max_halvings

    def _count_fine_tune(self, out):
        trace = out[1]
        self.counters["gridless.steps"] += trace.steps
        self.counters["gridless.step_cap_hits"] += int(
            trace.stop_reason == _STEP_CAP_REASON)

    # -- results ----------------------------------------------------------

    def summary(self):
        """Per-name ``calls``, inclusive ``s`` and ``self_s``.

        Inclusive time counts only the outermost span of a name, so a
        layer re-entered below itself is not counted twice.  Self time
        is a span's duration minus that of its direct children.
        """
        n_names = len(self.names)
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0}
               for name in self.names}
        if not self.spans:
            return out
        arr = np.array(self.spans, dtype=float)
        name_ids = arr[:, 0].astype(np.intp)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(np.intp)
        nested = arr[:, 5] > 0
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        calls = np.bincount(name_ids, minlength=n_names)
        incl = np.bincount(name_ids[~nested], weights=dur[~nested],
                           minlength=n_names)
        self_s = np.bincount(name_ids, weights=dur - child, minlength=n_names)
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "s": float(incl[i]),
                         "self_s": float(self_s[i])}
        return out

    def metrics(self):
        """Flat per-layer metrics keyed by ``<layer>.<quantity>``.

        ``mldeconv.damped_update.accept_ratio`` is accepted updates per
        objective trial; ``gridless.accept_ratio`` is accepted refinement
        steps per line-search derivative evaluation.  Both are 0 when the
        layer made no attempt.
        """
        s = self.summary()
        c = self.counters
        out = {}
        for name, row in s.items():
            out[f"{name}.calls"] = row["calls"]
            out[f"{name}.s"] = row["s"]
            out[f"{name}.self_s"] = row["self_s"]
        out.update(c)
        out["families.kernel.bytes_computed"] = (
            c["families.kernel.evals"] * _BYTES_PER_EVAL)
        damped = s["mldeconv.damped_update"]["calls"]
        trials = c["mldeconv.damped_update.trials"]
        out["mldeconv.damped_update.accept_ratio"] = (
            damped / trials if trials else 0.0)
        trials = self._calls_below("gridless.tau_gradient",
                                   "gridless.line_search")
        out["gridless.accept_ratio"] = (
            c["gridless.steps"] / trials if trials else 0.0)
        return out

    def _calls_below(self, name, parent_name):
        """Calls of ``name`` made directly by ``parent_name``."""
        if not self.spans:
            return 0
        arr = np.array([s[0] for s in self.spans], dtype=np.intp)
        parent = np.array([s[3] for s in self.spans], dtype=np.intp)
        mine = (arr == self._name_id[name]) & (parent >= 0)
        return int(np.count_nonzero(
            arr[parent[mine]] == self._name_id[parent_name]))

    def write_spans(self, path):
        """Write every span as a compressed ``.npz`` archive."""
        arr = np.array(self.spans, dtype=float).reshape(-1, 6)
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=arr[:, 0].astype(np.int16), start=arr[:, 1],
            end=arr[:, 2], parent=arr[:, 3].astype(np.int64),
            fit_id=arr[:, 4].astype(np.int32))
