"""Off-grid refinement of a fitted support by a monotone Newton polish.

Each step solves the model's ``newton_system``, the exact gradient and
Hessian of its objective in the atom locations and weights jointly, with
eigenvalues taken in absolute value.  The step keeps the atoms in order,
the weights nonnegative and the locations inside ``domain``, merges
atoms closer than ``_MERGE_GAP`` of its width, and is halved until the
objective strictly drops.  The loop stops when the location gradient,
``tau_gradient``, is small; one weight polish closes it.  It never adds
atoms; ``core.solve`` does, when it runs this polish as its local step.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .core import PURGE_THRESHOLD
from .families import MixingMeasure

__all__ = [
    "FineTuneTrace",
    "tau_gradient",
    "line_search",
    "fine_tune",
]

logger = logging.getLogger("mixfit.gridless")

#: merge width, as a fraction of the width of the model's domain: no
#: weight solve can resolve nearly coincident atoms.
_MERGE_GAP = 1e-5

#: cap on refinement steps.
_MAX_STEPS = 10_000

#: step halvings a line search tries before giving up.
_MAX_HALVINGS = 40

#: eigenvalue floor of a Newton step, relative to the largest eigenvalue.
_EIG_FLOOR = 1e-10


@dataclass
class FineTuneTrace:
    """Record of a refinement run.

    ``objective`` holds the value at the start, after every accepted
    step and after the closing weight polish, so monotone descent across
    the whole stage is checkable.  The fitting pipeline holds all its
    polishes in one, and ``insertions`` counts the reductions between them.
    """

    objective: list = field(default_factory=list)
    steps: int = 0
    converged: bool = False
    stop_reason: str = ""
    insertions: int = 0


def tau_gradient(model, measure):
    """Gradient of the objective in the atom locations at fixed weights,
    the location part of the model's ``newton_system`` gradient."""
    return np.asarray(model.location_gradient(measure), dtype=float)


def _newton_step(grad, hess):
    """``-|H|^-1 grad``, eigenvalues of ``H`` in absolute value, floored."""
    lam, vec = np.linalg.eigh(hess)
    lam = np.abs(lam)
    lam = np.maximum(lam, max(_EIG_FLOOR * lam.max(), np.finfo(float).tiny))
    return -vec @ (vec.T @ grad / lam)


def _step_limit(measure, step):
    """Largest step fraction, at most 1, that closes no atom gap by more
    than half and takes no weight below zero."""
    locs, w, p = measure.locations, measure.weights, measure.size
    closing = step[:p - 1] - step[1:p]
    meet = closing > 0.0
    shrink = step[p:] < 0.0
    return min([1.0, *(0.5 * np.diff(locs)[meet] / closing[meet]),
                *(w[shrink] / -step[p:][shrink])])


def line_search(model, measure, value, step):
    """Halve a Newton step until the objective drops below ``value``.

    ``step`` covers the locations, then the weights.  Atoms whose weight
    reaches zero are dropped and atoms that come closer than the merge
    gap merge; each trial costs one ``model.objective``.  Returns the
    accepted measure and its objective, or None after ``_MAX_HALVINGS``
    halvings.
    """
    p = measure.size
    lo, hi = model.domain
    t = _step_limit(measure, step)
    for _ in range(_MAX_HALVINGS):
        locs = np.clip(measure.locations + t * step[:p], lo, hi)
        w = measure.weights + t * step[p:]
        keep = w >= PURGE_THRESHOLD
        trial = _merge_close(MixingMeasure.from_atoms(locs[keep], w[keep]),
                             _MERGE_GAP * (hi - lo))
        new = model.objective(trial)
        if new < value:
            return trial, new
        t *= 0.5
    return None


def _merge_close(measure, gap):
    """Merge runs of atoms closer than ``gap`` (weighted mean location)."""
    locs, w = measure.locations, measure.weights
    apart = locs[1:] - locs[:-1] >= gap
    if apart.all():
        return measure
    group = np.concatenate(([0], apart.cumsum()))
    mass = np.bincount(group, weights=w)
    return MixingMeasure(np.bincount(group, weights=w * locs) / mass, mass)


def fine_tune(model, measure, config):
    """Polish a grid solution off the grid by monotone Newton steps.

    ``model`` provides ``newton_system`` (gradient and Hessian over the
    locations, then the weights), a weight polish
    ``minimize_over_support`` whose first return value is the polished
    measure, and a finite parameter interval ``domain``.  The run stops
    once the location gradient norm is at most ``config.gridless_tol``
    or after ``_MAX_STEPS`` steps, and returns the measure and its
    trace.  Steps, merges included, are accepted only on strict
    decrease, so the objective never rises and the support never grows.
    """
    trace = FineTuneTrace()
    f = measure
    if f.size == 0:
        trace.converged = True
        trace.stop_reason = "empty measure"
        return f, trace
    value = model.objective(f)
    trace.objective.append(value)

    for _ in range(_MAX_STEPS):
        grad, hess = model.newton_system(f)
        norm = math.sqrt(grad[:f.size] @ grad[:f.size])
        if norm <= config.gridless_tol:
            trace.converged = True
            trace.stop_reason = "gradient below tolerance"
            break
        step = line_search(model, f, value, _newton_step(grad, hess))
        if step is None:
            trace.stop_reason = "line search found no improving step"
            break
        f, value = step
        trace.objective.append(value)
        trace.steps += 1
        logger.debug("refine step %d: |grad| %.3e, support %d, "
                     "objective %.12g", trace.steps, norm, f.size, value)
    else:
        trace.stop_reason = "step cap reached"
    f = model.minimize_over_support(f, config)[0]
    trace.objective.append(model.objective(f))
    return f, trace
