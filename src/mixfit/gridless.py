"""Off-grid refinement of a fitted support by location steepest descent.

A grid solution pins atom locations to the candidate grid.  This stage
lifts that restriction: with weights held fixed, the objective change
under a joint location shift ``h`` is

    tau(h) = phi(sum_i w_i f_{theta_i + h_i}) - phi(f),

whose gradient components are ``w_i`` times the parameter derivative of
the vertex directional derivative at ``theta_i``.  Each refinement step
moves the locations a short distance along ``-grad tau / |grad tau|``,
chooses the step length by a derivative-based line search (regula falsi
on the directional derivative of ``tau``), merges atoms that have come
closer than a fixed fraction of the model's domain, and then
reoptimizes the weights over the shifted support, which may delete
atoms.  The loop stops when the location gradient is small, so the
final support is stationary in both weights and locations.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .families import MixingMeasure

__all__ = [
    "FineTuneTrace",
    "tau_gradient",
    "line_search",
    "fine_tune",
]

logger = logging.getLogger("mixfit.gridless")

#: line searches give up once the trust interval shrinks below this
#: fraction of its initial length.
_EPS_UNDERFLOW = 1e-14

#: factor the trust interval shrinks by when a line search retries.
_SHRINK = 0.9

#: merge width, as a fraction of the width of the model's domain: atoms
#: closer than this after a location step are merged before the weight
#: reoptimization, which cannot resolve nearly coincident atoms.
_MERGE_GAP = 1e-5

#: cap on refinement steps.
_MAX_STEPS = 10_000


@dataclass
class FineTuneTrace:
    """Record of a refinement run.

    ``objective`` holds the value after every sub-step (location shift
    and weight reoptimization separately), so monotone descent across
    the whole stage is checkable.  ``grad_norm`` has one entry per
    refinement step.
    """

    objective: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    steps: int = 0
    converged: bool = False
    stop_reason: str = ""


def tau_gradient(model, measure):
    """Gradient of the objective in the atom locations at fixed weights.

    Evaluating it at a shifted configuration gives the gradient of
    ``tau`` at the corresponding shift, so this single hook drives the
    whole refinement stage.
    """
    return np.asarray(model.location_gradient(measure), dtype=float)


def _falsi_root(fn, eps_lo, eps_hi, g_lo, g_hi, f_tol, max_iter=100):
    """Regula falsi zero of ``fn`` bracketed by ``g_lo < 0 <= g_hi``.

    Each step is the secant zero of the current bracket: exact for an
    affine ``fn``, the midpoint of a symmetric bracket.  Stops once
    ``|fn(eps)| <= f_tol`` or the bracket collapses.  Uses the Illinois
    weighting on stagnating endpoints so the residual at the returned
    point actually converges.
    """
    lo, hi, glo, ghi = eps_lo, eps_hi, g_lo, g_hi
    eps = hi
    side = 0
    for _ in range(max_iter):
        eps = (lo * ghi - hi * glo) / (ghi - glo)
        g = fn(eps)
        if abs(g) <= f_tol or (hi - lo) <= _EPS_UNDERFLOW * eps_hi:
            return eps
        if g > 0.0:
            hi, ghi = eps, g
            if side == +1:
                glo *= 0.5
            side = +1
        else:
            lo, glo = eps, g
            if side == -1:
                ghi *= 0.5
            side = -1
    return eps


def _shifted(measure, h, eps):
    return MixingMeasure(measure.locations + eps * h, measure.weights)


def line_search(model, measure, h, eps0, value, slope):
    """Step along a unit descent direction of the locations.

    ``value`` is the objective at ``measure`` and ``slope`` the
    directional derivative ``mu'(0) = h @ grad`` of ``tau(eps h)``
    there; the caller has computed both.  If ``mu'`` is still negative
    at the trust radius ``eps0`` the full step is taken; otherwise the
    sign change is resolved by regula falsi.  Candidates are only
    accepted when the objective strictly decreases at fixed weights;
    otherwise the trust radius shrinks by ``_SHRINK`` and the search
    retries.  Returns the accepted shifted measure and its objective,
    or None when no improving step exists above the underflow floor.
    """
    def mu_prime(eps):
        return float(h @ tau_gradient(model, _shifted(measure, h, eps)))

    if slope >= 0.0:
        return None
    top = eps0
    f_tol = 1e-13 * max(1.0, abs(slope))
    while top > _EPS_UNDERFLOW * eps0:
        g_top = mu_prime(top)
        if g_top < 0.0:
            cand = top
        else:
            cand = _falsi_root(mu_prime, 0.0, top, slope, g_top, f_tol)
        if cand > 0.0:
            shifted = _shifted(measure, h, cand)
            new = model.objective(shifted)
            if new < value:
                return shifted, new
        top = _SHRINK * min(cand, top) if cand > 0.0 else _SHRINK * top
    return None


def _trust_radius(measure, h, domain):
    """Largest safe step: half the smallest atom gap per unit of relative
    motion, clipped so every shifted location stays in the finite domain,
    and halved if two atoms moving head-on would meet at it."""
    locs = measure.locations
    hmax = float(np.abs(h).max())
    if hmax == 0.0:
        return 0.0
    lo, hi = domain
    up, down = h > 0.0, h < 0.0
    radius = max(0.0, float(np.concatenate((
        0.5 * (locs[1:] - locs[:-1]) / hmax,
        (hi - locs[up]) / h[up], (locs[down] - lo) / -h[down])).min()))
    moved = locs + radius * h
    if (moved[1:] <= moved[:-1]).any():
        radius *= 0.5
    return radius


def _merge_close(measure, gap):
    """Merge runs of atoms closer than ``gap`` (weighted mean location)."""
    if measure.size < 2 or gap <= 0.0:
        return measure
    locs, w = measure.locations, measure.weights
    close = locs[1:] - locs[:-1] < gap
    if not close.any():
        return measure
    groups = np.concatenate(([0], np.cumsum(~close)))
    out_loc, out_w = [], []
    for g in range(groups[-1] + 1):
        sel = groups == g
        wsum = float(w[sel].sum())
        out_loc.append(float((locs[sel] * w[sel]).sum() / wsum))
        out_w.append(wsum)
    return MixingMeasure(out_loc, out_w)


def fine_tune(model, measure, config):
    """Refine a grid solution by alternating location and weight updates.

    Parameters
    ----------
    model
        Objective with ``location_gradient``, a weight polish
        ``minimize_over_support`` that returns ``(measure, objective)``,
        and a finite parameter interval ``domain`` the atoms stay inside
        (both cone models provide them).
    measure : MixingMeasure
        Converged grid solution.
    config : SolverConfig
        ``gridless_tol`` is the stopping threshold on the location
        gradient norm; ``_MAX_STEPS`` caps the iteration.

    Returns
    -------
    measure : MixingMeasure
    trace : FineTuneTrace

    Notes
    -----
    Location steps are accepted only on strict decrease at fixed
    weights, and the weight reoptimization minimizes over a set
    containing its input.  Before it, atoms closer than ``_MERGE_GAP``
    times the width of ``model.domain`` merge into one atom at their
    weighted mean location with their summed weight, which moves the
    mixture, and so the objective, only at second order in the gap.
    Atoms can be deleted or merged but never added, so the
    refined support is at most as large as the grid solution's.
    """
    trace = FineTuneTrace()
    f = measure
    if f.size == 0:
        trace.converged = True
        trace.stop_reason = "empty measure"
        return f, trace
    lo, hi = model.domain
    merge_gap = _MERGE_GAP * (hi - lo)
    value = model.objective(f)
    trace.objective.append(value)

    for _ in range(_MAX_STEPS):
        grad = tau_gradient(model, f)
        norm = math.sqrt(grad.dot(grad))
        trace.grad_norm.append(norm)
        if norm <= config.gridless_tol:
            trace.converged = True
            trace.stop_reason = "gradient below tolerance"
            break
        h = -grad / norm
        eps0 = _trust_radius(f, h, model.domain)
        if eps0 <= 0.0:
            trace.stop_reason = "no room to move inside the domain"
            break
        step = line_search(model, f, h, eps0, value, float(h @ grad))
        if step is None:
            trace.stop_reason = "line search found no improving step"
            break
        shifted, shifted_value = step
        trace.objective.append(shifted_value)
        f, value = model.minimize_over_support(
            _merge_close(shifted, merge_gap), config)
        if f.size == 0:
            trace.stop_reason = "all atoms deleted"
            break
        trace.objective.append(value)
        trace.steps += 1
        logger.debug("refine step %d: |grad| %.3e, support %d, "
                     "objective %.12g", trace.steps, norm, f.size, value)
    else:
        trace.stop_reason = "step cap reached"
    return f, trace
