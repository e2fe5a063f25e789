"""Classical vertex-direction rules, kept for comparison with support reduction.

Both rules move a unit-mass iterate inside the convex hull of the grid
kernels instead of the cone: the convex-combination (Fedorov-Wynn)
step mixes in one grid vertex, and the exchange step moves weight from
the worst support atom to the best grid vertex.  They converge much
more slowly than :func:`mixfit.core.solve` and exist for the
comparison experiments only.

The step length along a segment is the exact minimizer of the
objective's quadratic restriction, so a model used here must provide
``segment_curvature(direction)``; both quadratic models
(:class:`~mixfit.lsconvex.LsModel` and
:class:`~mixfit.mldeconv.QuadLocalModel`) do.
"""

from __future__ import annotations

import numpy as np

from .families import MixingMeasure, SignedMixingMeasure, combine

__all__ = ["dir_deriv_measure", "fedorov_wynn_step", "vertex_exchange_step"]


def dir_deriv_measure(model, direction, measure):
    """``D_phi(h; f)`` for an atomic signed direction ``h``.

    The derivative is linear in the direction, so it is the weighted
    sum of the vertex derivatives over the atoms of ``h``.
    """
    if direction.size == 0:
        return 0.0
    vals = np.asarray(
        model.dir_deriv_vertex(direction.locations, measure), dtype=float)
    return float(vals @ direction.weights)


def _segment_step(model, direction, deriv):
    """Step length in [0, 1] minimizing ``phi(f + eps * direction)``.

    ``deriv`` is the (negative) slope at ``eps = 0``; with the exact
    curvature the minimizer is the clipped Newton step, or the far end
    when the restriction is not strictly convex.
    """
    curv = model.segment_curvature(direction)
    if curv <= 0.0:
        return 1.0
    return float(np.clip(-deriv / curv, 0.0, 1.0))


def fedorov_wynn_step(model, measure, grid):
    """One classical convex-combination update on the unit-mass hull.

    Picks the grid vertex minimizing ``D_phi(f_theta - f; f)`` and
    moves to ``(1 - eps) f + eps f_theta`` with the optimal step.
    Returns the measure unchanged when no vertex improves on ``f``.
    """
    if measure.size == 0:
        raise ValueError("the hull update needs a nonempty unit-mass iterate")
    grid = np.asarray(grid, dtype=float)
    dvals = np.asarray(model.dir_deriv_vertex(grid, measure), dtype=float)
    d_self = dir_deriv_measure(model, measure, measure)
    rel = dvals - d_self
    idx = int(np.argmin(rel))
    if rel[idx] >= 0.0:
        return measure
    vertex = MixingMeasure([grid[idx]], [1.0])
    direction = combine(vertex, 1.0, measure, -1.0)
    eps = _segment_step(model, direction, float(rel[idx]))
    if eps <= 0.0:
        return measure
    new = combine(measure, 1.0 - eps, vertex, eps)
    keep = new.weights > 0.0
    return MixingMeasure(new.locations[keep], new.weights[keep])


def vertex_exchange_step(model, measure, grid):
    """One mass-conserving exchange update on the unit-mass hull.

    Moves weight from the support atom with the largest derivative to
    the grid vertex with the smallest one.  A full step (``eps = 1``)
    removes the donor atom entirely.  Mass is conserved exactly.
    """
    if measure.size == 0:
        raise ValueError("the exchange update needs a nonempty unit-mass iterate")
    grid = np.asarray(grid, dtype=float)
    dvals = np.asarray(model.dir_deriv_vertex(grid, measure), dtype=float)
    at_support = np.asarray(
        model.dir_deriv_vertex(measure.locations, measure), dtype=float)
    i_hat = int(np.argmin(dvals))
    i_chk = int(np.argmax(at_support))
    theta_hat = float(grid[i_hat])
    theta_chk = float(measure.locations[i_chk])
    gain = float(dvals[i_hat] - at_support[i_chk])
    if gain >= 0.0 or theta_hat == theta_chk:
        return measure
    mass_chk = float(measure.weights[i_chk])
    direction = SignedMixingMeasure.from_atoms(
        [theta_hat, theta_chk], [mass_chk, -mass_chk])
    eps = _segment_step(model, direction, mass_chk * gain)
    if eps <= 0.0:
        return measure
    # Split the donor weight so the total is conserved bit for bit.
    stay = mass_chk * (1.0 - eps)
    moved = mass_chk - stay
    loc = np.append(np.delete(measure.locations, i_chk), theta_chk)
    w = np.append(np.delete(measure.weights, i_chk), stay)
    loc = np.append(loc, theta_hat)
    w = np.append(w, moved)
    merged = SignedMixingMeasure.from_atoms(loc, w)
    keep = merged.weights > 0.0
    return MixingMeasure(merged.locations[keep], merged.weights[keep])
