"""Support reduction against two classical hull baselines.

The classical updates for minimizing a convex objective over the
unit-mass hull of a kernel family move a little mass per step: the
convex-combination rule blends toward the best vertex, the exchange
rule shifts mass from the worst support atom to the best vertex.  Both
converge slowly and tend to accumulate atoms.  Support reduction
instead solves the full restricted problem on a slowly grown support
and deletes atoms aggressively, reaching certificate-level precision in
a handful of outer iterations.

The two classical rules are defined here, in the one script that runs
them.  Each step length is the exact minimizer of the objective's
quadratic restriction to the segment, so the model must provide
``segment_curvature(direction)``, as :class:`~mixfit.lsconvex.LsModel`
does.

Run from the repository root:

    python3 demos/demo_baselines.py
"""

import numpy as np

from mixfit import (
    MixingMeasure,
    SignedMixingMeasure,
    SolverConfig,
    combine,
    dir_deriv_measure,
    solve,
)
from mixfit.lsconvex import LsModel
from mixfit.pipeline import simulate_sample


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


def run_baseline(step, model, start, grid, n_steps):
    f = start
    trail = [model.objective(f)]
    for _ in range(n_steps):
        f = step(model, f, grid)
        trail.append(model.objective(f))
    return f, trail


def main():
    x = simulate_sample("exponential", 300, seed=3)
    model = LsModel(x)
    grid = np.linspace(0.0, 3.0 * x.max(), 200)
    grid = grid[grid > 0.0]

    # Support reduction: solves over the cone (mass free).
    measure, trace = solve(model, SolverConfig(grid=grid, eta=1e-10))
    print(f"support reduction: {trace.n_iterations} outer iterations, "
          f"{measure.size} atoms, objective {trace.objective[-1]:.10f}, "
          f"mass {measure.total_mass():.6f}")

    # Baselines: iterate on the unit-mass hull from one shared start.
    start = MixingMeasure([float(grid[len(grid) // 2])], [1.0])
    n_steps = 200
    fw, fw_trail = run_baseline(fedorov_wynn_step, model, start, grid, n_steps)
    ve, ve_trail = run_baseline(vertex_exchange_step, model, start, grid, n_steps)

    print(f"\nafter {n_steps} baseline steps from a single-atom start:")
    print(f"  convex-combination rule: objective {fw_trail[-1]:.10f}, "
          f"{fw.size} atoms")
    print(f"  exchange rule:           objective {ve_trail[-1]:.10f}, "
          f"{ve.size} atoms")
    print(f"  support reduction:       objective {trace.objective[-1]:.10f}, "
          f"{measure.size} atoms")

    print("\nobjective along the way (baseline steps vs final target):")
    target = trace.objective[-1]
    print(f"{'step':>6} {'convex-combination':>20} {'exchange':>12}")
    for k in (0, 1, 2, 5, 10, 25, 50, 100, 200):
        print(f"{k:>6} {fw_trail[k]:>20.8f} {ve_trail[k]:>12.8f}")
    print(f"{'target':>6} {target:>20.8f} {target:>12.8f}")

    gap_fw = fw_trail[-1] - target
    gap_ve = ve_trail[-1] - target
    print(f"\nremaining gap to the cone optimum: "
          f"convex-combination {gap_fw:.3e}, exchange {gap_ve:.3e}")
    print("(the cone optimum has mass 1 here, as the hull iterates do, so "
          "the gap is the hull rules' slow convergence)")


if __name__ == "__main__":
    main()
