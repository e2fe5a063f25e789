"""Maximum likelihood Gaussian deconvolution by sequential quadratic solves.

The estimator maximizes the mixture log likelihood for data
``x_i = theta_i + noise`` with standard normal noise and an unknown
mixing distribution.  Working with the mass-relaxed objective

    ml(f) = -(1/n) sum_i log f(x_i) + total_mass(f)

turns the simplex constraint into a free cone problem: any solution of
the relaxed problem automatically has total mass one.  The objective is
not quadratic, so each outer iteration builds the exact second-order
model of ``ml`` around the current mixture ``g``,

    q(f) = total_mass(f) - (2/n) sum f(x_i)/g(x_i)
           + (1/(2n)) sum (f(x_i)/g(x_i))^2 ,

minimizes it over the cone with the support reduction solver, and
applies a damped update with halving backtracking on the true
objective.  Near the solution full steps are accepted and the scheme
converges at Newton speed.
"""

from __future__ import annotations

import copy
import logging

import numpy as np

from . import core
from .families import (
    GaussianFamily,
    MixingMeasure,
    SignedMixingMeasure,
    combine,
)

__all__ = ["MlModel", "QuadLocalModel", "newton_solve", "starting_iterate"]

logger = logging.getLogger("mixfit.mldeconv")

_MAX_HALVINGS = 60


class _Observations:
    """The sample and at most one grid with its kernel matrices.

    All kernel values at the observations come from this layer, with the
    observations on the last axis.  The grid's kernels are evaluated
    once and stored atom-major, ``K[j, i] = phi(x_i - grid_j)`` of shape
    ``G x n``, beside their elementwise square ``K2 = K∘K`` for
    curvature scans.  Scans over the grid read ``K`` itself; atoms that
    are all grid points read their rows of ``K``, a contiguous gather;
    any other atoms are evaluated on the fly.
    """

    family = GaussianFamily()

    def __init__(self, x, grid=None):
        self.x = x
        self.grid = None if grid is None else np.asarray(grid, dtype=float)
        self.K = None
        self.K2 = None
        if grid is not None:
            self.K = self.kernels(self.grid)
            self.K.flags.writeable = False
            self.K2 = self.K * self.K
            self.K2.flags.writeable = False

    def kernels(self, theta):
        """``phi(x_i - theta)``, observations along the last axis."""
        theta = np.asarray(theta, dtype=float)
        if self.K is not None:
            if theta.shape == self.grid.shape and (theta == self.grid).all():
                return self.K
            idx = np.minimum(self.grid.searchsorted(theta), self.grid.size - 1)
            if (self.grid[idx] == theta).all():
                return self.K[idx]
        return self.family.kernel(theta[..., None], self.x)

    def mixture(self, measure):
        """The mixture density at every observation."""
        return measure.weights @ self.kernels(measure.locations)


class MlModel:
    """Relaxed negative log likelihood for Gaussian location mixtures.

    Exposes the objective, its directional derivatives (used for the
    optimality certificate and as the termination scan of the outer
    Newton loop), and the Newton system for gridless refinement.
    The certificate derivative needs no rescaling here: the kernels
    share a common shape, so the raw derivative is already comparable
    across the grid.  ``domain``, the data range, bounds the default
    grid and the refined atoms.
    """

    family = _Observations.family

    def __init__(self, sample):
        x = np.sort(np.asarray(sample, dtype=float).ravel())
        if x.size == 0:
            raise ValueError("sample must be nonempty")
        if not np.all(np.isfinite(x)):
            raise ValueError("sample values must be finite")
        self.x = x
        self.n = x.size
        self.domain = (float(x[0]), float(x[-1]))
        self.obs = _Observations(x)

    def objective(self, measure):
        """``-(1/n) sum log f(x_i) + mass``; +inf when f vanishes at a point."""
        fx = self.obs.mixture(measure)
        if (fx <= 0.0).any():
            return np.inf
        return float(-np.log(fx).mean() + measure.total_mass())

    def dir_deriv_vertex(self, theta, measure):
        """``1 - (1/n) sum f_theta(x_i) / f(x_i)``."""
        fx = self.obs.mixture(measure)
        if (fx <= 0.0).any():
            raise ValueError("mixture must be positive at every observation")
        out = 1.0 - self.obs.kernels(theta) @ (1.0 / fx) / self.n
        return out if out.ndim else float(out)

    alt_dir_deriv_vertex = dir_deriv_vertex

    def location_gradient(self, measure):
        """Gradient of ``ml`` in the atom locations at fixed weights, the
        location part of :meth:`newton_system`."""
        if measure.size == 0:
            return np.zeros(0)
        return self.newton_system(measure)[0][:measure.size]

    def newton_system(self, measure):
        """Gradient and Hessian of ``ml`` in the locations, then the weights.

        With ``r = 1/f(x)``, kernels ``K``, ``D = (x - theta) K`` and
        ``E = ((x - theta)^2 - 1) K``: ``d/dw_j = 1 - mean(K_j r)``,
        ``d/dtheta_j = -w_j mean(D_j r)``, ``H_ww = mean(K_j K_k r^2)``,
        ``H_wtheta = -delta_jk mean(D_j r) + w_k mean(K_j D_k r^2)`` and
        ``H_thetatheta = -delta_jk w_j mean(E_j r) + w_j w_k mean(D_j D_k r^2)``.
        """
        theta, w = measure.locations, measure.weights
        kern = self.obs.kernels(theta)
        fx = w @ kern
        if (fx <= 0.0).any():
            raise ValueError("mixture must be positive at every observation")
        z = self.x - theta[:, None]
        kr = kern / fx
        dr = z * kr
        d_mean = dr.mean(axis=1)
        h_ww = kr @ kr.T / self.n
        h_wt = (kr @ dr.T) / self.n * w - np.diag(d_mean)
        h_tt = (np.outer(w, w) * (dr @ dr.T) / self.n
                - np.diag(w * ((z * z - 1.0) * kr).mean(axis=1)))
        grad = np.concatenate((-w * d_mean, 1.0 - kr.mean(axis=1)))
        return grad, np.block([[h_tt, h_wt.T], [h_wt, h_ww]])

    def minimize_over_support(self, measure, config):
        """Minimize ``ml`` over the cone spanned by the measure's support.

        Runs the damped Newton iteration with the candidate set frozen
        to the support itself; it closes gridless refinement.  Returns
        ``(measure, objective)``: the loop's last
        iterate, certified or not, and the objective the loop evaluated.
        """
        locked = core.SolverConfig(
            grid=measure.locations,
            eta=config.eta,
            max_outer_iter=200,
            support_tol=config.support_tol,
        )
        result, trace = _newton_loop(self, measure, locked)
        return result, trace.objective[-1]


class QuadLocalModel(core.ConeObjective):
    """Second-order model of the relaxed likelihood around a mixture.

    Parameters
    ----------
    sample : ndarray
        Observations (any order), or a Newton loop's observation layer,
        whose grid then replaces ``grid``.
    center : MixingMeasure
        Expansion point ``g``; must be positive at every observation.
    grid : ndarray, optional
        Candidate grid whose kernels are evaluated once for every scan
        over exactly this grid; other scans evaluate on the fly.

    Notes
    -----
    With ``d_i = 1 / g(x_i)`` the model is the quadratic

        q(f) = mass(f) - (2/n) sum d_i f(x_i) + (1/(2n)) sum (d_i f(x_i))^2

    whose gradient toward a kernel, ``c1(theta)``, matches the gradient
    of ``ml`` at ``g`` exactly, and whose curvature along a kernel is
    ``c2(theta) = (1/n) sum (d_i f_theta(x_i))^2``.  On the layer's grid
    both are matrix-vector products with its ``G x n`` kernel matrices,

        c2 = (K∘K) d^2 / n              once per model,
        c1 = 1 + K (d ∘ (f d - 2)) / n  once per scan,

    so the model keeps only vectors of length n and G; the same sums run
    over the rows of ``K`` for grid atoms and over kernels evaluated on
    the fly elsewhere.
    """

    family = _Observations.family

    def __init__(self, sample, center, grid=None):
        if not isinstance(sample, _Observations):
            sample = _Observations(np.asarray(sample, dtype=float).ravel(), grid)
        gx = sample.mixture(center)
        if (gx <= 0.0).any():
            raise ValueError("expansion mixture must be positive at every observation")
        self.obs = sample
        self.x = sample.x
        self.n = self.x.size
        self.center = center
        self.d = 1.0 / gx
        self._grid_c2 = (None if sample.K is None
                         else self._mean_over_obs(self.d**2, sample.K2))

    def _mean_over_obs(self, v, kern):
        """``(1/n) sum_i v_i kern[..., i]``: a matvec when ``kern`` is a matrix."""
        return kern @ v / self.n

    def objective(self, measure):
        if measure.size == 0:
            return 0.0
        fd = self.obs.mixture(measure) * self.d
        return float(measure.total_mass() - 2.0 * fd.mean()
                     + 0.5 * (fd**2).mean())

    def quad_coefficients(self, theta, measure):
        """Slope and curvature of ``q`` along a kernel direction.

        Returns ``(c1, c2)`` with
        ``q(f + eps f_theta) = q(f) + c1 eps + (1/2) c2 eps^2``.
        """
        kern = self.obs.kernels(theta)
        fd = self.obs.mixture(measure) * self.d if measure.size else 0.0
        c1 = 1.0 + self._mean_over_obs(self.d * (fd - 2.0), kern)
        c2 = (self._grid_c2 if kern is self.obs.K
              else self._mean_over_obs(self.d**2, kern**2))
        if np.ndim(c1):
            return np.asarray(c1), np.asarray(c2)
        return float(c1), float(c2)

    def dir_deriv_vertex(self, theta, measure):
        c1, _ = self.quad_coefficients(theta, measure)
        return c1

    def alt_dir_deriv_vertex(self, theta, measure):
        c1, c2 = self.quad_coefficients(theta, measure)
        out = c1 / np.sqrt(c2)
        return out if np.ndim(out) else float(out)

    def unrestricted_min(self, support):
        """Solve the normal equations of ``q`` over the given kernels.

        Equivalent to a penalized weighted least squares fit with
        observation weights ``sqrt(n) d_i``: with the ``p x n`` kernel
        rows ``Y`` the system is ``(YD)(YD)' alpha = 2 Y d - n 1``.
        """
        support = np.asarray(support, dtype=float)
        if support.size == 0:
            return SignedMixingMeasure.empty()
        Y = self.obs.kernels(support)
        A = Y * self.d
        alpha = core.cholesky_solve(
            A @ A.T, 2.0 * Y @ self.d - self.n,
            "rank-deficient quadratic subproblem: support points too "
            "close to resolve, merge them")
        return SignedMixingMeasure(support, alpha)

    def start(self, grid):
        """Warm start: reoptimize the expansion measure on its own support."""
        if self.center.size == 0:
            return MixingMeasure.empty()
        return core.reoptimize_over_support(self, self.center)

    def segment_curvature(self, direction):
        """Exact curvature ``(1/n) sum (d_i h(x_i))^2`` along a direction."""
        if direction.size == 0:
            return 0.0
        hd = self.obs.mixture(direction) * self.d
        return float((hd**2).mean())


def starting_iterate(sample, grid):
    """Single atom of weight one at the grid point nearest the sample median."""
    grid = np.asarray(grid, dtype=float)
    med = float(np.median(np.asarray(sample, dtype=float)))
    theta0 = float(grid[np.argmin(np.abs(grid - med))])
    return MixingMeasure([theta0], [1.0])


_TIE_TOL = 1e-14


def _damped_update(model, current, candidate, current_value):
    """Backtracked convex combination toward the quadratic minimizer.

    Halves the step until the true objective strictly decreases and the
    mixture stays positive at every observation.  When no strict
    decrease is representable in floats (the remaining improvement is
    quadratic in an already tiny certificate gap) the full step is
    accepted as a tie provided the objective moves by at most
    ``_TIE_TOL``; the caller certifies or aborts right after.  Returns
    ``(measure, value, step, tied)``; raises
    :class:`core.ConvergenceStall` if not even a tie is available.
    """
    lam = 1.0
    tie = None
    for _ in range(_MAX_HALVINGS):
        blend = combine(current, 1.0 - lam, candidate, lam)
        keep = blend.weights > 0.0
        trial = MixingMeasure(blend.locations[keep], blend.weights[keep])
        value = model.objective(trial)
        if np.isfinite(value) and value < current_value:
            return trial, value, lam, False
        if tie is None and np.isfinite(value) \
                and value <= current_value + _TIE_TOL:
            tie = (trial, value, lam)
        lam *= 0.5
    if tie is not None:
        return tie[0], tie[1], tie[2], True
    raise core.ConvergenceStall(
        "damped likelihood update stalled: no decrease after "
        f"{_MAX_HALVINGS} halvings (objective {current_value:.12g}, "
        f"support size {current.size})")


def _newton_loop(model, start, config):
    """Shared sequential-quadratic iteration for the relaxed likelihood."""
    grid = config.grid
    # A loop-local copy holds the grid's kernel matrix, which the
    # certificate and every quadratic model read; it dies with the loop.
    model = copy.copy(model)
    model.obs = _Observations(model.x, grid)
    f = start
    trace = core.SolverTrace()
    pending = (0, np.nan, ())
    tied_last = False

    for it in range(config.max_outer_iter + 1):
        cert = core.check_optimality(model, f, grid, config.eta,
                                     config.support_tol)
        value = model.objective(f)
        trace.append(value, f.size, cert.min_grid_alt, *pending)
        if cert.passed:
            trace.converged = True
            logger.debug("likelihood certificate passed after %d Newton steps "
                         "(grid min %.3e, support max %.3e)",
                         it, cert.min_grid_alt, cert.max_abs_support)
            break
        if tied_last:
            # A flat step is only admissible right before certification;
            # failing the certificate after one means no representable
            # progress remains.
            logger.debug("likelihood iteration stalled at certificate gap "
                         "%.3e: objective flat to %g and the certificate "
                         "still fails", cert.gap, _TIE_TOL)
            break
        if it == config.max_outer_iter:
            logger.debug("Newton iteration cap %d reached, certificate gap %.3e",
                         config.max_outer_iter, cert.gap)
            break
        quad = QuadLocalModel(model.obs, f)
        # Early quadratic subproblems need only a loose solve.  The gap is
        # measured on the quadratic model's own curvature-normalized scale
        # (the scale its scan terminates on; the raw likelihood gap can sit
        # orders of magnitude above it), and the floor sits below the outer
        # tolerance so the final certificate is not limited by truncation.
        alt0 = np.asarray(quad.alt_dir_deriv_vertex(grid, f))
        gap_q = max(0.0, -float(alt0.min()))
        eta_q = max(0.1 * config.eta, 1e-2 * gap_q)
        inner_config = core.SolverConfig(
            grid=grid, eta=eta_q, max_outer_iter=config.max_outer_iter,
            support_tol=config.support_tol)
        candidate, inner_trace = core.solve(quad, inner_config)
        try:
            f_new, new_value, lam, tied_last = _damped_update(
                model, f, candidate, value)
        except core.ConvergenceStall as exc:
            logger.debug("%s; stopping at certificate gap %.3e", exc, cert.gap)
            break
        pending = (int(np.sum(inner_trace.deletions)), lam,
                   inner_trace.objective)
        logger.debug("Newton step %d: objective %.12g -> %.12g, lam %.3g, "
                     "support %d -> %d%s", it, value, new_value, lam,
                     f.size, f_new.size, " (tie)" if tied_last else "")
        f = f_new.purge(core.PURGE_THRESHOLD)
        if f.size == 0:
            raise core.ConvergenceStall("likelihood iterate lost all atoms")

    # Every exit above leaves ``cert`` describing the returned iterate.
    trace.certificate = cert
    return f, trace


def newton_solve(sample, config, start=None):
    """Maximize the mixture likelihood over the grid-generated cone.

    Parameters
    ----------
    sample : array_like or MlModel
        Observations, or the likelihood model that already holds them.
    config : core.SolverConfig
        Grid, outer tolerance ``eta`` (certificate threshold on the
        grid), and iteration caps.
    start : MixingMeasure, optional
        Starting iterate; default is :func:`starting_iterate`.

    Returns
    -------
    measure : MixingMeasure
    trace : core.SolverTrace
        One row per Newton iteration; ``step_size`` holds the damping
        factor and ``certificate`` the returned measure's certificate.
        A run that hits the cap or stalls (a damped update without
        decrease, or a flat step that fails the certificate) returns its
        iterate with ``converged`` false; only losing every atom raises.
    """
    model = sample if isinstance(sample, MlModel) else MlModel(sample)
    if start is None:
        start = starting_iterate(model.x, config.grid)
    return _newton_loop(model, start, config)
