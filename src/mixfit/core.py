"""Support reduction solver for convex objectives over mixture cones.

The problem class: minimize a convex functional ``phi`` over the convex
cone of positive atomic mixtures of a parametric kernel family.  The
solver alternates two moves.  An outer scan locates the kernel whose
directional derivative ``D_phi(f_theta; f)`` is most negative over a
finite parameter grid and adds it to the working support.  A reduction
step then minimizes ``phi`` over the span of the working support
without sign constraints and walks back toward the cone, deleting the
atoms whose weights would turn negative, until the restricted minimizer
has positive weights only.  Iteration stops when no grid kernel offers
a descent direction steeper than a tolerance, which together with
stationarity on the support is a global optimality certificate for the
cone problem.

Models plug in through :class:`ConeObjective`.
"""

from __future__ import annotations

import logging
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .families import MixingMeasure, SignedMixingMeasure

__all__ = [
    "ConeObjective",
    "SolverConfig",
    "SolverTrace",
    "OptimalityCertificate",
    "SingularSystem",
    "min_alt_dir_deriv",
    "cholesky_solve",
    "solve",
    "check_optimality",
    "dir_deriv_measure",
]

logger = logging.getLogger("mixfit.core")

#: Every trial measure (reduction, damped likelihood step, refinement
#: line search) drops the atoms whose weight is below this.
PURGE_THRESHOLD = 1e-12


class SingularSystem(ValueError):
    """Raised when a restricted solve's matrix is not positive definite."""


class ConeObjective(ABC):
    """Contract a model must satisfy to be solved over its mixture cone.

    Concrete models supply the objective, the directional derivative
    toward single kernels and the unrestricted (signed) minimizer over a
    finite support.  All derivative evaluators are vectorized over the
    parameter argument.  Where :func:`solve` starts, and its local step
    after each reduction, are its caller's arguments, not the model's.
    """

    #: the kernel family generating the cone
    family = None

    @abstractmethod
    def objective(self, measure):
        """Value of ``phi`` at an atomic (possibly signed) measure."""

    @abstractmethod
    def dir_deriv_vertex(self, theta, measure):
        """``D_phi(f_theta; f)``, the one-sided derivative toward a kernel."""

    def alt_dir_deriv_vertex(self, theta, measure):
        """Rescaled derivative used for termination; same sign as the raw one.

        Default is the raw derivative itself.  Quadratic objectives
        override this with the curvature-normalized variant so the
        stopping threshold has a uniform meaning across the grid.
        """
        return self.dir_deriv_vertex(theta, measure)

    @abstractmethod
    def unrestricted_min(self, support):
        """Signed minimizer of ``phi`` over the span of the given kernels.

        Must return a :class:`SignedMixingMeasure` whose locations are
        exactly the given support points, zero weights included.
        """

    def minimize_over_support(self, measure, config, theta=()):
        """Minimum over the cone of the atoms and ``theta``, from the
        measure's weights: ``(measure, deletions, inner_objectives)``."""
        return _reduce_to_cone(self, measure, theta)

    def on(self, grid):
        """The model all stages of a fit on ``grid`` share: this one."""
        return self


def sorted_sample(sample):
    """Sorted float copy of a sample; ``ValueError`` unless nonempty and finite."""
    x = np.sort(np.asarray(sample, dtype=float).ravel())
    if x.size == 0:
        raise ValueError("sample must be nonempty")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample values must be finite")
    return x


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for :func:`solve` and the gridless refinement stage.

    Parameters
    ----------
    grid : ndarray
        Strictly increasing candidate parameter values.
    eta : float
        Grid half of the stop rule: the minimal (rescaled) directional
        derivative over the grid must be at least ``-eta``.
    max_outer_iter : int
        Cap on outer iterations, also on the refinement's insertions;
        hitting it returns the last iterate with ``converged=False``.
    gridless_enabled : bool
        Whether to run the off-grid support refinement after the grid
        solve.
    gridless_tol : float
        Stop each polish once the location-gradient norm falls below
        this value.  The step cap is the constant
        ``gridless._MAX_STEPS``.
    support_tol : float
        Support half of the stop rule and of the certificates issued
        while solving: a bound on the atoms' absolute raw derivatives.
    """

    grid: np.ndarray
    eta: float = 1e-8
    max_outer_iter: int = 10_000
    gridless_enabled: bool = False
    gridless_tol: float = 1e-6
    support_tol: float = 1e-8

    def __post_init__(self):
        grid = np.array(self.grid, dtype=float).ravel()
        if grid.size == 0:
            raise ValueError("grid must be nonempty")
        if not np.isfinite(grid).all():
            raise ValueError("grid values must be finite")
        if (grid[1:] <= grid[:-1]).any():
            raise ValueError("grid must be strictly increasing")
        grid.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        if not (0.0 < self.eta < np.inf):
            raise ValueError("eta must be positive and finite")
        if not isinstance(self.max_outer_iter, numbers.Integral):
            raise ValueError("max_outer_iter must be an integer")
        if self.max_outer_iter < 1:
            raise ValueError("max_outer_iter must be at least 1")
        if not (0.0 <= self.gridless_tol < np.inf):
            raise ValueError("gridless_tol must be nonnegative and finite")
        if not (0.0 < self.support_tol < np.inf):
            raise ValueError("support_tol must be positive and finite")


@dataclass
class SolverTrace:
    """Per-iteration record of a solver run.

    One row per outer iterate: the objective at the iterate, the
    support size, the minimal (rescaled) directional derivative over
    the grid, the number of atoms deleted while producing this iterate
    (0 on the first row), the damping factor when the model uses damped
    outer updates (NaN otherwise), and the objective values recorded
    after each inner reduction move that produced this iterate.
    """

    objective: list = field(default_factory=list)
    support_size: list = field(default_factory=list)
    min_alt_deriv: list = field(default_factory=list)
    deletions: list = field(default_factory=list)
    step_size: list = field(default_factory=list)
    inner_objectives: list = field(default_factory=list)
    converged: bool = False

    def append(self, objective, support_size, min_alt_deriv, deletions,
               step_size=np.nan, inner_objectives=()):
        self.objective.append(float(objective))
        self.support_size.append(int(support_size))
        self.min_alt_deriv.append(float(min_alt_deriv))
        self.deletions.append(int(deletions))
        self.step_size.append(float(step_size))
        self.inner_objectives.append(list(inner_objectives))

    @property
    def n_iterations(self):
        """Number of outer steps actually executed."""
        return max(len(self.objective) - 1, 0)


@dataclass(frozen=True)
class OptimalityCertificate:
    """Outcome of a cone-optimality check.

    ``min_grid_alt`` is the minimum of the rescaled directional
    derivative over the grid (the quantity the solver terminates on),
    ``grid_alt`` that read-only scan, which ``==`` and ``repr`` ignore,
    ``min_grid_raw`` the raw counterpart, and ``max_abs_support`` the
    largest absolute raw derivative over the support atoms, where
    stationarity demands an exact zero.
    """

    min_grid_alt: float
    min_grid_raw: float
    argmin_theta: float
    max_abs_support: float
    support_size: int
    grid_tol: float
    support_tol: float
    grid_alt: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def passed(self):
        return (self.min_grid_alt >= -self.grid_tol
                and self.max_abs_support <= self.support_tol)

    @property
    def gap(self):
        """Worst certificate violation, 0 when the check passes."""
        if self.passed:
            return 0.0
        return max(0.0, -self.min_grid_alt, self.max_abs_support)


def _max_abs_support(model, measure, grid=None, raw=None):
    """Largest absolute raw derivative at the atoms, 0 without atoms.

    Given ``raw``, the raw derivative over ``grid``, a measure whose atoms
    are all grid points reads it there and evaluates nothing.
    """
    if measure.size == 0:
        return 0.0
    atoms = measure.locations
    if raw is not None:
        at = np.minimum(grid.searchsorted(atoms), grid.size - 1)
        if (grid[at] == atoms).all():
            return float(np.abs(raw[at]).max())
    return float(np.abs(model.dir_deriv_vertex(atoms, measure)).max())


def min_alt_dir_deriv(model, measure, grid):
    """Minimize the rescaled directional derivative over the grid.

    Returns ``(theta_hat, value)`` for the grid argmin.  Kernels that
    are not descent directions have nonnegative values, so a negative
    result always points at a usable insertion vertex.
    """
    vals = np.asarray(model.alt_dir_deriv_vertex(grid, measure), dtype=float)
    if not np.isfinite(vals).all():
        raise FloatingPointError("directional derivative scan produced non-finite values")
    idx = int(vals.argmin())
    return float(grid[idx]), float(vals[idx])


def cholesky_solve(M, b, singular):
    """Solve ``M x = b`` for a symmetric positive definite ``M``.

    Calls the LAPACK routines that ``scipy.linalg.cho_factor`` and
    ``cho_solve`` wrap, with their arguments, so ``x`` is theirs bit for
    bit without their per-call cost.  Non-finite input raises their
    ``ValueError``; a matrix that is not positive definite raises
    ``SingularSystem(singular)``.
    """
    if not np.isfinite(M).all():
        raise ValueError("array must not contain infs or NaNs")
    c, info = dpotrf(M, lower=0, clean=0)
    if info:
        raise SingularSystem(singular)
    if not (np.isfinite(b).all() and np.isfinite(c).all()):
        raise ValueError("array must not contain infs or NaNs")
    return dpotrs(c, b, lower=0)[0]


def _reduce_to_cone(model, measure, theta=()):
    """Minimize ``phi`` over the cone of the measure's atoms and ``theta``.

    Starts from the measure's weights, zero at points of ``theta`` that
    are not atoms.  While the unrestricted signed minimizer has negative
    weights, the iterate moves as far toward it as feasibility allows
    and the atoms this zeroes are deleted.  A nonnegative minimizer is
    final unless it has weights in ``(0, PURGE_THRESHOLD)``; those atoms
    are deleted and the rest re-solved.  New points that make the first
    solve singular go to :func:`_exchange`.  Returns ``(measure,
    deletions, inner_objectives)``.
    """
    S = np.sort(np.append(measure.locations, theta))
    fresh = S[1:] != S[:-1]
    if not fresh.all():
        S = S[np.append(True, fresh)]
    w = np.zeros(S.size)
    w[S.searchsorted(measure.locations)] = measure.weights
    deletions = 0
    inner_objs = []

    # Every pass but the last deletes an atom.
    for _ in range(S.size + 1):
        if S.size == 0:
            break
        try:
            u = model.unrestricted_min(S).weights
        except SingularSystem:
            # Every pass after the first has deleted an atom.
            if deletions or S.size == measure.size:
                raise
            return _exchange(model, measure,
                             S[~np.isin(S, measure.locations)])
        if (u >= 0.0).all():
            drop = u < PURGE_THRESHOLD
            deletions += int(drop.sum())
            S, w = S[~drop], u[~drop]
            if (u[drop] == 0.0).all():
                break
            continue
        neg = u < 0.0
        # Largest step toward u keeping all weights nonnegative:
        # lam = w / (w - u) per negative atom, take the minimum.
        lam_neg = np.where(w[neg] > 0.0, w[neg] / (w[neg] - u[neg]), 0.0)
        lam = float(lam_neg.min())
        w = (1.0 - lam) * w + lam * u
        drop = np.zeros(S.size, dtype=bool)
        drop[neg.nonzero()[0][lam_neg <= lam * (1.0 + 1e-12)]] = True
        drop |= w <= 0.0
        deletions += int(drop.sum())
        S, w = S[~drop], w[~drop]
        inner_objs.append(model.objective(SignedMixingMeasure(S, w)))
    else:
        raise RuntimeError("reduction loop failed to terminate; "
                           "inconsistent unrestricted minimizer")

    return MixingMeasure(S, w), deletions, inner_objs


def _exchange(model, measure, new):
    """The reduction after new points made the support singular.

    A single new point ``theta`` adds no independent direction, but it
    may be a better atom than one already there.  The vertex exchange
    (Böhning 1986) moves the weight of a neighbour of ``theta`` onto
    ``theta`` and reduces on that support: first the atom nearest
    ``theta``, then its nearest atom on the other side.  The first
    result whose objective lies strictly below the start's is kept; its
    inner records then begin at the first one below the start's, so they
    read as a descent from it, and the exchanged atom counts as a
    deletion.  When neither exchange lowers the objective, or both
    supports are singular too, the reduction runs without the new points.
    """
    if new.size == 1 and measure.size:
        theta, locations = new[0], measure.locations
        right = int(locations.searchsorted(theta))
        sides = [k for k in (right - 1, right) if 0 <= k < locations.size]
        start = model.objective(measure)
        for k in sorted(sides, key=lambda k: abs(locations[k] - theta)):
            swapped = locations.copy()
            swapped[k] = theta
            try:
                f, deletions, inner = _reduce_to_cone(
                    model, MixingMeasure(swapped, measure.weights))
            except SingularSystem:
                continue
            if model.objective(f) < start:
                return f, deletions + 1, [v for v in inner if v < start]
    return _reduce_to_cone(model, measure)


def solve(model, config, start=None, local=None):
    """Minimize a cone objective by iterated support reduction.

    Each iteration adds the grid argmin of the rescaled derivative and
    reduces through ``model.minimize_over_support``.  It stops once both
    halves of the certificate pass (grid minimum at least ``-eta``, no
    atom's absolute raw derivative above ``support_tol``), when a
    reduction returns its start or a round (reduction and local step)
    lowers neither the objective nor the grid minimum's deficit, or at
    ``max_outer_iter`` iterations.

    Parameters
    ----------
    model : ConeObjective
        Problem instance.
    config : SolverConfig
        Grid, tolerances, and iteration cap.
    start : MixingMeasure, optional
        Initial iterate; default is the empty measure, from which the
        first scan inserts the best single grid kernel.
    local : callable, optional
        Local step ``measure -> measure`` taken after each reduction
        that made progress, such as an off-grid polish of the atoms.

    Returns
    -------
    measure : MixingMeasure
        Final iterate (global cone minimizer when ``trace.converged``).
    trace : SolverTrace
        One row per iterate; the last row is the returned measure.
    """
    grid = config.grid
    f = MixingMeasure.empty() if start is None else start
    trace = SolverTrace()
    pending_deletions, pending_inner = 0, []

    for it in range(config.max_outer_iter + 1):
        theta_hat, val = min_alt_dir_deriv(model, f, grid)
        trace.append(model.objective(f), f.size, val, pending_deletions,
                     np.nan, pending_inner)
        trace.converged = (val >= -config.eta
                           and _max_abs_support(model, f) <= config.support_tol)
        stalled = it and trace.objective[-1] >= trace.objective[-2] \
            and val <= trace.min_alt_deriv[-2]
        if trace.converged or stalled or it == config.max_outer_iter:
            logger.debug("%s after %d outer iterations, min derivative %.3e",
                         "converged" if trace.converged else "stalled" if stalled
                         else "iteration cap reached", it, val)
            break
        logger.debug("iter %d: objective %.12g, support %d, min deriv %.3e at %.6g",
                     it, trace.objective[-1], f.size, val, theta_hat)
        # A scan that picks an atom re-solves in place.  A reduction that
        # returns its start would return it again after the next scan.
        f_new, pending_deletions, pending_inner = model.minimize_over_support(
            f, config, theta_hat)
        if f_new.size == f.size and (f_new.locations == f.locations).all() \
                and (f_new.weights == f.weights).all():
            logger.debug("no progress: the reduction returned its start")
            break
        f = f_new if local is None else local(f_new)

    return f, trace


def check_optimality(model, measure, grid, tol, support_tol=None, scan=None):
    """Evaluate the cone-optimality certificate for a measure.

    The grid part requires the rescaled directional derivative to stay
    above ``-tol`` on every grid point; the support part requires the
    raw derivative to vanish (within ``support_tol``, default ``tol``)
    at every atom.  Both conditions together certify a global minimum
    over the grid-generated cone.  A model whose rescaled derivative is
    its raw one is scanned once, or not at all given that ``scan``.  When
    every atom is a grid point, the support part reads the raw scan at
    the atoms instead of evaluating the derivative there.
    """
    grid = np.asarray(grid, dtype=float)
    support_tol = tol if support_tol is None else support_tol
    alt = np.array(model.alt_dir_deriv_vertex(grid, measure) if scan is None
                   else scan, dtype=float)
    alt.flags.writeable = False
    if type(model).alt_dir_deriv_vertex is type(model).dir_deriv_vertex:
        raw = alt
    else:
        raw = np.asarray(model.dir_deriv_vertex(grid, measure), dtype=float)
    idx = int(np.argmin(alt))
    return OptimalityCertificate(
        min_grid_alt=float(alt[idx]),
        min_grid_raw=float(raw.min()),
        argmin_theta=float(grid[idx]),
        max_abs_support=_max_abs_support(model, measure, grid, raw),
        support_size=measure.size,
        grid_tol=float(tol),
        support_tol=float(support_tol),
        grid_alt=alt,
    )


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
