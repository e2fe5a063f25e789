"""End-to-end fitting pipelines, file formats, and diagnostic curves.

Everything the command line exposes lives here as plain functions so
the same flows are scriptable: sample simulation, sample ingestion,
one fit path for both models (least squares convex density, maximum
likelihood Gaussian deconvolution), measure persistence, the text run
report, and the four diagnostic curve files.  What differs between the
models is data in the :data:`MODELS` table.

File formats
------------
Samples are one decimal number per line; blank lines and lines starting
with ``#`` are ignored.  Measures are CSV with a ``theta,weight``
header and 17 significant digits, which round-trips float64 exactly.
Curves are CSV with a header row naming the columns.
"""

from __future__ import annotations

import logging
import numbers
import time
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expm1, gammainc, ndtr

from . import core, gridless, lsconvex, mldeconv
from .families import MixingMeasure, mixture_cdf, mixture_eval

__all__ = [
    "simulate_sample",
    "write_sample",
    "ingest",
    "write_measure",
    "read_measure",
    "FitResult",
    "ModelSpec",
    "MODELS",
    "model_spec",
    "fit",
    "emit_curves",
    "default_grid_spec",
]

logger = logging.getLogger("mixfit.pipeline")

#: resolution of the x-axis for density and distribution curve files
_CURVE_POINTS = 512

SIMULATION_KINDS = ("exponential", "exp-normal-mixture")


# -- samples -------------------------------------------------------------

def simulate_sample(kind, n, seed):
    """Draw a reproducible sample from one of the two reference setups.

    ``exponential`` draws unit exponentials by inversion,
    ``x = -log1p(-u)`` with ``u`` uniform.  ``exp-normal-mixture``
    draws an exponential location the same way and adds standard
    normal noise.  The generator is numpy's PCG64 seeded with ``seed``,
    so runs are bit-reproducible on a fixed numpy build.
    """
    if n < 1:
        raise ValueError("sample size must be positive")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    expo = -np.log1p(-u)
    if kind == "exponential":
        return expo
    if kind == "exp-normal-mixture":
        return expo + rng.standard_normal(n)
    raise ValueError(f"unknown simulation kind: {kind!r}")


def write_sample(path, sample, header=()):
    with open(path, "w") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        for value in np.asarray(sample, dtype=float):
            fh.write(f"{value:.17g}\n")


def _number(path, lineno, text):
    """``float(text)``; bad or non-finite text names the file and line."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(
            f"{path}: line {lineno}: not a number: {text!r}") from None
    if not np.isfinite(value):
        raise ValueError(f"{path}: line {lineno}: non-finite value")
    return value


def ingest(path, nonnegative=False):
    """Read a sample file: one decimal number per line.

    Blank lines and ``#`` comments are skipped.  Malformed content is
    reported with its line number.  With ``nonnegative=True`` negative
    values are rejected (the convex-density model needs them).
    """
    values = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            value = _number(path, lineno, line)
            if nonnegative and value < 0.0:
                raise ValueError(
                    f"{path}: line {lineno}: negative observation {value!r} "
                    "not allowed for this model")
            values.append(value)
    if not values:
        raise ValueError(f"{path}: no observations found")
    return np.sort(np.asarray(values, dtype=float))


# -- measures ------------------------------------------------------------

def write_measure(path, measure):
    """Persist atoms as ``theta,weight`` CSV with 17 significant digits."""
    with open(path, "w") as fh:
        fh.write("theta,weight\n")
        for theta, w in zip(measure.locations, measure.weights):
            fh.write(f"{theta:.17g},{w:.17g}\n")


def read_measure(path):
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "theta,weight":
            raise ValueError(f"{path}: expected 'theta,weight' header")
        loc, w = [], []
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected two fields")
            loc.append(_number(path, lineno, parts[0]))
            w.append(_number(path, lineno, parts[1]))
    try:
        return MixingMeasure(loc, w)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# -- models --------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """What sets one bundled model apart from the other.

    ``model`` is the objective class, built from the sample.  ``eta``
    is the default certificate tolerance.  The default grid is
    ``grid_size`` points on the model's ``domain``.  ``nonnegative``
    makes :func:`ingest` reject negative data.  ``solve(model, config)``
    runs the grid stage.  Refinement also scans ``scan_points`` points
    of the ``domain``, and the model's ``minimize_over_support`` both
    re-solves its weights and closes each polish.  ``mixing_cdf`` and
    ``density`` are the reference curves of the model's canonical
    experiment.
    """

    model: type
    eta: float
    grid_size: int
    nonnegative: bool
    solve: Callable
    scan_points: int
    mixing_cdf: Callable
    density: Callable


# The solvers are looked up in their modules at call time, not bound
# here, so a replaced module attribute is what a fit runs.  The reference
# curves use scipy.special: importing scipy.stats would more than double
# the start-up time of the command line.
MODELS = {
    # Exponential data as a convex density correspond to a Gamma(3)
    # mixing distribution over triangular kernels.
    "convex-ls": ModelSpec(
        model=lsconvex.LsModel, eta=1e-10,
        grid_size=1000, nonnegative=True,
        solve=lambda model, config: core.solve(model, config),
        # 501 points miss the atoms next to x_(1) the optimum can need.
        scan_points=4001,
        mixing_cdf=lambda theta: gammainc(3.0, theta),
        density=lambda x: np.where(x >= 0.0, np.exp(-np.abs(x)), 0.0)),
    # Unit exponential locations observed with standard normal noise.
    "deconv-ml": ModelSpec(
        model=mldeconv.MlModel, eta=1e-8,
        grid_size=500, nonnegative=False,
        solve=lambda model, config: mldeconv.newton_solve(model, config),
        scan_points=0,
        mixing_cdf=lambda theta: -expm1(-np.maximum(theta, 0.0)),
        # capped where exp(0.5 - x) overflows and ndtr(x - 1) is 0: not nan
        density=lambda x: np.exp(np.minimum(0.5 - x, 709.0)) * ndtr(x - 1.0)),
}


def model_spec(model_kind):
    """The :data:`MODELS` entry for ``model_kind``."""
    try:
        return MODELS[model_kind]
    except KeyError:
        raise ValueError(f"unknown model: {model_kind!r}") from None


# -- fitting -------------------------------------------------------------

def default_grid_spec(model_kind, sample):
    """Default ``(grid_min, grid_max, grid_size)``: the model's domain."""
    spec = model_spec(model_kind)
    return (*spec.model(sample).domain, spec.grid_size)


def build_grid(grid_min, grid_max, grid_size, family):
    """Equally spaced candidate grid, restricted to the family's domain."""
    if not isinstance(grid_size, numbers.Integral):
        raise ValueError("grid size must be an integer")
    if grid_size < 1:
        raise ValueError("grid size must be positive")
    if not (np.isfinite(grid_min) and np.isfinite(grid_max)):
        raise ValueError(f"grid min {grid_min:g} and grid max {grid_max:g} "
                         "must be finite")
    if grid_max < grid_min:
        raise ValueError("grid max must not be below grid min")
    grid = np.linspace(grid_min, grid_max, grid_size)
    lo, hi = family.domain
    valid = (grid > lo) & (grid < hi)
    dropped = grid_size - int(valid.sum())
    if dropped:
        logger.info("dropped %d grid points outside the parameter domain",
                    dropped)
    grid = np.unique(grid[valid])
    if grid.size == 0:
        raise ValueError("no valid grid points inside the parameter domain")
    return grid


@dataclass
class FitResult:
    """Everything a fit produces, for reporting and curve emission."""

    model_kind: str
    model: object
    measure: MixingMeasure
    trace: core.SolverTrace
    certificate: core.OptimalityCertificate
    config: core.SolverConfig
    fine_tune_trace: gridless.FineTuneTrace | None = None
    wall_time: float = 0.0

    @property
    def grid_support_size(self):
        """Atoms of the grid stage's measure, its trace's last row."""
        return self.trace.support_size[-1]

    @property
    def converged(self):
        """The final certificate passes.  A grid stage that stopped at its
        cap or stalled fails its certificate, so this covers it too."""
        return self.certificate.passed

    def report_text(self):
        """The run report: one ``key: value`` line per quantity, then one
        ``atom_i: theta,weight`` line per atom.  Bools read ``true`` or
        ``false``, and floats carry 17 significant digits."""
        cfg, cert, ft = self.config, self.certificate, self.fine_tune_trace
        measure = self.measure
        values = {
            "model": self.model_kind,
            "n_observations": self.model.n,
            "grid_min": float(cfg.grid[0]),
            "grid_max": float(cfg.grid[-1]),
            "grid_size": cfg.grid.size,
            "eta": cfg.eta,
            "max_iter": cfg.max_outer_iter,
            "gridless": cfg.gridless_enabled,
            "gridless_tol": cfg.gridless_tol,
            "converged": self.converged,
            "outer_iterations": self.trace.n_iterations,
            "fine_tune_steps": 0 if ft is None else ft.steps,
            "insertions": 0 if ft is None else ft.insertions,
            "final_objective": self.model.objective(measure),
            "support_size": measure.size,
            "grid_support_size": self.grid_support_size,
            "total_mass": measure.total_mass(),
            "cert_min_grid_alt": cert.min_grid_alt,
            "cert_min_grid_raw": cert.min_grid_raw,
            "cert_max_abs_support": cert.max_abs_support,
            "cert_passed": cert.passed,
            "wall_time_s": self.wall_time,
        }
        lines = []
        for key, value in values.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = f"{value:.17g}"
            lines.append(f"{key}: {value}")
        lines += [f"atom_{i}: {theta:.17g},{w:.17g}" for i, (theta, w)
                  in enumerate(zip(measure.locations, measure.weights))]
        return "\n".join(lines) + "\n"


def fit(model_kind, sample, config):
    """Fit a bundled model end to end.

    Runs the model's grid stage and, when ``config.gridless_enabled`` is
    set and the grid stage converged, refinement: :func:`core.solve` over
    the grid (for ``convex-ls`` also 4 001 points of the domain) from the
    polished grid solution, with :func:`gridless.fine_tune` as the polish
    after each reduction.  Every stage, and the final measure's
    certificate at ``config.eta`` and ``config.support_tol``, read one
    model on the grid (``model.on``); the result keeps the grid-free one.
    Logs one info line per stage it runs.
    """
    spec = model_spec(model_kind)
    started = time.perf_counter()
    model = spec.model(sample)
    work = model.on(config.grid)
    measure, trace = spec.solve(work, config)
    logger.info("grid stage %s after %d iterations with %d atoms",
                "converged" if trace.converged else "did not converge",
                trace.n_iterations, measure.size)
    ft_trace = None
    if config.gridless_enabled and trace.converged:
        ft_trace = gridless.FineTuneTrace()

        def polish(f):
            f, more = gridless.fine_tune(work, f, config)
            ft_trace.objective += more.objective
            ft_trace.steps += more.steps
            ft_trace.converged, ft_trace.stop_reason = more.converged, more.stop_reason
            return f

        scan = config.grid
        if spec.scan_points:
            scan = np.union1d(scan, build_grid(
                *model.domain, spec.scan_points, model.family))
        measure, refined = core.solve(work, replace(config, grid=scan),
                                      polish(measure), polish)
        ft_trace.insertions = refined.n_iterations
        logger.info("refinement stopped after %d steps and %d insertions "
                    "with %d atoms: %s", ft_trace.steps, ft_trace.insertions,
                    measure.size, ft_trace.stop_reason)
    cert = core.check_optimality(work, measure, config.grid, config.eta,
                                 config.support_tol)
    logger.info("certificate %s: grid min %.3e, support max %.3e",
                "passed" if cert.passed else "failed", cert.min_grid_alt,
                cert.max_abs_support)
    return FitResult(model_kind, model, measure, trace, cert, config,
                     ft_trace, time.perf_counter() - started)


# -- curves --------------------------------------------------------------

def _write_curve(path, header, columns):
    columns = [np.asarray(c, dtype=float) for c in columns]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def emit_curves(out_dir, result):
    """Write the four diagnostic curve files for a fit.

    (a) fitted mixing distribution function with the reference mixing
        distribution for the model's canonical experiment,
    (b) fitted mixture density with the reference true density,
    (c) the rescaled directional derivative over the solve grid (the
        certificate curve),
    (d) fitted mixture distribution function with the empirical one.

    Density and distribution curves use 512 points covering the range
    of the model's sample extended by 10% on each side; the certificate curve is
    the certificate's own scan of the solve grid, where its sign is guaranteed.
    """
    out_dir = str(out_dir)
    spec = model_spec(result.model_kind)
    model = result.model
    measure = result.measure
    family = model.family
    grid = result.config.grid
    x = model.x
    span = x[-1] - x[0]
    pad = 0.1 * span if span > 0.0 else 1.0
    xs = np.linspace(x[0] - pad, x[-1] + pad, _CURVE_POINTS)

    theta_axis = np.linspace(grid[0], grid[-1], _CURVE_POINTS)
    _write_curve(
        f"{out_dir}/curve_mixing_cdf.csv",
        ["theta", "fitted_mixing_cdf", "reference_mixing_cdf"],
        [theta_axis, measure.cdf(theta_axis), spec.mixing_cdf(theta_axis)])

    _write_curve(
        f"{out_dir}/curve_mixture_density.csv",
        ["x", "fitted_density", "true_density"],
        [xs, mixture_eval(family, measure, xs), spec.density(xs)])

    _write_curve(
        f"{out_dir}/curve_directional_derivative.csv",
        ["theta", "alt_dir_deriv"],
        [grid, result.certificate.grid_alt])

    ecdf = np.searchsorted(x, xs, side="right") / x.size
    _write_curve(
        f"{out_dir}/curve_mixture_cdf.csv",
        ["x", "fitted_cdf", "empirical_cdf"],
        [xs, mixture_cdf(family, measure, xs), ecdf])
