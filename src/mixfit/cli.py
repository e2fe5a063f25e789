"""mixfit command line: simulate samples, fit mixtures, check optimality.

Logging is controlled by the ``MIXFIT_LOG`` environment variable:
``off`` (default), ``info`` for per-run summaries, or ``trace`` for
per-iteration detail.
"""

from __future__ import annotations

import contextlib
import logging
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import core, mldeconv, pipeline

_LOG_LEVELS = {"off": logging.CRITICAL + 10, "info": logging.INFO,
               "trace": logging.DEBUG}


def _setup_logging():
    level_name = os.environ.get("MIXFIT_LOG", "off").lower()
    if level_name not in _LOG_LEVELS:
        raise click.UsageError(
            f"MIXFIT_LOG must be one of {sorted(_LOG_LEVELS)}, "
            f"got {level_name!r}")
    logging.basicConfig(
        level=_LOG_LEVELS[level_name],
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr)


@contextlib.contextmanager
def _bad_input():
    """Turn a ``ValueError`` from reading or validating the command's
    input into a usage error: exit code 2 and the message, no traceback.
    Exit code 1 stays reserved for runs that did not converge or certify."""
    try:
        yield
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


def _not_finite(sample):
    """The usage error for a directional derivative scan that is not finite:
    the model's arithmetic overflows or underflows at the data's scale
    (``convex-ls`` near 1e-160) until fits are unit-free."""
    return click.UsageError(
        f"the directional derivative scan is not finite on data of "
        f"scale {float(abs(sample).max()):.3g}; rescale the data")


@click.group()
def main():
    """Mixture estimation by support reduction."""
    _setup_logging()


@main.command()
@click.option("--kind", type=click.Choice(pipeline.SIMULATION_KINDS),
              required=True, help="Reference setup to sample from.")
@click.option("--n", type=int, required=True, help="Sample size.")
@click.option("--seed", type=int, required=True, help="PCG64 seed.")
@click.option("--out", type=click.Path(dir_okay=False), required=True,
              help="Output sample file (one number per line).")
def simulate(kind, n, seed, out):
    """Draw a reproducible sample and write it to a file."""
    with _bad_input():
        sample = pipeline.simulate_sample(kind, n, seed)
    pipeline.write_sample(out, sample,
                          header=(f"kind: {kind}", f"n: {n}", f"seed: {seed}"))
    click.echo(f"wrote {n} observations to {out}")


@main.command(name="fit")
@click.argument("model", type=click.Choice(tuple(pipeline.MODELS)))
@click.argument("input_path", metavar="INPUT",
                type=click.Path(exists=True, dir_okay=False))
@click.option("--grid-min", type=float, default=None,
              help="Smallest candidate parameter (default: model rule).")
@click.option("--grid-max", type=float, default=None,
              help="Largest candidate parameter (default: model rule).")
@click.option("--grid-size", type=int, default=None,
              help="Number of grid points (default: model rule).")
@click.option("--eta", type=float, default=None,
              help="Certificate tolerance (default: model rule).")
@click.option("--max-iter", type=int, default=10_000,
              help="Outer iteration cap, also on refinement's insertions.")
@click.option("--gridless/--no-gridless", default=True,
              help="Off-grid support refinement (default: on).")
@click.option("--gridless-tol", type=float, default=1e-6,
              help="Stop refinement below this location-gradient norm.")
@click.option("--out-dir", type=click.Path(file_okay=False), required=True,
              help="Directory for measure, report, and curve files.")
def fit_command(model, input_path, grid_min, grid_max, grid_size, eta,
                max_iter, gridless, gridless_tol, out_dir):
    """Fit a mixture model to the observations in INPUT.

    Writes measure.csv, report.txt, and four diagnostic curve files
    into --out-dir.  Exits 0 exactly when the run converged, that is,
    when its certificate passes.
    """
    spec = pipeline.model_spec(model)
    with _bad_input():
        sample = pipeline.ingest(input_path, nonnegative=spec.nonnegative)
        d_min, d_max, d_size = pipeline.default_grid_spec(model, sample)
        grid_min = d_min if grid_min is None else grid_min
        grid_max = d_max if grid_max is None else grid_max
        grid_size = d_size if grid_size is None else grid_size
        grid = pipeline.build_grid(grid_min, grid_max, grid_size,
                                   spec.model.family)
        config = core.SolverConfig(
            grid=grid, eta=spec.eta if eta is None else eta,
            max_outer_iter=max_iter, gridless_enabled=gridless,
            gridless_tol=gridless_tol)

    try:
        result = pipeline.fit(model, sample, config)
    except mldeconv.KernelUnderflow as exc:
        # the grid is too coarse or too narrow for the data: bad input
        raise click.UsageError(f"{exc}; widen or refine the grid") from None
    except FloatingPointError:
        raise _not_finite(sample) from None

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pipeline.write_measure(out / "measure.csv", result.measure)
    (out / "report.txt").write_text(result.report_text())
    pipeline.emit_curves(out, result)

    status = "converged" if result.converged else "did not converge"
    click.echo(f"{model}: {status} with {result.measure.size} support atoms, "
               f"objective {result.model.objective(result.measure):.12g}")
    click.echo(f"outputs in {out}")
    if not result.converged:
        sys.exit(1)


@main.command()
@click.argument("measure_path", metavar="MEASURE",
                type=click.Path(exists=True, dir_okay=False))
@click.argument("input_path", metavar="INPUT",
                type=click.Path(exists=True, dir_okay=False))
@click.option("--model", type=click.Choice(tuple(pipeline.MODELS)),
              required=True)
@click.option("--tol", type=float, default=None,
              help="Certificate tolerance for both parts (default: fit's).")
def check(measure_path, input_path, model, tol):
    """Check a persisted measure for optimality against INPUT.

    Evaluates the cone-optimality certificate on the model's default
    grid at ``fit``'s tolerances.  Exits 0 exactly when it passes; a scan
    that is not finite at the data's scale exits 2, as ``fit`` does.
    """
    spec = pipeline.model_spec(model)
    with _bad_input():
        if tol is not None and not 0.0 < tol < float("inf"):
            raise ValueError("--tol must be positive and finite")
        grid_tol, support_tol = (tol, tol) if tol else (
            spec.eta, core.SolverConfig.support_tol)
        sample = pipeline.ingest(input_path, nonnegative=spec.nonnegative)
        measure = pipeline.read_measure(measure_path)
        lo, hi = spec.model.family.domain
        for theta in measure.locations:
            if not lo < theta < hi:
                raise ValueError(
                    f"{measure_path}: atom {float(theta)!r} is outside the "
                    f"parameter domain ({lo:g}, {hi:g})")
        grid = pipeline.build_grid(
            *pipeline.default_grid_spec(model, sample), spec.model.family)
    try:
        cert = core.check_optimality(spec.model(sample), measure, grid,
                                     grid_tol, support_tol)
    except ValueError as exc:
        # A likelihood mixture that vanishes at an observation has no
        # certificate: the objective is infinite there, so not optimal.
        click.echo(f"passed: false ({exc})")
        sys.exit(1)
    if not (np.isfinite(cert.grid_alt).all()
            and np.isfinite(cert.max_abs_support)):
        raise _not_finite(sample)
    click.echo(f"min_grid_alt: {cert.min_grid_alt:.17g}")
    click.echo(f"min_grid_raw: {cert.min_grid_raw:.17g}")
    click.echo(f"argmin_theta: {cert.argmin_theta:.17g}")
    click.echo(f"max_abs_support: {cert.max_abs_support:.17g}")
    click.echo(f"support_size: {cert.support_size}")
    click.echo(f"grid_tol: {grid_tol:.17g}")
    click.echo(f"support_tol: {support_tol:.17g}")
    click.echo(f"passed: {'true' if cert.passed else 'false'}")
    if not cert.passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
