"""Estimate a nonincreasing convex density by least squares.

Draws unit exponential data, fits a mixture of triangular kernels over
a fine parameter grid by support reduction, and reports the run: the
outer trace, the final atoms, the optimality certificate, and how the
fitted density tracks the sampling truth.  Curve files land in
demos/output/convex_ls/.

Run from the repository root:

    python3 demos/demo_convex_ls.py
"""

from pathlib import Path

import numpy as np

from mixfit import SolverConfig
from mixfit.families import mixture_eval
from mixfit.pipeline import emit_curves, fit, simulate_sample

OUT = Path(__file__).parent / "output" / "convex_ls"


def main():
    x = simulate_sample("exponential", 500, seed=7)
    print(f"sample: n={x.size}, mean={x.mean():.4f}, max={x.max():.4f}")

    grid = np.linspace(0.0, 3.0 * x.max(), 1000)
    config = SolverConfig(grid=grid[grid > 0.0], eta=1e-10)
    result = fit("convex-ls", x, config)
    measure, trace = result.measure, result.trace

    print(f"\nouter iterations: {trace.n_iterations} "
          f"(converged: {trace.converged})")
    print(f"{'iter':>4} {'objective':>16} {'support':>8} {'min deriv':>12}")
    for i in range(len(trace.objective)):
        print(f"{i:>4} {trace.objective[i]:>16.10f} "
              f"{trace.support_size[i]:>8} {trace.min_alt_deriv[i]:>12.3e}")

    print(f"\nfitted atoms ({measure.size}), total mass "
          f"{measure.total_mass():.10f}:")
    for theta, w in zip(measure.locations, measure.weights):
        print(f"  theta={theta:9.5f}  weight={w: .6f}")

    cert = result.certificate
    print(f"\ncertificate: min grid derivative {cert.min_grid_alt:.3e}, "
          f"max |derivative| at atoms {cert.max_abs_support:.3e} "
          f"-> passed={cert.passed}")

    # The data come from a unit exponential, itself nonincreasing and
    # convex, so the fit should shadow exp(-x) closely.
    print("\ndensity check against exp(-x):")
    print(f"{'x':>5} {'fitted':>10} {'truth':>10}")
    for xi in (0.1, 0.5, 1.0, 2.0, 4.0):
        fitted = mixture_eval(result.model.family, measure, xi)
        print(f"{xi:>5.1f} {fitted:>10.5f} {np.exp(-xi):>10.5f}")

    OUT.mkdir(parents=True, exist_ok=True)
    emit_curves(OUT, result)
    print(f"\ncurve files written to {OUT}/")


if __name__ == "__main__":
    main()
