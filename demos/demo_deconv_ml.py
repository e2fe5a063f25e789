"""Deconvolve a noisy location mixture by maximum likelihood.

The observations are an exponential location blurred with standard
normal noise.  A damped sequential-quadratic iteration maximizes the
mixture likelihood over a grid of candidate locations, then the
off-grid refinement frees the atom locations entirely.  Curve files
land in demos/output/deconv_ml/.

Run from the repository root:

    python3 demos/demo_deconv_ml.py
"""

from pathlib import Path

import numpy as np

from mixfit import SolverConfig
from mixfit.pipeline import MODELS, emit_curves, fit, simulate_sample

OUT = Path(__file__).parent / "output" / "deconv_ml"


def main():
    x = np.sort(simulate_sample("exp-normal-mixture", 500, seed=11))
    print(f"sample: n={x.size}, range [{x[0]:.3f}, {x[-1]:.3f}]")

    config = SolverConfig(grid=np.linspace(x[0], x[-1], 500), eta=1e-8,
                          gridless_enabled=True, gridless_tol=1e-6)
    result = fit("deconv-ml", x, config)
    measure, trace, ft = result.measure, result.trace, result.fine_tune_trace

    print(f"\ngrid stage: {trace.n_iterations} Newton steps "
          f"(converged: {trace.converged}), "
          f"{result.grid_support_size} atoms, objective "
          f"{trace.objective[-1]:.10f}")
    print(f"{'iter':>4} {'objective':>16} {'support':>8} {'damping':>8}")
    for i in range(len(trace.objective)):
        lam = trace.step_size[i]
        lam_txt = f"{lam:.3g}" if np.isfinite(lam) else "-"
        print(f"{i:>4} {trace.objective[i]:>16.10f} "
              f"{trace.support_size[i]:>8} {lam_txt:>8}")

    print(f"\nrefinement: {ft.steps} steps ({ft.stop_reason}), "
          f"support {result.grid_support_size} -> {measure.size}, "
          f"objective {ft.objective[0]:.10f} -> {ft.objective[-1]:.10f}")

    print(f"\nfinal atoms, total mass {measure.total_mass():.12f}:")
    for theta, w in zip(measure.locations, measure.weights):
        print(f"  theta={theta:9.5f}  weight={w: .6f}")

    # The true mixing distribution is a unit exponential; compare its
    # distribution function with the fitted one at a few locations.
    truth = MODELS["deconv-ml"].mixing_cdf
    print("\nmixing distribution check against Exp(1):")
    print(f"{'theta':>6} {'fitted':>10} {'truth':>10}")
    for t in (0.5, 1.0, 2.0, 3.0):
        print(f"{t:>6.1f} {measure.cdf(t):>10.5f} {truth(t):>10.5f}")

    OUT.mkdir(parents=True, exist_ok=True)
    emit_curves(OUT, result)
    print(f"\ncurve files written to {OUT}/")


if __name__ == "__main__":
    main()
