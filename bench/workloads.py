"""The three benchmark workloads and the problems each one fits.

Every problem is a ``(model kind, sample, SolverConfig)`` triple that
the worker passes to ``mixfit.pipeline.fit``; the program sees only
these generated inputs.

``ls-grid``
    ``convex-ls`` on unit-exponential samples, n = 100 000, the model's
    default grid range ``[min x, 3 max x]`` at 20 000 points, eta 1e-10,
    no refinement.  The LS grid scan (``LsModel.H``) and the reduction
    loop do almost all the work; no Gaussian kernel matrix and no
    refinement run, so optimisations of those must show no change here.
    A run fits a pool of 30 samples drawn with sample seeds
    ``30 * seed + k``, one fit each; a fit takes 0.5-0.9 s (68-78 outer
    iterations) depending on the draw.
``ml-newton``
    ``deconv-ml`` on exp + N(0,1) data, n = 20 000, 500-point grid
    ``[min x, max x]``, eta 1e-8, no refinement.  Gaussian kernel
    evaluation and ``check_optimality`` dominate it; it bypasses
    ``gridless`` and ``lsconvex``.  One fit takes 10-21 s depending on
    the draw (29-61 Newton steps) and a run holds only two or three
    fits, so a per-run draw would make run-to-run spread reflect the
    draw, not the code.  The sample is therefore one fixed draw (sample
    seed 1, 29 Newton steps); ``--seed`` permutes the order of its
    observations, which the fit must not depend on.
``refine-batch``
    The seeded batch of acceptance criterion 5: 20 ``convex-ls`` fits
    (n = 60, 49-point grid, eta 1e-10, sample seeds 0-19) and 20
    ``deconv-ml`` fits (n = 50, 30-point grid, eta 1e-8, sample seeds
    100-119), all with refinement on.  ``gridless`` dominates it, and
    its many tiny problems use ``core``/``lsconvex`` at the opposite end
    from ``ls-grid``, where per-call overhead beats array work.  The
    batch is fixed: LS seed 0 hits the 10 000-step refinement cap and
    takes about 40% of the batch, so any other choice of seeds would
    change what is measured.  ``--seed`` permutes the order of the fits.
    The known certificate failures after refinement stay in the batch.
    A timed run fits the batch twice, except LS seed 0, which it fits
    only in the first pass: one pass takes longer than the run, and a
    second fit of seed 0 would add its 10-20 s without adding a sample
    to the middle of the distribution.  The 79 fits spread the run's
    medians over about a minute instead of over one pass.

A timed run fits whole passes over the problem set, at least
``MIN_PASSES[name]`` of them, so every run on one machine has the same
fit count and the tail percentile stays put.

``BENCHMARK.json`` lists ``ml-newton`` and ``refine-batch`` only.  Its
4 + 22 x (workloads) runs must end within 3420 s, and with ``ls-grid``
they took about 3250 s on a 2-vCPU host in a slow period (ls-grid 36 s,
ml-newton 35 s, refine-batch 71 s a run).  Every layer ``ls-grid``
measures also runs in the other two, at small size in ``refine-batch``;
``ls-grid`` stays here for runs by hand and for the self-check.

``quick=True`` shrinks every workload to a tiny size for the self-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("ls-grid", "ml-newton", "refine-batch")

LS_POOL = 30
ML_SAMPLE_SEED = 1

#: Workloads whose timings ``run.py`` divides by the run's speed factor.
#: ``refine-batch`` spends its time in the interpreter, whose speed the
#: probe follows: over ten runs its ``fit_s_p50`` spread 0.16 as measured
#: and 0.07 divided.  ``ml-newton`` and ``ls-grid`` spend theirs in BLAS
#: and array arithmetic, which the probe does not follow: divided, the
#: spread of ``ml-newton``'s ``fit_s_p50`` grew from 0.13 to 0.25.
PROBE_SCALED = frozenset({"refine-batch"})

#: Passes over its problems a timed run makes even when they outlast
#: ``--seconds``: two ``ml-newton`` fits give a median and a tail on any
#: machine, and ``refine-batch`` needs a second pass for its medians.
MIN_PASSES = {"ls-grid": 1, "ml-newton": 2, "refine-batch": 2}


@dataclass(frozen=True)
class Problem:
    """One fit: ``key`` names it in the reference table.

    A problem with ``repeat`` false is fit only in a timed run's first
    pass.
    """

    key: str
    model_kind: str
    sample: np.ndarray
    config: object
    repeat: bool = True


def build(name, seed, quick=False):
    """Generate the workload's problems from ``seed``, as a tuple."""
    from mixfit import pipeline
    from mixfit.core import SolverConfig
    from mixfit.families import GaussianFamily, TriangularFamily

    if name == "ls-grid":
        n, size, pool = (2_000, 500, 3) if quick else (100_000, 20_000, LS_POOL)
        problems = []
        for k in range(pool):
            sample_seed = pool * seed + k
            x = pipeline.simulate_sample("exponential", n, sample_seed)
            lo, hi, _ = pipeline.default_grid_spec("convex-ls", x)
            grid = pipeline.build_grid(lo, hi, size, TriangularFamily())
            problems.append(Problem(
                f"ls-grid/n{n}/G{size}/sample{sample_seed}", "convex-ls", x,
                SolverConfig(grid=grid, eta=1e-10)))
        return tuple(problems)

    if name == "ml-newton":
        n = 400 if quick else 20_000
        x = pipeline.simulate_sample("exp-normal-mixture", n, ML_SAMPLE_SEED)
        lo, hi, size = pipeline.default_grid_spec("deconv-ml", x)
        if quick:
            size = 60
        grid = pipeline.build_grid(lo, hi, size, GaussianFamily())
        x = x[np.random.default_rng(seed).permutation(n)]
        return (Problem(
            f"ml-newton/n{n}/G{size}/sample{ML_SAMPLE_SEED}", "deconv-ml", x,
            SolverConfig(grid=grid, eta=1e-8)),)

    if name == "refine-batch":
        # Criterion 5 draws with rng.exponential/rng.normal directly, not
        # through simulate_sample, so the batch reproduces it exactly.
        ls_seeds = range(1, 3) if quick else range(20)
        ml_seeds = range(100, 102) if quick else range(100, 120)
        problems = []
        for s in ls_seeds:
            x = np.random.default_rng(s).exponential(size=60)
            grid = np.linspace(x.min(), 3.0 * x.max(), 50)[1:]
            problems.append(Problem(
                f"refine-batch/convex-ls/seed{s}", "convex-ls", x,
                SolverConfig(grid=grid, eta=1e-10, gridless_enabled=True,
                             gridless_tol=1e-6),
                repeat=s != 0))
        for s in ml_seeds:
            rng = np.random.default_rng(s)
            x = np.sort(rng.normal(size=50) + rng.exponential(size=50))
            grid = np.linspace(x[0], x[-1], 30)
            problems.append(Problem(
                f"refine-batch/deconv-ml/seed{s}", "deconv-ml", x,
                SolverConfig(grid=grid, eta=1e-8, gridless_enabled=True,
                             gridless_tol=1e-6)))
        order = np.random.default_rng(seed).permutation(len(problems))
        return tuple(problems[i] for i in order)

    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
