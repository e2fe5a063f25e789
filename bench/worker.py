"""One workload process: set up, fit, check every fit, write a result.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH`` set to
the checkout's ``src`` and the BLAS thread count fixed.  It prints
``READY`` once the imports and the workload's inputs are built, which
ends the set-up interval ``run.py`` times, and writes its result as
JSON to ``--out``.  With ``--setup-only`` it exits right after
``READY``.

Untraced runs (``--trace 0``) fit whole passes over the workload's
problems, at least ``workloads.MIN_PASSES`` of them, until the next pass
would end past ``--seconds``.  Traced runs fit the workload's problem
set once untraced and once under the :class:`Tracer`, so the per-layer
counts cover a fixed set of fits and repeat exactly.

A fit fails when it raises, when the benchmark's own
``check_optimality`` at the fit's ``eta``/``support_tol`` does not pass,
when a ``deconv-ml`` measure's mass is not within 1e-6 of 1, or when its
objective is worse than the value recorded in ``reference.json`` by
more than 1e-9 relative.  ``FitResult.converged`` is not consulted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MASS_TOL = 1e-6
OBJECTIVE_RTOL = 1e-9
REFERENCE_FILE = HERE / "reference.json"

#: The speed probe: a fixed pure-Python loop, timed before every fit of
#: a timed run and ``PROBES_BEFORE`` times before the first.
PROBE_LOOPS = 100_000
PROBES_BEFORE = 9


def _import_mixfit():
    """Import ``mixfit`` from this checkout only.

    ``cli`` is imported too although no fit goes through it: it is what a
    user starts, so its import cost belongs in the set-up time.
    """
    from mixfit import cli, pipeline  # noqa: F401

    src = (ROOT / "src").resolve()
    if src not in Path(pipeline.__file__).resolve().parents:
        raise RuntimeError(f"imported mixfit from {pipeline.__file__}, "
                           f"not from this checkout's {src}")


def speed_probe():
    """Seconds the speed probe's loop takes now.

    The loop does none of mixfit's work, so its time follows the speed
    of the shared host, which drifts by a fifth or more within minutes;
    ``run.py`` divides the timings of the workloads in
    ``workloads.PROBE_SCALED`` by it.
    """
    clock = time.perf_counter
    start = clock()
    k = 0
    for i in range(PROBE_LOOPS):
        k += i * i
    return clock() - start


def fit_all(problems, order, tracer=None, probes=None):
    """Fit ``problems[i]`` for each ``i`` in ``order``; one record per fit.

    With a ``probes`` list, a :func:`speed_probe` time is appended to it
    before each fit.
    """
    from mixfit import pipeline

    clock = time.perf_counter
    records = []
    for fit_id, i in enumerate(order):
        p = problems[i]
        if tracer is not None:
            tracer.fit_id = fit_id
        if probes is not None:
            probes.append(speed_probe())
        start = clock()
        try:
            result = pipeline.fit(p.model_kind, p.sample, p.config)
        except Exception as exc:  # a raising fit is a counted failure
            records.append({"problem": i, "wall_s": clock() - start,
                            "error": f"{type(exc).__name__}: {exc}"})
            continue
        records.append({"problem": i, "wall_s": clock() - start,
                        "measure": result.measure,
                        "certificate": result.certificate})
    return records


def timed_phase(problems, seconds, min_passes):
    """Fit passes over ``problems``; returns (records, seconds, probes).

    The first pass fits every problem, later passes only those marked
    ``repeat``.  Passes go on until ``min_passes`` are done and the next
    one, timed like the last, would end past ``seconds``.  The returned
    seconds are the phase's wall time less the speed probes in it.
    """
    clock = time.perf_counter
    probes = [speed_probe() for _ in range(PROBES_BEFORE)]
    again = [i for i, p in enumerate(problems) if p.repeat]
    start = clock()
    records = fit_all(problems, range(len(problems)), probes=probes)
    passes, last = 1, clock() - start
    while True:
        elapsed = clock() - start
        if passes >= min_passes and elapsed + last > seconds:
            return records, elapsed - sum(probes[PROBES_BEFORE:]), probes
        records += fit_all(problems, again, probes=probes)
        passes, last = passes + 1, clock() - start - elapsed


def check(problems, records, references):
    """Judge every fit; returns one verdict per record.

    A failure is ``expected`` when the reference records the same
    problem's certificate as failing and the certificate is the only
    reason; anything else is unexpected and makes the run incorrect.
    """
    from mixfit import core, lsconvex, mldeconv

    verdicts = []
    for rec in records:
        p = problems[rec["problem"]]
        ref = references.get(p.key)
        reasons = []
        consistent = True
        objective = cert_passed = None
        if "error" in rec:
            reasons.append("raised " + rec["error"])
        else:
            measure = rec["measure"]
            model = (lsconvex.LsModel(p.sample) if p.model_kind == "convex-ls"
                     else mldeconv.MlModel(p.sample))
            cfg = p.config
            cert = core.check_optimality(model, measure, cfg.grid, cfg.eta,
                                         cfg.support_tol)
            consistent = cert == rec["certificate"]
            cert_passed = cert.passed
            if not cert.passed:
                reasons.append(
                    f"certificate (min grid alt {cert.min_grid_alt:.3e}, "
                    f"max support {cert.max_abs_support:.3e})")
            if p.model_kind == "deconv-ml" and \
                    abs(measure.total_mass() - 1.0) > MASS_TOL:
                reasons.append(f"mass {measure.total_mass():.12g}")
            objective = model.objective(measure)
            if ref is not None and objective - ref["objective"] > \
                    OBJECTIVE_RTOL * abs(ref["objective"]):
                reasons.append(f"objective {objective:.17g} worse than "
                               f"reference {ref['objective']:.17g}")
        expected = (ref is not None and not ref["cert_passed"]
                    and len(reasons) == 1 and reasons[0].startswith("certificate"))
        verdicts.append({
            "key": p.key, "wall_s": rec["wall_s"], "objective": objective,
            "cert_passed": cert_passed,
            "failed": bool(reasons), "reasons": reasons,
            "expected": expected or not reasons,
            "certificate_consistent": consistent,
            "referenced": ref is not None,
        })
    return verdicts


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    _import_mixfit()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    problems = workloads.build(args.workload, args.seed, quick=args.quick)
    if tracer is not None:
        tracer.uninstall()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result = {"workload": args.workload, "seed": args.seed,
              "quick": args.quick, "trace": args.trace,
              "environment": environment(),
              "problems": len(problems)}
    if args.trace:
        order = range(len(problems))
        t0 = time.perf_counter()
        untraced = fit_all(problems, order)
        t1 = time.perf_counter()
        with tracer:
            records = fit_all(problems, order, tracer)
        t2 = time.perf_counter()
        result["untraced_wall_s"] = t1 - t0
        result["untraced_fits"] = sum("error" not in r for r in untraced)
        result["phase_wall_s"] = t2 - t1
        result["layers"] = tracer.metrics()
        tracer.write_spans(Path(args.out).with_suffix(".spans.npz"))
    else:
        records, result["phase_wall_s"], result["probes_s"] = timed_phase(
            problems, args.seconds, workloads.MIN_PASSES[args.workload])
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0

    references = json.loads(REFERENCE_FILE.read_text())["fits"]
    result["fits"] = check(problems, records, references)
    Path(args.out).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
