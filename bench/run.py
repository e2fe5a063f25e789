"""mixfit benchmark: end-to-end fit metrics and an outside-in layer trace.

Run from the root of a checkout::

    python3 bench/run.py --workload refine-batch --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --quick        # tiny self-check of every workload

Workloads are described in ``bench/workloads.py``.  Each run starts a
fresh worker process (``bench/worker.py``) with ``PYTHONPATH`` set to
this checkout's ``src`` and the BLAS/OpenMP thread count set to the
number of usable CPUs.  Every fit goes through ``mixfit.pipeline.fit``.

``--trace 0`` prints the end-to-end metrics.  The shared host's speed
drifts by a fifth or more within minutes, so on the workloads in
``workloads.PROBE_SCALED`` the four timings are given at a fixed
reference speed: each is the measured time divided by the run's speed
factor, the median time of the worker's speed probe (a fixed pure-Python
loop that does none of mixfit's work, timed before every fit) over
``REFERENCE_PROBE_S``.  The output prints the measured value and the
factor beside each one.  On the other workloads the timings are as
measured.

``fit_s_p50`` (s)
    median wall time of one ``pipeline.fit`` call.
``fit_s_tail`` (s)
    the highest percentile of per-fit time with at least ten fits
    beyond it; the output names the percentile.  A run with fewer than
    20 fits has no such percentile and reports its slowest fit,
    labelled as such.
``fits_per_s`` (1/s)
    fits completed divided by the wall time of the timed phase, less
    the speed probes in it.
``setup_s`` (s)
    median over three fresh processes of the time from start to the
    first fit: interpreter start, import of ``mixfit`` (``cli`` included)
    and scipy, sample simulation, grid and config construction.
``peak_rss_mb`` (MB)
    peak resident set of the worker process.
``pass_frac`` (ratio)
    fits that pass the correctness check divided by fits attempted;
    ``fail_frac`` = 1 - ``pass_frac`` is printed beside it.

``--trace 1`` fits the workload's problem set once untraced and once
traced and prints the per-layer metrics: ``<layer>.calls``, ``.s``
(inclusive seconds) and ``.self_s`` (seconds minus wrapped children) for
every wrapped function, exact counters taken from returned values, and
the tracing overhead as traced versus untraced ``fits_per_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed``
counts fits that fail the correctness check (see ``worker.py``);
``correct`` is false when the check could not run on every fit or a fit
failed for a reason the recorded reference does not already show.
Result files and spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
from tracer import COUNTERS, TARGETS  # noqa: E402
from workloads import PROBE_SCALED, WORKLOADS  # noqa: E402

SETUP_PROBES = 3
#: Seconds the speed probe takes on the reference host, a 2-vCPU x86_64
#: virtual machine (Python 3.11) in a quiet period.
REFERENCE_PROBE_S = 0.008
WORKER_TIMEOUT_S = 170
TAIL_BEYOND = 10

#: (name, unit) of every end-to-end metric, printed with --trace 0.
END_TO_END = (
    ("fit_s_p50", "s"),
    ("fit_s_tail", "s"),
    ("fits_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "ratio"),
)


def _per_layer():
    """(name, unit, exact) of every per-layer metric, printed with --trace 1.

    ``exact`` marks the counts that must repeat bit for bit between two
    traced runs of the same workload and seed.
    """
    rows = []
    for name in sorted({t[0] for t in TARGETS}):
        rows += [(f"{name}.calls", "count", True),
                 (f"{name}.s", "s", False),
                 (f"{name}.self_s", "s", False)]
    rows += [(c, "count", True) for c in COUNTERS]
    rows += [("families.kernel.bytes_computed", "bytes", True),
             ("mldeconv.damped_update.accept_ratio", "ratio", True),
             ("gridless.accept_ratio", "ratio", True),
             ("trace.fits_per_s_untraced", "1/s", False),
             ("trace.fits_per_s_traced", "1/s", False),
             ("trace.overhead_ratio", "ratio", False)]
    return tuple(rows)


PER_LAYER = _per_layer()


# -- worker processes ------------------------------------------------------

def _worker_env():
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _start_worker(args, log):
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log,
                            env=_worker_env(), cwd=ROOT, text=True)
    return proc, started


def _wait_ready(proc, started, deadline):
    """Seconds from process start to its ``READY`` line, or None."""
    # The worker writes nothing to stdout but the READY line.
    ready, _, _ = select.select([proc.stdout], [], [],
                                max(0.0, deadline - time.monotonic()))
    if ready and proc.stdout.readline().strip() == "READY":
        return time.monotonic() - started
    return None


def _finish(proc, deadline):
    """Exit code of the worker, or None after killing it at the deadline."""
    try:
        return proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None
    finally:
        proc.stdout.close()


def run_worker(workload, seed, seconds, trace, quick, probes):
    """Run set-up probes and the worker; returns (result or None, setups)."""
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}{'-quick' if quick else ''}"
    out = OUT_DIR / f"{tag}.json"
    out.unlink(missing_ok=True)
    base = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        base.append("--quick")
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    setups = []
    with open(OUT_DIR / f"{tag}.log", "w") as log:
        for _ in range(probes):
            proc, started = _start_worker([*base, "--setup-only"], log)
            ready = _wait_ready(proc, started, deadline)
            if _finish(proc, deadline) != 0 or ready is None:
                return None, setups
            setups.append(ready)
        proc, started = _start_worker([*base, "--out", str(out)], log)
        ready = _wait_ready(proc, started, deadline)
        code = _finish(proc, deadline)
    if ready is not None:
        setups.append(ready)
    if code != 0 or not out.exists():
        return None, setups
    return json.loads(out.read_text()), setups


# -- metrics ---------------------------------------------------------------

def tail(times):
    """(value, label): highest percentile with >= 10 fits beyond it."""
    n = len(times)
    ordered = sorted(times)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], f"max of {n} fits (fewer than {2 * TAIL_BEYOND})"
    # Nearest rank: the p-th percentile is ordered[ceil(p n / 100) - 1],
    # and it has n - ceil(p n / 100) fits beyond it.
    p = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = math.ceil(p * n / 100)
    return ordered[rank - 1], f"p{p} of {n} fits, {n - rank} beyond"


def end_to_end(result, setups, scaled):
    fits = result["fits"]
    times = [f["wall_s"] for f in fits]
    completed = sum(not any(r.startswith("raised") for r in f["reasons"])
                    for f in fits)
    tail_s, tail_label = tail(times)
    measured = {
        "fit_s_p50": statistics.median(times),
        "fit_s_tail": tail_s,
        "fits_per_s": completed / result["phase_wall_s"],
        "setup_s": statistics.median(setups),
    }
    factor = statistics.median(result["probes_s"]) / REFERENCE_PROBE_S
    divisor = factor if scaled else 1.0
    metrics = {name: value / divisor for name, value in measured.items()}
    metrics["fits_per_s"] = measured["fits_per_s"] * divisor
    metrics["peak_rss_mb"] = result["peak_rss_mb"]
    metrics["pass_frac"] = sum(not f["failed"] for f in fits) / len(fits)
    notes = {"fit_s_p50": f"{len(times)} fits",
             "fit_s_tail": tail_label,
             "fits_per_s": f"{completed} fits in "
                           f"{result['phase_wall_s']:.3f} s",
             "setup_s": f"median of {len(setups)} fresh processes",
             "pass_frac": f"fail_frac {1 - metrics['pass_frac']:.6g}"}
    probes = f"speed factor {factor:.4f} of {len(result['probes_s'])} probes"
    if scaled:
        for name, value in measured.items():
            notes[name] += f"; measured {value:.6g}, {probes}"
    else:
        notes["fit_s_p50"] += f"; {probes}, not applied"
    return metrics, notes


def per_layer(result):
    metrics = dict(result["layers"])
    n = len(result["fits"])
    untraced = result["untraced_fits"] / result["untraced_wall_s"]
    traced = n / result["phase_wall_s"]
    metrics["trace.fits_per_s_untraced"] = untraced
    metrics["trace.fits_per_s_traced"] = traced
    metrics["trace.overhead_ratio"] = untraced / traced
    return metrics, {}


def run(workload, seed, seconds, trace, quick=False):
    """Run one workload; returns (summary dict, printable lines)."""
    probes = 0 if trace else SETUP_PROBES - 1
    result, setups = run_worker(workload, seed, seconds, trace, quick, probes)
    if result is None:
        return None, [f"error: the {workload} worker failed; see {OUT_DIR}"]
    fits = result["fits"]
    table = PER_LAYER if trace else END_TO_END
    metrics, notes = per_layer(result) if trace else \
        end_to_end(result, setups, workload in PROBE_SCALED)
    env = result["environment"]
    lines = [f"workload {workload} seed {seed} trace {trace} "
             f"seconds {seconds}{' quick' if quick else ''}",
             "environment " + " ".join(f"{k}={v}" for k, v in env.items())]
    for row in table:
        name, unit = row[0], row[1]
        note = notes.get(name)
        lines.append(f"  {name:44s} {metrics[name]:>16.10g} {unit}"
                     + (f"   ({note})" if note else ""))
    failed = [f for f in fits if f["failed"]]
    unexpected = [f for f in fits
                  if not f["expected"] or not f["certificate_consistent"]]
    checked = sum(f["cert_passed"] is not None or f["failed"] for f in fits)
    lines.append(f"fits attempted {len(fits)}, checked {checked}, "
                 f"failed {len(failed)} (unexpected {len(unexpected)}), "
                 f"compared with the reference "
                 f"{sum(f['referenced'] for f in fits)}")
    seen = set()
    for f in failed:
        if f["key"] in seen:
            continue
        seen.add(f["key"])
        kind = "known" if f["expected"] else "UNEXPECTED"
        lines.append(f"  {kind} failure {f['key']}: {'; '.join(f['reasons'])}")
    for f in fits:
        if not f["certificate_consistent"]:
            lines.append(f"  UNEXPECTED {f['key']}: the fit's own certificate "
                         "differs from the benchmark's")
    summary = {
        "correct": bool(fits) and checked == len(fits) and not unexpected,
        "attempted": len(fits),
        "failed": len(failed),
        "metrics": {row[0]: {"value": metrics[row[0]], "unit": row[1]}
                    for row in table},
    }
    return summary, lines


# -- self-check ------------------------------------------------------------

def self_check():
    """Tiny run of every workload; raises AssertionError on a problem."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == \
        list(END_TO_END), "BENCHMARK.json end_to_end differs from run.py"
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == \
        [row[:2] for row in PER_LAYER], \
        "BENCHMARK.json per_layer differs from run.py"
    assert {w["name"] for w in declared["workloads"]} <= set(WORKLOADS)
    for workload in WORKLOADS:
        summary, lines = run(workload, 0, 1, 0, quick=True)
        print("\n".join(lines))
        assert summary is not None, f"{workload}: untraced run failed"
        assert summary["correct"], f"{workload}: correctness check failed"
        _assert_emitted(summary, END_TO_END)
        traced = []
        for _ in range(2):
            summary, lines = run(workload, 0, 1, 1, quick=True)
            print("\n".join(lines))
            assert summary is not None, f"{workload}: traced run failed"
            assert summary["correct"], f"{workload}: correctness check failed"
            _assert_emitted(summary, PER_LAYER)
            traced.append(summary["metrics"])
        for name, _, exact in PER_LAYER:
            if exact:
                a, b = (t[name]["value"] for t in traced)
                assert a == b, f"{workload}: {name} differs: {a} vs {b}"
        print(f"self-check {workload}: ok")


def _assert_emitted(summary, table):
    assert summary["attempted"] >= 1
    assert set(summary["metrics"]) == {row[0] for row in table}
    for row in table:
        got = summary["metrics"][row[0]]
        assert got["unit"] == row[1], f"{row[0]}: unit {got['unit']}"
        assert isinstance(got["value"], (int, float)) and \
            math.isfinite(got["value"]), f"{row[0]}: value {got['value']}"


# -- command line ----------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="run the tiny self-check of every workload")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mixfit" / "__init__.py").is_file():
        print(f"error: no mixfit sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.quick:
        self_check()
        print("self-check passed")
        return 0
    if args.workload is None:
        ap.error("--workload is required unless --quick is given")
    summary, lines = run(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines), flush=True)
    if summary is None:
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
