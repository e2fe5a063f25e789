"""Alternated A/B runs of the benchmark: a base revision against the working tree.

Run from the root of a checkout::

    python3 tools/bench_ab.py --base HEAD~1 --workload ml-newton --pairs 10

The base revision is checked out as a detached ``git worktree`` under
``.bench_out/ab/``, removed again at the end.  Each of ``--pairs`` pairs
runs the unchanged ``python3 bench/run.py --workload W --seed S --trace 0``
once on each side with the same fresh seed ``S`` and ``bench/run.py``'s
own run length, the base first in even pairs and the working tree first
in odd ones, so that a drift of the host's speed falls on both sides
alike.  Then each side runs once with ``--trace 1`` for its exact counts.

It writes ``BENCH_<workload>.json`` at the root of the checkout with the
environment, both revisions, every run's end-to-end metrics, per side the
median and quartiles of each metric, per metric the pairs the working
tree won, lost and tied over the pairs where both runs completed
(``better`` and ``bound`` as ``BENCHMARK.json`` declares them), every
failed run by side and seed, and the counts of the traced runs: every
per-layer metric but the times.  A metric shows a ``gain`` when the
working tree won at least nine in ten of all pairs run, the medians
differ by more than the base's quartile spread, and the working tree
failed no more runs than the base.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def bench(checkout, workload, seed, trace):
    """The final JSON line and the ``environment`` line of one run, or
    (None, None) when the run fails."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None, None
    env = next((line.split(" ", 1)[1] for line in lines
                if line.startswith("environment ")), "")
    return json.loads(lines[-1]), dict(kv.split("=", 1) for kv in env.split())


def spread(values):
    """Median and quartiles, the quartiles inclusive of the extremes."""
    if not values:
        return {"median": None, "q1": None, "q3": None}
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def wins(base, change, better):
    """(won, lost, tied) by the working tree over the pairs."""
    sign = 1.0 if better == "higher" else -1.0
    diffs = [sign * (c - b) for b, c in zip(base, change)]
    return (sum(d > 0 for d in diffs), sum(d < 0 for d in diffs),
            sum(d == 0 for d in diffs))


def gain(base, change, won, pairs, better):
    """Whether the working tree's median beats the base's by more than
    the base's quartile spread, winning at least nine in ten pairs."""
    sign = 1.0 if better == "higher" else -1.0
    return (won >= 0.9 * pairs and base["median"] is not None
            and sign * (change["median"] - base["median"]) > base["q3"] - base["q1"])


def blas():
    """Name and version of the BLAS numpy was built with."""
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{info.get('name')} {info.get('version')}"


def is_time(name):
    return name.endswith((".s", ".self_s")) or name.startswith("trace.")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1000,
                    help="seed of the first pair; pair i uses seed + i")
    args = ap.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    base_rev = _git("rev-parse", args.base)
    worktree = ROOT / ".bench_out" / "ab" / base_rev[:12]
    if not worktree.exists():
        _git("worktree", "add", "--detach", str(worktree), base_rev)
    sides = {"base": worktree, "change": ROOT}
    runs = {side: {} for side in sides}     # seed -> the run's JSON line
    failed = {side: [] for side in sides}
    env = {}
    try:
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                got, env[side] = bench(sides[side], args.workload, seed, 0)
                if got is None:
                    failed[side].append({"seed": seed, "trace": 0})
                    print(f"pair {i} (seed {seed}): the {side} run failed",
                          file=sys.stderr)
                else:
                    runs[side][seed] = got
            print(f"pair {i} seed {seed}: " + ", ".join(
                f"{name} " + " -> ".join(
                    f"{runs[side][seed]['metrics'][name]['value']:.4g}"
                    if seed in runs[side] else "failed" for side in sides)
                for name in ("fits_per_s", "peak_rss_mb")), flush=True)
        traced = {side: bench(sides[side], args.workload, args.seed, 1)[0]
                  for side in sides}
        for side in sides:
            if traced[side] is None:
                failed[side].append({"seed": args.seed, "trace": 1})
    finally:
        _git("worktree", "remove", "--force", str(worktree))
    seeds = [seed for seed in runs["base"] if seed in runs["change"]]
    more_failed = len(failed["change"]) > len(failed["base"])
    end_to_end = {}
    for name, spec in metrics.items():
        values = {side: {seed: r["metrics"][name]["value"]
                         for seed, r in runs[side].items()} for side in sides}
        won, lost, tied = wins([values["base"][s] for s in seeds],
                               [values["change"][s] for s in seeds], spec["better"])
        stats = {side: spread(list(values[side].values())) for side in sides}
        end_to_end[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            **{side: {**stats[side], "values": values[side]} for side in sides},
            "change_won": won, "change_lost": lost, "tied": tied,
            "gain": not more_failed and gain(stats["base"], stats["change"], won,
                                             args.pairs, spec["better"])}
    counts = {}
    if all(traced.values()):
        for name in traced["base"]["metrics"]:
            if not is_time(name):
                counts[name] = {side: traced[side]["metrics"][name]["value"]
                                for side in sides}
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    report = {
        "workload": args.workload,
        "command": "python3 bench/run.py --workload W --seed S --trace 0|1",
        "environment": {"python": platform.python_version(),
                        "platform": platform.platform(),
                        "cpus": os.cpu_count(), "blas": blas(),
                        "worker": env.get("change")},
        "revisions": {"base": base_rev,
                      "change": _git("rev-parse", "HEAD") + (" + working tree"
                                                              if dirty else "")},
        "pairs": args.pairs, "compared_seeds": seeds, "failed": failed,
        "correct": {side: all(r["correct"] for r in runs[side].values())
                    for side in sides},
        "end_to_end": end_to_end,
        "counts": counts,
        "traced_seed": args.seed,
    }
    out = ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if seeds else 1


if __name__ == "__main__":
    sys.exit(main())
