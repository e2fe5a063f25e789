"""Record ``reference.json``: objective and certificate of every default-seed fit.

Run from the root of a checkout, on the commit whose results the
benchmark should hold later commits to::

    PYTHONPATH=src python3 bench/record_reference.py

It fits each problem of every workload at seed 0 once through
``mixfit.pipeline.fit`` and stores the final objective and whether the
certificate passed.  The worker then fails a fit whose objective is
worse than the stored one by more than 1e-9 relative, and treats a
certificate failure as known only where the stored certificate failed
too.
"""

from __future__ import annotations

import json
import subprocess
import sys

import worker
import workloads


def main():
    worker._import_mixfit()
    fits = {}
    for name in workloads.WORKLOADS:
        problems = workloads.build(name, 0)
        records = worker.fit_all(problems, range(len(problems)))
        for verdict in worker.check(problems, records, {}):
            if any(r.startswith("raised") for r in verdict["reasons"]):
                raise SystemExit(f"{verdict['key']}: {verdict['reasons']}")
            fits[verdict["key"]] = {
                "objective": verdict["objective"],
                "cert_passed": verdict["cert_passed"],
            }
            print(verdict["key"], fits[verdict["key"]], flush=True)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True,
                            cwd=worker.ROOT).stdout.strip()
    out = {"recorded_at_commit": commit or "unknown",
           "environment": worker.environment(), "fits": fits}
    worker.REFERENCE_FILE.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
