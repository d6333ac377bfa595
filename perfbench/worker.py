"""One repetition of a workload in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  Imports
sephash, builds the seeded inputs (that is the set-up run.py times),
then runs and checks every task, and prints one JSON line for run.py.
With --setup-only it stops after set-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from checks import Goldens, digest
from timing import Sampler, Tracer, reference_self_times

ERRORS_KEPT = 20


def task_phase_spans(spans: list[dict]) -> list[bool]:
    """For each span, whether it sits under a bench.task span."""
    inside: list[bool] = []
    for s in spans:
        p = s["parent"]
        inside.append(s["name"] == "bench.task" or (p is not None and inside[p]))
    return inside


def main() -> int:
    sampler = Sampler()
    sampler.start()
    # Imported once the sampler runs, so that the set-up it times (this
    # import of sephash included) is calibrated throughout.
    from workloads import WORKLOAD_PLANS

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_PLANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--run-id", default="run")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    goldens = Goldens()
    tr = Tracer(bool(args.trace), args.run_id)
    with tr.span("bench.setup"):
        plan = WORKLOAD_PLANS[args.workload](args.seed, tr, Path(args.workdir), goldens)
    setup_done = time.perf_counter()
    if args.setup_only:
        sampler.stop()
        print(json.dumps({"setup_done": setup_done, "samples": sampler.samples}))
        return 0

    stamps = []  # (start, run end, check end) per task
    records, errors = [], []
    failed = 0
    for task in plan.tasks:
        t0 = sampler.begin_task()
        with tr.span("bench.task"):
            try:
                out = task.run()
            except Exception:
                out = None
                problems = [f"{task.name}: raised {traceback.format_exc(limit=3)}"]
            else:
                problems = []
            t1 = time.perf_counter()
            if not problems:
                with tr.span("bench.check"):
                    try:
                        record, problems = task.check(out)
                    except Exception:
                        problems = [f"{task.name}: check raised {traceback.format_exc(limit=3)}"]
                    else:
                        records.append(record)
        t2 = time.perf_counter()
        sampler.end_task()
        stamps.append((t0, t1, t2))
        if problems:
            failed += 1
            errors.extend(problems)
    sampler.stop()

    ref = sampler.reference
    result = {
        "setup_done": setup_done,
        "samples": sampler.samples,
        "wall_s": sum(ref(t0, t2) for t0, _, t2 in stamps),
        "raw_wall_s": sum(t2 - t0 for t0, _, t2 in stamps),
        "items_ms": [1000 * ref(t0, t1) for t0, t1, _ in stamps],
        "attempted": len(plan.tasks),
        "failed": failed,
        "errors": errors[:ERRORS_KEPT],
        "digest": digest(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cli": plan.cli,
        "counts": dict(tr.counts),
    }
    if args.trace:
        spans = tr.export()
        everything = [True] * len(spans)
        result["spans"] = spans
        result["self_s"] = dict(reference_self_times(spans, everything, sampler))
        result["task_self_s"] = dict(reference_self_times(spans, task_phase_spans(spans), sampler))
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
