"""One workload in one fresh, single-threaded process.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  With ``--probe`` it only sets the workload up and prints
``ready``; ``run.py`` times that from process start.  Otherwise it runs
passes of seeded ops as a closed loop (one caller, each op issued after
the previous one returned) for ``--seconds`` and prints one JSON object.

Pass 0 always completes, so its simulated statistics and digest are the
same on every run of one seed.  With ``--trace 1`` passes come in
untraced / traced pairs on the same inputs, the first pair always
completes, and the per-layer figures come from the traced passes only.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import time
from pathlib import Path

import numpy as np

from common import PassRecord, Tracer, median, paper_reference_errors
from cryocam.config import build_config

WORKLOADS = {
    "tcam-array": "tcam_array",
    "hdc-langid": "hdc_langid",
    "device-cli": "device_cli",
}
OUT = Path(__file__).resolve().parent / "out"


def run_passes(wl, tracer: Tracer, seconds: float, trace: bool) -> dict:
    records, problems = [], []
    attempted = failed = 0
    pass_busy = {False: [], True: []}
    first = None
    min_passes = 2 if trace else 1
    deadline = time.perf_counter() + seconds
    k = 0
    while k < min_passes or time.perf_counter() < deadline:
        # Traced runs work in pairs of passes on the same inputs, one traced
        # and one not, in alternating order so that warm-up and drift do
        # not favour either side of the overhead ratio.
        traced = trace and k % 2 != (k // 2) % 2
        tracer.enabled = traced
        rec = PassRecord()
        ops = wl.pass_ops(k // 2 if trace else k, rec)
        busy, complete = 0.0, True
        for op in ops:
            if k >= min_passes and time.perf_counter() >= deadline:
                complete = False
                break
            attempted += 1
            tracer.op_id = attempted
            try:
                t0 = time.perf_counter()
                with tracer.span(op.name, op.units):
                    result = op.call()
                seconds_op = time.perf_counter() - t0
                bad = op.check(result)
            except Exception as exc:  # any failure of the program is a failed op
                bad = [f"{type(exc).__name__}: {exc}"]
            if bad:
                failed += 1
                problems.extend(f"{op.name} (pass {k}): {b}" for b in bad[:3])
                continue
            busy += seconds_op
            records.append({"kind": op.kind, "name": op.name, "group": op.group,
                            "units": op.units, "seconds": seconds_op})
        if complete:
            pass_busy[traced].append(busy)
        if k == 0:
            first = rec
        k += 1
    tracer.enabled = False
    return {"records": records, "problems": problems, "attempted": attempted,
            "failed": failed, "first": first, "passes": k, "pass_busy": pass_busy}


def best_rate(records: list, kind: str) -> float:
    """Units per second if every op of ``kind`` ran at the best time per
    unit that any op of its name reached in this run.

    On a shared machine, other tenants slow whole stretches of a run, at
    times by half.  Each op name's best time per unit tracks the code's
    own cost far more steadily than the mean, the median or a tail does.
    """
    best = {}
    for r in records:
        if r["kind"] == kind:
            t = r["seconds"] / r["units"]
            best[r["name"]] = min(t, best.get(r["name"], t))
    return sum(r["units"] for r in records if r["kind"] == kind) / sum(
        r["units"] * best[r["name"]] for r in records if r["kind"] == kind)


def end_to_end(records: list) -> dict:
    return {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bulk_units_per_s.best": best_rate(records, "bulk"),
        "ops_per_s.best": best_rate(records, "op"),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true")
    args = p.parse_args()

    module = importlib.import_module(WORKLOADS[args.workload])
    tracer = Tracer(enabled=bool(args.trace))
    wl = module.Workload(args.seed, tracer)
    if args.probe:
        print("ready", flush=True)
        return 0
    try:
        run = run_passes(wl, tracer, args.seconds, bool(args.trace))
    finally:
        wl.close()
    records, first = run["records"], run["first"]
    result = {
        "attempted": run["attempted"],
        "failed": run["failed"],
        "problems": run["problems"][:20],
        "passes": run["passes"],
        "ops_timed": sum(r["kind"] == "op" for r in records),
        "digest": first.digest(),
        "numpy": np.__version__,
        "report": [list(row) for row in wl.report(records)],
    }
    if args.trace:
        busy = run["pass_busy"]
        result["per_layer"] = {
            **wl.layer_metrics(tracer.by_name(), first),
            **paper_reference_errors(build_config()),
            "trace.overhead_ratio": median(
                [t / u for t, u in zip(busy[True], busy[False])]),
        }
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(spans)
        result["spans_file"] = str(spans.relative_to(OUT.parent.parent))
    else:
        result["end_to_end"] = end_to_end(records)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
