"""Layer-by-layer host-time benchmark of the cryocam simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tcam-array --seed 1 --seconds 36 --trace 0

Each run starts one fresh worker process for the workload (single
threaded: OMP/OPENBLAS/MKL_NUM_THREADS=1, one process at a time) that
imports cryocam from the checkout's ``src``.  ``--trace 0`` also times
SETUP_PROBES fresh interpreters from start to "first op ready" and
reports every end-to-end metric of BENCHMARK.json; ``--trace 1``
reports every per-layer metric.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The lines before it repeat the figures for people, with provenance and
the SHA-256 digest of the simulated outputs of pass 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 10
# Grace on top of --seconds for the worker's set-up, input generation and
# the op that runs past the deadline.
WORKER_GRACE_S = 90


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def worker_cmd(args, *extra) -> list:
    return [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]


def probe_seconds(args, env, n: int) -> list:
    """Times from spawning a fresh interpreter to the workload reporting
    "ready": imports, config, Preisach model, array or item memory."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        with subprocess.Popen(worker_cmd(args, "--probe"), env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or line != "ready":
            raise RuntimeError(f"set-up probe exited {code} after {line!r}")
    return times


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, result: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "git_sha": git_sha(),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("tcam-array", "hdc-langid", "device-cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if args.seconds < 1:
        return fail("--seconds must be at least 1")

    if not (ROOT / "src" / "cryocam" / "__init__.py").is_file():
        return fail(f"no cryocam sources under {ROOT / 'src'}; run from a "
                    "checkout of the repository")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    env = child_env()
    # Untraced runs time the set-up probes half before and half after the
    # worker, so that one busy stretch of a shared machine does not set the
    # whole median.  The first probe only fills the bytecode cache.
    probes = []
    try:
        if not args.trace:
            probes = probe_seconds(args, env, SETUP_PROBES // 2 + 1)[1:]
        proc = subprocess.run(worker_cmd(args), env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=args.seconds + WORKER_GRACE_S)
        if not args.trace:
            probes += probe_seconds(args, env, SETUP_PROBES - len(probes))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    if proc.returncode != 0:
        return fail(f"worker exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    measured = dict(result["per_layer" if args.trace else "end_to_end"])
    if not args.trace:
        measured["setup_s"] = statistics.median(probes)
    unknown = sorted(set(measured) - set(units))
    if unknown:
        return fail(f"metrics missing from BENCHMARK.json: {unknown}")
    # A layer the workload never calls did no work: its per-layer figure is 0.
    metrics = {name: {"value": float(measured.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    attempted, failed = result["attempted"], result["failed"]
    info = provenance(args, result)

    print(f"perfbench {info['workload']} seed={info['seed']} "
          f"seconds={info['seconds']} trace={info['trace']}: closed loop, "
          f"1 caller; host time except *.sim.* (simulated)")
    print("  provenance: " + ", ".join(f"{k}={info[k]}" for k in
                                        ("nproc", "cpu", "python", "numpy",
                                         "git_sha")))
    print(f"  passes={result['passes']} ops timed={result['ops_timed']} "
          f"failed_op_ratio={failed / attempted:.4g} ({failed}/{attempted})")
    for name, value, unit in result["report"]:
        print(f"  {name:<32} {value:.6g} {unit}")
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    print(f"  sim.digest {result['digest']}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    if args.trace:
        print(f"  spans: {result['spans_file']}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = dict(info, result=result, metrics=metrics)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
