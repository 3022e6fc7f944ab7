"""curvedq benchmark: one command, a seed, three workloads, and a traced run.

Usage (from the root of a checkout):
    python3 bench/run.py --workload {torus-sweep,graph-fields,cli-mix} --seed N --seconds S --trace {0,1}

The benchmark calls the checkout's src/ directly (nothing is installed).
All load comes from one worker process that runs a closed loop with one
client: the next op starts only after the previous one returned.  It starts
no threads of its own and leaves BLAS threading as the user's environment
sets it, recording the setting.  Workloads, ops and checks are in
workloads.py; why each workload exists is in BENCHMARK.json.

--trace 0 measures the end-to-end metrics:
  setup_s        median wall time of `import curvedq` in fresh worker processes
                 (10 probes and the worker's own import)
  ops_per_s      correct ops per wall second of the timed loop
  op_p50_ms      median op latency
  op_tail_ms     highest percentile with at least ten samples beyond it
  cpu_per_op_ms  user + sys CPU of the worker and its children, per op
  peak_rss_mb    peak resident memory of the worker or its children
  failed_frac    ops that raised or failed a check, over ops attempted
                 (printed; the JSON line carries it as `failed`/`attempted`)
--trace 1 runs each op untraced and then traced, back to back, and reports
per-layer calls, total and self seconds from wrappers around each layer's
public functions (spans.py), the share of op time the spans cover, and the
tracing overhead on the same ops.  On torus-sweep and cli-mix the paired loop
takes half the time and a worker with OPENBLAS_NUM_THREADS=1 (inherited by
CLI processes) repeats the same ops traced: the `blas1.*` and
`torus.*.s.blas1` metrics, a single-threaded baseline.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  Spans are written to .bench_out/.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)
from spans import SPAN_NAMES  # noqa: E402

WORKLOADS = ("torus-sweep", "graph-fields", "cli-mix")
SETUP_PROBES = 10
BLAS1_FNS = ("solve_spectrum", "assemble", "overlap_analytic", "jacobi_eigh", "solve_triangular")
BLAS1_UNITS = {
    "blas1.ops_per_s": "1/s",
    "blas1.op_p50_ms": "ms",
    "blas1.cpu_per_op_ms": "ms",
    **{f"torus.{fn}.s.blas1": "s" for fn in BLAS1_FNS},
}


def _worker(*args, env=None, timeout=170):
    proc = subprocess.run(
        [sys.executable, WORKER, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment():
    """Thread settings, CPU counts, versions, and the rate of a fixed calibration loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i
    calib = 2.0 / (time.perf_counter() - t0)
    return {
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "os.cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "calib_mops": calib,
    }


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with ten samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(res, setups):
    run = res["passes"]["untraced"]
    lat = run["latencies"]
    n = len(lat)
    value, pct, beyond = tail(lat)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": ((n - run["failed"]) / res["wall_s"], "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * value, "ms"),
        "cpu_per_op_ms": (1e3 * res["cpu_s"] / n, "ms"),
        "peak_rss_mb": (res["maxrss_kb"] / 1024.0, "MB"),
    }, f"op_tail_ms is p{pct:.1f} of {n} ops ({beyond} beyond); failed_frac {run['failed'] / n:g}"


def layers(res):
    """Per-layer metrics of a paired run: each op ran untraced, then traced."""
    tr = res["trace"]
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (tr["calls"].get(name, 0), "count")
        out[f"{name}.s"] = (tr["s"].get(name, 0.0), "s")
        out[f"{name}.self_s"] = (tr["self_s"].get(name, 0.0), "s")
    samples = tr["calls"].get("geometry.curvature_sample", 0)
    jets = sum(n for p, c, n in tr["edges"] if (p, c) == ("geometry.curvature_sample", "shapes.eval_jet3"))
    out["geometry.jet3_per_sample"] = (jets / samples if samples else 0.0, "ratio")
    # In-process workloads import once, in the worker; cli-mix imports in every process.
    cli = res.get("cli", {"import_s": [res["import_s"]], "startup_s": [], "exit_s": []})
    for phase in ("import_s", "startup_s", "exit_s"):
        out[f"cli.{phase}"] = (statistics.median(cli[phase]) if cli[phase] else 0.0, "s")
    traced = res["passes"]["traced"]["latencies"]
    untraced = res["passes"]["untraced"]["latencies"]
    covered = tr["top_s"] + (sum(sum(v) for v in cli.values()) if "cli" in res else 0.0)
    out["trace.coverage"] = (100.0 * covered / sum(traced), "%")
    out["trace.overhead"] = (100.0 * (sum(traced) / sum(untraced) - 1.0), "%")
    return out


def blas1(res):
    """Single-threaded BLAS repeat of the traced ops; zeros on workloads that have none."""
    if res is None:
        return {name: (0.0, unit) for name, unit in BLAS1_UNITS.items()}
    run = res["passes"]["traced"]
    lat = run["latencies"]
    values = {
        "blas1.ops_per_s": (len(lat) - run["failed"]) / res["wall_s"],
        "blas1.op_p50_ms": 1e3 * statistics.median(lat),
        "blas1.cpu_per_op_ms": 1e3 * res["cpu_s"] / len(lat),
    }
    for fn in BLAS1_FNS:
        values[f"torus.{fn}.s.blas1"] = res["trace"]["s"].get(f"torus.{fn}", 0.0)
    return {name: (values[name], unit) for name, unit in BLAS1_UNITS.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for need in (os.path.join("src", "curvedq", "__init__.py"), os.path.join("tests", "golden")):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"error: {need} not found; run from a full curvedq checkout", file=sys.stderr)
            return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    env = environment()
    print("env " + json.dumps(env))
    seed = ["--workload", args.workload, "--seed", str(args.seed)]
    runs = []
    if args.trace == 0:
        _worker("--probe")  # fills the bytecode cache; users pay that once
        # Import time drifts with the host's speed over tens of seconds, so
        # half the probes run before the timed loop and half after it.
        setups = [_worker("--probe")["import_s"] for _ in range(SETUP_PROBES // 2)]
        res = _worker(*seed, "--seconds", str(args.seconds))
        setups += [_worker("--probe")["import_s"] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        runs.append(res)
        metrics, note = end_to_end(res, setups + [res["import_s"]])
        print(note)
    else:
        # The eigensolver runs on threaded BLAS; those workloads get a single-threaded repeat.
        with_blas1 = args.workload in ("torus-sweep", "cli-mix")
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}")
        seconds = args.seconds / 2 if with_blas1 else args.seconds
        paired = _worker(*seed, "--seconds", str(seconds), "--mode", "paired", "--spans", spans + ".jsonl")
        runs.append(paired)
        metrics = layers(paired)
        single = None
        if with_blas1:
            ops = len(paired["passes"]["traced"]["latencies"])
            one = dict(os.environ, OPENBLAS_NUM_THREADS="1")
            single = _worker(*seed, "--ops", str(ops), "--mode", "traced", "--spans", spans + "-blas1.jsonl", env=one)
            runs.append(single)
        metrics.update(blas1(single))
        metrics["env.calib_mops"] = (env["calib_mops"], "1/us")

    passes = [p for r in runs for p in r["passes"].values()]
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for err in p["errors"]:
            print("failed: " + err)
    digests = [p["digest"] for p in passes]
    print("digest " + " ".join(digests))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0 and len(set(digests)) == 1,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
