"""One benchmark worker process: import curvedq, then run a closed loop.

Usage:
    python bench/worker.py --probe
    python bench/worker.py --workload NAME --seed N (--seconds S | --ops K)
                           [--mode plain|traced|paired] [--spans FILE]

--probe only times `import curvedq` and prints {"import_s": ...}.  Otherwise
the worker runs one untimed warm-up op, then one op at a time, each starting
after the previous one returned, until S seconds have passed (and at least
the workload's digest ops and a whole number of its stratified blocks are
done, so that every run has the same mix of ops) or exactly K ops have run.  Every op is
checked.  Modes: `plain` runs each op untraced, `traced` with the span
wrappers on, `paired` untraced and then traced, back to back, so that the
tracing overhead is measured on the same ops at nearly the same moment
(the untraced pass then runs with the wrappers installed but switched off).

It prints one JSON object: import time, per-op latencies of each pass,
failures, a results digest per pass, CPU time and peak memory of the loop,
and for traced passes the span aggregates (the spans themselves go to FILE).
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _merge(into, summary):
    for key in ("calls", "s", "self_s"):
        for name, value in summary[key].items():
            into[key][name] = into[key].get(name, 0) + value
    for parent, child, n in summary["edges"]:
        into["edges"][(parent, child)] = into["edges"].get((parent, child), 0) + n
    into["top_s"] += summary["top_s"]


class Pass:
    """Latencies, failures and digest of one pass (untraced or traced) over the ops."""

    def __init__(self, digest_ops):
        self.digest_ops = digest_ops
        self.latencies = []
        self.errors = []
        self.failed = 0
        self._digest = hashlib.sha256()

    def record(self, i, spec, latency, fails, digest_items):
        self.latencies.append(latency)
        if fails:
            self.failed += 1
            self.errors.append(f"op {i} {spec!r}: {'; '.join(fails)}")
        if i < self.digest_ops:
            self._digest.update(repr("failed" if fails else digest_items).encode())

    def digest(self):
        return self._digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--mode", choices=("plain", "traced", "paired"), default="plain")
    parser.add_argument("--spans")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import curvedq  # noqa: F401  (the timed set-up)

    import_s = time.perf_counter() - t0
    if args.probe:
        print(json.dumps({"import_s": import_s}))
        return 0

    from spans import SPAN_CAP, Tracer
    from workloads import WORKLOADS, CliMix

    is_cli = args.workload == CliMix.name
    make = WORKLOADS[args.workload]
    launcher_out = f"{args.spans}.launcher" if args.spans else None
    if is_cli:
        wl = make(args.seed, ROOT, os.path.join(HERE, "launcher.py"), launcher_out)
        warm = make("warm-up", ROOT)
    else:
        wl, warm = make(args.seed), make("warm-up")
    tracer = None
    if args.mode != "plain" and not is_cli:
        tracer = Tracer()
        tracer.install()

    def run_checked(spec, traced):
        """Run one op (traced or not) and check it: (latency, failures, output)."""
        if tracer:
            tracer.on = traced
        if is_cli:
            wl.traced = traced
        t = time.perf_counter()
        try:
            out = wl.run(spec)
        except Exception as exc:  # a failed op is counted and the loop goes on
            return time.perf_counter() - t, [f"{type(exc).__name__}: {exc}"], None
        finally:
            if tracer:
                tracer.on = False
        latency = time.perf_counter() - t
        try:
            fails = wl.check(spec, out)
        except Exception as exc:
            fails = [f"check raised {type(exc).__name__}: {exc}"]
        return latency, fails, out

    warm.run(warm.next_spec())  # first-call costs a long-running library user pays once

    kinds = {"plain": (False,), "traced": (True,), "paired": (False, True)}[args.mode]
    passes = {traced: Pass(wl.digest_ops) for traced in kinds}
    agg = {"calls": {}, "s": {}, "self_s": {}, "edges": {}, "top_s": 0.0}
    cli_phases = {"startup_s": [], "import_s": [], "exit_s": []}
    spans = []
    cpu0, wall0 = _cpu_s(), time.perf_counter()
    i = 0
    while True:
        if args.ops is not None:
            if i >= args.ops:
                break
        elif time.perf_counter() - wall0 >= args.seconds and i >= wl.digest_ops and i % wl.block_ops == 0:
            break
        spec = wl.next_spec()
        # Alternate which pass goes first, so that neither gains from the other's warm-up.
        for traced in kinds if i % 2 == 0 else kinds[::-1]:
            if tracer:
                tracer.op = i
            latency, fails, out = run_checked(spec, traced)
            items = wl.digest_items(spec, out) if out is not None and not fails and i < wl.digest_ops else None
            passes[traced].record(i, spec, latency, fails, items)
            if is_cli and traced and os.path.exists(launcher_out):
                with open(launcher_out, encoding="utf-8") as fh:
                    rec = json.load(fh)
                os.remove(launcher_out)
                spawned, reaped = out[3], out[4]
                cli_phases["startup_s"].append(rec["started"] - spawned)
                cli_phases["import_s"].append(rec["import_s"])
                cli_phases["exit_s"].append(reaped - rec["run_end"])
                _merge(agg, rec["summary"])
                spans.extend([*s[:-1], i] for s in rec["spans"][: max(0, SPAN_CAP - len(spans))])
        i += 1
    wall_s = time.perf_counter() - wall0
    cpu_s = _cpu_s() - cpu0

    result = {
        "import_s": import_s,
        "passes": {
            ("traced" if traced else "untraced"): {
                "latencies": p.latencies,
                "failed": p.failed,
                "errors": p.errors[:5],
                "digest": p.digest(),
            }
            for traced, p in passes.items()
        },
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "maxrss_kb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ),
    }
    if args.mode != "plain":
        if tracer:
            _merge(agg, tracer.summary())
            spans = tracer.finished_spans()
        else:
            result["cli"] = cli_phases
        agg["edges"] = [[p, c, n] for (p, c), n in agg["edges"].items()]
        result["trace"] = agg
        with open(args.spans, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
