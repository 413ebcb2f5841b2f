"""heckeskein benchmark: three workloads through the CLI's computation functions.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-n4 --seed 0 --seconds 25 --trace 0

Workloads (each one client in a closed loop, one process at a time):

  verify-n4       cold: cmd_verify for each of the 12 checks at n = degree = 4,
                  in a fresh interpreter per repetition.
  homfly-stream   warm: seeded braid words on 3-6 strands sent to cmd_homfly.
  closure-stream  warm: seeded braid words on 3-5 strands sent to cmd_closure.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics named in BENCHMARK.json; with --trace 1 it holds the per-layer
metrics of a traced run of the same work instead.  --smoke shrinks every
workload so that a run takes seconds.  Every operation's output is hashed
and checked (see README.md); the digests go to perfbench/out/.
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

COLD = ("verify-n4",)
STREAMS = ("homfly-stream", "closure-stream")
MIN_PROCESSES = 3  # identical processes per run, at least
WORKER_TIMEOUT_S = 150


class WorkerFailed(RuntimeError):
    pass


def spawn(spec: dict) -> dict:
    """Run worker.py on one job spec and return the JSON it printed last."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spec = dict(spec, t_spawn=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker ran past {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise WorkerFailed(f"worker exited with code {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile_ms(latencies: list[float], p: int) -> float:
    return statistics.quantiles(latencies, n=100)[p - 1] * 1000


def job_spec(args, **changes) -> dict:
    spec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "smoke": args.smoke, "trace": False, "checks": False}
    spec.update(changes)
    return spec


def run_workload(args) -> tuple[dict, dict, list[dict]]:
    """The untraced processes of one run: (metrics, sample counts, results).

    Every process does the same work: the cold job, or the same warm-up and
    the same timed queries, as many cycles as take a little under a third of
    --seconds.
    Processes are added until their timed work adds up to --seconds.  The
    machine can only slow an operation down (other tenants slowed this
    2-core machine by up to 2x for seconds at a time), so each operation's
    latency is its best over the processes.  A job is the cold job or one
    stream cycle; wall_s is the median job and ops_per_s the rate within it,
    because 5% of closure queries take half the time and a mean over them
    moved by 19% from seed to seed.  The first process also re-checks
    sampled stream queries; the others must match its digests.
    """
    spec = job_spec(args, seconds=args.seconds / MIN_PROCESSES)
    results = [spawn(dict(spec, checks=True))]
    while (len(results) < MIN_PROCESSES
           or sum(sum(r["latencies"]) for r in results) < args.seconds):
        results.append(spawn(spec))
    best = [min(times) for times in zip(*(r["latencies"] for r in results))]
    size = results[0]["job_size"]
    jobs = [sum(best[i:i + size]) for i in range(0, len(best) - size + 1, size)]
    wall = statistics.median(jobs)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "wall_s": wall,
        "ops_per_s": size / wall,
        "latency_p50_ms": percentile_ms(best, 50),
        "latency_p95_ms": percentile_ms(best, 95),
        "peak_rss_mb": max(r["rss_mb"] for r in results),
    }
    counts = {"processes": len(results), "jobs": len(jobs), "ops": len(best)}
    return metrics, counts, results


def run_traced(args, results: list[dict]) -> tuple[dict, dict]:
    """Replay the same work once more with tracing on: (per-layer metrics, result)."""
    traced = spawn(job_spec(args, seconds=args.seconds / MIN_PROCESSES, trace=True))
    layers = traced["layers"]
    layers["tracing.traced_wall_s"] = sum(traced["latencies"])
    layers["tracing.untraced_wall_s"] = statistics.median(sum(r["latencies"]) for r in results)
    layers["tracing.overhead_ratio"] = (
        layers["tracing.traced_wall_s"] / layers["tracing.untraced_wall_s"])
    return layers, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=COLD + STREAMS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small sizes, for tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "heckeskein", "__init__.py")):
        print(f"error: no heckeskein sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    try:
        metrics, counts, results = run_workload(args)
        if args.trace:
            metrics, traced = run_traced(args, results)
            results.append(traced)
    except WorkerFailed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    digests = results[0]["digests"]
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    errors = [e for r in results for e in r["errors"]]
    for i, r in enumerate(results[1:], 1):
        if r["digests"] != digests:  # every process, traced or not, did the same work
            failed += 1
            errors.append(f"process {i} gave other digests than process 0")
    missing = {m["name"] for m in wanted} - set(metrics)
    if missing:
        print(f"error: metrics not computed: {sorted(missing)}", file=sys.stderr)
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    key = args.workload + ("-smoke" if args.smoke else "")
    digest_file = os.path.join(OUT_DIR, f"{key}-seed{args.seed}.json")
    with open(digest_file, "w") as fh:
        json.dump({"workload": args.workload, "smoke": args.smoke, "seed": args.seed,
                   "digests": digests}, fh, indent=0)
        fh.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  smoke {int(args.smoke)}")
    print(f"python {platform.python_version()}  nproc {len(os.sched_getaffinity(0))}  "
          f"workers run one at a time with PYTHONHASHSEED=0")
    if not args.trace:
        print("  " + "  ".join(f"{k} {v}" for k, v in counts.items()))
    for m in wanted:
        print(f"  {m['name']:<40} {metrics[m['name']]:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'failed_ratio':<40} {failed / attempted:>14.6g} fraction "
              f"({failed} of {attempted})")
    for e in errors:
        print(f"  FAIL {e}", file=sys.stderr)
    print(f"  digests written to {os.path.relpath(digest_file, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
