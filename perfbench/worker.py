"""One benchmark process: import heckeskein from the checkout, run one job.

run.py starts this script once per repetition, with a JSON job spec as its
only argument, and reads the JSON result it prints as its last line.  A
fresh interpreter per repetition means every cold job starts with empty
caches, as a CLI user's does.  The script starts no threads or processes.

Job spec keys: workload, seed, seconds (a stream process answers the
queries of `seconds * cycles_per_s` cycles), smoke, trace (bool), checks
(bool: re-check sampled stream queries after the timed pass) and t_spawn
(the parent's time.monotonic() just before it started this process).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Words on strands n in `strands` have lengths n..longest*n.  Closure words
# stop at 2n: at 3n the few 5-strand words of length 11-15 take most of the
# time and their cost varies tenfold with the letters, which made throughput
# spread by 20-37% from seed to seed in a 20 s run.  A process answers a
# fixed number of cycles, so a seed's queries are the same on a faster or a
# slower commit; `cycles_per_s` is a little under the rate measured when the
# benchmark was written (2-core machine, CPython 3.11), so that three
# processes rarely take much longer than --seconds.
STREAMS = {
    "homfly-stream": {"strands": (3, 6), "longest": 3, "command": "cmd_homfly",
                      "cycles_per_s": 12},
    "closure-stream": {"strands": (3, 5), "longest": 2, "command": "cmd_closure",
                       "cycles_per_s": 8},
}
WARM_CYCLES = 2
# Every CHECK_EVERY-th timed query, up to MAX_CHECKS, is re-checked against an
# invariant after the timed pass.
CHECK_EVERY = 32
MAX_CHECKS = 32


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def digest(payload) -> str:
    """Short hash of the JSON text the CLI would print for this payload."""
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


def cells(conf: dict) -> list[tuple[int, int]]:
    """The (strands n, length L) pairs of a cycle: n in range, n <= L <= longest*n."""
    lo, hi = conf["strands"]
    return [(n, length) for n in range(lo, hi + 1)
            for length in range(n, conf["longest"] * n + 1)]


def cycles(rng: random.Random, conf: dict, avoid=frozenset()):
    """Endless braid-word queries, one stratified cycle at a time.

    A cycle holds one word for every pair in cells(conf), in shuffled
    order, with letters drawn uniformly from +-1..n-1.  Stratifying keeps
    the mix of cheap and costly queries the same in every cycle.  Words in
    ``avoid`` are drawn again.
    """
    while True:
        order = cells(conf)
        rng.shuffle(order)
        block = []
        for n, length in order:
            while True:
                word = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length))
                if (n, word) not in avoid:
                    break
            block.append((n, word))
        yield block


class Outcome:
    """Attempted and failed counts, per-op digests and the first errors."""

    def __init__(self, reference: list[str] | None):
        self.reference = reference or []
        self.attempted = 0
        self.failed = 0
        self.digests: list[str] = []
        self.errors: list[str] = []

    def record(self, payload, cases: int = 1, failed_cases: int = 0):
        """One op's output; a digest that differs from the reference fails it."""
        i = len(self.digests)
        d = digest(payload)
        self.digests.append(d)
        if i < len(self.reference) and self.reference[i] != d:
            failed_cases = max(failed_cases, 1)
            self.error(f"op {i}: digest {d} != reference {self.reference[i]}")
        self.attempted += cases
        self.failed += failed_cases

    def error(self, text: str):
        if len(self.errors) < 5:
            self.errors.append(text)

    def exception(self, exc: Exception):
        self.digests.append("exception")
        self.attempted += 1
        self.failed += 1
        self.error(f"op {len(self.digests) - 1}: {type(exc).__name__}: {exc}")


def load_reference(key: str, seed: int) -> list[str] | None:
    with open(os.path.join(HERE, "reference.json")) as fh:
        entry = json.load(fh).get(key)
    if entry is None or entry["seed"] not in (None, seed):
        return None
    return entry["digests"]


def run_cold(spec, cli, out: Outcome, tracer) -> dict:
    """Time one cold job: every verify check, in the order of cmd_verify("all")."""
    size = 3 if spec["smoke"] else 4
    ops = [(name, lambda name=name: cli.cmd_verify(name, size, size)[1])
           for name in sorted(cli.CHECKS)]
    if tracer:
        tracer.install()
    results, latencies = [], []
    for label, op in ops:
        start = time.perf_counter()
        try:
            results.append((label, op()))
        except Exception as exc:  # a failed op is counted, the job goes on
            results.append((label, exc))
        latencies.append(time.perf_counter() - start)
    if tracer:
        tracer.uninstall()
    for label, result in results:
        if isinstance(result, Exception):
            out.exception(result)
            continue
        details = [d for rep in result for d in rep["details"]]
        bad = sum(1 for d in details if not d["ok"])
        for d in details:
            if not d["ok"]:
                out.error(f"{label}: {d['case']} failed")
        stable = [{k: v for k, v in rep.items() if k != "elapsed_ms"} for rep in result]
        out.record(stable, cases=len(details), failed_cases=bad)
    return {"latencies": latencies, "job_size": len(ops)}


def run_stream(spec, cli, out: Outcome, tracer) -> dict:
    """Warm up, then answer the timed queries of a fixed number of cycles."""
    from heckeskein import repn, trace, word_elt

    conf = STREAMS[spec["workload"]]

    def command(n, word):  # looked up per call, so a traced run sees the wrapper
        return getattr(cli, conf["command"])(n, list(word))

    seed = spec["seed"]
    warm_rng = random.Random(f"{spec['workload']}/warm-up/{seed}")
    warm = [q for _, block in zip(range(WARM_CYCLES), cycles(warm_rng, conf))
            for q in block]
    for n, word in warm:
        command(n, word)
    setup_s = time.monotonic() - spec["t_spawn"]

    timed_rng = random.Random(f"{spec['workload']}/timed/{seed}")
    job_size = len(cells(conf))
    n_cycles = 1 if spec["smoke"] else max(1, round(spec["seconds"] * conf["cycles_per_s"]))
    blocks = cycles(timed_rng, conf, avoid=frozenset(warm))
    queries = [q for _, block in zip(range(n_cycles), blocks) for q in block]
    latencies, kept = [], []
    if tracer:
        tracer.install()
    for n, word in queries:
        start = time.perf_counter()
        try:
            payload = command(n, word)
        except Exception as exc:  # a failed query is counted, the stream goes on
            payload = exc
        latencies.append(time.perf_counter() - start)
        if isinstance(payload, Exception):
            out.exception(payload)
        else:
            out.record(payload)
            if len(latencies) % CHECK_EVERY == 1 and len(kept) < MAX_CHECKS:
                kept.append((len(latencies) - 1, n, word, payload))
    rss_mb = peak_rss_mb()
    if tracer:
        tracer.uninstall()

    # Invariants on a sample of the timed queries, outside the timed pass:
    # a closed braid does not change under conjugation (rotating its word),
    # and for the closure, trace = ev o closure.  The latter is checked up to
    # 4 strands: on 5 its first use builds the trace of h_5, which takes seconds.
    for i, n, word, payload in kept if spec["checks"] else []:
        try:
            ok = command(n, word[1:] + word[:1]) == payload
            if ok and spec["workload"] == "closure-stream" and n <= 4:
                x = word_elt(n, list(word))
                ok = trace.ev_sym(repn.closure(x)) == trace.markov_ev(x)
        except Exception as exc:  # counted as a failed query below
            ok = False
            out.error(f"query {i}: {type(exc).__name__}: {exc}")
        if not ok:
            out.failed += 1
            out.error(f"query {i} ({n} strands, word {list(word)}) broke an invariant")
    return {"setup_s": setup_s, "latencies": latencies, "job_size": job_size,
            "rss_mb": rss_mb}


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from heckeskein import cli

    setup_s = time.monotonic() - spec["t_spawn"]
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    key = spec["workload"] + ("/smoke" if spec["smoke"] else "")
    out = Outcome(load_reference(key, spec["seed"]))
    if spec["workload"] in STREAMS:
        result = run_stream(spec, cli, out, tracer)
    else:
        result = run_cold(spec, cli, out, tracer)
        result.update(setup_s=setup_s, rss_mb=peak_rss_mb())
    result.update(
        attempted=out.attempted, failed=out.failed, digests=out.digests, errors=out.errors,
    )
    if tracer:
        result["layers"] = tracer.layer_metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
