"""Smoke tests of the benchmark itself: python3 -m pytest perfbench -q

Every workload runs at its smoke size, untraced and traced, through the
same command the benchmark uses; a full run of this file takes seconds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import worker  # noqa: E402

WORKLOADS = ("verify-n4", "homfly-stream", "closure-stream")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    DECLARED = json.load(fh)


def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_result(lines, result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines[:-1]), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print(workload):
    lines, result = bench(workload, 0)
    check_result(lines, result, DECLARED["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    ratio = next(line.split() for line in lines if line.split()[:1] == ["failed_ratio"])
    assert float(ratio[1]) == 0 and ratio[2] == "fraction"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_controls(workload):
    # A traced run fails its result if its digests differ from the untraced run's.
    lines, result = bench(workload, 1)
    check_result(lines, result, DECLARED["per_layer"])
    value = {k: v["value"] for k, v in result["metrics"].items()}
    if workload in ("homfly-stream", "closure-stream"):
        assert value["hecke.mul.calls"] == 0
    if workload == "closure-stream":
        assert value["coeff.gcd.bivariate.calls"] == 0
    if workload == "homfly-stream":
        assert value["repn.rep_of.calls"] == 0
    if workload == "verify-n4":
        assert value["coeff.gcd.bivariate.self_s"] >= value["tracing.traced_wall_s"] / 4
        assert value["hecke.mul.calls"] > 0 and value["psi.psi.calls"] > 0


def test_every_entry_point_is_reached_and_restored():
    from heckeskein import cli, coeff, hecke

    before = (coeff.poly_gcd, hecke.poly_gcd, coeff.IntLaurent.__mul__, dict(cli.CHECKS))
    seen = set()
    for workload in WORKLOADS:
        spec = {"workload": workload, "seed": 0, "seconds": 1, "smoke": True,
                "trace": True, "checks": True, "t_spawn": 0.0}
        t = tracer.Tracer()
        out = worker.Outcome(None)
        if workload in worker.STREAMS:
            worker.run_stream(spec, cli, out, t)
        else:
            worker.run_cold(spec, cli, out, t)
        assert out.failed == 0, out.errors
        seen |= {name for name, calls in t.calls.items() if calls}
    wrapped = {name for name, *_ in tracer.ENTRY_POINTS if isinstance(name, str)}
    wrapped |= {"coeff.gcd.bivariate", "coeff.gcd.univariate"}
    wrapped |= {f"cli.check.{name}" for name in cli.CHECKS}
    assert wrapped - seen == set()
    assert (coeff.poly_gcd, hecke.poly_gcd, coeff.IntLaurent.__mul__, dict(cli.CHECKS)) == before


def test_gcd_path_follows_poly_gcd_branches():
    from heckeskein.coeff import IntLaurent

    s1 = IntLaurent({(0, 1): 1, (0, 0): 1})  # s + 1
    s2 = IntLaurent({(0, 2): 1, (0, 0): -1})  # s^2 - 1
    vs = IntLaurent({(1, 0): 1, (0, 1): 1})  # v + s
    v1 = IntLaurent({(1, 0): 1, (0, 0): 1})  # v + 1
    assert tracer.gcd_path(s1, s2) == "univariate"
    assert tracer.gcd_path(s1.shift(2, 0), s2) == "univariate"  # v^2 (s + 1)
    assert tracer.gcd_path(vs, s2) == "bivariate"
    assert tracer.gcd_path(v1, s1) == "trivial"
    assert tracer.gcd_path(IntLaurent.monomial(3, 1, 1), vs) == "trivial"
