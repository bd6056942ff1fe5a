"""Tests of the ledger harness itself (outside tier-1 ``testpaths``)::

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from ledger import report, stats
from ledger.workloads import WORKLOADS, gemm_counts, host_gemm_multiples

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
RUNS = HERE.parent / "results" / "runs"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_ledger(*argv, env_extra=None, cwd=ROOT):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update(env_extra or {})
    return subprocess.run([sys.executable, str(RUN), *argv], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=300)


def result_of(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads_the_code_has():
    assert NAMES == list(WORKLOADS)
    for kind in ("end_to_end", "per_layer"):
        for metric in SPEC[kind]:
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}",
                                metric["name"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_quick_run_emits_every_named_metric_and_nothing_else(
        workload, trace):
    done = run_ledger("--workload", workload, "--quick", "--trace",
                      str(trace))
    assert done.returncode == 0, done.stderr
    result = result_of(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    named = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == named
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads(
        (RUNS / f"{workload}.trace{trace}.json").read_text())
    assert record["host"]["environment"]["REPRO_THREADS"] == "1"
    assert record["detail"]["inputs"]["seed"] == 2013
    assert ("spans" in record) == bool(trace)


def test_serve_run_reports_no_fallback_and_leaves_nothing_behind():
    before = set(os.listdir("/dev/shm"))
    done = run_ledger("--workload", "serve_closed_loop", "--quick",
                      "--trace", "1")
    assert done.returncode == 0, done.stderr
    metrics = result_of(done)["metrics"]
    assert metrics["client.fallback_share"]["value"] == 0
    assert metrics["protocol.ping_ms"]["value"] > 0
    assert set(os.listdir("/dev/shm")) <= before
    assert not list((HERE / ".work").glob("run-*"))


@pytest.mark.parametrize("workload", NAMES)
def test_same_seed_same_inputs(workload):
    first = WORKLOADS[workload](7).describe()
    assert first == WORKLOADS[workload](7).describe()
    other = WORKLOADS[workload](8).describe()
    if first["plan"] != {"shapes": [(1024, 1024, 1024), (1024, 1024, 256)]}:
        assert other["plan"] != first["plan"]


def test_ragged_seeds_differ_in_shape_but_not_in_work():
    a, b = (WORKLOADS["gemm_ragged"](s).describe() for s in (1, 2))
    assert a["plan"]["shapes"] != b["plan"]["shapes"]
    assert a["gemm.kernel_calls"] > 0
    assert abs(a["flops_per_round"] / b["flops_per_round"] - 1) < 0.05


def test_gemm_counts_follow_the_driver_tiling():
    from repro.blas.gemm import BlockSizes
    mults = host_gemm_multiples()
    calls, a_bytes, b_bytes = gemm_counts([(1024, 1024, 1024)],
                                          BlockSizes(), mults)
    mc = -(-128 // mults[0]) * mults[0]
    assert calls == 2 * -(-1024 // mc) * 4
    assert b_bytes == 8 * 1024 * 1024
    assert a_bytes >= 2 * 8 * 1024 * 1024


def test_percentile_refuses_a_tail_it_cannot_see():
    with pytest.raises(ValueError, match="beyond"):
        stats.percentile(list(range(100)), 95)
    assert stats.percentile(list(range(200)), 95) == 189
    assert stats.samples_needed(95) == 200
    assert stats.samples_needed(99) == 1000
    assert stats.percentile(list(range(20)), 90, min_beyond=1) == 17


def test_perturbed_result_fails_the_run():
    done = run_ledger("--workload", "level12_stream", "--quick",
                      "--perturb")
    assert done.returncode == 1
    result = result_of(done)
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


@pytest.mark.parametrize("var", ["REPRO_FAULT_INJECT", "REPRO_TRACE",
                                 "REPRO_INTEGRITY"])
def test_refuses_a_caller_set_environment(var):
    done = run_ledger("--workload", "level12_stream", "--quick",
                      env_extra={var: "full"})
    assert done.returncode == 2
    assert var in done.stderr and not done.stdout.strip()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns(".work", "runs",
                                                      "__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0 and not done.stdout.strip()


def _bench(path, values, twin_ms=10.0):
    metrics = {name: {"value": stats.median(vs), "unit": "x", "values": vs}
               for name, vs in values.items()}
    path.write_text(json.dumps({"workloads": {"w": {
        "metrics": metrics, "twin_round_ms": [twin_ms]}}}))
    return path


def test_compare_verdicts(tmp_path):
    spec = {"end_to_end": [
        {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "same", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "wild", "unit": "ms", "better": "lower", "bound": 0.1}]}
    base = _bench(tmp_path / "a.json", {
        "lat": [10.0] * 4, "rate": [100.0] * 4, "same": [5.0] * 4,
        "wild": [1.0, 2.0, 3.0, 4.0]})
    new = _bench(tmp_path / "b.json", {
        "lat": [12.0] * 4, "rate": [120.0] * 4, "same": [5.2] * 4,
        "wild": [1.0, 2.0, 3.0, 4.0]})
    text, ok = report.compare(base, new, spec)
    verdict = {line.split()[1]: line.split()[-1]
               for line in text.splitlines()[1:]}
    assert verdict == {"lat": "worse", "rate": "improved",
                       "same": "unchanged", "wild": "unresolved"}
    assert ok is False
    assert report.compare(base, base, spec)[1] is True
    # the same numbers on a host that ran 5% slower prove nothing
    slower = _bench(tmp_path / "c.json", {
        "lat": [12.0] * 4, "rate": [120.0] * 4, "same": [5.2] * 4,
        "wild": [1.0, 2.0, 3.0, 4.0]}, twin_ms=10.5)
    text, ok = report.compare(base, slower, spec)
    assert {line.split()[-1] for line in text.splitlines()[1:]} == \
        {"unresolved"} and ok is True


def _ledger(pairs, twins):
    spec = {"end_to_end": [
        {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1}]}
    args = SimpleNamespace(seed=1, seconds=1.0, quick=False, tag=None)
    ledger = report.Ledger("end_to_end", args, spec)
    for lat, twin in zip(pairs, twins):
        ledger.add({"workload": "w", "correct": True,
                    "metrics": {"lat": {"value": lat, "unit": "ms"}},
                    "detail": {"twin_round_ms": twin}})
    return ledger.agreement()


def test_agreement_tells_a_moved_host_from_a_disagreement():
    assert _ledger([10.0, 10.9], [5.0, 5.0])[1] is True
    text, ok = _ledger([10.0, 12.0], [5.0, 5.0])
    assert "DISAGREE" in text and ok is False
    text, ok = _ledger([10.0, 12.0], [5.0, 5.5])
    assert "unresolved" in text and ok is True
