"""Tests of the benchmark itself (not of sympwave).

    python3 -m pytest bench/tests -q

Smoke-size runs keep these to about a minute.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import sympwave as sw  # noqa: E402
import trace_diff  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, timeout=300, cwd=cwd)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload):
    assert workload in [w["name"] for w in SPEC["workloads"]]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = last_json(run_bench(workload, trace))
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_outputs_are_byte_identical(workload):
    last_json(run_bench(workload, 1, seed=4))
    stem = os.path.join(BENCH, "out", f"{workload}-seed4-trace1")
    with open(stem + "-untraced.csv", "rb") as a, open(stem + "-traced.csv", "rb") as b:
        untraced, traced = a.read(), b.read()
    assert untraced and untraced == traced
    with open(stem + ".json") as fh:
        assert json.load(fh)["outputs_identical"] is True


def corrupt(value):
    """The same result with one number moved by one part in a thousand."""
    if isinstance(value, sw.XiDecomposition):
        return dataclasses.replace(value, R1=value.R1 + 1e-3 * abs(value.direct) + 1e-6)
    if isinstance(value, tuple):
        return (value[0] * (1 + 1e-3) + 1e-6,) + value[1:]
    if isinstance(value, list):   # sweep records
        rec = value[0]
        bad = tuple((n, v * (1 + 1e-3)) for n, v in rec.outputs)
        return [sw.SweepRecord(inputs=rec.inputs, outputs=bad)] + value[1:]
    arr = np.array(value, dtype=np.result_type(value, float))
    flat = arr.reshape(-1)
    flat[0] = flat[0] * (1 + 1e-3) + 1e-6
    return arr if arr.ndim else arr.item()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_pass_true_outputs_and_catch_corrupted_ones(workload):
    known = {e["op"] for e in workloads.load_json("known_failures.json")["ops"].get(workload, [])}
    objs = workloads.setup(workload)
    for op in workloads.build_ops(workload, 5, objs, "smoke"):
        value = op.run()
        assert op.check(value).passed or op.name in known, op.name
        assert not op.check(corrupt(value)).passed, op.name


def test_known_failures_are_members_of_every_grid():
    known = workloads.load_json("known_failures.json")["ops"]
    for workload, entries in known.items():
        objs = workloads.setup(workload)
        for seed in (0, 1):
            names = {op.name for op in workloads.build_ops(workload, seed, objs)}
            assert {e["op"] for e in entries} <= names


def test_same_seed_same_inputs():
    objs = workloads.setup("stphase")
    a = [op.name for op in workloads.build_ops("stphase", 7, objs)]
    b = [op.name for op in workloads.build_ops("stphase", 7, objs)]
    c = [op.name for op in workloads.build_ops("stphase", 8, objs)]
    assert a == b != c


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("xi", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_trace_diff_reports_each_layer(tmp_path):
    last_json(run_bench("xi", 1, seed=6))
    record = os.path.join(BENCH, "out", "xi-seed6-trace1.json")
    text = trace_diff.diff(trace_diff.load(record), trace_diff.load(record))
    assert text.startswith("== xi")
    assert "model_integral.xi_decompose" in text and "+0.0%" in text
