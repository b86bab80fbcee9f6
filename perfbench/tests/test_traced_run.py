"""The traced run on scaled-down workloads."""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from wallbench.layers import LayerPatches
from wallbench.spans import SpanRecorder
from wallbench.workloads import ArrayShape, ArrayTopK, SqlTwitter, StreamWindow

BENCH = Path(run.__file__).resolve().parent


def small_array():
    return ArrayTopK(
        shapes=(
            ArrayShape("f32", "uniform-f32", 4096, 16, 3, 2, 1000.0),
            ArrayShape("i64", "full-i64", 2048, 8, 1, 1, 1000.0),
        ),
        min_ops=4,
    )


def small_sql():
    workload = SqlTwitter(rows=4096, min_ops=24)
    workload.trace_cycles = 1
    return workload


def small_stream():
    return StreamWindow(chunk_rows=256, window=2048, min_ops=16)


def traced(make):
    workload = make()
    workload.setup(seed=7, seconds=0.0)
    try:
        _, checked, metrics = run.run_traced(workload, 0.0, SpanRecorder())
    finally:
        workload.close()
    return checked, metrics


@pytest.mark.parametrize("make", [small_array, small_sql, small_stream])
def test_traced_run_repeats_simulated_time_exactly(make):
    first_checked, first = traced(make)
    second_checked, second = traced(make)
    assert first_checked.failed == second_checked.failed == 0
    assert first["gpu.sim_ms"] > 0
    assert first["gpu.sim_ms"] == second["gpu.sim_ms"]
    assert first["gpu.launches"] == second["gpu.launches"]


def test_traced_run_attributes_layers():
    _, metrics = traced(small_sql)
    assert metrics["engine.parse.ms"] > 0
    assert metrics["engine.self.ms"] > 0
    assert metrics["sharding.run.ms"] > 0
    assert metrics["oracle.calls"] > 0
    # Shard work on the pool threads runs under the sharded run.
    assert 0 < metrics["sharding.oracle_frac"]
    assert 0 <= metrics["trace.unattributed_frac"] <= 0.05


def test_patches_are_removed_and_answers_unchanged():
    import repro
    from repro.bitonic.topk import BitonicTopK
    from repro.sharding import executor

    values = np.random.default_rng(3).random(5000, dtype=np.float32)
    before = repro.topk(values, 10)
    originals = (BitonicTopK.run, executor.reference_topk,
                 executor.ThreadPoolExecutor)
    recorder = SpanRecorder()
    with LayerPatches(recorder):
        during = repro.topk(values, 10)
    assert (BitonicTopK.run, executor.reference_topk,
            executor.ThreadPoolExecutor) == originals
    assert np.array_equal(before.values, during.values)
    assert np.array_equal(before.indices, during.indices)
    assert before.simulated_ms() == during.simulated_ms()
    names = {span.name for span in recorder.spans}
    assert {"core.planner", "plan.bind", "select"} <= names


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "array-topk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
