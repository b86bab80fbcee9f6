"""Batched top-k: one top-k per row of a matrix.

The paper's introduction cites open feature requests in TensorFlow and
ArrayFire for a GPU top-k operator; both frameworks need the *batched*
form (top-k per row of a [batch, n] tensor).  The bitonic network extends
to it for free: every compare-exchange step applies elementwise along the
row axis, so one fused kernel serves the whole batch and the per-row
launches amortize — exactly the regime where bitonic's uniformity shines.

Functionally it runs the operators of :mod:`repro.bitonic.operators`,
which work on the last axis, over the whole matrix at once — the same
code path as the single-row :class:`~repro.bitonic.topk.BitonicTopK`,
which is a batch of one.  The execution trace is the single-row kernel
pipeline with its traffic scaled by the batch size (the launch count does
not scale — the point of batching).
"""

from __future__ import annotations

import numpy as np

from repro import observability as obs
from repro.algorithms.base import SUPPORTED_DTYPES, TopKResult
from repro.bitonic.kernels import build_trace
from repro.bitonic.network import next_power_of_two
from repro.bitonic.optimizations import FULL, OptimizationFlags
from repro.bitonic.topk import _select_rows
from repro.errors import InvalidParameterError
from repro.gpu.counters import ExecutionTrace
from repro.gpu.device import DeviceSpec, get_device


def batched_topk(
    matrix: np.ndarray,
    k: int,
    device: DeviceSpec | None = None,
    flags: OptimizationFlags = FULL,
    model_rows: int | None = None,
) -> TopKResult:
    """Top-k of every row of a [batch, n] array.

    Returns a :class:`TopKResult` whose ``values`` and ``indices`` are
    [batch, k] arrays (indices are column positions within each row).
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise InvalidParameterError("batched top-k expects a 2-D array")
    if matrix.dtype.type not in SUPPORTED_DTYPES:
        supported = ", ".join(t.__name__ for t in SUPPORTED_DTYPES)
        raise InvalidParameterError(
            f"unsupported dtype {matrix.dtype}; supported: {supported}"
        )
    rows, n = matrix.shape
    if rows == 0 or n == 0:
        raise InvalidParameterError("batched top-k needs a non-empty matrix")
    if k <= 0 or k > n:
        raise InvalidParameterError(f"k = {k} must be in [1, {n}]")
    device = device or get_device()

    network_k = next_power_of_two(k)
    padded_n = max(next_power_of_two(n), network_k)
    with obs.span(
        "batched-topk",
        category="api",
        rows=rows,
        n=n,
        k=k,
        network_k=network_k,
    ) as span:
        top_values, top_indices = _select_rows(matrix, k, network_k, padded_n)

        # The single-row kernel pipeline, traffic scaled by the batch size but
        # launch count unchanged (one fused launch covers all rows).
        single_row = build_trace(
            padded_n, network_k, matrix.dtype.itemsize, flags, device
        )
        batch = model_rows or rows
        trace = ExecutionTrace(notes=dict(single_row.notes))
        trace.kernels = [kernel.scaled(batch) for kernel in single_row.kernels]
        trace.notes["batch_rows"] = batch
        from repro.observability.instrument import record_trace

        span.set(simulated_ms=record_trace(trace, device))
    return TopKResult(
        values=top_values,
        indices=top_indices,
        trace=trace,
        algorithm="batched-bitonic",
        k=k,
        n=rows * n,
        model_n=batch * padded_n,
    )
