"""Bitonic top-k — the paper's contribution, as a :class:`TopKAlgorithm`.

Functionally the algorithm pads the input to a power of two with sentinel
minimum values, runs the local-sort / merge / rebuild reduction
(:mod:`repro.bitonic.operators`) on it as a batch of one, and returns the
top-k values with their row indices.  The execution trace models the
SortReducer / BitonicReducer kernel pipeline (:mod:`repro.bitonic.kernels`)
under the configured optimization flags.

The key robustness property of Section 6.4 falls out of the construction:
the network's comparison sequence is data-independent, so the trace — and
therefore the simulated runtime — is identical for every input
distribution.
"""

from __future__ import annotations

import numpy as np

from repro import observability as obs
from repro.algorithms.base import TopKAlgorithm, TopKResult, validate_topk_args
from repro.bitonic.kernels import build_trace, memory_overhead_bytes
from repro.bitonic.network import next_power_of_two
from repro.bitonic.operators import _sentinel, reduce_topk
from repro.bitonic.optimizations import FULL, OptimizationFlags
from repro.errors import InvalidParameterError
from repro.gpu.device import DeviceSpec


def repair_padded_indices(
    data: np.ndarray, values: np.ndarray, indices: np.ndarray, n: int
) -> np.ndarray:
    """Repair result indices that point at padding slots.

    A padding sentinel can only reach the top-k when real elements share the
    dtype's minimum value, in which case the returned *values* are already
    correct and we only need to point the indices at unused real rows
    holding that value.  (With NaN payloads the comparison network can also
    carry a sentinel past real values — ordering is undefined there, so any
    unused real row is an acceptable substitute.)

    Called row by row from :func:`_select_rows`.
    """
    broken = indices >= n
    if not broken.any():
        return indices
    minimum = values[broken][0]
    used = set(indices[~broken].tolist())
    replacements = [
        row for row in np.flatnonzero(data == minimum) if row not in used
    ]
    slots = np.flatnonzero(broken)
    if len(replacements) < len(slots):
        # Only reachable when NaNs scrambled the network: top up with the
        # lowest real rows not already part of the result.
        taken = used | set(replacements)
        extras = (row for row in range(n) if row not in taken)
        while len(replacements) < len(slots):
            replacements.append(next(extras))
    fixed = indices.copy()
    fixed[slots] = replacements[: len(slots)]
    return fixed


def _select_rows(
    data: np.ndarray, k: int, network_k: int, padded_n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k values and column indices of every row of ``data``.

    Pads each row (the last axis) to ``padded_n`` with the dtype's minimum,
    carries the column positions through the network as the payload,
    reduces to ``network_k`` survivors, slices to ``k`` and repairs indices
    that point at padding.  Shared by :class:`BitonicTopK` (a batch of one)
    and :func:`repro.core.batched.batched_topk`, which keeps their values,
    indices and tie-breaking bit-identical.
    """
    n = data.shape[-1]
    working = np.full(
        data.shape[:-1] + (padded_n,), _sentinel(data.dtype), dtype=data.dtype
    )
    working[..., :n] = data
    # Column positions fit in 32 bits for any realistic row, halving the
    # payload traffic through the network; widened after the reduction.
    payload_dtype = np.int32 if padded_n <= np.iinfo(np.int32).max else np.int64
    payload = np.broadcast_to(
        np.arange(padded_n, dtype=payload_dtype), working.shape
    ).copy()
    top_values, top_payload = reduce_topk(working, network_k, payload)
    values = top_values[..., :k].copy()
    indices = top_payload[..., :k].astype(np.int64)
    leaked = (indices >= n).reshape(-1, k).any(axis=1)
    if leaked.any():
        data_rows = data.reshape(-1, n)
        value_rows = values.reshape(-1, k)
        index_rows = indices.reshape(-1, k)
        for row in np.flatnonzero(leaked):
            index_rows[row] = repair_padded_indices(
                data_rows[row], value_rows[row], index_rows[row], n
            )
    return values, indices


class BitonicTopK(TopKAlgorithm):
    """The paper's bitonic top-k algorithm (Sections 3.2 and 4.3)."""

    name = "bitonic"

    #: The paper evaluates k up to 1024; shared memory bounds k at twice the
    #: maximum thread-block size (Section 4.3, "Operating in Shared Memory").
    max_k = 2048

    def __init__(
        self,
        device: DeviceSpec | None = None,
        flags: OptimizationFlags = FULL,
    ):
        super().__init__(device)
        self.flags = flags

    def supports(self, n: int, k: int, dtype: np.dtype) -> bool:
        return 1 <= k <= self.max_k

    def run(
        self, data: np.ndarray, k: int, model_n: int | None = None
    ) -> TopKResult:
        validate_topk_args(data, k)
        n = len(data)
        if not self.supports(n, k, data.dtype):
            raise InvalidParameterError(
                f"bitonic top-k supports k <= {self.max_k}, got {k}"
            )
        network_k = next_power_of_two(k)
        padded_n = max(next_power_of_two(n), network_k)
        with obs.span(
            "phase:bitonic-reduce",
            category="phase",
            network_k=network_k,
            padded_n=padded_n,
        ):
            values, indices = _select_rows(data, k, network_k, padded_n)

        trace = build_trace(
            model_n or n, network_k, data.dtype.itemsize, self.flags, self.device
        )
        trace.notes["network_k"] = network_k
        return self._result(values, indices, trace, k, n, model_n)

    def memory_overhead(self, n: int, dtype: np.dtype) -> int:
        """Auxiliary buffer bytes (n/B words — Section 4.3 discussion)."""
        return memory_overhead_bytes(n, np.dtype(dtype).itemsize, self.flags)
