"""Vectorized executors for the three bitonic top-k operators.

These run the step sequences of :mod:`repro.bitonic.network` with numpy —
one array operation per massively parallel step, which is the same dataflow
the GPU executes (each element of the numpy expression corresponds to one
thread's compare-exchange).

Every operator works on the last axis of a C-contiguous array: a 1-D array
is a batch of one, and a ``[batch, n]`` matrix runs one network per row in
the same array operations (the batched top-k of :mod:`repro.core.batched`).

Conventions (matching the paper's Algorithms 2-4):

* a step compares ``L[i]`` with ``L[i + inc]``; index ``i`` enumerates the
  lower partner of each pair, which are exactly the first ``inc`` slots of
  each ``2 * inc`` block — so a step runs on contiguous block views of the
  row instead of gathering through index arrays;
* ``reverse = ((direction_period & i) == 0)``; ``swap = reverse XOR
  (L[i] < L[i + inc])``.  With ``reverse`` false the larger value moves to
  the *lower* index (descending run), with ``reverse`` true to the higher
  index (ascending run).  Local sort therefore produces runs alternating
  ascending-then-descending, which is exactly what the merge needs.
  Because ``direction_period >= 2 * inc``, ``reverse`` is constant across
  a block and is computed once per block;
* the merge compares ``L[i]`` and ``L[i + k]`` for each pair of adjacent
  length-k runs and keeps the maxima, compacted, which form a *bitonic*
  sequence containing the top-k of the pair — the key insight of
  Section 3.2.

All operators optionally carry a payload array (row ids or values) of the
same shape through the same exchanges, supporting the key+value
experiments of Section 6.6.
"""

from __future__ import annotations

import numpy as np

from repro.bitonic.network import (
    Step,
    local_sort_steps,
    rebuild_steps,
    validate_power_of_two,
)
from repro.errors import InvalidParameterError


def apply_step(
    values: np.ndarray, step: Step, payload: np.ndarray | None = None
) -> None:
    """Apply one compare-exchange step to every row, in place."""
    n = values.shape[-1]
    inc = step.inc
    if n % (2 * inc) != 0:
        raise InvalidParameterError(
            f"row length {n} is not a multiple of the step block {2 * inc}"
        )
    if not values.flags.c_contiguous or (
        payload is not None and not payload.flags.c_contiguous
    ):
        # A block view of a non-contiguous array is a silent copy, which
        # would lose the in-place writes.
        raise InvalidParameterError(
            "bitonic operators work in place on C-contiguous arrays"
        )
    blocks = n // (2 * inc)
    reverse = (((np.arange(blocks) * (2 * inc)) & step.direction_period) == 0)[
        :, None
    ]
    view = values.reshape(-1, blocks, 2, inc)
    left = view[:, :, 0, :]
    right = view[:, :, 1, :]
    swap = np.logical_xor(reverse, left < right)
    new_left = np.where(swap, right, left)
    view[:, :, 1, :] = np.where(swap, left, right)
    view[:, :, 0, :] = new_left
    if payload is not None:
        payload_view = payload.reshape(-1, blocks, 2, inc)
        left_payload = payload_view[:, :, 0, :]
        right_payload = payload_view[:, :, 1, :]
        new_left_payload = np.where(swap, right_payload, left_payload)
        payload_view[:, :, 1, :] = np.where(swap, left_payload, right_payload)
        payload_view[:, :, 0, :] = new_left_payload


def local_sort(
    values: np.ndarray, k: int, payload: np.ndarray | None = None
) -> None:
    """Sort every row in place into alternating runs of length ``k``."""
    if values.shape[-1] % max(k, 2) != 0:
        raise InvalidParameterError("row length must be a multiple of k")
    for step in local_sort_steps(k):
        apply_step(values, step, payload)


def merge(
    values: np.ndarray, k: int, payload: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Merge adjacent run pairs, keeping the larger half of each pair.

    Input: rows of alternating sorted runs of length k (2m runs).  Output:
    m length-k *bitonic* sequences per row, each containing the top-k of
    its pair.  Returns new (values, payload) arrays of half the row length.
    """
    validate_power_of_two(k, "k")
    n = values.shape[-1]
    if n % (2 * k) != 0:
        raise InvalidParameterError(
            f"row length {n} is not a multiple of a run pair (2k = {2 * k})"
        )
    # Rows hold whole run pairs, so the pairs of all rows stack in one view.
    shape = values.shape[:-1] + (n // 2,)
    pairs = values.reshape(-1, 2, k)
    first = pairs[:, 0, :]
    second = pairs[:, 1, :]
    keep_first = first >= second
    merged = np.where(keep_first, first, second).reshape(shape)
    merged_payload = None
    if payload is not None:
        payload_pairs = payload.reshape(-1, 2, k)
        merged_payload = np.where(
            keep_first, payload_pairs[:, 0, :], payload_pairs[:, 1, :]
        ).reshape(shape)
    return merged, merged_payload


def rebuild(
    values: np.ndarray, k: int, payload: np.ndarray | None = None
) -> None:
    """Re-sort length-k bitonic sequences into alternating runs, in place."""
    if values.shape[-1] % max(k, 2) != 0 and k > 1:
        raise InvalidParameterError("row length must be a multiple of k")
    for step in rebuild_steps(k):
        apply_step(values, step, payload)


def reduce_topk(
    values: np.ndarray, k: int, payload: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """The full operator pipeline: local sort, then merge+rebuild to k elements.

    ``values`` (power-of-two row length) is modified and consumed; the
    returned arrays hold each row's top-k (sorted descending) and the
    corresponding payload entries.
    """
    validate_power_of_two(k, "k")
    n = values.shape[-1]
    validate_power_of_two(n, "n")
    if k > n:
        raise InvalidParameterError("k cannot exceed the (padded) input size")
    if k < n:
        # With k == 1 the runs are trivially sorted and rebuild has no
        # steps: the pipeline degenerates to repeated pairwise maxima.
        local_sort(values, k, payload)
        while values.shape[-1] > k:
            values, payload = merge(values, k, payload)
            if values.shape[-1] > k:
                rebuild(values, k, payload)
    # The k survivors of each row form one bitonic sequence (or, at k == n,
    # the untouched row); sort them descending.
    order = np.argsort(values, axis=-1, kind="stable")[..., ::-1]
    top_values = np.take_along_axis(values, order, axis=-1)
    if payload is None:
        return top_values, None
    return top_values, np.take_along_axis(payload, order, axis=-1)
