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

Sorted-run shortcut
-------------------

:func:`reduce_topk` does not step the network on every run pair.  The
local sort and every rebuild leave each pair of length-k runs sorted,
ascending then descending.  A comparator network that sorts has exactly
one output on distinct keys — the sorted run — and each payload entry
travels with its key, so for a pair whose 2k keys are all distinct a
numpy ``argsort`` produces bit-for-bit what the network would.  Only
ties expose the network's position-dependent exchange order, so pairs
holding a tie (``-0.0 == 0.0`` counts as one) are gathered into a batch
and stepped through the network exactly as before.  A rebuild sorts
only because its input is bitonic, and a NaN anywhere breaks that (every
comparison against it is false), so a float input containing NaN runs
the full network.  :func:`local_sort`, :func:`merge`, :func:`rebuild`
and :func:`apply_step` stay pure network operators.

Threshold pruning
-----------------

Each merge keeps the top-k of a run pair, so a key below its row's k-th
largest key ``T`` never reaches the output.  :func:`reduce_topk` finds
``T`` per row with ``np.partition``, clamps every key below it (a
*hole*) to the padding sentinel ``S`` (``-inf`` or the integer minimum),
and sorts, merges and rebuilds only the *live* run pairs — those holding
a key ``>= T``.  This is bit-identical to the dense pipeline when no key
is NaN and ``T > S``:

* a compare-exchange (``swap = reverse XOR (a < b)``) or merge
  (``first >= second``) between a key ``>= T`` and a hole has the same
  outcome whether the hole is its original key or ``S``, since both are
  below ``T``; a comparison between two holes moves only holes.  By
  induction over the steps, every key ``>= T`` ends in the same slot with
  the same payload, and the k survivors are all ``>= T``;
* clamping is monotone, so sorted runs stay sorted and bitonic ones
  bitonic, and the sorted-run shortcut still applies; ties among holes
  never reach the output, so its tie test ignores them;
* a pair of holes only stays a pair of holes, so it is never built.  The
  next level's pair ``i`` is the merged runs ``2i`` and ``2i + 1``, with a
  missing half filled with ``S``; gathered pairs keep their parity.

A NaN anywhere, ``k == 1``, a row whose ``T`` equals ``S`` (padding or
minimum keys can reach the output) and inputs where pruning cannot pay
off (see :data:`_PRUNE_MIN_SIZE`) run the dense pipeline.
"""

from __future__ import annotations

import functools

import numpy as np

from repro import observability as obs
from repro.bitonic.network import (
    Step,
    local_sort_steps,
    rebuild_steps,
    validate_power_of_two,
)
from repro.errors import InvalidParameterError


#: Elements argsorted per numpy call on the sorted-run path, which bounds
#: the int64 ``order`` temporaries (256 KiB) whatever the row length.
_SORT_BLOCK = 1 << 15


def _require_contiguous(values: np.ndarray, payload: np.ndarray | None) -> None:
    if not values.flags.c_contiguous or (
        payload is not None and not payload.flags.c_contiguous
    ):
        # A block view of a non-contiguous array is a silent copy, which
        # would lose the in-place writes.
        raise InvalidParameterError(
            "bitonic operators work in place on C-contiguous arrays"
        )


#: A step at distance ``inc <= 8`` runs lane by lane once every lane spans
#: at least this many blocks (see :func:`apply_step`); below that, the
#: extra numpy calls cost more than the short inner loops they avoid.
_LANE_STEP_MAX_INC = 8
_LANE_STEP_MIN_BLOCKS = 1 << 12

#: Shortest direction mask, in blocks.  Masks repeat with their period, so
#: a step views each row as runs of mask-length blocks; this floor keeps
#: the innermost loop of a distance-1 step long.
_MASK_BLOCKS = 1 << 12


@functools.lru_cache(maxsize=64)
def _reverse_mask(half: int) -> np.ndarray:
    """Comparison direction of consecutive blocks, as a read-only column.

    Block ``b`` of a step starts at element ``2 * inc * b``, so its
    direction bit is ``b & half`` with ``half = direction_period //
    (2 * inc)``.  The pattern repeats every ``2 * half`` blocks, and
    every row length and batch shares one mask per ``half``.
    """
    mask = ((np.arange(max(2 * half, _MASK_BLOCKS)) & half) == 0)[:, None]
    mask.flags.writeable = False
    return mask


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
    _require_contiguous(values, payload)
    reverse = _reverse_mask(step.direction_period // (2 * inc))
    # A row shorter than the mask reads its prefix; a longer one is a
    # whole number of mask periods.
    blocks = min(n // (2 * inc), len(reverse))
    reverse = reverse[:blocks]
    view = values.reshape(-1, blocks, 2, inc)
    payload_view = None if payload is None else payload.reshape(-1, blocks, 2, inc)
    # At a short distance numpy's innermost loop would run over only inc
    # elements; stepping one lane of every block at a time keeps it long.
    lanes = (
        [slice(lane, lane + 1) for lane in range(inc)]
        if inc <= _LANE_STEP_MAX_INC
        and values.size // (2 * inc) >= _LANE_STEP_MIN_BLOCKS
        else [slice(None)]
    )
    for lane in lanes:
        left = view[:, :, 0, lane]
        right = view[:, :, 1, lane]
        swap = np.logical_xor(reverse, left < right)
        new_left = np.where(swap, right, left)
        view[:, :, 1, lane] = np.where(swap, left, right)
        view[:, :, 0, lane] = new_left
        if payload_view is not None:
            left_payload = payload_view[:, :, 0, lane]
            right_payload = payload_view[:, :, 1, lane]
            new_left_payload = np.where(swap, right_payload, left_payload)
            payload_view[:, :, 1, lane] = np.where(
                swap, left_payload, right_payload
            )
            payload_view[:, :, 0, lane] = new_left_payload


def _network(
    values: np.ndarray, k: int, payload: np.ndarray | None, steps: list[Step]
) -> tuple[int, int]:
    """Step every run pair through the network; returns (sorted, network)
    pair counts like :func:`_sort_runs`."""
    for step in steps:
        apply_step(values, step, payload)
    return 0, values.size // (2 * k)


def _sort_runs(
    values: np.ndarray,
    k: int,
    payload: np.ndarray | None,
    steps: list[Step],
    hole=None,
) -> tuple[int, int]:
    """Leave every length-2k run pair as ``steps`` would, in place.

    ``steps`` must sort each run of the input (the local sort always does;
    a rebuild does on NaN-free bitonic runs).  Tie-free pairs are sorted
    by numpy — the network's unique output on distinct keys — and only
    pairs holding a tie run the network.  Keys equal to ``hole`` (the
    clamped keys of the pruned reduction) never reach the output, so ties
    among them do not count.  Returns how many pairs took each path:
    (sorted, network).
    """
    _require_contiguous(values, payload)
    runs = np.sort(values.reshape(-1, k), axis=-1)
    tied = runs[:, 1:] == runs[:, :-1]
    if hole is not None:
        tied &= runs[:, 1:] != hole
    tied = tied.reshape(-1, 2 * (k - 1)).any(axis=-1)
    tied_pairs = np.flatnonzero(tied)
    if len(tied_pairs) == len(tied):
        return _network(values, k, payload, steps)
    pair_values = values.reshape(-1, 2 * k)
    pair_payload = None if payload is None else payload.reshape(-1, 2 * k)
    free_pairs = None
    if len(tied_pairs):
        # Gathered pairs keep their parity: a step's direction depends on
        # the position modulo 2k only.
        batch = pair_values[tied_pairs]
        batch_payload = None if payload is None else pair_payload[tied_pairs]
        _network(batch, k, batch_payload, steps)
        pair_values[tied_pairs] = batch
        if payload is not None:
            pair_payload[tied_pairs] = batch_payload
        free_pairs = np.flatnonzero(~tied)
    free = len(tied) - len(tied_pairs)
    block = max(1, _SORT_BLOCK // (2 * k))
    for start in range(0, free, block):
        rows = (
            slice(start, start + block)
            if free_pairs is None
            else free_pairs[start : start + block]
        )
        chunk = pair_values[rows].reshape(-1, 2, k)
        order = np.argsort(chunk, axis=-1)
        # Even runs ascend, odd runs descend (the final direction period k).
        order[:, 1] = order[:, 1, ::-1]
        pair_values[rows] = np.take_along_axis(chunk, order, axis=-1).reshape(
            -1, 2 * k
        )
        if payload is not None:
            chunk_payload = pair_payload[rows].reshape(-1, 2, k)
            pair_payload[rows] = np.take_along_axis(
                chunk_payload, order, axis=-1
            ).reshape(-1, 2 * k)
    return free, len(tied_pairs)


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

    ``values`` (power-of-two row length) is modified and consumed: its
    contents are unspecified after the call, and so are the payload's.
    The returned arrays hold each row's top-k (sorted descending) and the
    corresponding payload entries.
    """
    validate_power_of_two(k, "k")
    n = values.shape[-1]
    validate_power_of_two(n, "n")
    if k > n:
        raise InvalidParameterError("k cannot exceed the (padded) input size")
    _require_contiguous(values, payload)
    if k < n:
        # With k == 1 the runs are trivially sorted and rebuild has no
        # steps: the pipeline degenerates to repeated pairwise maxima.
        nan = values.dtype.kind == "f" and bool(np.isnan(values).any())
        if k == 1 or nan:
            values, payload, paths = _reduce_dense(values, k, payload, _network)
        elif (live := _live_pairs(values, k)) is not None:
            values, payload, paths = _reduce_pruned(values, k, payload, *live)
        else:
            values, payload, paths = _reduce_dense(values, k, payload, _sort_runs)
        _record_paths(*paths)
    # The k survivors of each row form one bitonic sequence (or, at k == n,
    # the untouched row); sort them descending.
    order = np.argsort(values, axis=-1, kind="stable")[..., ::-1]
    top_values = np.take_along_axis(values, order, axis=-1)
    if payload is None:
        return top_values, None
    return top_values, np.take_along_axis(payload, order, axis=-1)


def _reduce_dense(
    values: np.ndarray, k: int, payload: np.ndarray | None, sort_runs
) -> tuple[np.ndarray, np.ndarray | None, tuple[int, int, int]]:
    """Sort, merge and rebuild every run pair down to k survivors per row.

    Returns the survivors, their payload and the (sorted, network,
    pruned) pair counts.
    """
    sorted_pairs, network_pairs = sort_runs(values, k, payload, local_sort_steps(k))
    while values.shape[-1] > k:
        values, payload = merge(values, k, payload)
        if values.shape[-1] > k:
            more_sorted, more_network = sort_runs(
                values, k, payload, rebuild_steps(k)
            )
            sorted_pairs += more_sorted
            network_pairs += more_network
    return values, payload, (sorted_pairs, network_pairs, 0)


def _sentinel(dtype: np.dtype):
    """The minimum representable value of a dtype: the padding of a row,
    and the value the pruned reduction clamps holes to."""
    if dtype.kind == "f":
        return -np.inf
    return np.iinfo(dtype).min


#: Threshold pruning runs only on calls of at least this many elements,
#: and only while at most this share of their run pairs is live.  Below
#: either the dense pipeline is as fast or faster: on a short call the
#: per-level numpy calls of the pruned path cost more than the pairs it
#: skips, and with most pairs live it gathers nearly every pair for no
#: saving.  Swept on a 2-core Xeon host (float32 and int64, int32 payload,
#: median of 9, batch 1-16, k 8-64): uniform rows of 2^13 elements run
#: 0.74-1.19x the dense time, rows of 2^14 0.56-0.97x; at 2^16/k=32 a
#: tie-free input with half its pairs live runs 0.91x, with three quarters
#: live 1.02x.
_PRUNE_MIN_SIZE = 1 << 14
_PRUNE_MAX_LIVE_SHARE = 0.5


def _live_pairs(
    values: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Ids of the run pairs holding a key >= their row's k-th largest key,
    and those per-row thresholds; None when the dense pipeline should run.

    Pair ids index ``values.reshape(-1, 2 * k)``.  A row whose threshold is
    the dtype minimum lets padding or minimum keys reach the output, which
    clamping cannot tell apart, so it keeps the call dense.
    """
    if values.size < _PRUNE_MIN_SIZE:
        return None
    n = values.shape[-1]
    pairs = values.size // (2 * k)
    rows = values.reshape(-1, n)
    thresholds = np.partition(rows, n - k, axis=-1)[:, n - k]
    if (thresholds == _sentinel(values.dtype)).any():
        return None
    live = rows.reshape(len(rows), -1, 2 * k) >= thresholds[:, None, None]
    ids = np.flatnonzero(live.any(axis=-1))
    if len(ids) > _PRUNE_MAX_LIVE_SHARE * pairs:
        return None
    return ids, thresholds


def _reduce_pruned(
    values: np.ndarray,
    k: int,
    payload: np.ndarray | None,
    ids: np.ndarray,
    thresholds: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None, tuple[int, int, int]]:
    """:func:`_reduce_dense` on the live run pairs only.

    Keys below their row's threshold are clamped to the hole value, and a
    pair holding only holes is never built.  Returns the same survivors,
    payload and pair counts as :func:`_reduce_dense` (see "Threshold
    pruning" in the module docstring).
    """
    hole = _sentinel(values.dtype)
    rows_shape = values.shape[:-1]
    batch = values.size // values.shape[-1]
    per_row = values.shape[-1] // (2 * k)
    pair_values = values.reshape(-1, 2 * k)[ids]
    np.putmask(pair_values, pair_values < thresholds[ids // per_row, None], hole)
    pair_payload = None if payload is None else payload.reshape(-1, 2 * k)[ids]
    sorted_pairs, network_pairs = _sort_runs(
        pair_values, k, pair_payload, local_sort_steps(k), hole
    )
    dense_pairs = batch * per_row
    while True:
        # Run ``j`` below came from pair ``ids[j]``.
        runs, run_payload = merge(pair_values, k, pair_payload)
        per_row //= 2
        if per_row == 0:
            break
        dense_pairs += batch * per_row
        # Pair ``i`` of the next level is runs ``2i`` and ``2i + 1``; a
        # missing (dead) half holds only holes.
        half = ids % 2
        ids, slot = np.unique(ids // 2, return_inverse=True)
        pair_values = np.full((len(ids), 2, k), hole, values.dtype)
        pair_values[slot, half] = runs
        pair_values = pair_values.reshape(-1, 2 * k)
        if payload is not None:
            pair_payload = np.zeros((len(ids), 2, k), payload.dtype)
            pair_payload[slot, half] = run_payload
            pair_payload = pair_payload.reshape(-1, 2 * k)
        more_sorted, more_network = _sort_runs(
            pair_values, k, pair_payload, rebuild_steps(k), hole
        )
        sorted_pairs += more_sorted
        network_pairs += more_network
    # Every row keeps at least one live pair, so one run per row remains.
    survivors = runs.reshape(rows_shape + (k,))
    if run_payload is not None:
        run_payload = run_payload.reshape(rows_shape + (k,))
    pruned = dense_pairs - sorted_pairs - network_pairs
    return survivors, run_payload, (sorted_pairs, network_pairs, pruned)


def _record_paths(sorted_pairs: int, network_pairs: int, pruned_pairs: int) -> None:
    """Report on the enclosing span and the metrics registry how many run
    pairs were sorted, how many stepped through the network and how many
    the threshold pruning never built."""
    obs.current_span().set(
        run_pairs_sorted=sorted_pairs,
        run_pairs_network=network_pairs,
        run_pairs_pruned=pruned_pairs,
    )
    registry = obs.active_metrics()
    if registry is not None:
        registry.counter("bitonic.run_pairs", path="sorted").inc(sorted_pairs)
        registry.counter("bitonic.run_pairs", path="network").inc(network_pairs)
        registry.counter("bitonic.run_pairs", path="pruned").inc(pruned_pairs)
