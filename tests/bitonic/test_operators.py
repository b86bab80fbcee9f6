"""Tests for the vectorized bitonic operators, including properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observability as obs
from repro.bitonic.network import Step
from repro.bitonic.operators import (
    _PRUNE_MIN_SIZE,
    _reverse_mask,
    apply_step,
    local_sort,
    merge,
    rebuild,
    reduce_topk,
)
from repro.errors import InvalidParameterError


def _run_directions(values: np.ndarray, k: int) -> list[str]:
    directions = []
    for run in values.reshape(-1, k):
        if np.all(np.diff(run) >= 0):
            directions.append("asc")
        elif np.all(np.diff(run) <= 0):
            directions.append("desc")
        else:
            directions.append("unsorted")
    return directions


class TestApplyStep:
    def test_single_pair_descending(self):
        values = np.array([1.0, 2.0])
        apply_step(values, Step(inc=1, direction_period=4))
        # Direction period 4 bit unset at index 0 -> reverse -> ascending.
        assert values.tolist() == [1.0, 2.0]

    def test_exchange_happens(self):
        values = np.array([2.0, 1.0])
        apply_step(values, Step(inc=1, direction_period=4))
        assert values.tolist() == [1.0, 2.0]

    def test_length_must_match_block(self):
        with pytest.raises(InvalidParameterError):
            apply_step(np.arange(6, dtype=np.float32), Step(inc=4, direction_period=8))

    def test_payload_follows_keys(self):
        values = np.array([5.0, 1.0, 2.0, 9.0])
        payload = np.array([0, 1, 2, 3])
        apply_step(values, Step(inc=1, direction_period=2), payload)
        for value, tag in zip(values, payload):
            assert value == [5.0, 1.0, 2.0, 9.0][tag]

    def test_non_contiguous_values_rejected(self):
        # A block view of a strided array is a copy: the exchange would be lost.
        values = np.arange(16, dtype=np.float32)[::2]
        with pytest.raises(InvalidParameterError, match="contiguous"):
            apply_step(values, Step(inc=1, direction_period=2))

    def test_direction_masks_are_shared_read_only(self):
        mask = _reverse_mask(4)
        assert not mask.flags.writeable
        assert _reverse_mask(4) is mask
        assert mask[:16, 0].tolist() == ([True] * 4 + [False] * 4) * 2

    @pytest.mark.parametrize("n", [2, 64, 1 << 14])
    @pytest.mark.parametrize("inc,period", [(1, 2), (1, 8), (4, 64), (2, 1 << 15)])
    def test_step_matches_the_per_element_rule(self, n, inc, period):
        """reverse = (direction_period & i) == 0 for the lower partner i,
        whatever the row length relative to the cached mask."""
        if n % (2 * inc):
            pytest.skip("row shorter than the step block")
        values = np.random.default_rng(n + inc).random((2, n))
        expected = values.copy()
        for i in range(n):
            if i & inc:
                continue
            a, b = expected[:, i].copy(), expected[:, i + inc].copy()
            swap = ((period & i) == 0) != (a < b)
            expected[:, i] = np.where(swap, b, a)
            expected[:, i + inc] = np.where(swap, a, b)
        apply_step(values, Step(inc=inc, direction_period=period))
        assert values.tobytes() == expected.tobytes()

    def test_non_contiguous_payload_rejected(self):
        values = np.arange(8, dtype=np.float32)
        payload = np.arange(16)[::2]
        with pytest.raises(InvalidParameterError, match="contiguous"):
            local_sort(values, 4, payload)
        assert values.tolist() == list(range(8))


class TestLocalSort:
    def test_alternating_run_directions(self, rng):
        values = rng.random(64).astype(np.float32)
        local_sort(values, 8)
        assert _run_directions(values, 8) == ["asc", "desc"] * 4

    def test_multiset_preserved(self, rng):
        values = rng.random(128).astype(np.float32)
        original = np.sort(values.copy())
        local_sort(values, 16)
        assert np.array_equal(np.sort(values), original)

    @given(
        k_exp=st.integers(min_value=1, max_value=5),
        blocks=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_runs_are_sorted_for_any_input(self, k_exp, blocks, seed):
        k = 1 << k_exp
        values = np.random.default_rng(seed).random(2 * k * blocks).astype(np.float32)
        local_sort(values, k)
        assert "unsorted" not in _run_directions(values, k)


class TestMerge:
    def test_keeps_the_pairwise_top_k(self, rng):
        values = rng.random(32).astype(np.float32)
        local_sort(values, 8)
        merged, _ = merge(values, 8)
        for pair_index in range(2):
            pair = np.sort(values[pair_index * 16 : (pair_index + 1) * 16])[::-1]
            kept = np.sort(merged[pair_index * 8 : (pair_index + 1) * 8])[::-1]
            assert np.array_equal(kept, pair[:8])

    def test_merged_sequences_are_bitonic(self, rng):
        """The key insight of Section 3.2: the survivors form a bitonic
        sequence (at most one direction change when rotated)."""
        values = rng.random(64).astype(np.float32)
        local_sort(values, 16)
        merged, _ = merge(values, 16)
        for sequence in merged.reshape(-1, 16):
            signs = np.sign(np.diff(sequence))
            changes = np.count_nonzero(np.diff(signs[signs != 0]))
            assert changes <= 1

    def test_length_validation(self):
        with pytest.raises(InvalidParameterError):
            merge(np.arange(12, dtype=np.float32), 8)

    def test_payload_tracks_survivors(self, rng):
        values = rng.random(16).astype(np.float32)
        payload = np.arange(16)
        local_sort(values, 4, payload)
        merged, merged_payload = merge(values, 4, payload)
        assert np.array_equal(values[np.sort(merged_payload)],
                              values[np.isin(np.arange(16), merged_payload)])


class TestRebuild:
    def test_restores_alternating_runs(self, rng):
        values = rng.random(64).astype(np.float32)
        local_sort(values, 8)
        merged, _ = merge(values, 8)
        rebuild(merged, 8)
        assert "unsorted" not in _run_directions(merged, 8)


class TestReduceTopK:
    @given(
        n_exp=st.integers(min_value=1, max_value=12),
        k_exp=st.integers(min_value=0, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_sort_oracle(self, n_exp, k_exp, seed):
        n = 1 << n_exp
        k = 1 << min(k_exp, n_exp)
        values = np.random.default_rng(seed).random(n).astype(np.float32)
        result, _ = reduce_topk(values.copy(), k)
        assert np.array_equal(result, np.sort(values)[::-1][:k])

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        low=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_handles_heavy_duplicates(self, seed, low):
        values = (
            np.random.default_rng(seed).integers(low, low + 3, 256).astype(np.float32)
        )
        result, _ = reduce_topk(values.copy(), 16)
        assert np.array_equal(result, np.sort(values)[::-1][:16])

    def test_payload_indices_point_to_topk_rows(self, rng):
        values = rng.random(512).astype(np.float32)
        payload = np.arange(512, dtype=np.int64)
        result, result_payload = reduce_topk(values.copy(), 32, payload.copy())
        assert np.array_equal(values[result_payload], result)

    def test_k_equals_n_returns_descending_sort(self, rng):
        values = rng.random(64).astype(np.float32)
        result, _ = reduce_topk(values.copy(), 64)
        assert np.array_equal(result, np.sort(values)[::-1])

    def test_k_one_is_the_maximum(self, rng):
        values = rng.random(256).astype(np.float32)
        result, _ = reduce_topk(values.copy(), 1)
        assert result[0] == values.max()

    def test_non_power_of_two_n_rejected(self):
        with pytest.raises(InvalidParameterError):
            reduce_topk(np.arange(100, dtype=np.float32), 4)

    def test_k_above_n_rejected(self):
        with pytest.raises(InvalidParameterError):
            reduce_topk(np.arange(8, dtype=np.float32), 16)


def _network_topk(values, k, payload):
    """``reduce_topk`` stepped entirely through the public network operators."""
    if k < values.shape[-1]:
        local_sort(values, k, payload)
        while values.shape[-1] > k:
            values, payload = merge(values, k, payload)
            if values.shape[-1] > k:
                rebuild(values, k, payload)
    order = np.argsort(values, axis=-1, kind="stable")[..., ::-1]
    return (
        np.take_along_axis(values, order, axis=-1),
        np.take_along_axis(payload, order, axis=-1),
    )


_DTYPES = (np.float32, np.float64, np.int32, np.int64, np.uint32, np.uint64)


def _special_values(dtype) -> list:
    if np.dtype(dtype).kind == "f":
        return [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]
    info = np.iinfo(dtype)
    return [info.min, info.min + 1, 0, 1, info.max - 1, info.max]


def _differential_input(rng, dtype, shape, mode):
    size = int(np.prod(shape))
    if mode == "special":
        return rng.choice(np.array(_special_values(dtype), dtype=dtype), shape)
    if mode == "duplicates":
        return rng.integers(0, 4, shape).astype(dtype)
    # Distinct keys: a permutation fits every dtype without collisions.
    data = rng.permutation(size).reshape(shape).astype(dtype)
    if mode == "few-duplicates":
        # Only the runs holding these slots tie; the rest stay distinct.
        flat = data.reshape(-1)
        flat[rng.integers(0, size, 3)] = flat[0]
    elif mode == "nan" and np.dtype(dtype).kind == "f":
        # NaN in otherwise tie-free runs: no tie to detect, yet the
        # network's output is no longer the sorted run.
        data.reshape(-1)[rng.integers(0, size, 2)] = np.nan
    elif mode == "padded":
        low = -np.inf if np.dtype(dtype).kind == "f" else np.iinfo(dtype).min
        data[..., shape[-1] // 2 + 1 :] = low
    return data


class TestSortedRunShortcut:
    """reduce_topk sorts tie-free run pairs with numpy; its values and
    payload must stay bit-identical to the pure compare-exchange network."""

    @given(
        dtype=st.sampled_from(_DTYPES),
        mode=st.sampled_from(
            ["distinct", "duplicates", "few-duplicates", "padded", "special", "nan"]
        ),
        n_exp=st.integers(min_value=1, max_value=9),
        k_frac=st.integers(min_value=0, max_value=9),
        batch=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_network_bit_for_bit(
        self, dtype, mode, n_exp, k_frac, batch, seed
    ):
        n = 1 << n_exp
        k = 1 << min(k_frac, n_exp)
        rng = np.random.default_rng(seed)
        values = _differential_input(rng, dtype, (batch, n), mode)
        payload = np.broadcast_to(np.arange(n, dtype=np.int32), (batch, n)).copy()
        got = reduce_topk(values.copy(), k, payload.copy())
        want = _network_topk(values.copy(), k, payload.copy())
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("k", [2, 16, 64])
    def test_signed_zeros_tie(self, k):
        # -0.0 == 0.0, so a pair holding both must take the network.
        rng = np.random.default_rng(k)
        values = rng.permutation(1024).astype(np.float64)
        values[rng.integers(0, 1024, 64)] = rng.choice([0.0, -0.0], 64)
        payload = np.arange(1024, dtype=np.int64)
        got = reduce_topk(values.copy(), k, payload.copy())
        want = _network_topk(values.copy(), k, payload.copy())
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("k", [2, 8, 32])
    def test_nan_anywhere_runs_the_full_network(self, k):
        values = np.random.default_rng(k).random(512).astype(np.float32)
        values[[7, 100, 333]] = np.nan
        payload = np.arange(512, dtype=np.int32)
        got = reduce_topk(values.copy(), k, payload.copy())
        want = _network_topk(values.copy(), k, payload.copy())
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    def test_without_payload(self, rng):
        values = rng.random(2048).astype(np.float32)
        values[::50] = 0.5
        got, none = reduce_topk(values.copy(), 32)
        want, _ = _network_topk(
            values.copy(), 32, np.arange(2048, dtype=np.int32)
        )
        assert none is None
        assert got.tobytes() == want.tobytes()

    def test_non_contiguous_input_rejected(self):
        values = np.arange(64, dtype=np.float32)[::2]
        with pytest.raises(InvalidParameterError, match="contiguous"):
            reduce_topk(values, 4)


def _pruned_input(rng, dtype, n, k, mode):
    """One row whose k-th largest key sits in at most an eighth of its run
    pairs, above a tie-heavy background of holes."""
    kind = np.dtype(dtype).kind
    row = rng.integers(0, 50, n).astype(dtype)
    pairs = n // (2 * k)
    live = rng.choice(pairs, max(1, pairs // 8), replace=False)
    slots = rng.choice(
        (live[:, None] * 2 * k + np.arange(2 * k)).reshape(-1), k + 3, replace=False
    )
    # Each row draws its own top keys, so the rows' thresholds differ.
    top = int(rng.integers(1000, 1 << 20))
    if mode == "distinct":
        planted = top + rng.permutation(4 * k)[:k]
    elif mode == "tied":
        planted = top + rng.integers(0, 3, k)
    elif mode == "boundary":
        # More than k keys equal the threshold: a tie across it.
        planted = np.concatenate([top + 1 + rng.permutation(k)[: k - 1], [top] * 4])
    elif mode == "zeros" and kind == "f":
        row -= 100
        planted = rng.choice(np.array([0.0, -0.0, 1.0]), k)
    elif mode == "inf" and kind == "f":
        row[rng.integers(0, n, n // 16)] = -np.inf
        planted = rng.choice(np.array([np.inf, float(top)]), k)
    elif mode == "minimum":
        # Fewer than k keys above the dtype minimum: the threshold is the
        # padding sentinel itself, so the call must stay dense.
        low = -np.inf if kind == "f" else np.iinfo(dtype).min
        row[:] = low
        planted = top + rng.permutation(k)[: k // 2]
    else:
        planted = top + rng.permutation(4 * k)[:k]
    row[slots[: len(planted)]] = np.asarray(planted).astype(dtype)
    return row


class TestThresholdPruning:
    """reduce_topk clamps keys below each row's k-th largest and skips the
    run pairs holding only those; values and payload stay bit-identical to
    the pure compare-exchange network."""

    @given(
        dtype=st.sampled_from(_DTYPES),
        mode=st.sampled_from(
            ["distinct", "tied", "boundary", "zeros", "inf", "minimum"]
        ),
        n_exp=st.integers(min_value=12, max_value=14),
        k_exp=st.integers(min_value=1, max_value=6),
        batch=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_network_bit_for_bit(
        self, dtype, mode, n_exp, k_exp, batch, seed
    ):
        n, k = 1 << n_exp, 1 << k_exp
        rows = batch * max(1, _PRUNE_MIN_SIZE // n)
        rng = np.random.default_rng(seed)
        # In "minimum" mode only the first row's threshold is the sentinel;
        # the other rows alone would take the pruned path.
        modes = [mode] + [mode if mode != "minimum" else "distinct"] * (rows - 1)
        values = np.stack([_pruned_input(rng, dtype, n, k, m) for m in modes])
        payload = np.broadcast_to(np.arange(n, dtype=np.int32), values.shape).copy()
        with obs.observe() as observation:
            got = reduce_topk(values.copy(), k, payload.copy())
        want = _network_topk(values.copy(), k, payload.copy())
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        pruned = observation.metrics.value("bitonic.run_pairs", path="pruned")
        if mode == "minimum":
            assert pruned == 0
        else:
            assert pruned > 0

    def test_nan_keeps_the_call_dense(self):
        values = np.random.default_rng(3).random(1 << 14).astype(np.float32)
        values[123] = np.nan
        payload = np.arange(1 << 14, dtype=np.int32)
        with obs.observe() as observation:
            got = reduce_topk(values.copy(), 32, payload.copy())
        want = _network_topk(values.copy(), 32, payload.copy())
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert observation.metrics.value("bitonic.run_pairs", path="pruned") == 0

    def test_non_contiguous_input_rejected_before_work(self):
        values = np.arange(1 << 16, dtype=np.float32)[::2]
        before = values.copy()
        with pytest.raises(InvalidParameterError, match="contiguous"):
            reduce_topk(values, 4)
        assert values.tobytes() == before.tobytes()
