"""Tests for the vectorized bitonic operators, including properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitonic.network import Step
from repro.bitonic.operators import (
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
