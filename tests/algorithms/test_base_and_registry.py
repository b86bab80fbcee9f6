"""Tests for the shared algorithm interface and the registry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import (
    TopKAlgorithm,
    reference_topk,
    validate_topk_args,
)
from repro.algorithms.registry import (
    EVALUATED_ALGORITHMS,
    create,
    list_algorithms,
    register,
)
from repro.algorithms.keys import descending_keys
from repro.errors import InvalidParameterError


class TestValidation:
    def test_two_dimensional_input_rejected(self):
        with pytest.raises(InvalidParameterError):
            validate_topk_args(np.zeros((2, 2), dtype=np.float32), 1)

    def test_non_positive_k_rejected(self):
        data = np.zeros(4, dtype=np.float32)
        with pytest.raises(InvalidParameterError):
            validate_topk_args(data, 0)
        with pytest.raises(InvalidParameterError):
            validate_topk_args(data, -1)

    def test_k_above_n_rejected(self):
        with pytest.raises(InvalidParameterError):
            validate_topk_args(np.zeros(4, dtype=np.float32), 5)

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(InvalidParameterError):
            validate_topk_args(np.zeros(4, dtype=np.int16), 1)


class TestReferenceTopK:
    def test_descending_values(self, rng):
        data = rng.random(100).astype(np.float32)
        values, indices = reference_topk(data, 10)
        assert np.array_equal(values, np.sort(data)[::-1][:10])
        assert np.array_equal(data[indices], values)

    def test_tie_break_prefers_lower_index(self):
        data = np.array([5.0, 7.0, 5.0, 7.0], dtype=np.float32)
        _, indices = reference_topk(data, 3)
        assert indices.tolist() == [1, 3, 0]

    def test_uint64_extremes(self):
        data = np.array([0, 2**64 - 1, 2**63], dtype=np.uint64)
        values, _ = reference_topk(data, 2)
        assert values.tolist() == [2**64 - 1, 2**63]

    @given(
        dtype=st.sampled_from(
            [np.float32, np.float64, np.int32, np.int64, np.uint32, np.uint64]
        ),
        mode=st.sampled_from(["special", "all-equal", "few-distinct", "wide"]),
        n=st.integers(min_value=1, max_value=64),
        k_seed=st.integers(min_value=0, max_value=2**31),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_a_stable_full_sort(self, dtype, mode, n, k_seed, seed):
        """The argpartition oracle equals the first k of a stable argsort
        of the descending keys, bit for bit, NaN, +-0.0 and the integer
        extremes included."""
        rng = np.random.default_rng(seed)
        if np.dtype(dtype).kind == "f":
            special = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]
        else:
            info = np.iinfo(dtype)
            special = [info.min, info.min + 1, 0, 1, info.max - 1, info.max]
        special = np.array(special, dtype=dtype)
        if mode == "special":
            data = rng.choice(special, n)
        elif mode == "all-equal":
            data = np.full(n, rng.choice(special), dtype=dtype)
        elif mode == "few-distinct":
            data = rng.choice(special[:2], n)
        else:
            data = rng.integers(0, 1000, n).astype(dtype)
        # k = 1, n - 1 and n come up often at these sizes.
        k = [1, max(1, n - 1), n, 1 + k_seed % n][k_seed % 4]
        order = np.argsort(descending_keys(data), kind="stable")[:k]
        values, indices = reference_topk(data, k)
        assert indices.dtype == order.dtype
        assert indices.tobytes() == order.tobytes()
        assert values.tobytes() == data[order].tobytes()


class TestRegistry:
    def test_all_evaluated_algorithms_instantiate(self, device):
        for name in EVALUATED_ALGORITHMS:
            algorithm = create(name, device)
            assert algorithm.name == name
            assert algorithm.device is device

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(InvalidParameterError, match="bitonic"):
            create("quantum-select")

    def test_list_contains_the_five_plus_register_variant(self):
        names = set(list_algorithms())
        assert set(EVALUATED_ALGORITHMS) <= names
        assert "per-thread-registers" in names

    def test_register_custom_algorithm(self, rng):
        class Oracle(TopKAlgorithm):
            name = "oracle"

            def run(self, data, k, model_n=None):
                from repro.gpu.counters import ExecutionTrace

                values, indices = reference_topk(data, k)
                return self._result(
                    values, indices, ExecutionTrace(), k, len(data), model_n
                )

        register("oracle", Oracle)
        data = rng.random(64).astype(np.float32)
        result = create("oracle").run(data, 4)
        assert result.algorithm == "oracle"
        assert len(result.values) == 4


class TestResultApi:
    def test_simulated_time_uses_default_device(self, rng):
        from repro.algorithms.radix_sort import SortTopK

        result = SortTopK().run(rng.random(128).astype(np.float32), 4)
        assert result.simulated_ms() > 0
        assert result.model_n == 128

    def test_model_n_recorded(self, rng):
        from repro.algorithms.radix_sort import SortTopK

        result = SortTopK().run(
            rng.random(128).astype(np.float32), 4, model_n=1 << 20
        )
        assert result.model_n == 1 << 20
        assert result.n == 128
