"""End-to-end tests for the BitonicTopK algorithm."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observability as obs
from repro.algorithms.base import reference_topk
from repro.bitonic import operators
from repro.bitonic.optimizations import ABLATION_LADDER
from repro.bitonic.topk import BitonicTopK
from repro.core.batched import batched_topk
from repro.data.distributions import bucket_killer, increasing, uniform_floats
from repro.errors import InvalidParameterError


class TestCorrectness:
    @pytest.mark.parametrize("n", [5, 17, 100, 1000, 4096, 100000])
    @pytest.mark.parametrize("k", [1, 3, 32, 100])
    def test_matches_reference_on_uniform_floats(self, n, k, rng):
        if k > n:
            pytest.skip("k exceeds n")
        data = rng.random(n).astype(np.float32)
        result = BitonicTopK().run(data, k)
        expected, _ = reference_topk(data, k)
        assert np.array_equal(result.values, expected)
        assert np.array_equal(np.sort(data[result.indices])[::-1], expected)

    @pytest.mark.parametrize(
        "dtype", [np.float32, np.float64, np.int32, np.int64, np.uint32, np.uint64]
    )
    def test_all_dtypes(self, dtype, rng):
        if np.dtype(dtype).kind == "f":
            data = (rng.standard_normal(777) * 100).astype(dtype)
        else:
            info = np.iinfo(dtype)
            data = rng.integers(
                max(info.min, -(2**48)), min(info.max, 2**48), 777
            ).astype(dtype)
        result = BitonicTopK().run(data, 25)
        expected, _ = reference_topk(data, 25)
        assert np.array_equal(result.values, expected)

    def test_non_power_of_two_k(self, rng):
        data = rng.random(1000).astype(np.float32)
        result = BitonicTopK().run(data, 77)
        expected, _ = reference_topk(data, 77)
        assert np.array_equal(result.values, expected)

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n=st.integers(min_value=1, max_value=3000),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_arbitrary_sizes(self, seed, n):
        generator = np.random.default_rng(seed)
        k = int(generator.integers(1, n + 1))
        data = generator.random(n).astype(np.float32)
        result = BitonicTopK().run(data, min(k, 2048))
        expected, _ = reference_topk(data, min(k, 2048))
        assert np.array_equal(result.values, expected)


class TestSentinelHandling:
    def test_integer_minimum_values_in_data(self):
        """Padding sentinels equal the dtype minimum; real rows holding that
        value must still be reported with valid indices."""
        data = np.full(100, np.iinfo(np.int32).min, dtype=np.int32)
        data[:3] = [5, 7, 9]
        result = BitonicTopK().run(data, 10)
        assert result.values[0] == 9
        assert (result.indices >= 0).all()
        assert (result.indices < 100).all()
        assert len(np.unique(result.indices)) == 10

    def test_all_equal_input(self):
        data = np.zeros(50, dtype=np.float32)
        result = BitonicTopK().run(data, 8)
        assert np.array_equal(result.values, np.zeros(8, dtype=np.float32))
        assert len(np.unique(result.indices)) == 8


class TestRobustness:
    def test_trace_is_distribution_independent(self, device):
        """Section 6.4: bitonic performs precisely the same operations on
        every input distribution."""
        k = 64
        times = []
        for generator in (uniform_floats, increasing, bucket_killer):
            data = generator(1 << 14)
            result = BitonicTopK(device).run(data, k, model_n=1 << 29)
            times.append(result.simulated_time(device).total)
        assert times[0] == pytest.approx(times[1])
        assert times[0] == pytest.approx(times[2])


class TestLimits:
    def test_k_above_limit_rejected(self, rng):
        data = rng.random(10000).astype(np.float32)
        with pytest.raises(InvalidParameterError):
            BitonicTopK().run(data, 4096)

    def test_supports(self, device):
        algorithm = BitonicTopK(device)
        assert algorithm.supports(1 << 20, 2048, np.dtype(np.float32))
        assert not algorithm.supports(1 << 20, 4096, np.dtype(np.float32))

    def test_memory_overhead_is_n_over_b(self, device):
        algorithm = BitonicTopK(device)
        assert algorithm.memory_overhead(1 << 20, np.float32) == (1 << 20) // 16 * 4


class TestOptimizationConfigurations:
    @pytest.mark.parametrize("name,flags", ABLATION_LADDER)
    def test_every_ladder_rung_is_functionally_correct(self, name, flags, rng):
        data = rng.random(4096).astype(np.float32)
        result = BitonicTopK(flags=flags).run(data, 32)
        expected, _ = reference_topk(data, 32)
        assert np.array_equal(result.values, expected), name

    def test_trace_records_network_k(self, rng):
        data = rng.random(1024).astype(np.float32)
        result = BitonicTopK().run(data, 48)
        assert result.trace.notes["network_k"] == 64


class TestRunPairPaths:
    """The reduce span reports how many run pairs numpy sorted and how
    many stepped through the compare-exchange network."""

    def _observe(self, data, k=32):
        with obs.observe() as observation:
            BitonicTopK().run(data, k)
        (span,) = [
            s for s in observation.tracer.walk() if s.name == "phase:bitonic-reduce"
        ]
        metrics = observation.metrics
        counted = {
            path: metrics.value("bitonic.run_pairs", path=path)
            for path in ("sorted", "network")
        }
        return span.attributes, counted

    def test_tie_free_input_never_runs_the_network(self):
        data = np.random.default_rng(0).permutation(1 << 12).astype(np.float32)
        attributes, counted = self._observe(data)
        # 64 local-sort pairs, then 32 + 16 + ... + 1 rebuild pairs.
        assert attributes["run_pairs_sorted"] == 127
        assert attributes["run_pairs_network"] == 0
        assert counted == {"sorted": 127, "network": 0}

    def test_all_equal_input_never_sorts(self):
        attributes, counted = self._observe(np.full(1 << 12, 3.0, np.float32))
        assert attributes["run_pairs_sorted"] == 0
        assert attributes["run_pairs_network"] == 127
        assert counted == {"sorted": 0, "network": 127}


class TestThresholdPruningPaths:
    """Sorted, network and pruned run pairs always add up to the dense
    pipeline's pair count: n / k - 1 per row."""

    @staticmethod
    def _paths(observation, span_name):
        (span,) = [s for s in observation.tracer.walk() if s.name == span_name]
        counted = {
            path: observation.metrics.value("bitonic.run_pairs", path=path)
            for path in ("sorted", "network", "pruned")
        }
        attributes = {
            path: span.attributes[f"run_pairs_{path}"] for path in counted
        }
        assert attributes == counted
        return counted

    def test_small_inputs_stay_dense(self):
        data = np.random.default_rng(0).permutation(1 << 12).astype(np.float32)
        with obs.observe() as observation:
            BitonicTopK().run(data, 32)
        counted = self._paths(observation, "phase:bitonic-reduce")
        assert counted == {"sorted": 127, "network": 0, "pruned": 0}

    def test_pruned_pairs_complete_the_dense_count(self, monkeypatch):
        monkeypatch.setattr(operators, "_PRUNE_MIN_SIZE", 1)
        data = np.random.default_rng(0).permutation(1 << 12).astype(np.float32)
        with obs.observe() as observation:
            result = BitonicTopK().run(data, 32)
        counted = self._paths(observation, "phase:bitonic-reduce")
        assert counted["pruned"] > 0
        assert sum(counted.values()) == 127
        expected, _ = reference_topk(data, 32)
        assert np.array_equal(result.values, expected)

    def test_batched_span_reports_pruned_pairs(self):
        matrix = np.random.default_rng(1).random((4, 1 << 12)).astype(np.float32)
        with obs.observe() as observation:
            batched_topk(matrix, 32)
        counted = self._paths(observation, "batched-topk")
        assert counted["pruned"] > 0
        assert sum(counted.values()) == 4 * 127

    def test_all_live_input_stays_dense(self):
        with obs.observe() as observation:
            BitonicTopK().run(np.full(1 << 16, 3, np.int64), 64)
        counted = self._paths(observation, "phase:bitonic-reduce")
        assert counted == {"sorted": 0, "network": 1023, "pruned": 0}
