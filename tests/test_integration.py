"""Cross-module integration tests.

These exercise the full stack — workload generators, all algorithms, the
planner, the engine, and the simulated timing pipeline — together on one
realistic scenario each, the way a downstream user would compose the
library.
"""

import numpy as np
import pytest

from repro import TopKPlanner, get_device, topk
from repro.algorithms.base import reference_topk
from repro.algorithms.registry import EVALUATED_ALGORITHMS, create
from repro.data.distributions import (
    bucket_killer,
    decreasing,
    increasing,
    uniform_floats,
    uniform_uints,
)
from repro.engine import Session, generate_tweets


def tied_rows(n, seed):
    """Two tied maxima; bitonic returns them higher index first."""
    return np.array([5, 9, 3, 9, 7, 1, 2, 0], dtype=np.float32)


class TestAllAlgorithmsAllDistributions:
    """Every algorithm must agree with the oracle on every distribution:
    values bit-equal to the oracle's, indices naming distinct rows that
    hold those values (which tied row is returned may differ)."""

    @pytest.mark.parametrize("name", EVALUATED_ALGORITHMS)
    @pytest.mark.parametrize(
        "generator",
        [uniform_floats, increasing, decreasing, bucket_killer, tied_rows],
    )
    def test_agreement(self, name, generator, device):
        data = generator(6000, seed=11)
        algorithm = create(name, device)
        for k in (1, 3, 13, 128):
            if k > len(data) or not algorithm.supports(len(data), k, data.dtype):
                continue
            result = algorithm.run(data, k)
            expected, _ = reference_topk(data, k)
            case = (name, generator.__name__, k)
            assert np.sort(result.values)[::-1].tobytes() == expected.tobytes(), case
            assert len(set(result.indices.tolist())) == k, case
            assert data[result.indices].tobytes() == result.values.tobytes(), case


class TestPlannerAgainstMeasurements:
    def test_planned_choice_is_near_optimal(self, device):
        """The planner's pick should be within 2x of the best measured
        algorithm — the property that makes the cost models useful."""
        data = uniform_floats(1 << 16, seed=5)
        planner = TopKPlanner(device)
        for k in (8, 64, 256):
            measured = {}
            for name in EVALUATED_ALGORITHMS:
                algorithm = create(name, device)
                if not algorithm.supports(1 << 29, k, data.dtype):
                    continue
                result = algorithm.run(data, k, model_n=1 << 29)
                measured[name] = result.simulated_time(device).total
            best = min(measured.values())
            chosen = planner.choose(1 << 29, k, data.dtype).algorithm
            assert measured[chosen] <= 2 * best


class TestDeviceProfiles:
    def test_faster_devices_run_faster(self):
        data = uniform_floats(1 << 14)
        times = {}
        for name in ("titan-x-maxwell", "v100"):
            device = get_device(name)
            result = topk(
                data, 64, algorithm="bitonic", device=device, model_n=1 << 29
            )
            times[name] = result.simulated_time(device).total
        assert times["v100"] < times["titan-x-maxwell"] / 2


class TestEndToEndQuery:
    def test_sql_results_stable_across_strategies(self, device):
        session = Session(device)
        session.register(generate_tweets(1 << 13, seed=2))
        sql = (
            "SELECT id FROM tweets WHERE lang = 'en' "
            "ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 20"
        )
        ranks = []
        table = session.table("tweets")
        rank = table.column("retweet_count") + 0.5 * table.column("likes_count")
        for strategy in ("sort", "topk", "fused"):
            result = session.sql(sql, strategy=strategy)
            ranks.append(np.sort(rank[result.column("id")])[::-1])
        assert np.allclose(ranks[0], ranks[1])
        assert np.allclose(ranks[0], ranks[2])


class TestUintPipeline:
    def test_uint_crossover_story(self, device):
        """Figure 11b end to end: radix select beats bitonic at k = 1024 on
        uniform uints, and both beat sort."""
        data = uniform_uints(1 << 16)
        bitonic = create("bitonic", device).run(data, 1024, model_n=1 << 29)
        radix = create("radix-select", device).run(data, 1024, model_n=1 << 29)
        sort = create("sort", device).run(data, 1024, model_n=1 << 29)
        radix_time = radix.simulated_time(device).total
        bitonic_time = bitonic.simulated_time(device).total
        sort_time = sort.simulated_time(device).total
        assert radix_time < bitonic_time < sort_time
