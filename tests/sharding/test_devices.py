"""Device groups on the scatter-gather executor: heterogeneous splits,
scaling at model scale, gather retries, cascading device loss, and
kernel accounting under an active tracer."""

import numpy as np
import pytest

from repro import observability as obs
from repro.algorithms.base import reference_topk
from repro.costmodel.bitonic_model import BitonicModel
from repro.errors import InvalidParameterError, TransferError
from repro.gpu import faults
from repro.gpu.device import get_device
from repro.gpu.timing import BACKOFF_KERNEL
from repro.sharding import ShardedTopK, partition_ranges

N_MODEL = 1 << 29

TITAN = get_device("titan-x-maxwell")
VOLTA = get_device("v100")


def shard_spans(devices, data, k, model_n=None):
    """Run a device group under a tracer; return the result and its
    shard spans, in shard order."""
    observation = obs.Observation(obs.Tracer(), obs.MetricsRegistry())
    with observation.activate():
        result = ShardedTopK(devices=devices).run(data, k, model_n=model_n)
    return result, observation.tracer.spans("shard")


class TestDeviceGroups:
    def test_empty_device_list_rejected(self):
        with pytest.raises(InvalidParameterError):
            ShardedTopK(devices=[])

    def test_shards_and_devices_together_rejected(self):
        with pytest.raises(InvalidParameterError, match="not both"):
            ShardedTopK(shards=2, devices=[TITAN, TITAN])

    @pytest.mark.parametrize(
        "devices",
        [[TITAN], [TITAN, TITAN], [TITAN] * 4, [TITAN, VOLTA]],
        ids=["1", "2", "4", "mixed"],
    )
    def test_device_group_matches_reference(self, devices, rng):
        data = rng.random(30000).astype(np.float32)
        result = ShardedTopK(devices=devices).run(data, 64)
        values, indices = reference_topk(data, 64)
        np.testing.assert_array_equal(result.values, values)
        np.testing.assert_array_equal(result.indices, indices)

    def test_winners_in_one_slice(self, rng):
        data = rng.random(10000).astype(np.float32)
        data[:30] += 10.0
        result = ShardedTopK(devices=[TITAN, VOLTA]).run(data, 30)
        assert (result.indices < 30).all()

    def test_homogeneous_group_is_the_balanced_split(self, rng):
        data = rng.random(4099).astype(np.float32)
        group, spans = shard_spans([TITAN, TITAN, TITAN], data, 32)
        rows = [span.attributes["rows"] for span in spans]
        plain = ShardedTopK(TITAN, shards=3).run(data, 32)
        assert rows == [stop - start for start, stop in partition_ranges(4099, 3)]
        np.testing.assert_array_equal(group.values, plain.values)
        np.testing.assert_array_equal(group.indices, plain.indices)
        assert [kernel.name for kernel in group.trace.kernels] == [
            kernel.name for kernel in plain.trace.kernels
        ]
        assert group.trace.notes == plain.trace.notes
        assert group.simulated_ms() == plain.simulated_ms()


class TestScaling:
    def test_two_shards_nearly_halve_the_time(self, rng):
        data = rng.random(1 << 16).astype(np.float32)
        single = ShardedTopK(shards=1).run(data, 64, model_n=N_MODEL)
        double = ShardedTopK(shards=2).run(data, 64, model_n=N_MODEL)
        speedup = single.simulated_ms() / double.simulated_ms()
        assert 1.7 < speedup <= 2.05

    def test_heterogeneous_split_favors_the_faster_card(self, rng):
        data = rng.random(1 << 16).astype(np.float32)
        _, spans = shard_spans([TITAN, VOLTA], data, 64, model_n=N_MODEL)
        rows = [span.attributes["rows"] for span in spans]
        assert rows[1] > rows[0]
        # At k = 64 every shard runs bitonic top-k, the kernel whose cost
        # model prices the split, so predicted finish times (share of
        # the modeled input times the device's per-element cost)
        # equalize ...
        finish = [
            share / sum(rows)
            * BitonicModel(device).predict_seconds(N_MODEL, 64, np.float32)
            for share, device in zip(rows, [TITAN, VOLTA])
        ]
        assert finish[0] == pytest.approx(finish[1], rel=0.01)
        # ... and so do the shards' simulated finish times, up to the
        # per-device gap between peak and achievable bandwidth that the
        # model leaves out.
        simulated = [span.attributes["simulated_ms"] for span in spans]
        assert simulated[0] == pytest.approx(simulated[1], rel=0.02)

    def test_adding_a_slow_card_still_helps(self, rng):
        """Throughput-proportional splitting means a slower card takes a
        small slice instead of stalling the fast one."""
        data = rng.random(1 << 16).astype(np.float32)
        volta_only = ShardedTopK(devices=[VOLTA]).run(
            data, 64, model_n=N_MODEL
        )
        mixed = ShardedTopK(devices=[VOLTA, TITAN]).run(
            data, 64, model_n=N_MODEL
        )
        assert mixed.simulated_ms() < volta_only.simulated_ms()


def transfer_faults(max_injections):
    return faults.FaultInjector(
        seed=0,
        plans=[
            faults.FaultPlan(
                site="pcie-transfer",
                fault="transfer-error",
                probability=1.0,
                max_injections=max_injections,
            )
        ],
    )


class TestGatherRetry:
    def test_gather_transfer_fault_retried(self, rng):
        data = rng.standard_normal(8192).astype(np.float32)
        clean = ShardedTopK().run(data, 32)
        metrics = obs.MetricsRegistry()
        with obs.Observation(obs.Tracer(), metrics).activate():
            with faults.inject(transfer_faults(2)):
                result = ShardedTopK().run(data, 32)
        np.testing.assert_array_equal(result.values, clean.values)
        np.testing.assert_array_equal(result.indices, clean.indices)
        backoff = [
            kernel for kernel in result.trace.kernels
            if kernel.name == BACKOFF_KERNEL
        ]
        assert [kernel.fixed_seconds for kernel in backoff] == [3e-3]
        assert result.simulated_ms() == pytest.approx(clean.simulated_ms() + 3.0)
        assert metrics.value(
            "resilience.retries", algorithm="sharded", fault="TransferError"
        ) == 2.0

    def test_persistent_gather_fault_surfaces_typed(self, rng):
        data = rng.standard_normal(8192).astype(np.float32)
        with faults.inject(transfer_faults(None)):
            with pytest.raises(TransferError):
                ShardedTopK().run(data, 32)


class TestDeviceLoss:
    def test_cascading_loss_survives_with_one_survivor(self, rng):
        data = rng.standard_normal(8192).astype(np.float32)
        injector = faults.FaultInjector(
            seed=0,
            plans=[
                faults.FaultPlan(
                    site="device-launch",
                    fault="device-lost",
                    probability=1.0,
                    max_injections=3,
                )
            ],
        )
        with faults.inject(injector):
            result = ShardedTopK(devices=[TITAN] * 4).run(data, 32)
        values, indices = reference_topk(data, 32)
        np.testing.assert_array_equal(result.values, values)
        np.testing.assert_array_equal(result.indices, indices)
        assert result.trace.notes["sharding.shards_lost"] == 3.0

    def test_determinism_identical_seeds(self, rng):
        data = rng.standard_normal(8192).astype(np.float32)

        def run_once():
            injector = faults.FaultInjector(
                seed=5,
                plans=[
                    faults.FaultPlan(
                        site="device-launch",
                        fault="device-lost",
                        probability=0.5,
                        max_injections=1,
                    )
                ],
            )
            with faults.inject(injector):
                result = ShardedTopK(devices=[TITAN, VOLTA]).run(data, 32)
            return (
                result.simulated_ms(),
                injector.schedule(),
                result.trace.notes["sharding.shards_lost"],
            )

        assert run_once() == run_once()


class TestAccounting:
    def test_kernels_accounted_once(self, rng):
        data = rng.random(1 << 13).astype(np.float32)
        observation = obs.Observation(obs.Tracer(), obs.MetricsRegistry())
        with observation.activate():
            result = ShardedTopK(devices=[TITAN, VOLTA]).run(data, 32)
        assert observation.tracer.total_sim_ms("kernel") == pytest.approx(
            result.simulated_ms(), rel=1e-9
        )
