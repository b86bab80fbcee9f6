"""Device loss on a multi-GPU group: redistribution onto the survivors,
its simulated cost, and the typed error when no device survives."""

import numpy as np
import pytest

from repro.algorithms.base import reference_topk
from repro.errors import DeviceLostError
from repro.gpu.device import get_device
from repro.gpu.faults import FaultInjector, FaultPlan, inject
from repro.sharding import ShardedTopK
from repro.sharding.executor import REDISTRIBUTE_KERNEL


def two_gpus():
    return ShardedTopK(devices=[get_device(), get_device()])


def first_launch_lost():
    return FaultInjector(
        seed=0,
        plans=[FaultPlan(site="device-launch", fault="device-lost", nth=1)],
    )


@pytest.fixture
def data(rng):
    return rng.standard_normal(8192).astype(np.float32)


@pytest.fixture
def expected(data):
    return reference_topk(data, 32)


def test_no_injector_unchanged(data, expected):
    result = two_gpus().run(data, 32)
    np.testing.assert_array_equal(result.values, expected[0])
    np.testing.assert_array_equal(result.indices, expected[1])
    assert result.trace.notes["sharding.shards_lost"] == 0.0
    names = [kernel.name for kernel in result.trace.kernels]
    assert REDISTRIBUTE_KERNEL not in names


def test_one_lost_device_redistributes_exactly(data, expected):
    with inject(first_launch_lost()):
        result = two_gpus().run(data, 32)
    np.testing.assert_array_equal(result.values, expected[0])
    np.testing.assert_array_equal(result.indices, expected[1])
    assert result.trace.notes["sharding.shards_lost"] == 1.0
    assert result.trace.notes["sharding.redistributed"] >= 1.0


def test_loss_costs_simulated_time(data):
    baseline = two_gpus().run(data, 32).simulated_ms()
    with inject(first_launch_lost()):
        degraded = two_gpus().run(data, 32)
    assert degraded.simulated_ms() > baseline
    names = [kernel.name for kernel in degraded.trace.kernels]
    assert REDISTRIBUTE_KERNEL in names


def test_all_devices_lost_raises_typed_error(data):
    injector = FaultInjector(
        seed=0,
        plans=[
            FaultPlan(
                site="device-launch",
                fault="device-lost",
                probability=1.0,
                max_injections=None,
            )
        ],
    )
    with pytest.raises(DeviceLostError):
        with inject(injector):
            two_gpus().run(data, 32)
