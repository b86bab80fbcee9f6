"""Multi-GPU data parallelism on the scatter-gather executor: the trace
records one shard per device and each device's share of the rows."""

import numpy as np
import pytest

from repro import observability as obs
from repro.gpu.device import get_device
from repro.sharding import ShardedTopK

N_MODEL = 1 << 29


class TestScaling:
    def test_trace_records_shares(self, rng):
        observation = obs.Observation(obs.Tracer(), obs.MetricsRegistry())
        with observation.activate():
            result = ShardedTopK(devices=[get_device(), get_device()]).run(
                rng.random(4096).astype(np.float32), 8, model_n=N_MODEL
            )
        rows = [
            span.attributes["rows"]
            for span in observation.tracer.spans("shard")
        ]
        assert result.trace.notes["sharding.shards"] == 2.0
        assert rows[0] / sum(rows) == pytest.approx(0.5)
