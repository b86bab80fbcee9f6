import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from wallbench.spans import SpanRecord, SpanRecorder, self_times, union_length


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        SpanRecord(1, None, "parent", 0.0, 10.0, 1),
        # Two children running concurrently on other threads overlap.
        SpanRecord(2, 1, "child", 1.0, 5.0, 2),
        SpanRecord(3, 1, "child", 3.0, 7.0, 3),
        SpanRecord(4, 2, "grandchild", 2.0, 3.0, 2),
    ]
    assert self_times(spans) == {1: 4.0, 2: 3.0, 3: 4.0, 4: 1.0}


def test_nesting_on_one_thread():
    recorder = SpanRecorder()
    inner = recorder.wrap("inner", lambda: 1)
    outer = recorder.wrap("outer", lambda: inner() + 1)
    assert outer() == 2
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    assert recorder.current() is None


def test_span_closes_when_the_call_raises():
    recorder = SpanRecorder()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        recorder.wrap("boom", boom)()
    assert [span.name for span in recorder.spans] == ["boom"]
    assert recorder.current() is None


def test_pool_work_is_adopted_by_the_submitting_span():
    recorder = SpanRecorder()
    work = recorder.wrap("shard", lambda x: x * 2)

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(recorder.adopt(work), i) for i in range(4)]
            return [future.result(timeout=10) for future in futures]

    assert recorder.wrap("run", fan_out)() == [0, 2, 4, 6]
    run = next(span for span in recorder.spans if span.name == "run")
    shards = [span for span in recorder.spans if span.name == "shard"]
    assert len(shards) == 4
    assert all(span.parent == run.id for span in shards)


def test_concurrent_recording_loses_no_span():
    recorder = SpanRecorder()
    leaf = recorder.wrap("leaf", lambda: None)
    outer = recorder.wrap("outer", lambda: [leaf() for _ in range(50)])
    threads = [threading.Thread(target=lambda: [outer() for _ in range(20)])
               for _ in range(8)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    spans = recorder.spans
    assert len(spans) == 8 * 20 * 51
    assert len({span.id for span in spans}) == len(spans)
    outers = {span.id: span.thread for span in spans if span.name == "outer"}
    for span in spans:
        if span.name == "leaf":
            assert outers[span.parent] == span.thread
