"""Wall-clock benchmark of the top-k library, engine, server and streams.

Run from the root of a checkout::

    python3 perfbench/run.py --workload array-topk --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing recorded;
``--trace 1`` runs the same operations once untraced and once with a
span around every layer entry point, prints the per-layer breakdown and
writes the spans to ``.perfbench/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload in its own fresh
process, one after the other.

The program is imported from ``src/`` of the checkout; nothing is built.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

SETUP_REPEATS = 3


def host_fingerprint() -> dict:
    """CPU model, core count, interpreter and numpy versions, commit."""
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(ROOT),
    }


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` (None outside git)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        packed = root / ".git" / "packed-refs"
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    except OSError:
        return None
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(cls, seed: int, seconds: float):
    """Build the workload ``SETUP_REPEATS`` times; keep the last one and
    return it with the median set-up time."""
    times, workload = [], None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
            workload = None
        candidate = cls()
        start = time.perf_counter()
        candidate.setup(seed, seconds)
        times.append(time.perf_counter() - start)
        workload = candidate
    return workload, statistics.median(times)


def end_to_end(workload, ops, windows, checked) -> dict:
    """The end-to-end metrics of one untraced run.

    Throughput is the median over windows (a closed loop's cycles; the
    whole run for the open loop) of completed operations per second.
    """
    from wallbench.stats import percentile, tail_percentile

    latencies = [op.latency_ms for op in ops if op.error is None]
    in_time = sum(
        good and op.latency_ms <= workload.limits_ms[op.kind]
        for op, good in zip(ops, checked.good)
    )
    rates = [
        sum(op.error is None for op in ops[first:end]) / wall
        for first, end, wall in windows
    ]
    values = {
        "latency_p50_ms": percentile(latencies, 50.0),
        "latency_p90_ms": percentile(latencies, 90.0),
        "throughput_ops_s": statistics.median(rates),
        "slo_met_frac": in_time / max(1, checked.attempted),
        "peak_rss_mb": peak_rss_mb(),
    }
    tail = tail_percentile(len(latencies))
    if tail is not None and tail > 90.0:
        values[f"latency_p{tail:g}_ms"] = percentile(latencies, tail)
    return values


def run_untraced(workload, seconds: float):
    from wallbench.workloads import ServeOpen, check_all

    if isinstance(workload, ServeOpen):
        ops, windows = workload.run(workload.server)
    else:
        ops, windows = workload.run(seconds)
    checked = check_all(workload, ops)
    return ops, checked, end_to_end(workload, ops, windows, checked)


def run_traced(workload, seconds: float, recorder):
    """The same operations untraced, then traced; returns the traced
    phase's ops, both phases' checks and the per-layer metrics."""
    from wallbench.layers import OP, LayerPatches, layer_metrics
    from wallbench.workloads import ServeOpen, check_all

    extra: dict[str, float] = {}
    if isinstance(workload, ServeOpen):
        untraced, _ = workload.run(workload.server)
        workload.close()
        server = workload.start_server()
        before = server.stats()
        with LayerPatches(recorder):
            ops, [(_, _, wall)] = workload.run(server)
        after = server.stats()
        server.close()
        for op in ops:
            recorder.interval(OP, op.start, op.end)
            if op.sent is not None:
                recorder.interval("loadgen.late", op.start, op.sent)
                if op.output is not None:
                    waited = op.output.queue_wait_wall_ms / 1e3
                    recorder.interval("serving.queue_wait", op.sent, op.sent + waited)
        extra.update(serving_metrics(ops, before, after, wall, recorder))
        answered = [op.output for op in ops if op.output is not None]
        extra["gpu.sim_ms"] = sum(o.simulated_share_ms for o in answered)
        extra["gpu.launches"] = float(
            sum(after["batcher"][key] - before["batcher"][key]
                for key in ("batches", "single_queries", "fallback_queries"))
        )

        def mean_latency(phase):
            done = [op.latency_ms for op in phase if op.error is None]
            return sum(done) / max(1, len(done))

        extra["trace.overhead_frac"] = mean_latency(ops) / mean_latency(untraced) - 1
    else:
        untraced, plain = workload.run(seconds, cycles=workload.trace_cycles)
        with LayerPatches(recorder):
            ops, windows = workload.run(
                seconds, cycles=workload.trace_cycles, recorder=recorder
            )
        first, end, _ = windows[0]
        sim_ms, launches = 0.0, 0
        for op in ops[first:end]:
            if op.output is not None:
                ms, count = workload.simulated(op.output)
                sim_ms += ms
                launches += count
        extra["gpu.sim_ms"] = sim_ms
        extra["gpu.launches"] = float(launches)
        extra["trace.overhead_frac"] = (
            sum(wall for _, _, wall in windows) / sum(wall for _, _, wall in plain) - 1
        )
        extra.update(workload.extras(ops))
    metrics = layer_metrics(recorder.spans)
    metrics.update(extra)
    checked = check_all(workload, untraced + ops)
    return ops, checked, metrics


def serving_metrics(ops, before: dict, after: dict, wall: float, recorder) -> dict:
    from wallbench.spans import union_length
    from wallbench.stats import percentile

    outcomes = [op.output for op in ops if op.output is not None]
    waits = [o.queue_wait_wall_ms for o in outcomes]
    cache = {key: after["plan_cache"][key] - before["plan_cache"][key]
             for key in ("hits", "misses", "evictions")}
    batcher = {key: after["batcher"][key] - before["batcher"][key]
               for key in ("batches", "batched_queries")}
    busy = union_length(
        (span.start, span.end)
        for span in recorder.spans
        if span.name in ("serving.plan_cache", "serving.execute")
    )
    lateness = [(op.sent - op.start) * 1e3 for op in ops if op.sent is not None]
    sent = [op.sent for op in ops if op.sent is not None]
    return {
        "serving.queue_wait.p50_ms": percentile(waits, 50.0),
        "serving.queue_wait.p99_ms": percentile(waits, 99.0),
        "serving.busy_frac": busy / wall,
        "serving.plan_cache.hit_rate": cache["hits"]
        / max(1, cache["hits"] + cache["misses"]),
        "serving.plan_cache.evictions": float(cache["evictions"]),
        "serving.batch.mean_size": batcher["batched_queries"]
        / max(1, batcher["batches"]),
        "serving.batched_frac": batcher["batched_queries"] / max(1, len(outcomes)),
        "serving.fell_back": float(sum(o.fell_back for o in outcomes)),
        "loadgen.offered_qps": len(sent) / max(1e-9, sent[-1] - ops[0].start),
        "loadgen.late.p99_ms": percentile(lateness, 99.0),
    }


def declared(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of every metric BENCHMARK.json declares of a kind."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return [(metric["name"], metric["unit"]) for metric in spec[kind]]


def run_workload(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import repro.engine  # noqa: F401 — import time is part of set-up
    import repro.serving  # noqa: F401
    import repro.streaming  # noqa: F401

    import_s = time.perf_counter() - start

    from wallbench.spans import SpanRecorder
    from wallbench.stats import tail_percentile
    from wallbench.workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    workload, setup_s = set_up(cls, args.seed, args.seconds)
    try:
        if args.trace:
            recorder = SpanRecorder()
            ops, checked, values = run_traced(workload, args.seconds, recorder)
            kind = "per_layer"
        else:
            ops, checked, values = run_untraced(workload, args.seconds)
            values["setup_s"] = import_s + setup_s
            kind = "end_to_end"
    finally:
        workload.close()

    host = host_fingerprint()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host,
        "samples": {
            "attempted": checked.attempted,
            "completed": checked.attempted - checked.raised - checked.refused,
            "tail_percentile": tail_percentile(
                checked.attempted - checked.raised - checked.refused
            ),
        },
        "failed": {
            "raised": checked.raised,
            "refused": checked.refused,
            "wrong": checked.wrong,
            "tie_order_deviations": checked.tie_order,
            "failed_frac": checked.failed / max(1, checked.attempted),
        },
        "all_metrics": values,
    }
    if args.trace:
        out_dir = Path.cwd() / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        recorder.write(
            out_dir / f"trace-{args.workload}-seed{args.seed}.json",
            meta={key: report[key] for key in ("workload", "seed", "host")},
        )
    metrics = {}
    print(f"# {args.workload} seed={args.seed} host={json.dumps(host)}")
    print(f"# samples: {json.dumps(report['samples'])}")
    for name, unit in declared(kind):
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit}")
    for name in sorted(set(values) - set(metrics)):
        print(f"{name} = {values[name]:.6g} (reported, not gated)")
    print(
        f"failed_frac = {report['failed']['failed_frac']:.6g} "
        f"({checked.failed}/{checked.attempted}: {checked.raised} raised, "
        f"{checked.refused} refused, {checked.wrong} wrong); "
        f"tie_order_deviations = {checked.tie_order}"
    )
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": checked.failed == 0,
                "attempted": checked.attempted,
                "failed": checked.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; the combined result last."""
    from wallbench.workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(command, capture_output=True, text=True)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited {child.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    from wallbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
