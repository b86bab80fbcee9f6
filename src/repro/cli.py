"""Top-level command line: run top-k, the planner, EXPLAIN, or tracing.

Examples::

    python -m repro topk --n 1048576 --k 32
    python -m repro topk --n 1048576 --k 32 --algorithm radix-select \\
        --distribution bucket_killer --model-n 536870912
    python -m repro plan --n 536870912 --k 256 --dtype uint32
    python -m repro explain "SELECT id FROM tweets ORDER BY retweet_count \\
        DESC LIMIT 50" --rows 262144 --model-rows 250000000
    python -m repro explain --k 64 --window 262144 --chunk-rows 16384
    python -m repro trace --n 1048576 --k 32 --out trace.json
    python -m repro trace "SELECT id FROM tweets ORDER BY likes_count \\
        DESC LIMIT 50" --rows 262144
    python -m repro profile --n 1048576 --k 32
    python -m repro chaos --seed 0 --trials 50
    python -m repro serve-bench --queries 1000 --shapes 4 --n 512 --k 8
    python -m repro approx-bench --baseline benchmarks/baselines/BENCH_approx.json
    python -m repro shard-bench --baseline benchmarks/baselines/BENCH_sharding.json
    python -m repro slo-bench --baseline benchmarks/baselines/BENCH_slo.json
    python -m repro radix-bench --baseline benchmarks/baselines/BENCH_radix.json
    python -m repro stream-bench --baseline benchmarks/baselines/BENCH_streaming.json
    python -m repro calibrate --store calibration.json

Every command reports failures as one-line typed errors on stderr, with a
distinct exit code per :class:`~repro.errors.ReproError` subclass (see
``repro.errors.EXIT_CODES``).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from repro import observability as obs
from repro.algorithms.registry import list_algorithms
from repro.bench.common import add_report_arguments, finish_report
from repro.core.planner import TopKPlanner
from repro.core.topk import topk
from repro.costmodel.base import PROFILES, get_profile
from repro.data.distributions import generate, list_distributions
from repro.errors import InvalidParameterError, ReproError, exit_code
from repro.gpu.device import get_device, list_devices

_DTYPES = {
    "float32": np.float32,
    "float64": np.float64,
    "int32": np.int32,
    "int64": np.int64,
    "uint32": np.uint32,
    "uint64": np.uint64,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of the SIGMOD 2018 bitonic top-k paper.",
    )
    commands = parser.add_subparsers(dest="command")

    device = argparse.ArgumentParser(add_help=False)
    device.add_argument("--device", default="titan-x-maxwell", choices=list_devices())
    workload = argparse.ArgumentParser(add_help=False, parents=[device])
    workload.add_argument("--n", type=int, default=1 << 20, help="input size")
    workload.add_argument("--k", type=int, default=32)
    workload.add_argument(
        "--algorithm", default="auto", choices=["auto"] + list_algorithms()
    )
    workload.add_argument(
        "--distribution", default="uniform", choices=list_distributions()
    )
    workload.add_argument(
        "--model-n", type=int, default=None,
        help="input size the execution trace models (default: --n)",
    )
    workload.add_argument("--seed", type=int, default=0)

    def command(name, handler, help_text, parents=(device,)):
        sub = commands.add_parser(name, help=help_text, parents=list(parents))
        sub.set_defaults(handler=handler)
        return sub

    run = command(
        "topk", _command_topk, "run a top-k and report timings", (workload,)
    )
    run.add_argument(
        "--timeline", action="store_true", help="print the kernel timeline"
    )

    plan = command("plan", _command_plan, "rank algorithms by predicted cost")
    plan.add_argument("--n", type=int, default=1 << 29)
    plan.add_argument("--k", type=int, default=64)
    plan.add_argument("--dtype", default="float32", choices=sorted(_DTYPES))
    plan.add_argument("--profile", default="uniform-float", choices=sorted(PROFILES))

    explain = command(
        "explain",
        _command_explain,
        "cost out a SQL query on synthetic tweets, or (with "
        "--window/--decay) a continuous subscription over the stream",
        parents=(),
    )
    explain.add_argument(
        "sql", nargs="?", default=None,
        help="the query text (table must be 'tweets'); omitted for "
             "subscription EXPLAIN (--window/--decay)",
    )
    explain.add_argument("--rows", type=int, default=1 << 16,
                         help="functional table size")
    explain.add_argument("--model-rows", type=int, default=250_000_000)
    explain.add_argument("--seed", type=int, default=0)
    explain.add_argument(
        "--json", action="store_true",
        help="emit the plan (with each strategy's physical plan tree) "
             "as JSON instead of the rendered text",
    )
    explain.add_argument(
        "--shards", type=int, default=1,
        help="partition budget; above 1 the exact strategies plan a Merge "
             "over per-shard Scan→TopK subtrees",
    )
    explain.add_argument(
        "--window", type=int, default=None,
        help="subscription EXPLAIN: sliding window in rows (a multiple of "
             "--chunk-rows); prices incremental vs recompute maintenance",
    )
    explain.add_argument(
        "--decay", type=float, default=None,
        help="subscription EXPLAIN: per-tick exponential decay factor",
    )
    explain.add_argument(
        "--chunk-rows", type=int, default=1 << 14,
        help="subscription EXPLAIN: rows arriving per tick",
    )
    explain.add_argument(
        "--k", type=int, default=64,
        help="subscription EXPLAIN: result size",
    )

    for name, handler, help_text in [
        ("trace", _command_trace,
         "run a workload under tracing and export the trace"),
        ("profile", _command_profile,
         "run a workload and print its span tree + metrics"),
    ]:
        sub = command(name, handler, help_text, (workload,))
        sub.add_argument(
            "sql", nargs="?", default=None,
            help="optional SQL query (table must be 'tweets'); "
                 "when omitted a top-k workload is traced instead",
        )
        sub.add_argument("--rows", type=int, default=1 << 16,
                         help="functional table size (SQL mode)")
        sub.add_argument("--model-rows", type=int, default=None,
                         help="modeled table size (SQL mode)")
        if name == "trace":
            sub.add_argument(
                "--out", default="trace.json",
                help="output path for the exported trace",
            )
            sub.add_argument(
                "--format", dest="trace_format", default="chrome",
                choices=["chrome", "jsonl"],
                help="chrome://tracing JSON or JSON-lines",
            )

    chaos = command(
        "chaos",
        _command_chaos,
        "run the fault-injection chaos suite and report survival",
        parents=(),
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--trials", type=int, default=50)
    chaos.add_argument(
        "--json", action="store_true",
        help="emit the full report as JSON instead of the text summary",
    )

    serve = command(
        "serve-bench",
        _command_serve_bench,
        "replay a synthetic workload through the serving layer and "
        "compare against sequential execution",
    )
    serve.add_argument("--queries", type=int, default=1000)
    serve.add_argument("--shapes", type=int, default=4,
                       help="number of distinct (n, k) shapes in the stream")
    serve.add_argument("--n", type=int, default=512, help="row length")
    serve.add_argument("--k", type=int, default=8, help="base k (shape i uses k + i)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--max-batch", type=int, default=128,
                       help="largest number of queries fused into one launch")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the plan cache (replan every query)")
    serve.add_argument("--no-batch", action="store_true",
                       help="disable cross-query batching (serve per query)")
    add_report_arguments(serve, "BENCH_serving.json")

    approx = command(
        "approx-bench",
        _command_approx_bench,
        "sweep the bucketed approximate top-k against the exact "
        "bitonic plan: simulated speedup vs. measured recall",
    )
    approx.add_argument(
        "--n", type=int, action="append", dest="ns", default=None,
        help="modeled input size; repeatable (default: 2^20 and 2^24)",
    )
    approx.add_argument(
        "--k", type=int, action="append", dest="ks", default=None,
        help="result size; repeatable (default: 64 and 256)",
    )
    approx.add_argument(
        "--buckets", type=int, action="append", default=None,
        help="bucket count; repeatable; 0 means the planner default "
             "(default: 0, 16, 64)",
    )
    approx.add_argument(
        "--functional-cap", type=int, default=1 << 18,
        help="functional array size cap (the trace still models --n)",
    )
    approx.add_argument("--seed", type=int, default=0)
    add_report_arguments(approx, "BENCH_approx.json")

    shard = command(
        "shard-bench",
        _command_shard_bench,
        "scale one large top-k across simulated devices and check the "
        "partition-parallel scaling curve (exactness + monotonicity)",
    )
    shard.add_argument(
        "--n", type=int, default=None, dest="model_n",
        help="modeled input size (default: 2^26)",
    )
    shard.add_argument("--k", type=int, default=None, help="result size")
    shard.add_argument(
        "--shards", type=int, action="append", dest="shard_counts",
        default=None,
        help="shard count to measure; repeatable, strictly increasing "
             "(default: 1 2 4 8)",
    )
    shard.add_argument(
        "--functional-cap", type=int, default=None,
        help="functional array size cap (the trace still models --n)",
    )
    shard.add_argument("--seed", type=int, default=None)
    add_report_arguments(shard, "BENCH_sharding.json")

    slo = command(
        "slo-bench",
        _command_slo_bench,
        "sweep offered load past saturation and compare the SLO "
        "scheduler (EDF + degradation ladder) against the FIFO baseline",
    )
    slo.add_argument("--queries", type=int, default=120)
    slo.add_argument(
        "--rate", type=float, action="append", dest="rates", default=None,
        help="offered load in queries per simulated ms; repeatable "
             "(default: 8 16 28 40 60)",
    )
    slo.add_argument(
        "--process", default="poisson", choices=["poisson", "bursty"],
        help="open-loop arrival process",
    )
    slo.add_argument("--seed", type=int, default=0)
    add_report_arguments(slo, "BENCH_slo.json")

    radix = command(
        "radix-bench",
        _command_radix_bench,
        "sweep the RadiK-style radix kernel against the strawman and "
        "bitonic across (k, batch): large-k crossover + fused batching",
    )
    radix.add_argument(
        "--n", type=int, default=None, dest="model_n",
        help="modeled input size of the k sweep (default: 2^26)",
    )
    radix.add_argument(
        "--k", type=int, action="append", dest="ks", default=None,
        help="result size; repeatable, strictly increasing "
             "(default: 64 256 1024 2048)",
    )
    radix.add_argument(
        "--batch", type=int, action="append", dest="batch_sizes", default=None,
        help="batch size of the fused sweep; repeatable, strictly "
             "increasing (default: 1 2 4 8)",
    )
    radix.add_argument(
        "--batch-n", type=int, default=None,
        help="row length of the batch sweep (default: 2048)",
    )
    radix.add_argument(
        "--batch-k", type=int, default=None,
        help="result size of the batch sweep (default: 64)",
    )
    radix.add_argument(
        "--functional-cap", type=int, default=None,
        help="functional array size cap (the trace still models --n)",
    )
    radix.add_argument("--seed", type=int, default=None)
    add_report_arguments(radix, "BENCH_radix.json")

    stream = command(
        "stream-bench",
        _command_stream_bench,
        "drive the seeded tweet stream through incremental and "
        "recompute maintenance: per-tick bit-equality + the "
        "incremental speedup gate",
    )
    stream.add_argument("--k", type=int, default=None, help="result size")
    stream.add_argument(
        "--chunk-rows", type=int, default=None,
        help="functional rows per tick (the equality oracle's chunk size)",
    )
    stream.add_argument(
        "--model-chunk-rows", type=int, default=None,
        help="modeled rows per tick (the tick traces price this size)",
    )
    stream.add_argument(
        "--window-chunks", type=int, default=None,
        help="sliding window length in chunks",
    )
    stream.add_argument(
        "--ticks", type=int, default=None,
        help="stream length in ticks (must cover at least one window)",
    )
    stream.add_argument(
        "--decay", type=float, default=None,
        help="per-tick decay factor of the decayed arm",
    )
    stream.add_argument(
        "--shards", type=int, default=None,
        help="per-chunk summarize parallelism (contiguous shard ranges)",
    )
    stream.add_argument("--seed", type=int, default=None)
    add_report_arguments(stream, "BENCH_streaming.json")

    calibrate = command(
        "calibrate",
        _command_calibrate,
        "replay a seeded workload through every candidate kernel, fit "
        "per-kernel correction factors, and report planner Q-error "
        "before/after calibration",
    )
    calibrate.add_argument(
        "--n", type=int, action="append", dest="ns", default=None,
        help="input size of the replay grid; repeatable, strictly "
             "increasing (default: 16384 65536 262144)",
    )
    calibrate.add_argument(
        "--k", type=int, action="append", dest="ks", default=None,
        help="result size of the replay grid; repeatable, strictly "
             "increasing (default: 8 64 256 1024)",
    )
    calibrate.add_argument(
        "--profile", dest="profile_name", default=None,
        choices=sorted(PROFILES),
        help="workload profile of the replay (default: uniform-float)",
    )
    calibrate.add_argument("--seed", type=int, default=None)
    add_report_arguments(calibrate)
    calibrate.add_argument(
        "--store", default=None,
        help="persist the fitted calibration store to this JSON path",
    )
    calibrate.add_argument(
        "--load", default=None,
        help="seed the store from a previously persisted JSON file "
             "(the replay's samples append to it before the refit)",
    )
    return parser


def _run_topk(arguments, device):
    """Generate the flags' input and run the top-k on it."""
    data = generate(arguments.distribution, arguments.n, arguments.seed)
    return data, topk(
        data,
        arguments.k,
        algorithm=arguments.algorithm,
        device=device,
        model_n=arguments.model_n,
    )


def _command_topk(arguments) -> int:
    device = get_device(arguments.device)
    data, result = _run_topk(arguments, device)
    model_n = arguments.model_n or arguments.n
    print(f"algorithm   : {result.algorithm}")
    print(f"n / k       : {arguments.n} / {arguments.k} "
          f"({arguments.distribution}, {data.dtype})")
    print(f"model n     : {model_n}")
    print(f"simulated   : {result.simulated_ms(device):.3f} ms on {device.name}")
    print(f"top values  : {np.array2string(result.values[:8], precision=6)}")
    print(f"top rows    : {result.indices[:8].tolist()}")
    if arguments.timeline:
        print(result.simulated_time(device).render())
    return 0


def _command_plan(arguments) -> int:
    device = get_device(arguments.device)
    planner = TopKPlanner(device)
    choice = planner.choose(
        arguments.n,
        arguments.k,
        np.dtype(_DTYPES[arguments.dtype]),
        get_profile(arguments.profile),
    )
    print(f"configuration: n = {arguments.n}, k = {arguments.k}, "
          f"{arguments.dtype}, {arguments.profile}, {device.name}")
    print(f"choice       : {choice.algorithm} "
          f"({choice.predicted_ms:.2f} ms predicted)")
    for name, seconds in choice.candidates:
        print(f"  {name:>14}: {seconds * 1e3:9.2f} ms")
    return 0


def _command_explain(arguments) -> int:
    from repro.engine.session import Session

    session = Session(shards=arguments.shards)
    if arguments.window is not None or arguments.decay is not None:
        plan = session.explain_stream(
            arguments.k,
            arguments.chunk_rows,
            window=arguments.window,
            decay=arguments.decay,
        )
    else:
        if arguments.sql is None:
            raise InvalidParameterError(
                "explain needs a SQL query, or --window/--decay for a "
                "subscription"
            )
        from repro.engine.twitter import generate_tweets

        session.register(generate_tweets(arguments.rows, arguments.seed))
        plan = session.explain(arguments.sql, model_rows=arguments.model_rows)
    if arguments.json:
        import json

        print(json.dumps(plan.to_dict(), indent=2))
    else:
        print(plan.render())
    return 0


def _run_observed(arguments) -> tuple[obs.Observation, float]:
    """Run the requested workload under observation.

    Returns the populated observation and the workload's simulated
    milliseconds (the figure the kernel spans must sum to).
    """
    observation = obs.Observation(obs.Tracer(), obs.MetricsRegistry())
    device = get_device(arguments.device)
    if arguments.sql is not None:
        from repro.engine.session import Session
        from repro.engine.twitter import generate_tweets

        session = Session(device)
        session.observation = observation
        session.register(generate_tweets(arguments.rows, arguments.seed))
        result = session.sql(arguments.sql, model_rows=arguments.model_rows)
        simulated_ms = result.simulated_ms()
    else:
        with observation.activate():
            _, result = _run_topk(arguments, device)
        simulated_ms = result.simulated_ms(device)
    return observation, simulated_ms


def _command_trace(arguments) -> int:
    observation, simulated_ms = _run_observed(arguments)
    tracer, metrics = observation.tracer, observation.metrics
    if arguments.trace_format == "chrome":
        obs.write_chrome_trace(arguments.out, tracer, metrics)
    else:
        obs.write_jsonl(arguments.out, tracer, metrics)
    kernel_ms = tracer.total_sim_ms("kernel")
    print(f"spans       : {tracer.num_spans}")
    print(f"kernels     : {len(tracer.spans('kernel'))}")
    print(f"simulated   : {simulated_ms:.3f} ms "
          f"(kernel spans sum to {kernel_ms:.3f} ms)")
    print(f"trace       : {arguments.out} ({arguments.trace_format})")
    if abs(kernel_ms - simulated_ms) > 1e-6 * max(1.0, simulated_ms):
        print("WARNING: kernel span total disagrees with the simulated time")
        return 1
    return 0


def _command_profile(arguments) -> int:
    observation, simulated_ms = _run_observed(arguments)
    print(observation.tracer.render())
    print()
    print(observation.metrics.render())
    print()
    print(f"simulated total: {simulated_ms:.3f} ms")
    return 0


def _command_chaos(arguments) -> int:
    from repro.resilience.chaos import run_campaign

    if arguments.trials < 1:
        raise InvalidParameterError(
            f"--trials must be at least 1, got {arguments.trials}"
        )
    report = run_campaign(seed=arguments.seed, trials=arguments.trials)
    if arguments.json:
        import json

        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.survived else 1


def _workload(cls, arguments):
    """Build a bench workload from the flags the user set.

    Every dataclass field whose flag was given (not ``None``) overrides
    the field's default; repeatable flags arrive as lists and are frozen
    to tuples.
    """
    overrides = {}
    for field in dataclasses.fields(cls):
        value = getattr(arguments, field.name, None)
        if value is not None:
            overrides[field.name] = (
                tuple(value) if isinstance(value, list) else value
            )
    return cls(**overrides)


def _command_serve_bench(arguments) -> int:
    from repro.serving import Workload, check_baseline, run_serving_benchmark

    report = run_serving_benchmark(
        _workload(Workload, arguments),
        device=get_device(arguments.device),
        cache=not arguments.no_cache,
        batching=not arguments.no_batch,
        max_batch=arguments.max_batch,
    )
    return finish_report(report, arguments, report.gates(), check_baseline)


def _command_approx_bench(arguments) -> int:
    from repro.approx import (
        ApproxWorkload,
        check_baseline,
        run_approx_benchmark,
    )

    report = run_approx_benchmark(
        _workload(ApproxWorkload, arguments),
        device=get_device(arguments.device),
    )
    return finish_report(report, arguments, report.gates(), check_baseline)


def _command_shard_bench(arguments) -> int:
    from repro.sharding import (
        ShardWorkload,
        check_baseline,
        run_sharding_benchmark,
    )

    report = run_sharding_benchmark(
        _workload(ShardWorkload, arguments),
        device=get_device(arguments.device),
    )
    return finish_report(report, arguments, report.gates(), check_baseline)


def _command_slo_bench(arguments) -> int:
    from repro.slo import DEFAULT_RATES, check_baseline, run_slo_benchmark

    report = run_slo_benchmark(
        queries=arguments.queries,
        rates=tuple(arguments.rates) if arguments.rates else DEFAULT_RATES,
        process=arguments.process,
        seed=arguments.seed,
        device=get_device(arguments.device),
    )
    return finish_report(report, arguments, report.gates(), check_baseline)


def _command_radix_bench(arguments) -> int:
    from repro.bench.radix import (
        RadixWorkload,
        check_baseline,
        run_radix_benchmark,
    )

    report = run_radix_benchmark(
        _workload(RadixWorkload, arguments),
        device=get_device(arguments.device),
    )
    return finish_report(report, arguments, report.gates(), check_baseline)


def _command_stream_bench(arguments) -> int:
    from repro.streaming import (
        StreamWorkload,
        check_baseline,
        run_streaming_benchmark,
    )

    report = run_streaming_benchmark(
        _workload(StreamWorkload, arguments),
        device=get_device(arguments.device),
    )
    return finish_report(report, arguments, report.gates(), check_baseline)


def _command_calibrate(arguments) -> int:
    from repro.bench.calibrate import (
        CalibrationWorkload,
        run_calibration_benchmark,
    )
    from repro.costmodel.calibration import CalibrationStore

    store = (
        CalibrationStore.load(arguments.load)
        if arguments.load
        else CalibrationStore()
    )
    report = run_calibration_benchmark(
        _workload(CalibrationWorkload, arguments),
        device=get_device(arguments.device),
        store=store,
    )
    if arguments.store:
        store.save(arguments.store)
    return finish_report(report, arguments, report.gates())


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    arguments = parser.parse_args(argv)
    if arguments.command is None:
        parser.print_help()
        return 2
    try:
        return arguments.handler(arguments)
    except ReproError as error:
        # One-line typed diagnostics; each error class has its own exit
        # code so scripts can dispatch on the failure mode.
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return exit_code(error)


if __name__ == "__main__":
    raise SystemExit(main())
