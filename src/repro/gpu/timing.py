"""Timing model: hardware counters -> simulated seconds.

This implements the composition rule of the paper's Section 7 cost model.
For each kernel the GPU overlaps global traffic, shared traffic and compute
across its many warps, so the kernel's time is the *maximum* of the
per-resource times, not their sum:

    T_kernel = max(T_global, T_shared, T_compute) + T_atomics

* ``T_global``  = global bytes moved / (B_G * derating(occupancy))
* ``T_shared``  = conflict-weighted shared bytes / B_S
* ``T_compute`` = scalar ops / aggregate core throughput — only relevant for
  compute-bound kernels (none of the GPU top-k kernels are; the CPU bitonic
  variant is, which is modeled separately in :mod:`repro.cpu`)
* divergent warp iterations are charged as compute at one warp-instruction
  each (the per-thread heap algorithm's penalty)
* atomics serialize against memory and are charged additively (bucket
  select's penalty)

A trace's total time adds one kernel-launch overhead per kernel — the cost
that the paper's kernel-fusion optimization amortizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import KernelTimeoutError
from repro.gpu.counters import ExecutionTrace, KernelCounters
from repro.gpu.device import DeviceSpec
from repro.gpu.occupancy import bandwidth_derating
from repro.observability import active_metrics

#: Kernel name of retry-backoff accounting (the resilient executor and
#: PCIe transfer retries); exempt from the watchdog (it is idle time, not
#: a running kernel).
BACKOFF_KERNEL = "resilience-backoff"


def charge_transfer_retries(
    trace: ExecutionTrace, transfers: list[tuple[int, float]], algorithm: str
) -> None:
    """Charge PCIe transfer retries to ``trace``: one ``(retries,
    backoff_seconds)`` pair per transfer, as
    :func:`repro.gpu.faults.retry_transfer` returns them.

    The total backoff rides in one backoff kernel with a
    ``transfer_retries`` note and a ``resilience.retries`` count.
    Without retries nothing is charged, so fault-free traces are
    unchanged.
    """
    total = sum(retries for retries, _ in transfers)
    if not total:
        return
    backoff = sum(seconds for _, seconds in transfers)
    trace.kernels.append(KernelCounters(name=BACKOFF_KERNEL, fixed_seconds=backoff))
    trace.notes["transfer_retries"] = float(total)
    registry = active_metrics()
    if registry is not None:
        registry.counter(
            "resilience.retries", algorithm=algorithm, fault="TransferError"
        ).inc(total)


@dataclass(frozen=True)
class KernelTime:
    """Per-resource breakdown of one kernel's simulated time."""

    name: str
    global_time: float
    shared_time: float
    compute_time: float
    atomic_time: float
    launch_overhead: float
    fixed_time: float = 0.0

    @property
    def total(self) -> float:
        """The kernel's simulated wall time."""
        bound = max(self.global_time, self.shared_time, self.compute_time)
        return bound + self.atomic_time + self.launch_overhead + self.fixed_time

    @property
    def bound_by(self) -> str:
        """Which resource dominates this kernel ("global"/"shared"/"compute")."""
        times = {
            "global": self.global_time,
            "shared": self.shared_time,
            "compute": self.compute_time,
        }
        return max(times, key=times.get)


def kernel_time(counters: KernelCounters, device: DeviceSpec) -> KernelTime:
    """Simulated time of a single kernel launch on ``device``."""
    derating = bandwidth_derating(counters.occupancy)
    global_time = counters.global_bytes / (
        device.global_bandwidth * device.global_efficiency * derating
    )
    shared_time = counters.shared_bytes_weighted / (
        device.shared_bandwidth * device.shared_efficiency
    )
    # One warp-instruction per scalar op spread over all cores; divergent
    # iterations occupy a full warp each.
    ops = counters.compute_ops + counters.divergent_iterations * device.warp_size
    compute_time = ops / (device.total_cores * device.clock_hz)
    atomic_time = counters.atomic_ops * device.atomic_op_cost / device.num_sms
    launch = 0.0 if counters.fixed_seconds else device.kernel_launch_overhead
    timing = KernelTime(
        name=counters.name,
        global_time=global_time,
        shared_time=shared_time,
        compute_time=compute_time,
        atomic_time=atomic_time,
        launch_overhead=launch,
        fixed_time=counters.fixed_seconds,
    )
    if (
        device.watchdog_seconds is not None
        and counters.name != BACKOFF_KERNEL
        and timing.total > device.watchdog_seconds
    ):
        raise KernelTimeoutError(
            f"kernel {counters.name!r} would run {timing.total * 1e3:.3f} ms, "
            f"past the {device.watchdog_seconds * 1e3:.3f} ms watchdog limit "
            f"of {device.name}",
            site="timing-watchdog",
            detail=counters.name,
        )
    return timing


@dataclass(frozen=True)
class TraceTime:
    """Simulated time of a full algorithm invocation."""

    kernels: tuple[KernelTime, ...]

    @property
    def total(self) -> float:
        return sum(kernel.total for kernel in self.kernels)

    @property
    def total_ms(self) -> float:
        return self.total * 1e3

    def by_kernel(self) -> dict[str, float]:
        """Aggregate simulated time per kernel name."""
        times: dict[str, float] = {}
        for kernel in self.kernels:
            times[kernel.name] = times.get(kernel.name, 0.0) + kernel.total
        return times

    def render(self, width: int = 50) -> str:
        """ASCII timeline: one bar per kernel, scaled to the total.

        The tool a developer reaches for first when asking "where does the
        time go" — e.g. whether a kernel is global- or shared-bound, and
        which launch dominates.
        """
        total = self.total
        if total <= 0:
            return "(empty trace)"
        lines = [f"total {total * 1e3:.3f} ms"]
        for kernel in self.kernels:
            share = kernel.total / total
            bar = "#" * max(1, int(round(share * width)))
            lines.append(
                f"  {kernel.name:<24} {kernel.total * 1e3:9.3f} ms "
                f"[{kernel.bound_by:>7}] {bar}"
            )
        return "\n".join(lines)


def trace_time(trace: ExecutionTrace, device: DeviceSpec) -> TraceTime:
    """Simulated time of an execution trace (sum over kernel launches)."""
    timing = TraceTime(tuple(kernel_time(k, device) for k in trace.kernels))
    registry = active_metrics()
    if registry is not None:
        registry.counter("timing.trace_time_calls").inc()
        registry.histogram("timing.trace_total_ms", device=device.name).observe(
            timing.total_ms
        )
    return timing


def memory_bandwidth_bound(num_bytes: float, device: DeviceSpec) -> float:
    """The paper's lower bound: time to read the input once from global memory.

    Plotted as the "Memory Bandwidth" line in Figure 11.
    """
    return num_bytes / device.global_bandwidth
