"""Which ghztp functions a traced run wraps, and the per-layer metrics from its spans.

The layers are the package modules qsim, protocol, verify, cli, wire and
netharness. Every per-layer time is a mean over the calls or sessions the
run made, so that layer times add up to the operation time they cover.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict

from spans import Tracer, self_times

KERNELS = ("measure_bell", "measure_in_basis", "apply_single", "partial_trace")

# metric -> (unit, the workload it is measured on). A traced run takes each
# metric from that workload only, so that it means the same on every run; the
# trace.* metrics (no owner) describe the traced workload itself.
PER_LAYER = {
    **{f"qsim.{k}.us_per_call": ("us", "session") for k in KERNELS},
    "qsim.calls_per_session": ("count", "session"),
    "protocol.run_protocol.us_per_call": ("us", "session"),
    "protocol.run_protocol.self_us": ("us", "session"),
    "verify.enumerate_branches.ms_per_call": ("ms", "sweep"),
    "verify.security_sweep.ms_per_call": ("ms", "sweep"),
    "verify.security_sweep.self_ms": ("ms", "sweep"),
    "cli.stats.ms_per_call": ("ms", "sweep"),
    "cli.stats.self_ms": ("ms", "sweep"),
    "cli.import_s": ("s", "orchestrate"),
    "wire.encode.us_per_call": ("us", "loopback"),
    "wire.decode.us_per_call": ("us", "loopback"),
    "wire.messages_per_session": ("count", "loopback"),
    "wire.bytes_per_session": ("bytes", "loopback"),
    "netharness.op_request.us_per_call": ("us", "loopback"),
    "netharness.bind_ms": ("ms", "loopback"),
    "netharness.parties_ms": ("ms", "loopback"),
    "netharness.shutdown_ms": ("ms", "loopback"),
    "netharness.orchestrate.reference_ms": ("ms", "orchestrate"),
    "netharness.orchestrate.children_ms": ("ms", "orchestrate"),
    "netharness.orchestrate.compare_ms": ("ms", "orchestrate"),
    "trace.ops_per_s": ("1/s", None),
    "trace.spans_per_op": ("count", None),
    "trace.overhead_pct": ("%", None),
}

WORKLOAD_ORDER = ("session", "sweep", "loopback", "orchestrate")


def owned_by(workload: str) -> set[str]:
    return {m for m, (_, owner) in PER_LAYER.items() if owner == workload}


def install(tracer) -> None:
    """Wrap each traced function wherever ghztp binds its name."""
    mod = {name: importlib.import_module(f"ghztp.{name}")
           for name in ("qsim", "protocol", "verify", "cli", "wire", "netharness")}
    package = importlib.import_module("ghztp")

    def binders(attr, names):
        return [mod[n] for n in names if hasattr(mod[n], attr)]

    for kernel in KERNELS:
        tracer.install(f"qsim.{kernel}", binders(kernel, ("qsim", "protocol", "verify",
                                                          "netharness")), kernel)
    tracer.install("protocol.run_protocol",
                   [mod["protocol"], mod["verify"], mod["cli"], mod["netharness"], package],
                   "run_protocol")
    for name in ("enumerate_branches", "security_sweep"):
        tracer.install(f"verify.{name}", [mod["verify"], mod["cli"]], name)
    tracer.install("cli.stats", [mod["cli"]], "cmd_stats")
    tracer.install("wire.encode", [mod["wire"]], "encode", size=len)
    tracer.install("wire.decode", [mod["wire"]], "decode")
    tracer.install("netharness.op_request", [mod["netharness"].Coordinator], "op_request")
    for name in ("orchestrate", "compare_transcript", "_spawn", "_terminate"):
        tracer.install(f"netharness.{name}", [mod["netharness"]], name)


def per_layer(spans, import_times: list[float]) -> dict:
    """The per-layer metrics these spans (and import timings) define."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    selfs = self_times(spans)
    out: dict[str, tuple[float, str]] = {}

    def put(metric, value):
        if value is not None:
            out[metric] = (value, PER_LAYER[metric][0])

    def mean_ns(name, scale, self_time=False):
        group = by_name.get(name)
        if not group:
            return None
        total = sum(selfs[s.id] for s in group) if self_time else sum(s.end - s.start for s in group)
        return total / len(group) / scale

    for kernel in KERNELS:
        put(f"qsim.{kernel}.us_per_call", mean_ns(f"qsim.{kernel}", 1e3))
    sessions = {s.id for s in by_name.get("protocol.run_protocol", ())}
    if sessions:
        kernel_calls = sum(1 for s in spans if s.name.startswith("qsim.") and s.parent in sessions)
        put("qsim.calls_per_session", kernel_calls / len(sessions))
    put("protocol.run_protocol.us_per_call", mean_ns("protocol.run_protocol", 1e3))
    put("protocol.run_protocol.self_us", mean_ns("protocol.run_protocol", 1e3, True))
    put("verify.enumerate_branches.ms_per_call", mean_ns("verify.enumerate_branches", 1e6))
    put("verify.security_sweep.ms_per_call", mean_ns("verify.security_sweep", 1e6))
    put("verify.security_sweep.self_ms", mean_ns("verify.security_sweep", 1e6, True))
    put("cli.stats.ms_per_call", mean_ns("cli.stats", 1e6))
    put("cli.stats.self_ms", mean_ns("cli.stats", 1e6, True))
    if import_times:
        put("cli.import_s", statistics.median(import_times))
    put("wire.encode.us_per_call", mean_ns("wire.encode", 1e3))
    put("wire.decode.us_per_call", mean_ns("wire.decode", 1e3))
    put("netharness.op_request.us_per_call", mean_ns("netharness.op_request", 1e3))
    binds = by_name.get("netharness.bind")
    if binds:
        encodes = by_name.get("wire.encode", ())
        put("wire.messages_per_session", len(encodes) / len(binds))
        put("wire.bytes_per_session", sum(s.size for s in encodes) / len(binds))
    put("netharness.bind_ms", mean_ns("netharness.bind", 1e6))
    put("netharness.parties_ms", mean_ns("netharness.parties", 1e6))
    put("netharness.shutdown_ms", mean_ns("netharness.shutdown", 1e6))

    runs = {s.id for s in by_name.get("netharness.orchestrate", ())}
    if runs:
        inside = defaultdict(lambda: defaultdict(list))
        for s in spans:
            if s.parent in runs:
                inside[s.parent][s.name].append(s)
        per_run = [inside[r] for r in runs]
        put("netharness.orchestrate.reference_ms", _mean_ms(
            [sum(s.end - s.start for s in r["protocol.run_protocol"]) for r in per_run]))
        put("netharness.orchestrate.children_ms", _mean_ms(
            [max(s.end for s in r["netharness._terminate"])
             - min(s.start for s in r["netharness._spawn"]) for r in per_run]))
        put("netharness.orchestrate.compare_ms", _mean_ms(
            [sum(s.end - s.start for s in r["netharness.compare_transcript"]) for r in per_run]))
    return out


def _mean_ms(values_ns: list[int]) -> float:
    return sum(values_ns) / len(values_ns) / 1e6


def trace_cost(wall: list[float], spans) -> dict:
    """The traced loop's throughput, its spans per operation, and their cost.

    The cost is the time one wrapper adds around a call, measured here on an
    empty function, times the spans per operation, as a share of the mean
    traced operation.
    """
    probe = Tracer()
    traced = probe.wrap("probe", _nothing)
    calls = 20000
    start = time.perf_counter_ns()
    for _ in range(calls):
        _nothing()
    bare = time.perf_counter_ns() - start
    start = time.perf_counter_ns()
    for _ in range(calls):
        traced()
    per_span_ns = max(time.perf_counter_ns() - start - bare, 0) / calls
    spans_per_op = len(spans) / len(wall)
    mean_op_ns = sum(wall) / len(wall) * 1e9
    return {
        "trace.ops_per_s": (len(wall) / sum(wall), "1/s"),
        "trace.spans_per_op": (spans_per_op, "count"),
        "trace.overhead_pct": (100.0 * spans_per_op * per_span_ns / mean_op_ns, "%"),
    }


def _nothing():
    return None
