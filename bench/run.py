"""ghztp's benchmark: one closed-loop workload per run, checked and timed.

    python3 bench/run.py --workload session --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ghztp from its ``src``
directory; without one it exits with status 2. Workloads: session, sweep,
loopback, orchestrate (see README.md). With ``--trace 0`` the last line of
standard output is a JSON object holding the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. Everything the run
writes goes under ``bench/out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from spans import NullTracer, Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_PROBES = 15
IMPORT_PROBES = 5
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


def use_checkout_source() -> None:
    """Import ghztp from this checkout's src, here and in every child process."""
    if not (SRC / "ghztp" / "__init__.py").is_file():
        print(f"bench: no ghztp sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )


def tail(sorted_values: list[float]) -> float:
    """Highest of p99.9/p99/p90/p75 with ten samples beyond it, else the median."""
    n = len(sorted_values)
    for p in TAIL_PERCENTILES:
        k = math.ceil(p / 100.0 * n) - 1
        if n - 1 - k >= TAIL_MIN_BEYOND:
            return sorted_values[k]
    return statistics.median(sorted_values)


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed_children(argv: list[str], count: int) -> list[float]:
    """Wall seconds of ``count`` fresh interpreters running ``argv`` to exit."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


class SetupProbes:
    """Set-up time: fresh interpreters that import the workload's modules and build its inputs.

    The probes are spread evenly over the measured loop, between operations,
    so that their fastest does not hang on one moment of a host whose speed
    drifts over seconds. The first waits until a round has ended and reads
    the children's peak memory before it runs, so that orchestrate's peak
    covers its own children and not a probe.
    """

    def __init__(self, workload_name: str, seed: int, count: int, seconds: float):
        self.argv = [str(BENCH_DIR / "run.py"), "--setup-probe", "--workload", workload_name,
                     "--seed", str(seed)]
        self.count = count
        self.seconds = seconds
        self.times: list[float] = []
        self.children_peak_kb: int | None = None
        self.first_due: float | None = None

    def run_one(self) -> float:
        """Run one probe; the wall seconds it took."""
        if self.children_peak_kb is None:
            self.children_peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        (took,) = timed_children(self.argv, 1)
        self.times.append(took)
        return took

    def between_ops(self, measured: float) -> float:
        """Run the probe due at ``measured`` seconds of the loop, if any; its time."""
        if self.first_due is None:
            self.first_due = measured
        interval = max(self.seconds - self.first_due, 0.0) / self.count
        if len(self.times) < self.count and measured >= self.first_due + len(self.times) * interval:
            return self.run_one()
        return 0.0

    def finish(self) -> None:
        while len(self.times) < self.count:
            self.run_one()


def import_times(workload_name: str) -> list[float]:
    """Fresh interpreters up to ``import ghztp.cli``, as each orchestrate child pays."""
    if workload_name != "orchestrate":
        return []
    return timed_children(["-c", "import ghztp.cli"], IMPORT_PROBES)


class Loop:
    """Closed-loop measurement of one workload: per-operation wall and CPU time.

    ``attempted`` and ``failed`` count the measured operations; an operation
    fails when the program raises or reports failure. ``failed_ops`` holds
    the tracer's ids of those operations, whose spans the per-layer metrics
    leave out.
    """

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failed_ops: set[int] = set()
        self.problems: list[str] = []

    def op(self, inputs) -> None:
        workload = self.workload
        self.attempted += 1
        self.tracer.op += 1
        cpu0 = time.process_time() + children_cpu()
        start = time.perf_counter()
        try:
            output = workload.run(inputs, self.tracer)
        except Exception as exc:
            self.failed += 1
            self.failed_ops.add(self.tracer.op)
            print(f"bench: {workload.name} operation {self.attempted} failed: {exc!r}",
                  file=sys.stderr)
            return
        wall = time.perf_counter() - start
        cpu = time.process_time() + children_cpu() - cpu0
        self.wall.append(wall)
        self.cpu.append(cpu)
        try:
            self.problems += workload.check(inputs, output)
        except Exception as exc:
            self.problems.append(f"operation {self.attempted}: check raised {exc!r}")

    def warm_up(self) -> "Loop":
        """Untimed operations from the warm-up stream: caches fill, lazy set-up ends.

        They are not counted as attempted or failed; a check problem still counts.
        """
        workload = self.workload
        inputs: list = []
        for _ in range(workload.warm_ops):
            if not inputs:
                inputs = workload.next_round(workload.warm_rng)
            self.op(inputs.pop(0))
        self.wall.clear()
        self.cpu.clear()
        self.attempted = self.failed = 0
        self.failed_ops.clear()
        return self

    def one_round(self) -> None:
        for inputs in self.workload.next_round(self.workload.rng):
            self.op(inputs)

    def for_seconds(self, seconds: float, probes: SetupProbes | None = None) -> "Loop":
        """Whole rounds until ``seconds`` have passed.

        With ``probes``, set-up probes run between the operations after the
        first round, and the time they take does not count.
        """
        start = time.perf_counter()
        paused = 0.0
        first_round = True
        while True:
            for inputs in self.workload.next_round(self.workload.rng):
                self.op(inputs)
                if probes is not None and not first_round:
                    paused += probes.between_ops(time.perf_counter() - start - paused)
            first_round = False
            if time.perf_counter() - start - paused >= seconds:
                break
        if probes is not None:
            probes.finish()
        return self

    def for_rounds(self, count: int) -> "Loop":
        for _ in range(count):
            self.one_round()
        return self


def end_to_end(loop: Loop, setup_times: list[float], peak_rss_kb: int) -> dict:
    wall = sorted(loop.wall)
    return {
        "ops_per_s": (len(wall) / sum(wall), "1/s"),
        "op_ms_p50": (statistics.median(wall) * 1e3, "ms"),
        "op_ms_tail": (tail(wall) * 1e3, "ms"),
        "cpu_ms_per_op": (sum(loop.cpu) / len(loop.cpu) * 1e3, "ms"),
        "setup_s": (min(setup_times), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }


def untraced_run(workload, seconds: float, seed: int) -> tuple[Loop, dict]:
    probes = SetupProbes(workload.name, seed, SETUP_PROBES, seconds)
    loop = Loop(workload, NullTracer()).warm_up().for_seconds(seconds, probes)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.name == "orchestrate":
        peak_kb = max(peak_kb, probes.children_peak_kb)
    return loop, end_to_end(loop, probes.times, peak_kb)


def traced_pass(loop: Loop, tracer: Tracer, measure) -> list:
    """Warm ``loop`` up untraced, run ``measure(loop)`` traced; its good spans."""
    loop.warm_up()
    loop.tracer = tracer
    first = len(tracer.spans)
    measure(loop)
    return [s for s in tracer.spans[first:] if s.op not in loop.failed_ops]


def traced_run(workload, seconds: float, seed: int) -> tuple[Loop, dict]:
    """The traced workload for ``seconds``, then a short pass of every other one.

    Each per-layer metric comes from the workload that owns it (layers.PER_LAYER),
    so a metric means the same whichever workload is traced. ``attempted``,
    ``failed`` and the trace.* metrics are the traced workload's own; a check
    problem in any pass makes the run incorrect.
    """
    tracer = Tracer()
    layers.install(tracer)
    metrics: dict = {}
    try:
        loop = Loop(workload, NullTracer())
        spans = traced_pass(loop, tracer, lambda l: l.for_seconds(seconds))
        metrics.update(layers.trace_cost(loop.wall, spans))
        problems = list(loop.problems)
        for name in layers.WORKLOAD_ORDER:
            if name == workload.name:
                found = spans
            else:
                extra = Loop(WORKLOADS[name](seed, OUT_DIR), NullTracer())
                found = traced_pass(extra, tracer,
                                    lambda l: l.for_rounds(l.workload.coverage_rounds))
                problems += extra.problems
            owned = layers.owned_by(name)
            values = layers.per_layer(found, import_times(name))
            metrics.update({k: v for k, v in values.items() if k in owned})
        loop.problems = problems
    finally:
        tracer.uninstall()
    tracer.write(OUT_DIR / f"spans-{workload.name}-seed{seed}.json")
    missing = set(layers.PER_LAYER) - set(metrics)
    if missing:
        loop.problems.append(f"traced run measured no {sorted(missing)}")
    return loop, {name: metrics[name] for name in layers.PER_LAYER if name in metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import the workload's modules and build its inputs")
    args = parser.parse_args(argv)

    use_checkout_source()
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    if args.setup_probe:
        return 0
    run = traced_run if args.trace else untraced_run
    loop, metrics = run(workload, args.seconds, args.seed)

    for problem in loop.problems[:20]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={loop.attempted} failed={loop.failed} problems={len(loop.problems)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not loop.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
