"""The four closed-loop workloads, one operation in flight at a time.

Each workload draws its inputs from ``random.Random(seed)`` in a fixed order,
so one seed gives one input sequence however long the run lasts. ``run``
performs one operation through ghztp's public entry points; ``check`` judges
its output with :mod:`checks`, outside the timed region.

Workloads call ghztp through module attributes (``self.protocol.run_protocol``)
so that a traced run's wrappers are the functions actually called.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
import threading
from pathlib import Path

import checks

# Sizes inside one sweep operation: ``ghztp stats``'s default run count
# (``--runs 10000``) and a 1000-sample security sweep.
STATS_RUNS = 10000
SWEEP_SAMPLES = 1000
BRANCH_SIGNALS = 10

# Bounds every socket wait and orchestrate's child deadline (timeout + 15 s).
NET_TIMEOUT = 10.0

# One orchestrate round: the signals ``ghztp net orchestrate --preset random
# --seed n`` teleports for n = 0..8, and ``--alpha -3e-05 0 --beta 1 0``.
# Two of these fail on every session seed, because of faults of the program
# (FOUND lines in CHANGES.md): preset seed 8 is the first whose coordinator
# child, normalizing the printed amplitudes again, ends one ulp off the
# in-process reference, so orchestrate reports a mismatch; and -3e-05 prints
# in exponent notation, which argparse takes for an option, so the
# coordinator never starts. A run is made of whole rounds, so they are the
# same share (2/10) of every run.
ORCHESTRATE_PRESET_SEEDS = range(9)
ORCHESTRATE_TYPED_SIGNAL = (complex(-3e-05, 0.0), complex(1.0, 0.0))


def random_signal(rng: random.Random) -> tuple[complex, complex]:
    """Normalized (alpha, beta) from four gaussians, drawn by the benchmark."""
    while True:
        a = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        b = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        if norm > 1e-6:
            return a / norm, b / norm


class Workload:
    name = ""
    modules: tuple[str, ...] = ()

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir
        for module in self.modules:
            setattr(self, module.rpartition(".")[2], importlib.import_module(module))
        self.rng = random.Random(seed)
        # Warm-up inputs come from their own stream so that the measured
        # sequence for a seed does not depend on how much warm-up ran.
        self.warm_rng = random.Random(f"warm-up {seed}")

    def next_input(self, rng: random.Random):
        raise NotImplementedError

    def next_round(self, rng: random.Random) -> list:
        """The inputs of one round; a run attempts whole rounds."""
        return [self.next_input(rng)]

    def run(self, inputs, tracer):
        raise NotImplementedError

    def check(self, inputs, output) -> list[str]:
        raise NotImplementedError


class Session(Workload):
    """One seeded run_protocol per operation, each on a fresh signal."""

    name = "session"
    modules = ("ghztp.protocol",)
    warm_ops = 300
    coverage_rounds = 500

    def next_input(self, rng):
        return random_signal(rng), rng.getrandbits(63)

    def run(self, inputs, tracer):
        (alpha, beta), seed = inputs
        protocol = self.protocol
        return protocol.run_protocol(protocol.SignalState(alpha, beta), seed=seed)

    def check(self, inputs, result):
        signal, seed = inputs
        return checks.check_session(
            signal, seed, result.bell_outcome.value, result.charlie_outcome.value,
            result.path_probability, result.bob_state.amplitudes.tolist(), result.trace.lines(),
        )


class Sweep(Workload):
    """``ghztp stats --format json`` on the run's one signal, then both verify sweeps.

    stats reuses one signal for the whole run; the security sweep and the
    branch enumerations draw fresh signals every operation.
    """

    name = "sweep"
    modules = ("ghztp.cli", "ghztp.protocol", "ghztp.verify")
    warm_ops = 1
    coverage_rounds = 2

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.stats_signal = random_signal(self.rng)

    def next_input(self, rng):
        return (rng.getrandbits(32), rng.getrandbits(32),
                [random_signal(rng) for _ in range(BRANCH_SIGNALS)])

    def run(self, inputs, tracer):
        stats_seed, sweep_seed, signals = inputs
        alpha, beta = self.stats_signal
        argv = ["stats", "--alpha", repr(alpha.real), repr(alpha.imag),
                "--beta", repr(beta.real), repr(beta.imag),
                "--runs", str(STATS_RUNS), "--seed", str(stats_seed), "--format", "json"]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = self.cli.main(argv)
        summary = self.verify.security_sweep(SWEEP_SAMPLES, sweep_seed)
        branches = [self.verify.enumerate_branches(self.protocol.SignalState(a, b))
                    for a, b in signals]
        return code, stdout.getvalue(), summary, branches

    def check(self, inputs, output):
        stats_seed = inputs[0]
        code, stdout, summary, branches = output
        problems = checks.check_stats(json.loads(stdout), code, STATS_RUNS, stats_seed)
        problems += checks.check_security_summary(summary.to_json(), SWEEP_SAMPLES)
        for reports in branches:
            problems += checks.check_branches(
                [(r.bell.value, r.charlie.value, r.probability, r.bob_fidelity) for r in reports]
            )
        return problems


class Loopback(Workload):
    """An in-process Coordinator on 127.0.0.1 and the three parties in threads."""

    name = "loopback"
    modules = ("ghztp.netharness", "ghztp.protocol")
    warm_ops = 1
    coverage_rounds = 3

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.transcript = out_dir / "transcripts" / "loopback.log"
        self.transcript.parent.mkdir(parents=True, exist_ok=True)

    def next_input(self, rng):
        return random_signal(rng), rng.getrandbits(63)

    def run(self, inputs, tracer):
        (alpha, beta), seed = inputs
        net = self.netharness
        with tracer.span("netharness.bind"):
            coordinator = net.Coordinator(
                signal=self.protocol.SignalState(alpha, beta), seed=seed,
                transcript_path=self.transcript, host="127.0.0.1", port=0, timeout=NET_TIMEOUT,
            )
        errors: list[BaseException] = []
        try:
            coordinator.start()
            config = net.PartyConfig(host="127.0.0.1", port=coordinator.port, timeout=NET_TIMEOUT)

            def party(role):
                try:
                    if net.run_party(role, config) != 0:
                        errors.append(RuntimeError(f"party {role.value} did not finish"))
                except BaseException as exc:  # reported below, in the benchmark's thread
                    errors.append(exc)

            with tracer.span("netharness.parties"):
                threads = [threading.Thread(target=party, args=(role,)) for role in net.Role]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(NET_TIMEOUT)
            done = coordinator.wait(NET_TIMEOUT)
        finally:
            with tracer.span("netharness.shutdown"):
                coordinator.shutdown()
        if errors:
            raise errors[0]
        if any(thread.is_alive() for thread in threads) or not done:
            raise TimeoutError("loopback session did not complete")
        return None

    def check(self, inputs, output):
        return checks.check_transcript(self.transcript.read_text(), inputs[1])


class OrchestrateFailed(Exception):
    """orchestrate reported a mismatch or a session that did not run."""


class Orchestrate(Workload):
    """``netharness.orchestrate`` as ``ghztp net orchestrate`` runs it: four interpreters.

    Each round teleports the fixed signals named at ORCHESTRATE_PRESET_SEEDS
    once each, in an order and with session seeds drawn from the run's seed.
    """

    name = "orchestrate"
    modules = ("ghztp.netharness", "ghztp.protocol")
    warm_ops = 1
    coverage_rounds = 1

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.transcript_dir = out_dir / "transcripts" / "orchestrate"
        self.signals = [random_signal(random.Random(n)) for n in ORCHESTRATE_PRESET_SEEDS]
        self.signals.append(ORCHESTRATE_TYPED_SIGNAL)

    def next_round(self, rng):
        inputs = [(signal, rng.getrandbits(63)) for signal in self.signals]
        rng.shuffle(inputs)
        return inputs

    def run(self, inputs, tracer):
        (alpha, beta), seed = inputs
        # The directory is reused; a session that never starts must not
        # leave the previous session's transcript to be checked.
        (self.transcript_dir / "net-transcript.log").unlink(missing_ok=True)
        report = self.netharness.orchestrate(
            signal=self.protocol.SignalState(alpha, beta), seed=seed, port=0, drop=None,
            timeout=NET_TIMEOUT, transcript_dir=self.transcript_dir, host="127.0.0.1",
        )
        if report.problems or not report.match:
            raise OrchestrateFailed("; ".join(report.problems) or "no match")
        return report

    def check(self, inputs, report):
        transcript = Path(report.transcript)
        if not transcript.is_file():
            return [f"orchestrate left no transcript at {transcript}"]
        return checks.check_transcript(transcript.read_text(), inputs[1])


WORKLOADS = {w.name: w for w in (Session, Sweep, Loopback, Orchestrate)}
