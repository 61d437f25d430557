"""Command line: single runs, branch enumeration, security analysis,
Monte-Carlo statistics, and the networked harness.

Exit codes, used consistently by every subcommand:
  0  success / all checks passed
  1  a check failed (fidelity, z-score, transcript mismatch, protocol error)
  2  usage error, including invalid amplitudes and an unopenable transcript
  3  a forced outcome has (numerically) zero probability
  4  connection problem (bind, connect, or peer loss)
  5  networked session stalled before completion

Network flags read their defaults from GHZTP_* environment variables
(GHZTP_HOST, GHZTP_PORT, GHZTP_SEED, GHZTP_TIMEOUT, GHZTP_TRANSCRIPT,
GHZTP_TRANSCRIPT_DIR, GHZTP_ROLE, GHZTP_STOP_BEFORE, GHZTP_DROP).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass

from .qsim import (
    BellOutcome,
    CharlieOutcome,
    ImpossibleOutcomeError,
    SQRT_HALF,
    ValidationError,
)
from .protocol import Role, random_signal
# From the package, not from .protocol: the package binds its numpy-backed
# names on first use, and this binds ghztp.SignalState and ghztp.run_protocol
# as soon as cli is imported, so a tracer that wraps run_protocol finds every
# binding of it in place.
from . import SignalState, run_protocol
from .verify import bob_view_before_charlie, enumerate_branches, security_sweep
from . import netharness
from .netharness import Coordinator
from .party import (
    EXIT_CHECK_FAILED,
    EXIT_CONNECTION,
    add_net_args,
    add_party_args,
    cmd_net_party,
    env_default,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IMPOSSIBLE = 3
EXIT_STALLED = 5

FIDELITY_PASS = 1.0 - 1e-8
MAX_ABS_Z = 4.0

PRESETS = {
    "zero": (complex(1), complex(0)),
    "one": (complex(0), complex(1)),
    "plus": (complex(SQRT_HALF), complex(SQRT_HALF)),
    "minus": (complex(SQRT_HALF), complex(-SQRT_HALF)),
}


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: signal choice, sampling policy, output format."""

    alpha: complex | None = None
    beta: complex | None = None
    preset: str | None = None
    seed: int | None = None
    forced: tuple[BellOutcome, CharlieOutcome] | None = None
    format: str = "human"

    def __post_init__(self):
        explicit = self.alpha is not None or self.beta is not None
        if explicit and self.preset:
            raise UsageError("give either --alpha/--beta or --preset, not both")
        if explicit and (self.alpha is None or self.beta is None):
            raise UsageError("--alpha and --beta must be given together")
        if self.forced is not None and self.seed is not None:
            raise UsageError("--seed conflicts with forced outcomes")

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        forced = None
        force_bell = getattr(args, "force_bell", None)
        force_charlie = getattr(args, "force_charlie", None)
        if (force_bell is None) != (force_charlie is None):
            raise UsageError("--force-bell and --force-charlie must be given together")
        if force_bell is not None:
            forced = (BellOutcome(force_bell), CharlieOutcome(force_charlie))
        return cls(
            alpha=complex(*args.alpha) if args.alpha is not None else None,
            beta=complex(*args.beta) if args.beta is not None else None,
            preset=args.preset,
            seed=getattr(args, "seed", None),
            forced=forced,
            format=getattr(args, "format", "human"),
        )

    def resolve_signal(self) -> SignalState:
        """The signal to teleport; 'plus' if neither amplitudes nor preset given."""
        if self.alpha is not None:
            try:
                return SignalState(self.alpha, self.beta)
            except ValidationError as exc:
                raise UsageError(f"invalid amplitudes: {exc}")
        preset = self.preset or "plus"
        if preset == "random":
            return random_signal(random.Random(self.seed or 0))
        return SignalState(*PRESETS[preset])


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _fmt_amplitude(z: complex) -> str:
    # Human output carries 6 significant digits; JSON carries full precision.
    return f"({z.real:.6g}{z.imag:+.6g}j)"


def _add_signal_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--alpha", nargs=2, type=float, metavar=("RE", "IM"),
        help="real and imaginary parts of the |0> amplitude",
    )
    parser.add_argument(
        "--beta", nargs=2, type=float, metavar=("RE", "IM"),
        help="real and imaginary parts of the |1> amplitude",
    )
    parser.add_argument(
        "--preset", choices=[*PRESETS, "random"],
        help="named signal instead of explicit amplitudes",
    )


def _add_format_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["human", "json"], default="human")


def _print_signal(signal: SignalState) -> None:
    print(f"signal: {_fmt_amplitude(signal.alpha)}|0> + {_fmt_amplitude(signal.beta)}|1>")


# --- run ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    config = RunConfig.from_args(args)
    signal = config.resolve_signal()
    try:
        if config.forced is not None:
            result = run_protocol(signal, forced=config.forced)
        else:
            result = run_protocol(signal, seed=config.seed if config.seed is not None else 0)
    except ImpossibleOutcomeError as exc:
        print(f"impossible forced outcome: {exc}", file=sys.stderr)
        return EXIT_IMPOSSIBLE

    if config.format == "json":
        print(json.dumps(result.to_json()))
    else:
        _print_signal(signal)
        for line in result.trace.lines():
            print(line)
        a, b = result.bob_state.amplitudes
        print(f"bob_state: {_fmt_amplitude(a)}|0> + {_fmt_amplitude(b)}|1>")
        print(f"bell_outcome: {result.bell_outcome.value}")
        print(f"charlie_outcome: {result.charlie_outcome.value}")
        print(f"path_probability: {_fmt(result.path_probability)}")
        print(f"fidelity: {_fmt(result.fidelity)}")
    return EXIT_OK if result.fidelity >= FIDELITY_PASS else EXIT_CHECK_FAILED


# --- enumerate -----------------------------------------------------------------------


def cmd_enumerate(args) -> int:
    signal = RunConfig.from_args(args).resolve_signal()
    reports = enumerate_branches(signal)
    total = sum(r.probability for r in reports)
    worst = min(r.bob_fidelity for r in reports)
    if args.format == "json":
        print(json.dumps([r.to_json() for r in reports]))
    else:
        _print_signal(signal)
        for r in reports:
            print(
                f"{r.bell.value:<9} {r.charlie.value:<6} "
                f"probability={_fmt(r.probability)} fidelity={_fmt(r.bob_fidelity)}"
            )
        print(f"sum_probability={_fmt(total)} min_fidelity={_fmt(worst)}")
    ok = abs(total - 1.0) <= 1e-10 and worst >= FIDELITY_PASS
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# --- security ------------------------------------------------------------------------


def cmd_security(args) -> int:
    if args.sweep is not None:
        if args.sweep < 1:
            raise UsageError("--sweep needs at least 1 sample")
        try:
            summary = security_sweep(args.sweep, args.seed)
        except ValidationError as exc:
            print(f"sweep failed: {exc}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        if args.format == "json":
            print(json.dumps(summary.to_json()))
        else:
            deviation = max(abs(summary.min_bound_excess), abs(summary.max_bound_excess))
            print(
                f"sweep samples={summary.samples} "
                f"max_bound_deviation={_fmt(deviation)} "
                f"max_fidelity_deviation={_fmt(summary.max_fidelity_deviation)} "
                f"max_off_diagonal={_fmt(summary.max_off_diagonal)}"
            )
        return EXIT_OK

    signal = RunConfig.from_args(args).resolve_signal()
    try:
        reports = [(bell, bob_view_before_charlie(signal, bell)) for bell in BellOutcome]
    except ValidationError as exc:
        print(f"security check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    if args.format == "json":
        print(json.dumps([{"bell": bell.value, **rep.to_json()} for bell, rep in reports]))
    else:
        _print_signal(signal)
        for bell, rep in reports:
            print(
                f"{bell.value:<9} raw_fidelity={_fmt(rep.raw_fidelity)} "
                f"unitary_bound={_fmt(rep.unitary_bound)}"
            )
        if any(rep.near_basis for _, rep in reports):
            print(
                "caveat: basis-like signal; the unitary bound reaches 1 because "
                "basis states carry no phase for the protocol to protect"
            )
    return EXIT_OK


# --- stats ---------------------------------------------------------------------------


def cmd_stats(args) -> int:
    if args.runs < 1:
        raise UsageError("--runs must be at least 1")
    signal = RunConfig.from_args(args).resolve_signal()
    master = random.Random(args.seed)
    bell_counts: Counter = Counter()
    charlie_counts: Counter = Counter()
    for _ in range(args.runs):
        result = run_protocol(signal, seed=master.getrandbits(63))
        bell_counts[result.bell_outcome] += 1
        charlie_counts[result.charlie_outcome] += 1

    def z_score(count: int, p: float) -> float:
        return (count - args.runs * p) / math.sqrt(args.runs * p * (1.0 - p))

    rows = [(o.value, bell_counts[o], 0.25) for o in BellOutcome]
    rows += [(o.value, charlie_counts[o], 0.5) for o in CharlieOutcome]
    scored = [(name, count, p, z_score(count, p)) for name, count, p in rows]
    max_abs_z = max(abs(z) for _, _, _, z in scored)

    if args.format == "json":
        print(
            json.dumps(
                {
                    "runs": args.runs,
                    "seed": args.seed,
                    "outcomes": [
                        {"outcome": name, "count": count, "expected_p": p, "z": z}
                        for name, count, p, z in scored
                    ],
                    "max_abs_z": max_abs_z,
                }
            )
        )
    else:
        _print_signal(signal)
        for name, count, p, z in scored:
            print(
                f"{name:<9} count={count:>7} expected={args.runs * p:>9.1f} z={z:+.3f}"
            )
        print(f"max_abs_z={max_abs_z:.3f} threshold={MAX_ABS_Z}")
    return EXIT_OK if max_abs_z < MAX_ABS_Z else EXIT_CHECK_FAILED


# --- net -----------------------------------------------------------------------------


def cmd_net_serve(args) -> int:
    signal = RunConfig.from_args(args).resolve_signal()
    try:
        coordinator = Coordinator(
            signal=signal,
            seed=args.seed,
            transcript_path=args.transcript,
            host=args.host,
            port=args.port,
            timeout=args.timeout,
        )
    except OSError as exc:
        if exc.filename:  # open() names its file, bind() names none
            print(f"cannot open transcript {args.transcript}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return EXIT_CONNECTION
    print(f"READY port={coordinator.port}", flush=True)
    done = coordinator.serve()
    print("DONE" if done else "STALLED", flush=True)
    return EXIT_OK if done else EXIT_STALLED


def cmd_net_orchestrate(args) -> int:
    signal = RunConfig.from_args(args).resolve_signal()
    report = netharness.orchestrate(
        signal=signal,
        seed=args.seed,
        port=args.port,
        drop=Role(args.drop) if args.drop else None,
        timeout=args.timeout,
        transcript_dir=args.transcript_dir,
        host=args.host,
    )
    if args.format == "json":
        print(json.dumps(report.to_json()))
    else:
        print(f"match: {'true' if report.match else 'false'}")
        if report.stalled_at is not None:
            print(f"stalled-at-{report.stalled_at} role={report.stalled_role}")
        if report.net_fidelity is not None:
            print(f"net_fidelity: {_fmt(report.net_fidelity)}")
        print(f"reference_fidelity: {_fmt(report.reference_fidelity)}")
        print(f"transcript: {report.transcript}")
        for problem in report.problems:
            print(f"problem: {problem}", file=sys.stderr)
    if report.match:
        return EXIT_OK
    return EXIT_STALLED if report.stalled_at is not None else EXIT_CHECK_FAILED


# --- parser --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghztp",
        description="Teleport one qubit through a shared GHZ state under a supervising third party.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the protocol once and score Bob's state")
    _add_signal_args(run_p)
    run_p.add_argument("--seed", type=int, default=None, help="PRNG seed for outcome sampling")
    run_p.add_argument("--force-bell", choices=[o.value for o in BellOutcome])
    run_p.add_argument("--force-charlie", choices=[o.value for o in CharlieOutcome])
    _add_format_arg(run_p)
    run_p.set_defaults(func=cmd_run)

    enum_p = sub.add_parser("enumerate", help="force all 8 branches and tabulate them")
    _add_signal_args(enum_p)
    enum_p.add_argument("--seed", type=int, default=0, help="seed (used by --preset random)")
    _add_format_arg(enum_p)
    enum_p.set_defaults(func=cmd_enumerate)

    sec_p = sub.add_parser("security", help="what Bob can see before Charlie cooperates")
    _add_signal_args(sec_p)
    sec_p.add_argument("--seed", type=int, default=0)
    sec_p.add_argument("--sweep", type=int, default=None, metavar="N",
                       help="check closed forms on N random signals instead")
    _add_format_arg(sec_p)
    sec_p.set_defaults(func=cmd_security)

    stats_p = sub.add_parser("stats", help="Monte-Carlo outcome frequencies with z-scores")
    _add_signal_args(stats_p)
    stats_p.add_argument("--runs", type=int, default=10000)
    stats_p.add_argument("--seed", type=int, default=0)
    _add_format_arg(stats_p)
    stats_p.set_defaults(func=cmd_stats)

    net_p = sub.add_parser("net", help="run the protocol across processes")
    net_sub = net_p.add_subparsers(dest="net_command", required=True)

    serve_p = net_sub.add_parser("serve", help="coordinator: holds the state, writes the transcript")
    add_net_args(serve_p)
    _add_signal_args(serve_p)
    serve_p.add_argument("--seed", type=int, default=env_default("SEED", "0"))
    serve_p.add_argument("--transcript", default=env_default("TRANSCRIPT", "ghztp-transcript.log"))
    serve_p.set_defaults(func=cmd_net_serve)

    party_p = net_sub.add_parser("party", help="one role's scripted client")
    add_party_args(party_p)
    party_p.set_defaults(func=cmd_net_party)

    orch_p = net_sub.add_parser("orchestrate",
                                help="serve three party processes and compare with the in-process run")
    add_net_args(orch_p)
    _add_signal_args(orch_p)
    orch_p.add_argument("--seed", type=int, default=env_default("SEED", "0"))
    orch_p.add_argument("--drop", default=env_default("DROP", None),
                        choices=[r.value for r in Role],
                        help="make this party go silent at its scripted step")
    orch_p.add_argument("--transcript-dir", default=env_default("TRANSCRIPT_DIR", None))
    _add_format_arg(orch_p)
    orch_p.set_defaults(func=cmd_net_orchestrate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
