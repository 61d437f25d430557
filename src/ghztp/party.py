"""One party of a networked session: the scripted clients of Alice, Bob and
Charlie, and the ``ghztp net party`` command that runs one of them.

A party only exchanges names with the coordinator (roles, outcomes and
corrections, see :mod:`ghztp.vocab`), so this module and everything it
imports leave numpy out: ``python -m ghztp net party`` starts here, before
:mod:`ghztp.cli` and the simulator are imported.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
from collections import namedtuple

from .vocab import (
    BELL_CORRECTION_NAMES,
    CHARLIE_CORRECTION_NAMES,
    IDENTITY_NAME,
    BellOutcome,
    CharlieOutcome,
    Role,
    parse_payload,
)
from .wire import FrameError, Kind, MessageStream, WireMessage

DEFAULT_TIMEOUT = 30.0

# The exit codes a party returns besides 0; ghztp.cli documents all of them.
EXIT_CHECK_FAILED = 1
EXIT_CONNECTION = 4

# The steps a party can go silent right before (negative tests).
STOP_STAGES = ("bell", "broadcast", "correction", "measure", "send", "finish")


class PartyError(RuntimeError):
    """The coordinator sent something the role's script cannot accept."""


# Where the coordinator listens, how long to wait on it, and the step of
# STOP_STAGES to go silent before (None: play the whole script).
PartyConfig = namedtuple(
    "PartyConfig", "host port timeout stop_before",
    defaults=("127.0.0.1", 0, DEFAULT_TIMEOUT, None),
)


def _expect(stream: MessageStream, kind: Kind, op: str | None = None) -> WireMessage:
    message = stream.recv()
    if message is None:
        raise ConnectionError("connection closed by coordinator")
    if message.kind is Kind.ERROR:
        raise PartyError(f"coordinator error {message.body.get('code')}: {message.body.get('message')}")
    if message.kind is not kind:
        raise PartyError(f"expected {kind.value}, got {message.kind.value}")
    if op is not None and message.body.get("op") != op:
        raise PartyError(f"expected result for {op}, got {message.body!r}")
    return message


def run_party(role: Role, config: PartyConfig) -> int:
    """Play one role against a coordinator; returns 0 on a completed script.

    A ``stop_before`` stage makes the party go silent (clean exit) right
    before that step, which is how orchestrate drops a party.
    """
    stop = config.stop_before
    # getaddrinfo encodes a str host with the idna codec, which imports
    # unicodedata and stringprep; an ASCII host needs no encoding.
    host = config.host.encode("ascii") if config.host.isascii() else config.host
    with socket.create_connection((host, config.port), timeout=config.timeout) as sock:
        sock.settimeout(config.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with sock.makefile("rb") as rfile, sock.makefile("wb") as wfile:
            stream = MessageStream(rfile, wfile)
            stream.send(Kind.HELLO, {"role": role.value})
            grant = _expect(stream, Kind.GRANT)
            stream.session_id = grant.session_id
            qubits = grant.body["qubits"]
            if role is Role.ALICE:
                _run_alice(stream, qubits, stop)
            elif role is Role.BOB:
                _run_bob(stream, qubits[0], stop)
            else:
                _run_charlie(stream, qubits[0], stop)
    return 0


def _run_alice(stream: MessageStream, qubits, stop: str | None) -> None:
    if stop == "bell":
        return
    stream.send(Kind.OP_REQUEST, {"op": "prepare"})
    _expect(stream, Kind.OP_RESULT, "prepare")
    stream.send(Kind.OP_REQUEST, {"op": "bell_measure", "qubits": qubits})
    result = _expect(stream, Kind.OP_RESULT, "bell_measure")
    if stop == "broadcast":
        return
    stream.send(
        Kind.CLASSICAL,
        {
            "recipients": [Role.BOB.value, Role.CHARLIE.value],
            "payload": result.body["outcome"],
        },
    )
    stream.send(Kind.FINISH, {})


def _receive_payload(stream: MessageStream):
    message = _expect(stream, Kind.CLASSICAL)
    return parse_payload(message.body["payload"])


def _apply_if_needed(stream: MessageStream, qubit: int, unitary: str) -> None:
    if unitary == IDENTITY_NAME:
        return  # identity corrections are never requested
    stream.send(
        Kind.OP_REQUEST,
        {"op": "apply_correction", "qubit": qubit, "unitary": unitary},
    )
    _expect(stream, Kind.OP_RESULT, "apply_correction")


def _run_bob(stream: MessageStream, qubit: int, stop: str | None) -> None:
    bell = _receive_payload(stream)
    if not isinstance(bell, BellOutcome):
        raise PartyError(f"expected a Bell outcome first, got {bell!r}")
    if stop == "correction":
        return
    _apply_if_needed(stream, qubit, BELL_CORRECTION_NAMES[bell][0])
    charlie = _receive_payload(stream)
    if not isinstance(charlie, CharlieOutcome):
        raise PartyError(f"expected Charlie's outcome, got {charlie!r}")
    _apply_if_needed(stream, qubit, CHARLIE_CORRECTION_NAMES[charlie])
    if stop == "finish":
        return
    stream.send(Kind.OP_REQUEST, {"op": "fetch_bob_state", "qubit": qubit})
    _expect(stream, Kind.OP_RESULT, "fetch_bob_state")
    stream.send(Kind.FINISH, {})


def _run_charlie(stream: MessageStream, qubit: int, stop: str | None) -> None:
    bell = _receive_payload(stream)
    if not isinstance(bell, BellOutcome):
        raise PartyError(f"expected a Bell outcome first, got {bell!r}")
    if stop == "correction":
        return
    _apply_if_needed(stream, qubit, BELL_CORRECTION_NAMES[bell][1])
    if stop == "measure":
        return
    stream.send(Kind.OP_REQUEST, {"op": "basis_measure", "qubit": qubit, "basis": "plus_minus"})
    result = _expect(stream, Kind.OP_RESULT, "basis_measure")
    if stop == "send":
        return
    stream.send(
        Kind.CLASSICAL,
        {"recipients": [Role.BOB.value], "payload": result.body["outcome"]},
    )
    stream.send(Kind.FINISH, {})


# --- the ``net party`` command ----------------------------------------------------


def env_default(name: str, fallback):
    # Left a string: argparse applies the flag's type to a string default only
    # for the subcommand it parses, so a bad value fails that subcommand alone.
    return os.environ.get(f"GHZTP_{name}", fallback)


def one_of(choices):
    """The type of a flag with ``choices``. argparse applies a flag's type to
    an environment default, but checks its choices only on the command line."""

    def check(value: str) -> str:
        if value not in choices:
            # argparse's own words for a bad choice on the command line
            listed = ", ".join(map(repr, choices))
            raise argparse.ArgumentTypeError(f"invalid choice: {value!r} (choose from {listed})")
        return value

    return check


def seconds(text: str) -> float:
    """The type of ``--timeout``: a positive, finite number of seconds, which
    every socket and wait it bounds accepts."""
    value = float(text)
    if not 0 < value < float("inf"):  # nan fails this too
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r}: must be a positive, finite number of seconds"
        )
    return value


def add_net_args(parser: argparse.ArgumentParser) -> None:
    """The flags every ``net`` subcommand takes."""
    parser.add_argument("--host", default=env_default("HOST", "127.0.0.1"))
    parser.add_argument("--port", type=int, default=env_default("PORT", "0"))
    parser.add_argument("--timeout", type=seconds, default=env_default("TIMEOUT", DEFAULT_TIMEOUT))


def add_party_args(parser: argparse.ArgumentParser) -> None:
    add_net_args(parser)
    roles = [r.value for r in Role]
    parser.add_argument("--role", required=env_default("ROLE", None) is None,
                        default=env_default("ROLE", None), choices=roles, type=one_of(roles))
    parser.add_argument("--stop-before", default=env_default("STOP_BEFORE", None),
                        choices=STOP_STAGES, type=one_of(STOP_STAGES),
                        help="go silent right before this step (negative tests)")


def cmd_net_party(args) -> int:
    config = PartyConfig(
        host=args.host, port=args.port, timeout=args.timeout, stop_before=args.stop_before
    )
    try:
        return run_party(Role(args.role), config)
    except (ConnectionError, TimeoutError, OSError) as exc:
        print(f"connection error: {exc}", file=sys.stderr)
        return EXIT_CONNECTION
    except (PartyError, FrameError) as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def main(argv: list[str]) -> int:
    """``ghztp net party <argv>``, as :func:`ghztp.cli.main` runs it."""
    parser = argparse.ArgumentParser(prog="ghztp net party")
    add_party_args(parser)
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        # The full command line rejects stray arguments in its own words.
        from .cli import main as cli_main

        return cli_main(["net", "party", *argv])
    return cmd_net_party(args)
