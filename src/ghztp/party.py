"""One party of a networked session: the scripted clients of Alice, Bob and
Charlie, and the ``ghztp net party`` command that runs them.

A party only exchanges names with the coordinator (roles, outcomes and
corrections, see :mod:`ghztp.vocab`), so this module and everything it
imports leave the simulator, ``dataclasses`` and ``typing`` out:
``python -m ghztp net party`` starts here, before :mod:`ghztp.cli` and the
simulator are imported.

Each party makes its own moves of :data:`ghztp.vocab.SCHEDULE`, in order, so
the parties follow the order the protocol engine admits by construction.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
from collections import namedtuple

from .vocab import (
    IDENTITY_NAME,
    OUTCOMES,
    RECIPIENTS,
    SCHEDULE,
    Role,
    correction_name,
    parse_payload,
)
from .wire import FrameError, Kind, MessageStream, WireMessage

DEFAULT_TIMEOUT = 30.0

# The exit codes a party returns besides 0; ghztp.cli documents all of them.
EXIT_CHECK_FAILED = 1
EXIT_CONNECTION = 4

# The steps a party can go silent right before (negative tests).
STOP_STAGES = tuple(dict.fromkeys(stage for _, _, stage, _ in SCHEDULE if stage))


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
            _run_schedule(stream, role, grant.body["qubits"], config.stop_before)
    return 0


def _request(stream: MessageStream, body: dict) -> dict:
    """Send one OpRequest and return the body of its OpResult."""
    stream.send(Kind.OP_REQUEST, body)
    return _expect(stream, Kind.OP_RESULT, body["op"]).body


def _run_schedule(stream: MessageStream, role: Role, qubits, stop: str | None) -> None:
    """Make ``role``'s moves of SCHEDULE in order, then send Finish.

    Before each move, read every outcome the moves before it sent to
    ``role``. An identity correction is never requested. At the ``stop``
    stage, go silent instead.
    """
    last = max(i for i, entry in enumerate(SCHEDULE) if entry[0] is role)
    outcomes = None  # the kind of outcome the latest measurement gave
    heard = None  # the latest outcome sent to this role
    made = None  # this role's latest outcome, as the coordinator named it
    for mover, move, stage, _ in SCHEDULE[: last + 1]:
        outcomes = OUTCOMES.get(move, outcomes)
        if mover is not role:
            if move == "send" and role in RECIPIENTS[mover]:
                heard = parse_payload(_expect(stream, Kind.CLASSICAL).body["payload"])
                if not isinstance(heard, outcomes):
                    raise PartyError(f"expected {mover.value}'s {outcomes.__name__}, got {heard!r}")
            continue
        if stop is not None and stage == stop:
            return
        if move == "prepare":
            _request(stream, {"op": "prepare"})
        elif move == "bell_measure":
            made = _request(stream, {"op": "bell_measure", "qubits": qubits})["outcome"]
        elif move == "send":
            recipients = sorted(r.value for r in RECIPIENTS[role])
            stream.send(Kind.CLASSICAL, {"recipients": recipients, "payload": made})
        elif move == "correct":
            unitary = correction_name(role, heard)
            if unitary != IDENTITY_NAME:
                _request(stream, {"op": "apply_correction", "qubit": qubits[0], "unitary": unitary})
        elif move == "basis_measure":
            body = {"op": "basis_measure", "qubit": qubits[0], "basis": "plus_minus"}
            made = _request(stream, body)["outcome"]
        else:  # finish
            _request(stream, {"op": "fetch_bob_state", "qubit": qubits[0]})
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


def port(text: str) -> int:
    """The type of ``--port``: a TCP port number, 0 for any free one."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r}: must be a port number from 0 to 65535"
        )
    return value


def add_net_args(parser: argparse.ArgumentParser) -> None:
    """The flags every ``net`` subcommand takes."""
    parser.add_argument("--host", default=env_default("HOST", "127.0.0.1"))
    parser.add_argument("--port", type=port, default=env_default("PORT", "0"))
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
    return play(Role(args.role), config)


def play(role: Role, config: PartyConfig) -> int:
    """:func:`run_party`, with each failure as an exit code and a stderr line."""
    try:
        return run_party(role, config)
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
