"""One party of a networked session: the scripted clients of Alice, Bob and
Charlie, and the ``ghztp net party`` command that runs them.

A party only exchanges names with the coordinator (roles, outcomes and
corrections, see :mod:`ghztp.vocab`), so this module and everything it
imports leave numpy out: ``python -m ghztp net party`` starts here, before
:mod:`ghztp.cli` and the simulator are imported.

Given one role, ``net party`` plays it in its own process. Given several, it
is a party host: one interpreter that imports this closure once and then
forks one process per role, so each party still acts alone on its share.
The host reaps every party and writes one JSON line per party to its
standard output: ``{"role": ..., "exit": ..., "stderr": ...}``.
``ghztp.netharness.orchestrate`` forks and reaps its parties with the same
``_spawn`` and ``_terminate``, straight from its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys
import time
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

# Characters of a party's stderr that its host reports.
STDERR_TAIL = 500


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
                        default=env_default("ROLE", None), choices=roles, type=one_of(roles),
                        nargs="+", help="one role to play here, or several to fork one process each")
    parser.add_argument("--stop-before", default=env_default("STOP_BEFORE", None),
                        choices=STOP_STAGES, type=one_of(STOP_STAGES),
                        help="go silent right before this step (negative tests)")


def cmd_net_party(args) -> int:
    config = PartyConfig(
        host=args.host, port=args.port, timeout=args.timeout, stop_before=args.stop_before
    )
    # A role from GHZTP_ROLE arrives as one string, from the command line as a
    # list; a role given twice is played once, as a session admits it once.
    roles = list(dict.fromkeys(Role(r) for r in ([args.role] if isinstance(args.role, str)
                                                 else args.role)))
    if len(roles) == 1:
        return play(roles[0], config)
    return host_parties(roles, config)


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


def host_parties(roles: list[Role], config: PartyConfig) -> int:
    """Fork one process per role, each playing it as ``net party --role`` would,
    reap them all and write one JSON line per party in role order; returns the
    first non-zero exit code in role order."""
    reaped = _terminate(_spawn(roles, config), float("inf"))
    for role in roles:
        print(json.dumps({"role": role.value, **reaped[role]}), flush=True)
    code = next((reaped[role]["exit"] for role in roles if reaped[role]["exit"]), 0)
    return code if code >= 0 else 128 - code  # killed by a signal: as a shell reports it


def _spawn(roles, config: PartyConfig) -> dict:
    """Fork one party per role; returns ``{pid: (role, stderr file)}``.

    Each party's stderr goes to its own unlinked file, so a flood never
    blocks it. If a fork fails, the parties already forked are ended and
    reaped, and an OSError names the role that could not be forked.
    """
    import tempfile

    parties = {}
    for role in roles:
        stderr = tempfile.TemporaryFile()
        try:
            pid = os.fork()
        except OSError as exc:
            stderr.close()
            _terminate(parties, 0.0)
            raise OSError(f"cannot fork party {role.value}: {exc}") from exc
        if pid == 0:
            _party_child(role, config, stderr.fileno())
        parties[pid] = (role, stderr)
    return parties


def _party_child(role: Role, config: PartyConfig, stderr: int):
    """The forked party: play ``role`` with stdout to the null device and
    stderr to ``stderr``, holding no other descriptor of the process it was
    forked from, then end the process without returning."""
    import gc
    import signal

    code = 1  # as for an uncaught exception
    try:
        # Collecting the caller's garbage here could close a descriptor number
        # that is by then this party's own.
        gc.disable()
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.dup2(stderr, 2)
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.closerange(3, os.sysconf("SC_OPEN_MAX"))
        sys.stdout = open(1, "w")
        sys.stderr = open(2, "w", buffering=1, errors="backslashreplace")
        code = play(role, config)
    except BaseException:
        import traceback

        traceback.print_exc()
    finally:
        try:
            sys.stderr.flush()
        finally:
            os._exit(code)


def _reap(parties: dict, wait: float) -> dict:
    """Reap each party of ``parties`` that ends within ``wait`` seconds and
    take it out; returns ``{role: {"exit": ..., "stderr": ...}}`` of those."""
    deadline = time.monotonic() + wait
    delay = 0.0005
    reaped = {}
    while True:
        for pid in list(parties):
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                role, stderr = parties.pop(pid)
                reaped[role] = {"exit": os.waitstatus_to_exitcode(status), "stderr": _tail(stderr)}
                stderr.close()
        left = deadline - time.monotonic()
        if not parties or left <= 0:
            return reaped
        time.sleep(min(delay, left))
        delay = min(2 * delay, 0.05)


def _terminate(parties: dict, grace: float) -> dict:
    """Reap the parties ``_spawn`` forked, as :func:`_reap` reports them.

    A party not done after ``grace`` seconds gets SIGTERM, and one still
    there DEFAULT_TIMEOUT seconds later gets SIGKILL. One that is still
    unreaped DEFAULT_TIMEOUT seconds after that is left out.
    """
    import signal

    reaped = _reap(parties, grace)
    for signum in (signal.SIGTERM, signal.SIGKILL):
        for pid in parties:  # not reaped, so the pid is still this party's
            os.kill(pid, signum)
        reaped.update(_reap(parties, DEFAULT_TIMEOUT))
    return reaped


def _tail(stderr) -> str:
    """The last STDERR_TAIL characters of a party's stderr file, stripped."""
    size = stderr.seek(0, os.SEEK_END)
    stderr.seek(max(0, size - 4 * STDERR_TAIL))  # at most 4 bytes a character
    return stderr.read().decode("utf-8", "replace")[-STDERR_TAIL:].strip()


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
