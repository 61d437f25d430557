"""The protocol as four OS processes: a coordinator that drives the protocol
engine, plus Alice, Bob and Charlie clients.

Amplitudes cannot be physically distributed in a classical simulation, so
the coordinator holds the only session register and parties act on it
through OpRequests, each of which the coordinator turns into one move of
:mod:`ghztp.protocol`, the same moves the in-process run makes. Locality is
preserved operationally: an ownership table says who may touch which qubit,
measurement results go only to the requesting party, and classical messages
are relayed (star topology) through the coordinator, which also writes the
single ordered transcript from the session's trace.

Randomness lives only in the coordinator, which consumes its seeded PRNG in
the same order as the in-process run (Bell draw, then Charlie draw), so for
a given (signal, seed) the networked transcript carries bitwise the same
outcomes, probabilities and final fidelity.
"""

from __future__ import annotations

import contextlib
import socket
import socketserver
import subprocess
import sys
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from .qsim import NAMED_UNITARIES, BellOutcome, CharlieOutcome, SeededSelector, ValidationError
from .protocol import (
    BELL_CORRECTION_TABLE,
    CHARLIE_CORRECTION_TABLE,
    QUBIT_A,
    QUBIT_D,
    BellMeasured,
    BobCorrected,
    CharlieMeasured,
    ClassicalMessage,
    CorrectionApplied,
    Finished,
    Phase,
    PhaseError,
    ProtocolResult,
    Role,
    SessionRegister,
    SignalPrepared,
    SignalState,
    TraceEvent,
    _parse_payload,
    basis_measure,
    bell_measure,
    bob_finish,
    compose_session,
    correct,
    event_line,
    parse_event_line,
    run_protocol,
    send,
    trace_order_errors,
)
from .wire import (
    ERR_FRAME,
    ERR_LOCALITY,
    ERR_PHASE,
    ERR_ROLE_TAKEN,
    FrameError,
    Kind,
    MessageStream,
    WireMessage,
)

DEFAULT_TIMEOUT = 30.0

# Where each role's script stops when orchestrate is asked to drop it; the
# dropped party joins, then goes silent right before this step.
DROP_STAGE = {Role.ALICE: "bell", Role.BOB: "finish", Role.CHARLIE: "measure"}


@dataclass(frozen=True)
class OwnershipTable:
    """Which role may touch which qubit; fixed for the whole session."""

    owners: dict[int, Role]

    def __post_init__(self):
        if sorted(self.owners) != [0, 1, 2, 3]:
            raise ValidationError(f"ownership must cover qubits 0..3, got {sorted(self.owners)}")
        if set(self.owners.values()) != set(Role):
            raise ValidationError("every role must own at least one qubit")

    def qubits_of(self, role: Role) -> list[int]:
        return sorted(q for q, r in self.owners.items() if r is role)

    def owns(self, role: Role, qubits) -> bool:
        return all(self.owners.get(q) is role for q in qubits)


def default_ownership() -> OwnershipTable:
    return OwnershipTable({0: Role.ALICE, 1: Role.ALICE, 2: Role.BOB, 3: Role.CHARLIE})


def read_transcript(path) -> tuple[list[str], list[TraceEvent]]:
    """Split a transcript into '# ' metadata lines and parsed protocol events."""
    meta: list[str] = []
    events: list[TraceEvent] = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            meta.append(line.lstrip("#").strip())
        else:
            events.append(parse_event_line(line))
    return meta, events


class _SessionError(Exception):
    """Internal: an op failed; carries the wire error code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        coord: Coordinator = self.server.coordinator  # type: ignore[attr-defined]
        stream = MessageStream(self.rfile, self.wfile, session_id=coord.session_id)
        role: Role | None = None
        try:
            while True:
                try:
                    message = stream.recv()
                except FrameError as exc:
                    self._safe_error(stream, ERR_FRAME, str(exc))
                    return
                if message is None:
                    return
                try:
                    if message.kind is Kind.HELLO:
                        role = coord.hello(message.body, stream)
                    elif role is None:
                        raise _SessionError(ERR_PHASE, "say Hello before anything else")
                    elif message.kind is Kind.OP_REQUEST:
                        coord.op_request(role, message.body, stream)
                    elif message.kind is Kind.CLASSICAL:
                        coord.classical(role, message.body)
                    elif message.kind is Kind.FINISH:
                        coord.finish(role)
                    else:
                        raise _SessionError(ERR_FRAME, f"unexpected kind {message.kind.value}")
                except _SessionError as exc:
                    self._safe_error(stream, exc.code, str(exc))
                    if exc.code in (ERR_FRAME, ERR_ROLE_TAKEN):
                        return
        finally:
            if role is not None:
                coord.detach(role)

    def _safe_error(self, stream: MessageStream, code: str, text: str) -> None:
        try:
            stream.send(Kind.ERROR, {"code": code, "message": text})
        except OSError:
            pass


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


def _measured(op: str, event) -> dict:
    """The OpResult of a measurement: its outcome and Born probability."""
    return {"op": op, "outcome": event.outcome.value, "probability": event.probability}


class Coordinator:
    """Drives one SessionRegister for three remote parties.

    The protocol engine (:mod:`ghztp.protocol`) makes every change to the
    session's state, phase and trace; the coordinator adds what the network
    needs: locality, who may make which move, the wait for outstanding Bell
    corrections before Charlie measures, relaying, and the transcript. Every
    move and transcript write happens under one lock, so the transcript is a
    total order consistent with each connection's send order.
    """

    def __init__(
        self,
        signal: SignalState,
        seed: int,
        transcript_path,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        self.signal = signal
        self.session_id = uuid.uuid4().hex[:12]
        self.ownership = default_ownership()
        self.timeout = timeout
        self.transcript_path = Path(transcript_path)

        self._selector = SeededSelector(seed)
        self._lock = threading.Lock()
        self._settled = threading.Condition(self._lock)
        self._session: SessionRegister | None = None  # None until prepared
        self._written = 0  # trace events already in the transcript
        self._streams: dict[Role, MessageStream] = {}
        self._finished: set[Role] = set()
        self._done = threading.Event()

        self._transcript = open(self.transcript_path, "w", buffering=1)
        self._meta(f"session id={self.session_id} seed={seed}")
        self._meta(f"signal alpha={signal.alpha!r} beta={signal.beta!r}")
        self._server = _Server((host, port), _Handler)
        self._server.coordinator = self  # type: ignore[attr-defined]
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    # -- lifecycle --------------------------------------------------------

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def start(self) -> None:
        self._thread.start()

    def wait(self, timeout: float | None = None) -> bool:
        return self._done.wait(self.timeout if timeout is None else timeout)

    def shutdown(self) -> None:
        with self._lock:
            if not self._transcript.closed:
                status = "complete" if self._done.is_set() else "incomplete"
                self._transcript.write(f"# session {status}\n")
                self._transcript.close()
        self._server.shutdown()
        self._server.server_close()

    def serve(self, timeout: float | None = None) -> bool:
        """Run until the session completes or the timeout elapses."""
        self.start()
        try:
            return self.wait(timeout)
        finally:
            self.shutdown()

    def state_fingerprint(self) -> int | None:
        """Hash of the exact amplitude bits; None before preparation."""
        with self._lock:
            return None if self._session is None else hash(self._session.state)

    # -- moves and the transcript -------------------------------------------

    def _meta(self, text: str) -> None:
        if not self._transcript.closed:
            self._transcript.write(f"# {text}\n")

    @contextlib.contextmanager
    def _move(self):
        """Hold the lock for one move, refusing it with ERR_PHASE where the
        engine does, then write the trace events it added and wake waiters."""
        with self._lock:
            try:
                yield
            except PhaseError as exc:
                raise _SessionError(ERR_PHASE, str(exc)) from None
            finally:
                if self._session is not None and not self._transcript.closed:
                    for event in self._session.trace.events[self._written:]:
                        self._transcript.write(event_line(event) + "\n")
                    self._written = len(self._session.trace.events)
                self._settled.notify_all()

    def _prepared(self) -> SessionRegister:
        if self._session is None:
            raise _SessionError(ERR_PHASE, "session not prepared")
        return self._session

    # -- message handlers ----------------------------------------------------

    def hello(self, body: dict, stream: MessageStream) -> Role:
        try:
            role = Role(body["role"])
        except (KeyError, ValueError, TypeError):
            raise _SessionError(ERR_FRAME, f"Hello needs a valid role, got {body!r}")
        with self._lock:
            if role in self._streams:
                raise _SessionError(ERR_ROLE_TAKEN, f"role {role.value} already connected")
            self._streams[role] = stream
            self._meta(f"hello role={role.value}")
            if len(self._streams) == len(Role):
                # Grant doubles as the session-start signal for every party.
                for granted_role, granted_stream in self._streams.items():
                    granted_stream.send(
                        Kind.GRANT,
                        {
                            "role": granted_role.value,
                            "qubits": self.ownership.qubits_of(granted_role),
                        },
                    )
        return role

    def detach(self, role: Role) -> None:
        with self._lock:
            if self._streams.get(role) is not None:
                self._streams.pop(role, None)
                self._meta(f"disconnect role={role.value}")

    def finish(self, role: Role) -> None:
        with self._lock:
            self._finished.add(role)
            self._meta(f"finish role={role.value}")
            self._check_done()

    def _check_done(self) -> None:
        session = self._session
        if session is not None and session.phase is Phase.DONE and self._finished == set(Role):
            self._done.set()

    def classical(self, role: Role, body: dict) -> None:
        try:
            recipients = frozenset(Role(r) for r in body["recipients"])
            payload = _parse_payload(body["payload"])
        except (KeyError, ValueError, TypeError):
            raise _SessionError(ERR_FRAME, f"malformed Classical body {body!r}")
        with self._move():
            message = send(self._prepared(), role, recipients, payload)
            for recipient in sorted(recipients, key=lambda r: r.value):
                target = self._streams.get(recipient)
                if target is not None:
                    target.send(
                        Kind.CLASSICAL,
                        {
                            "seq": message.seq,
                            "sender": role.value,
                            "recipients": sorted(r.value for r in recipients),
                            "payload": payload.value,
                        },
                    )

    def op_request(self, role: Role, body: dict, stream: MessageStream) -> dict:
        op = body.get("op")
        handlers = {
            "prepare": self._op_prepare,
            "bell_measure": self._op_bell_measure,
            "apply_correction": self._op_apply_correction,
            "basis_measure": self._op_basis_measure,
            "fetch_bob_state": self._op_fetch_bob_state,
        }
        handler = handlers.get(op) if isinstance(op, str) else None
        if handler is None:
            raise _SessionError(ERR_FRAME, f"unknown op {op!r}")
        with self._move():
            result = handler(role, body)
            # Reply while still holding the lock. A correction op wakes the
            # blocked Charlie handler, and Charlie's Classical relay must not
            # reach the correcting party before this OpResult does.
            stream.send(Kind.OP_RESULT, result)
        return result

    # -- ops (lock held) -------------------------------------------------------

    def _require_qubits(self, role: Role, qubits) -> list[int]:
        try:
            qubits = [int(q) for q in qubits]
        except (TypeError, ValueError):
            raise _SessionError(ERR_FRAME, f"bad qubit list {qubits!r}")
        if not self.ownership.owns(role, qubits):
            raise _SessionError(
                ERR_LOCALITY,
                f"locality violation: {role.value} does not own {qubits}",
            )
        return qubits

    def _op_prepare(self, role: Role, body: dict) -> dict:
        if role is not Role.ALICE:
            raise _SessionError(ERR_PHASE, "prepare is Alice's move")
        if len(self._streams) < len(Role):
            raise _SessionError(ERR_PHASE, "session not ready: parties missing")
        if self._session is not None:
            raise _SessionError(ERR_PHASE, "already prepared")
        self._session = compose_session(self.signal)
        return {"op": "prepare", "ok": True}

    def _op_bell_measure(self, role: Role, body: dict) -> dict:
        qubits = self._require_qubits(role, body.get("qubits", ()))
        if qubits != [QUBIT_D, QUBIT_A]:
            raise _SessionError(ERR_PHASE, f"bell_measure covers the (D, A) pair, got {qubits}")
        return _measured("bell_measure", bell_measure(self._prepared(), self._selector))

    def _op_apply_correction(self, role: Role, body: dict) -> dict:
        (qubit,) = self._require_qubits(role, [body.get("qubit")])
        name = body.get("unitary")
        unitary = NAMED_UNITARIES.get(name) if isinstance(name, str) else None
        # Identity corrections never cross the wire: parties skip them.
        if unitary is None or unitary.is_identity():
            raise _SessionError(ERR_PHASE, f"no correction {name!r} is ever requested")
        correct(self._prepared(), role, unitary)
        return {"op": "apply_correction", "applied": name, "qubit": qubit}

    def _op_basis_measure(self, role: Role, body: dict) -> dict:
        self._require_qubits(role, [body.get("qubit")])
        if body.get("basis") != "plus_minus":
            raise _SessionError(ERR_PHASE, f"unsupported basis {body.get('basis')!r}")
        if role is not Role.CHARLIE:
            raise _SessionError(ERR_PHASE, "basis_measure is Charlie's move")
        session = self._prepared()
        # Wait for outstanding Bell corrections so the measurement happens on
        # exactly the state the in-process run measures (bitwise); on timeout
        # the engine refuses the measurement.
        self._settled.wait_for(lambda: session.phase is not Phase.BELL_MEASURED, self.timeout)
        return _measured("basis_measure", basis_measure(session, self._selector))

    def _op_fetch_bob_state(self, role: Role, body: dict) -> dict:
        self._require_qubits(role, [body.get("qubit")])
        if role is not Role.BOB:
            raise _SessionError(ERR_PHASE, "fetch_bob_state is Bob's move")
        bob_state, fidelity = bob_finish(self._prepared())
        self._check_done()
        return {
            "op": "fetch_bob_state",
            "amplitudes": [[a.real, a.imag] for a in bob_state.amplitudes],
            "fidelity": fidelity,
        }


# --- party scripts ---------------------------------------------------------------


class PartyError(RuntimeError):
    """The coordinator sent something the role's script cannot accept."""


@dataclass
class PartyConfig:
    host: str = "127.0.0.1"
    port: int = 0
    timeout: float = DEFAULT_TIMEOUT
    stop_before: str | None = None  # bell | broadcast | correction | measure | send | finish


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
    with socket.create_connection((config.host, config.port), timeout=config.timeout) as sock:
        sock.settimeout(config.timeout)
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
    return _parse_payload(message.body["payload"])


def _apply_if_needed(stream: MessageStream, qubit: int, unitary) -> None:
    if unitary.is_identity():
        return  # identity corrections are never requested
    stream.send(
        Kind.OP_REQUEST,
        {"op": "apply_correction", "qubit": qubit, "unitary": unitary.name},
    )
    _expect(stream, Kind.OP_RESULT, "apply_correction")


def _run_bob(stream: MessageStream, qubit: int, stop: str | None) -> None:
    bell = _receive_payload(stream)
    if not isinstance(bell, BellOutcome):
        raise PartyError(f"expected a Bell outcome first, got {bell!r}")
    if stop == "correction":
        return
    _apply_if_needed(stream, qubit, BELL_CORRECTION_TABLE[bell][0])
    charlie = _receive_payload(stream)
    if not isinstance(charlie, CharlieOutcome):
        raise PartyError(f"expected Charlie's outcome, got {charlie!r}")
    _apply_if_needed(stream, qubit, CHARLIE_CORRECTION_TABLE[charlie])
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
    _apply_if_needed(stream, qubit, BELL_CORRECTION_TABLE[bell][1])
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


# --- orchestration ------------------------------------------------------------------


@dataclass
class ComparisonReport:
    """Networked run vs the in-process reference with the same (signal, seed)."""

    match: bool
    problems: list[str] = field(default_factory=list)
    stalled_role: str | None = None
    stalled_at: str | None = None
    net_fidelity: float | None = None
    reference_fidelity: float = 0.0
    transcript: str = ""

    def to_json(self) -> dict:
        return {
            "match": self.match,
            "problems": list(self.problems),
            "stalled_role": self.stalled_role,
            "stalled_at": self.stalled_at,
            "net_fidelity": self.net_fidelity,
            "reference_fidelity": self.reference_fidelity,
            "transcript": self.transcript,
        }


def _is_identity_correction(event: TraceEvent) -> bool:
    return (
        isinstance(event, (CorrectionApplied, BobCorrected)) and event.unitary == "I"
    )


def infer_stall(meta: list[str], events: list[TraceEvent]) -> tuple[str, str] | None:
    """(stalled_role, stalled_at) from a partial transcript, or None if complete."""
    helloed = {line.split("role=")[1] for line in meta if line.startswith("hello role=")}
    missing = sorted(r.value for r in Role if r.value not in helloed)
    if missing:
        return ",".join(missing), "Join"
    if not any(isinstance(e, SignalPrepared) for e in events):
        return Role.ALICE.value, "Prepare"
    if not any(isinstance(e, BellMeasured) for e in events):
        return Role.ALICE.value, "BellMeasure"
    if not any(isinstance(e, ClassicalMessage) and e.sender is Role.ALICE for e in events):
        return Role.ALICE.value, "Broadcast"
    if not any(isinstance(e, CharlieMeasured) for e in events):
        return Role.CHARLIE.value, "CharlieMeasure"
    if not any(isinstance(e, ClassicalMessage) and e.sender is Role.CHARLIE for e in events):
        return Role.CHARLIE.value, "CharlieSend"
    if not any(isinstance(e, Finished) for e in events):
        return Role.BOB.value, "BobFinish"
    return None


def compare_transcript(
    reference: ProtocolResult, meta: list[str], events: list[TraceEvent]
) -> ComparisonReport:
    """Dependency-order and bitwise-value comparison of a networked transcript.

    The networked trace legitimately omits identity corrections and may order
    Bob's and Charlie's (commuting) corrections either way, so correction
    lines are compared as sets; every other shared line must match byte for
    byte, which makes fidelity equality exact rather than approximate.
    """
    report = ComparisonReport(match=False, reference_fidelity=reference.fidelity)
    stall = infer_stall(meta, events)
    if stall is not None:
        report.stalled_role, report.stalled_at = stall
        report.problems.append(f"session stalled at {report.stalled_at}")
        return report

    report.problems.extend(trace_order_errors(events))

    ref_lines = [event_line(e) for e in reference.trace.events if not _is_identity_correction(e)]
    net_lines = [event_line(e) for e in events]

    def lines_of(prefix: str, lines: list[str]) -> list[str]:
        return [line for line in lines if line.split(" ", 1)[0] == prefix]

    for kind in ("GhzPrepared", "SignalPrepared", "BellMeasured", "CharlieMeasured",
                 "Classical", "Finished"):
        ref_subset = lines_of(kind, ref_lines)
        net_subset = lines_of(kind, net_lines)
        if ref_subset != net_subset:
            report.problems.append(
                f"{kind} lines differ: expected {ref_subset!r}, got {net_subset!r}"
            )

    ref_corrections = sorted(
        lines_of("CorrectionApplied", ref_lines) + lines_of("BobCorrected", ref_lines)
    )
    net_corrections = sorted(
        lines_of("CorrectionApplied", net_lines) + lines_of("BobCorrected", net_lines)
    )
    if ref_corrections != net_corrections:
        report.problems.append(
            f"correction lines differ: expected {ref_corrections!r}, got {net_corrections!r}"
        )

    finished = [e for e in events if isinstance(e, Finished)]
    if finished:
        report.net_fidelity = finished[0].fidelity
        if finished[0].fidelity != reference.fidelity:
            report.problems.append(
                f"fidelity differs: net {finished[0].fidelity!r} "
                f"vs reference {reference.fidelity!r}"
            )
    report.match = not report.problems
    return report


def _spawn(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "ghztp", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _terminate(processes) -> None:
    for proc in processes:
        if proc.poll() is None:
            proc.kill()
    for proc in processes:
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            pass


def orchestrate(
    signal: SignalState,
    seed: int,
    port: int = 0,
    drop: Role | None = None,
    timeout: float = DEFAULT_TIMEOUT,
    transcript_dir=None,
    host: str = "127.0.0.1",
) -> ComparisonReport:
    """Spawn coordinator + three parties and compare against the in-process run.

    With ``drop`` set, that party joins and then goes silent at its scripted
    step; the session must then stall instead of finishing.
    """
    reference = run_protocol(signal, seed=seed)
    directory = Path(transcript_dir) if transcript_dir else Path(tempfile.mkdtemp(prefix="ghztp-"))
    directory.mkdir(parents=True, exist_ok=True)
    transcript = directory / "net-transcript.log"

    serve_args = [
        "net", "serve",
        "--host", host,
        "--port", str(port),
        "--seed", str(seed),
        "--alpha", repr(signal.alpha.real), repr(signal.alpha.imag),
        "--beta", repr(signal.beta.real), repr(signal.beta.imag),
        "--transcript", str(transcript),
        "--timeout", repr(timeout),
    ]
    coordinator = _spawn(serve_args)
    parties: list[subprocess.Popen] = []
    try:
        ready = coordinator.stdout.readline()
        if not ready.startswith("READY port="):
            _terminate([coordinator])
            stderr = coordinator.stderr.read() if coordinator.stderr else ""
            report = ComparisonReport(match=False, reference_fidelity=reference.fidelity)
            report.problems.append(f"coordinator failed to start: {ready!r} {stderr!r}")
            report.transcript = str(transcript)
            return report
        actual_port = int(ready.strip().split("=", 1)[1])

        for role in Role:
            party_args = [
                "net", "party",
                "--role", role.value,
                "--host", host,
                "--port", str(actual_port),
                "--timeout", repr(timeout),
            ]
            if drop is role:
                party_args += ["--stop-before", DROP_STAGE[role]]
            parties.append(_spawn(party_args))

        deadline = time.monotonic() + timeout + 15.0
        while coordinator.poll() is None and time.monotonic() < deadline:
            time.sleep(0.02)
    finally:
        _terminate([coordinator, *parties])

    meta, events = read_transcript(transcript) if transcript.exists() else ([], [])
    report = compare_transcript(reference, meta, events)
    report.transcript = str(transcript)
    if report.stalled_role is None:
        for role, proc in zip(Role, parties):
            if proc.returncode not in (0, None):
                report.problems.append(f"party {role.value} exited with {proc.returncode}")
                report.match = False
    return report
