"""The protocol over TCP: a coordinator that drives the protocol engine for
the party clients of :mod:`ghztp.party`. ``orchestrate`` serves the session
in the calling process and spawns the three parties as their own processes.

Amplitudes cannot be physically distributed in a classical simulation, so
the coordinator holds the only session register and parties act on it
through OpRequests, each of which the coordinator turns into one move of
:mod:`ghztp.protocol`, the same moves the in-process run makes. Locality is
preserved operationally: a fixed map says which qubits each role may touch,
measurement results go only to the requesting party, and classical messages
are relayed (star topology) through the coordinator, which also writes the
single ordered transcript from the session's trace.

Randomness lives only in the coordinator, which consumes its seeded PRNG in
the same order as the in-process run (Bell draw, then Charlie draw), and it
holds Charlie's Bell correction until Bob has made his. So for a given
(signal, seed) the networked transcript is the in-process trace, minus the
identity corrections that never cross the wire, byte for byte.
"""

from __future__ import annotations

import contextlib
import os
import socketserver
import subprocess
import sys
import tempfile
import threading
import uuid
from dataclasses import asdict, dataclass, field
from itertools import zip_longest
from pathlib import Path

from .qsim import IDENTITY, NAMED_UNITARIES, SeededSelector
from .party import DEFAULT_TIMEOUT, PartyConfig, PartyError, run_party  # noqa: F401 (re-exported)
from .protocol import (
    BellMeasured,
    BobCorrected,
    CharlieMeasured,
    ClassicalMessage,
    CorrectionApplied,
    Finished,
    GhzPrepared,
    Phase,
    PhaseError,
    ProtocolResult,
    SessionRegister,
    SignalPrepared,
    SignalState,
    TraceEvent,
    basis_measure,
    bell_measure,
    bob_finish,
    compose_session,
    correct,
    event_line,
    parse_event_line,
    run_protocol,
    send,
)
from .vocab import IDENTITY_NAME, QUBIT_A, QUBIT_D, QUBITS_OF, Role, parse_payload
from .wire import (
    ERR_FRAME,
    ERR_LOCALITY,
    ERR_PHASE,
    ERR_ROLE_TAKEN,
    FrameError,
    Kind,
    MessageStream,
)

# Characters of a party's stderr that orchestrate reports when the party fails.
STDERR_TAIL = 500

# The directory this ghztp was imported from; party children import it from there too.
PACKAGE_ROOT = str(Path(__file__).resolve().parent.parent)

# Where each role's script stops when orchestrate is asked to drop it; the
# dropped party joins, then goes silent right before this step.
DROP_STAGE = {Role.ALICE: "bell", Role.BOB: "finish", Role.CHARLIE: "measure"}


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
    disable_nagle_algorithm = True  # small replies must not wait for a delayed ACK

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
    needs: locality, who may make which move, relaying, the transcript, and
    holding Charlie's moves until Bob owes no Bell correction, which puts
    every session in the in-process order (Charlie owes a correction whenever
    Bob does). Every move and transcript write happens under one lock, so the
    transcript is a total order consistent with each connection's send order.
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

        # Bind first: a port that is taken raises OSError before any file is opened.
        self._server = _Server((host, port), _Handler)
        self._server.coordinator = self  # type: ignore[attr-defined]
        try:
            self._transcript = open(self.transcript_path, "w", buffering=1)
        except OSError:
            self._server.server_close()
            raise
        self._meta(f"session id={self.session_id} seed={seed}")
        self._meta(f"signal alpha={signal.alpha!r} beta={signal.beta!r}")
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
                        {"role": granted_role.value, "qubits": QUBITS_OF[granted_role]},
                    )
        return role

    def detach(self, role: Role) -> None:
        # Only a party that leaves before its Finish can explain a stall; after
        # it, whether the line lands before shutdown would vary from run to run.
        with self._lock:
            if self._streams.pop(role, None) is not None and role not in self._finished:
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
            payload = parse_payload(body["payload"])
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
        # A JSON list of integers; a bool is not one, though Python says so.
        if not isinstance(qubits, list) or not all(type(q) is int for q in qubits):
            raise _SessionError(ERR_FRAME, f"bad qubit list {qubits!r}")
        if not all(q in QUBITS_OF[role] for q in qubits):
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
        qubits = self._require_qubits(role, body.get("qubits"))
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
        session = self._prepared()
        if role is Role.CHARLIE:
            self._wait_for_bob(session)
        correct(session, role, unitary)
        return {"op": "apply_correction", "applied": name, "qubit": qubit}

    def _op_basis_measure(self, role: Role, body: dict) -> dict:
        self._require_qubits(role, [body.get("qubit")])
        if body.get("basis") != "plus_minus":
            raise _SessionError(ERR_PHASE, f"unsupported basis {body.get('basis')!r}")
        if role is not Role.CHARLIE:
            raise _SessionError(ERR_PHASE, "basis_measure is Charlie's move")
        session = self._prepared()
        self._wait_for_bob(session)
        return _measured("basis_measure", basis_measure(session, self._selector))

    def _wait_for_bob(self, session: SessionRegister) -> None:
        """Hold Charlie's correction or measurement until Bob owes no Bell
        correction, the in-process order; refused on timeout."""
        if not self._settled.wait_for(
            lambda: session.phase is not Phase.BELL_MEASURED
            or session.owed.get(Role.BOB, IDENTITY).is_identity(),
            self.timeout,
        ):
            raise _SessionError(ERR_PHASE, "Bob has not made his Bell correction")

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
        return asdict(self)


def _networked(reference: ProtocolResult) -> list[TraceEvent]:
    """The reference trace as a networked session writes it: identity
    corrections never cross the wire."""
    return [
        e for e in reference.trace.events
        if not (isinstance(e, (CorrectionApplied, BobCorrected)) and e.unitary == IDENTITY_NAME)
    ]


def _move_of(event: TraceEvent) -> tuple[str, str]:
    """The role that writes ``event``, and the name of that move as a stall label."""
    if isinstance(event, (GhzPrepared, SignalPrepared)):
        return Role.ALICE.value, "Prepare"
    if isinstance(event, BellMeasured):
        return Role.ALICE.value, "BellMeasure"
    if isinstance(event, ClassicalMessage):
        return event.sender.value, "Broadcast" if event.sender is Role.ALICE else "CharlieSend"
    if isinstance(event, CorrectionApplied):
        return event.role.value, "BellCorrection"
    if isinstance(event, CharlieMeasured):
        return Role.CHARLIE.value, "CharlieMeasure"
    return Role.BOB.value, "BobFinish"  # BobCorrected, Finished


def infer_stall(
    reference: ProtocolResult, meta: list[str], events: list[TraceEvent]
) -> tuple[str, str] | None:
    """(stalled_role, stalled_at) when a party never joined or the events are
    a proper prefix of the reference's; None for a complete or a mismatching
    transcript."""
    helloed = {line.split("role=")[1] for line in meta if line.startswith("hello role=")}
    missing = sorted(r.value for r in Role if r.value not in helloed)
    if missing:
        return ",".join(missing), "Join"
    expected = _networked(reference)
    got = [event_line(e) for e in events]
    if len(got) < len(expected) and got == [event_line(e) for e in expected[: len(got)]]:
        return _move_of(expected[len(got)])
    return None


def compare_transcript(
    reference: ProtocolResult, meta: list[str], events: list[TraceEvent]
) -> ComparisonReport:
    """Compare a networked transcript with the in-process run, line for line.

    A networked session writes the reference trace without its identity
    corrections, in the same order, so the event lines must be equal byte for
    byte; that makes outcome, probability and fidelity equality exact. A
    proper prefix is a stall (see :func:`infer_stall`); anything else is a
    mismatch at the first differing event.
    """
    report = ComparisonReport(match=False, reference_fidelity=reference.fidelity)
    stall = infer_stall(reference, meta, events)
    if stall is not None:
        report.stalled_role, report.stalled_at = stall
        report.problems.append(f"session stalled at {report.stalled_at}")
        return report

    report.net_fidelity = next((e.fidelity for e in events if isinstance(e, Finished)), None)
    expected = [event_line(e) for e in _networked(reference)]
    got = [event_line(e) for e in events]
    if got != expected:
        index, want, have = next(
            (i, want, have)
            for i, (want, have) in enumerate(zip_longest(expected, got))
            if want != have
        )
        report.problems.append(f"event {index + 1} differs: expected {want!r}, got {have!r}")
    report.match = not report.problems
    return report


def _spawn(args: list[str]) -> subprocess.Popen:
    """Start ``ghztp <args>`` on this process's ghztp; its stderr is read when
    it is reaped."""
    path = os.pathsep.join(p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
    return subprocess.Popen(
        [sys.executable, "-m", "ghztp", *args],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )


def _terminate(processes, grace: float) -> list[str]:
    """Reap each process, killing it if it is still running after ``grace``
    seconds; returns the tail of each one's stderr."""
    tails = []
    for proc in processes:
        try:
            _, stderr = proc.communicate(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, stderr = proc.communicate()
        tails.append(stderr[-STDERR_TAIL:].strip())
    return tails


def orchestrate(
    signal: SignalState,
    seed: int,
    port: int = 0,
    drop: Role | None = None,
    timeout: float = DEFAULT_TIMEOUT,
    transcript_dir=None,
    host: str = "127.0.0.1",
) -> ComparisonReport:
    """Serve one session in this process to three spawned party processes,
    then compare it with the in-process run of the same (signal, seed).

    With ``drop`` set, that party joins and then goes silent at its scripted
    step; the session must then stall instead of finishing.
    """
    reference = run_protocol(signal, seed=seed)
    directory = Path(transcript_dir) if transcript_dir else Path(tempfile.mkdtemp(prefix="ghztp-"))
    directory.mkdir(parents=True, exist_ok=True)
    transcript = directory / "net-transcript.log"

    try:
        coordinator = Coordinator(signal, seed, transcript, host, port, timeout)
    except OSError as exc:
        # open() names its file, bind() names none
        cause = f"cannot open transcript {transcript}" if exc.filename else f"cannot bind {host}:{port}"
        return ComparisonReport(
            match=False,
            problems=[f"coordinator failed to start: {cause}: {exc}"],
            reference_fidelity=reference.fidelity,
            transcript=str(transcript),
        )
    parties: list[subprocess.Popen] = []
    done = False
    try:
        coordinator.start()
        for role in Role:
            party_args = [
                "net", "party",
                "--role", role.value,
                "--host", host,
                "--port", str(coordinator.port),
                "--timeout", repr(timeout),
            ]
            if drop is role:
                party_args += ["--stop-before", DROP_STAGE[role]]
            parties.append(_spawn(party_args))
        done = coordinator.wait()
    finally:
        # A party waits on the coordinator no longer than the coordinator waits
        # on the session, so one that has exited by now did so on its own.
        exited = [proc.poll() is not None for proc in parties]
        coordinator.shutdown()
        # Parties of a finished session are on their way out: let them exit.
        stderr_tails = _terminate(parties, timeout if done else 0.0)

    meta, events = read_transcript(transcript)
    report = compare_transcript(reference, meta, events)
    report.transcript = str(transcript)
    for role, proc, tail, on_its_own in zip(Role, parties, stderr_tails, exited):
        # After a stall the parties still waiting are killed; only a party that
        # failed on its own can say why the session stalled.
        if proc.returncode != 0 and (report.stalled_role is None or on_its_own):
            report.problems.append(
                f"party {role.value} exited with {proc.returncode}, stderr ends {tail!r}"
            )
            report.match = False
    return report
