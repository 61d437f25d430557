"""The protocol over TCP: a coordinator that drives the protocol engine for
the party clients of :mod:`ghztp.party`. ``orchestrate`` serves the session
in the calling process and spawns one party host, which forks the three
parties as their own processes (so it needs ``os.fork``: POSIX only).

Amplitudes cannot be physically distributed in a classical simulation, so
the coordinator holds the only session register and parties act on it
through OpRequests, each of which the coordinator turns into one move of
:mod:`ghztp.protocol`, the same moves the in-process run makes. Locality is
preserved operationally: a fixed map says which qubits each role may touch,
measurement results go only to the requesting party, and classical messages
are relayed (star topology) through the coordinator, which also writes the
single ordered transcript from the session's trace.

Randomness lives only in the coordinator, which consumes its seeded PRNG in
the same order as the in-process run (Bell draw, then Charlie draw). The
engine admits moves only in the in-process order: it refuses a move that is
not due, and raises NotYet for one that is due only after another role's
correction (Charlie's Bell correction, before Bob's), which the coordinator
holds and retries. So for a given (signal, seed) the networked transcript is
the in-process trace, minus the identity corrections that never cross the
wire, byte for byte.

One thread serves a session: a ``selectors`` loop over the listening socket
and every party's connection, which handles one message at a time. Shutdown
wakes that loop, joins it, and closes the listener and every connection at
once, with no poll to wait out.
"""

from __future__ import annotations

import contextlib
import json
import os
import select
import selectors
import socket
import subprocess
import sys
import tempfile
import threading
import time
import uuid
from collections import deque, namedtuple
from dataclasses import asdict, dataclass, field
from itertools import zip_longest
from pathlib import Path
from signal import SIGKILL, SIGTERM

from .qsim import NAMED_UNITARIES, SeededSelector
from .party import (  # noqa: F401 (re-exported)
    DEFAULT_TIMEOUT,
    STDERR_TAIL,
    PartyConfig,
    PartyError,
    run_party,
)
from .protocol import (
    BellMeasured,
    BobCorrected,
    CharlieMeasured,
    ClassicalMessage,
    CorrectionApplied,
    Finished,
    GhzPrepared,
    NotYet,
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
    MAX_LINE_BYTES,
    FrameError,
    Kind,
    MessageStream,
)

# Characters of an Error's text a party is sent. The text may quote the
# request, and the Error must still fit in one line under the wire's cap.
MAX_ERROR_TEXT = 1000

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


class _Connection:
    """One party's socket, the bytes it sent that are not yet handled, and
    the role it joined as.

    It is the write end of its own MessageStream. A send that fails marks it
    broken instead of raising, and the loop closes it after the message in
    hand, so one party's dead socket never undoes a move another party made.
    """

    def __init__(self, sock: socket.socket, session_id: str):
        self.sock = sock
        self.stream = MessageStream(None, self, session_id=session_id)
        self.buffer = bytearray()
        self.role: Role | None = None
        self.broken = False

    def write(self, data: bytes) -> None:
        if not self.broken:
            try:
                self.sock.sendall(data)
            except OSError:  # a reset, or a party that reads nothing for the timeout
                self.broken = True

    def flush(self) -> None:
        pass

    def next_line(self) -> bytes | None:
        """Cut the next line off the buffer as ``readline(MAX_LINE_BYTES + 1)``
        would read it; None until its newline has arrived."""
        end = self.buffer.find(b"\n", 0, MAX_LINE_BYTES + 1) + 1
        if not end and len(self.buffer) <= MAX_LINE_BYTES:
            return None
        line = bytes(self.buffer[: end or MAX_LINE_BYTES + 1])
        del self.buffer[: len(line)]
        return line


# A request that is not due yet, held until it is made or its deadline passes.
_Held = namedtuple("_Held", "conn message deadline")


def _measured(op: str, event) -> dict:
    """The OpResult of a measurement: its outcome and Born probability."""
    return {"op": op, "outcome": event.outcome.value, "probability": event.probability}


class Coordinator:
    """Drives one SessionRegister for three remote parties.

    The protocol engine (:mod:`ghztp.protocol`) makes every change to the
    session's state, due moves and trace, and admits moves only in the
    in-process order; the coordinator adds what the network needs: locality,
    relaying, the transcript, and holding a request the engine calls NotYet
    until it is due or its deadline passes. One thread serves the session: it
    accepts the parties and handles every message of every connection, one at
    a time, so the transcript is a total order consistent with each
    connection's send order.
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
        self._session: SessionRegister | None = None  # None until prepared
        self._written = 0  # trace events already in the transcript
        self._streams: dict[Role, MessageStream] = {}
        self._finished: set[Role] = set()
        self._done = threading.Event()
        self._connections: dict[_Connection, None] = {}  # open ones, in accept order
        self._ready: deque[_Connection] = deque()  # may have lines to handle
        self._held: _Held | None = None

        # Bind first: a port that is taken raises OSError before any file is opened.
        self._listener = socket.socket()
        try:
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            self._listener.listen()
            self._transcript = open(self.transcript_path, "w", buffering=1)
        except OSError:
            self._listener.close()
            raise
        self._meta(f"session id={self.session_id} seed={seed}")
        self._meta(f"signal alpha={signal.alpha!r} beta={signal.beta!r}")
        self._listener.setblocking(False)
        self._wake, self._waker = socket.socketpair()  # shutdown writes to the waker
        self._poller = selectors.DefaultSelector()
        self._poller.register(self._listener, selectors.EVENT_READ)
        self._poller.register(self._wake, selectors.EVENT_READ)
        self._thread = threading.Thread(target=self._serve, daemon=True)

    # -- lifecycle --------------------------------------------------------

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    def start(self) -> None:
        self._thread.start()

    def wait(self, timeout: float | None = None) -> bool:
        return self._done.wait(self.timeout if timeout is None else timeout)

    def shutdown(self) -> None:
        """Stop the loop, close the listener and every connection, and end
        the transcript. A party cut off here gets no ``# disconnect`` line."""
        if self._thread.is_alive():
            self._waker.send(b"\0")
            self._thread.join()
        if self._transcript.closed:
            return
        for conn in self._connections:
            conn.sock.close()
        for sock in (self._listener, self._wake, self._waker):
            sock.close()
        self._poller.close()
        status = "complete" if self._done.is_set() else "incomplete"
        self._transcript.write(f"# session {status}\n")
        self._transcript.close()

    def serve(self, timeout: float | None = None) -> bool:
        """Run until the session completes or the timeout elapses."""
        self.start()
        try:
            return self.wait(timeout)
        finally:
            self.shutdown()

    def state_fingerprint(self) -> int | None:
        """Hash of the exact amplitude bits; None before preparation."""
        # A move replaces the state, which is immutable, so no lock is needed.
        session = self._session
        return None if session is None else hash(session.state)

    # -- the loop ---------------------------------------------------------------

    def _serve(self) -> None:
        while True:
            held = self._held
            timeout = None if held is None else max(0.0, held.deadline - time.monotonic())
            for key, _ in self._poller.select(timeout):
                if key.fileobj is self._wake:
                    return
                if key.fileobj is self._listener:
                    self._accept()
                else:
                    self._receive(key.data)
            self._settle()
            while self._ready:
                self._process(self._ready.popleft())

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:  # the client gave up before it was accepted
            return
        # Bounds every send; small replies must not wait for a delayed ACK.
        sock.settimeout(self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Connection(sock, self.session_id)
        self._connections[conn] = None
        self._poller.register(sock, selectors.EVENT_READ, conn)

    def _receive(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(MAX_LINE_BYTES)
        except OSError:  # reset by the party: its stream ends here
            data = b""
        if data:
            conn.buffer += data
            self._ready.append(conn)
            return
        if conn.buffer:
            self._handle(conn, bytes(conn.buffer))  # refused: the stream ended mid-line
        if conn in self._connections:
            self._close(conn)

    def _process(self, conn: _Connection) -> None:
        """Handle the lines ``conn`` has sent, in order, while it is open and
        has no request held."""
        while conn in self._connections and (self._held is None or self._held.conn is not conn):
            line = conn.next_line()
            if line is None:
                return
            self._handle(conn, line)
            self._settle()

    def _handle(self, conn: _Connection, line: bytes) -> None:
        """One line from ``conn``: the message on it, or its Error."""
        try:
            message = conn.stream.accept(line)
        except FrameError as exc:
            self._refuse(conn, _SessionError(ERR_FRAME, str(exc)))
        else:
            deadline = time.monotonic() + self.timeout
            if not self._answer(conn, message, deadline):
                # Nothing else from this party is read until its request is answered.
                self._held = _Held(conn, message, deadline)
                self._poller.unregister(conn.sock)

    def _answer(self, conn: _Connection, message, deadline: float) -> bool:
        """Make the move ``message`` asks for, or refuse it. A move that is
        not due yet changes nothing: it returns False until ``deadline``,
        and is refused after it."""
        try:
            if message.kind is Kind.HELLO:
                if conn.role is not None:  # one connection plays one role
                    raise _SessionError(ERR_FRAME, f"already joined as {conn.role.value}")
                conn.role = self.hello(message.body, conn.stream)
            elif conn.role is None:
                raise _SessionError(ERR_PHASE, "say Hello before anything else")
            elif message.kind is Kind.OP_REQUEST:
                self.op_request(conn.role, message.body, conn.stream)
            elif message.kind is Kind.CLASSICAL:
                self.classical(conn.role, message.body)
            elif message.kind is Kind.FINISH:
                self.finish(conn.role)
            else:
                raise _SessionError(ERR_FRAME, f"unexpected kind {message.kind.value}")
        except NotYet as exc:
            if time.monotonic() < deadline:
                return False
            self._refuse(conn, _SessionError(ERR_PHASE, str(exc)))
        except _SessionError as exc:
            self._refuse(conn, exc)
        return True

    def _refuse(self, conn: _Connection, exc: _SessionError) -> None:
        conn.stream.send(Kind.ERROR, {"code": exc.code, "message": str(exc)[:MAX_ERROR_TEXT]})
        if exc.code in (ERR_FRAME, ERR_ROLE_TAKEN):
            self._close(conn)

    def _settle(self) -> None:
        """After each message: retry the held move, which is answered once
        it is made or refused or its deadline has passed; then close every
        connection a send broke."""
        held = self._held
        if held is not None and self._answer(held.conn, held.message, held.deadline):
            self._held = None
            self._poller.register(held.conn.sock, selectors.EVENT_READ, held.conn)
            self._ready.append(held.conn)  # what the party sent while it waited
        for conn in [c for c in self._connections if c.broken]:
            self._close(conn)

    def _close(self, conn: _Connection) -> None:
        del self._connections[conn]
        if self._held is not None and self._held.conn is conn:
            self._held = None  # unregistered while held
        else:
            self._poller.unregister(conn.sock)
        conn.sock.close()
        if conn.role is not None:
            self.detach(conn.role)

    # -- moves and the transcript -------------------------------------------

    def _meta(self, text: str) -> None:
        self._transcript.write(f"# {text}\n")

    @contextlib.contextmanager
    def _move(self):
        """One move, refused with ERR_PHASE where the engine refuses it and
        passed on as NotYet where it waits; then write the trace events it
        added."""
        try:
            yield
        except NotYet:
            raise
        except PhaseError as exc:
            raise _SessionError(ERR_PHASE, str(exc)) from None
        finally:
            if self._session is not None:
                for event in self._session.trace.events[self._written:]:
                    self._transcript.write(event_line(event) + "\n")
                self._written = len(self._session.trace.events)

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
        if self._streams.pop(role, None) is not None and role not in self._finished:
            self._meta(f"disconnect role={role.value}")

    def finish(self, role: Role) -> None:
        self._finished.add(role)
        self._meta(f"finish role={role.value}")
        self._check_done()

    def _check_done(self) -> None:
        session = self._session
        if session is not None and not session.due and self._finished == set(Role):
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
        """Make the move one OpRequest asks for and send its OpResult; raises
        NotYet, having changed nothing, for a move that is not due yet."""
        op = body.get("op")
        handler = self._OPS.get(op) if isinstance(op, str) else None
        if handler is None:
            raise _SessionError(ERR_FRAME, f"unknown op {op!r}")
        with self._move():
            result = handler(self, role, body)
            stream.send(Kind.OP_RESULT, result)
        return result

    # -- ops ------------------------------------------------------------------

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
        correct(self._prepared(), role, unitary)
        return {"op": "apply_correction", "applied": name, "qubit": qubit}

    def _op_basis_measure(self, role: Role, body: dict) -> dict:
        self._require_qubits(role, [body.get("qubit")])
        if body.get("basis") != "plus_minus":
            raise _SessionError(ERR_PHASE, f"unsupported basis {body.get('basis')!r}")
        return _measured("basis_measure", basis_measure(self._prepared(), role, self._selector))

    def _op_fetch_bob_state(self, role: Role, body: dict) -> dict:
        self._require_qubits(role, [body.get("qubit")])
        bob_state, fidelity = bob_finish(self._prepared(), role)
        self._check_done()
        return {
            "op": "fetch_bob_state",
            "amplitudes": [[a.real, a.imag] for a in bob_state.amplitudes],
            "fidelity": fidelity,
        }

    _OPS = {
        "prepare": _op_prepare,
        "bell_measure": _op_bell_measure,
        "apply_correction": _op_apply_correction,
        "basis_measure": _op_basis_measure,
        "fetch_bob_state": _op_fetch_bob_state,
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
    # Each role's exit code and stderr tail, as the party host reported them.
    parties: dict[str, dict] = field(default_factory=dict)

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
    mismatch at the first differing event. Equal events in a session that
    never completed fail too: some role never sent its Finish.
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
    elif "session incomplete" in meta:
        finished = {line.split("role=")[1] for line in meta if line.startswith("finish role=")}
        unfinished = ",".join(sorted(r.value for r in Role if r.value not in finished))
        report.problems.append(f"session incomplete: no Finish from {unfinished}")
    report.match = not report.problems
    return report


def _spawn(args: list[str]) -> subprocess.Popen:
    """Start ``ghztp <args>`` on this process's ghztp, leading a process group
    of its own; its output is read as it is reaped."""
    path = os.pathsep.join(p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
    return subprocess.Popen(
        [sys.executable, "-m", "ghztp", *args],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )


def _reported(host: subprocess.Popen) -> bytes:
    """What the party host has written to stdout so far, without waiting.
    Its few short lines fit in the pipe, so one read takes them all."""
    fd = host.stdout.fileno()
    return os.read(fd, 1 << 16) if select.select([fd], [], [], 0)[0] else b""


def _party_lines(output: bytes) -> dict[str, dict]:
    """The party host's lines, by role; a line not yet ended is left out."""
    lines = (json.loads(line) for line in output.splitlines(keepends=True) if line.endswith(b"\n"))
    return {line["role"]: line for line in lines}


def _terminate(host: subprocess.Popen, grace: float) -> tuple[bytes, str]:
    """Reap the party host; returns its stdout and the tail of its stderr.

    If it is not done after ``grace`` seconds, SIGTERM its process group:
    the parties end, and the host, which ignores it, reaps and reports them,
    so no process is left behind unreaped. SIGKILL ends a group that is
    still there after the default timeout. A group that is gone already
    (the host exited and took its parties with it) is no error.
    """
    try:
        out, err = host.communicate(timeout=grace)
    except subprocess.TimeoutExpired:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(host.pid, SIGTERM)
        try:
            out, err = host.communicate(timeout=DEFAULT_TIMEOUT)
        except subprocess.TimeoutExpired:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(host.pid, SIGKILL)
            out, err = host.communicate()
    return out, err.decode("utf-8", "replace")[-STDERR_TAIL:].strip()


def orchestrate(
    signal: SignalState,
    seed: int,
    port: int = 0,
    drop: Role | None = None,
    timeout: float = DEFAULT_TIMEOUT,
    transcript_dir=None,
    host: str = "127.0.0.1",
) -> ComparisonReport:
    """Serve one session in this process to three party processes, then
    compare it with the in-process run of the same (signal, seed).

    One ``ghztp net party`` host is spawned with all three roles; it forks a
    process per role and reports each one's exit code and stderr tail.
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
    party_host: subprocess.Popen | None = None
    early = out = b""
    host_tail = ""
    done = on_its_own = False
    try:
        coordinator.start()
        party_args = [
            "net", "party",
            "--role", *(role.value for role in Role),
            "--host", host,
            "--port", str(coordinator.port),
            "--timeout", repr(timeout),
        ]
        if drop is not None:
            # Each drop stage occurs in that role's script only.
            party_args += ["--stop-before", DROP_STAGE[drop]]
        party_host = _spawn(party_args)
        done = coordinator.wait()
    finally:
        # A party waits on the coordinator no longer than the coordinator waits
        # on the session, so one reported by now exited on its own.
        if party_host is not None:
            early = _reported(party_host)
            on_its_own = party_host.poll() is not None
        coordinator.shutdown()
        if party_host is not None:
            # Parties of a finished session are on their way out: let them exit.
            out, host_tail = _terminate(party_host, timeout if done else 0.0)

    meta, events = read_transcript(transcript)
    report = compare_transcript(reference, meta, events)
    report.transcript = str(transcript)
    lines = _party_lines(early + out)
    exited = _party_lines(early)
    # After a stall the parties still waiting are killed; only a party that
    # failed on its own can say why the session stalled.
    for role in Role:
        line = lines.get(role.value)
        if line is not None:
            report.parties[role.value] = {"exit": line["exit"], "stderr": line["stderr"]}
            if line["exit"] != 0 and (report.stalled_role is None or role.value in exited):
                report.problems.append(
                    f"party {role.value} exited with {line['exit']}, stderr ends {line['stderr']!r}"
                )
    if (len(lines) < len(Role) and party_host.returncode != 0
            and (report.stalled_role is None or on_its_own)):
        report.problems.append(
            f"party host exited with {party_host.returncode}, stderr ends {host_tail!r}"
        )
    report.match = not report.problems
    return report
