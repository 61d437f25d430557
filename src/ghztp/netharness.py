"""The protocol over TCP: a coordinator that drives the protocol engine for
the party clients of :mod:`ghztp.party`. ``orchestrate`` serves the session
in the calling process and forks the three parties from it, each its own
process that acts only through its socket (so it needs ``os.fork``: POSIX
only).

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

One loop serves a session: a ``selectors`` loop over the listening socket
and every party's connection, which handles one message at a time. It runs
on the calling thread under :meth:`Coordinator.serve` and ``orchestrate``,
and on a thread of its own after :meth:`Coordinator.start`. Shutdown wakes
and joins that thread, if any, and closes the listener and every connection
at once, with no poll to wait out.

``orchestrate`` names a session that stopped short from the coordinator's
state (see :func:`infer_stall`), never from the transcript's text.
"""

from __future__ import annotations

import gc
import os
import selectors
import signal
import socket
import sys
import tempfile
import threading
import time
import traceback
import uuid
from collections import deque, namedtuple
from dataclasses import asdict, dataclass, field
from itertools import zip_longest
from pathlib import Path

from . import party
from .qsim import NAMED_UNITARIES, SeededSelector
from .party import DEFAULT_TIMEOUT, PartyConfig, PartyError, run_party  # noqa: F401 (re-exported)
from .protocol import (
    BobCorrected,
    CorrectionApplied,
    Finished,
    NotYet,
    PhaseError,
    ProtocolResult,
    SessionRegister,
    SignalState,
    TraceEvent,
    basis_measure,
    bell_measure,
    bob_finish,
    correct,
    event_line,
    parse_event_line,
    prepare,
    run_protocol,
    send,
)
from .vocab import IDENTITY_NAME, QUBIT_A, QUBIT_D, QUBITS_OF, SCHEDULE, Role, parse_payload
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

# Where each role's script stops when orchestrate is asked to drop it; the
# dropped party joins, then goes silent right before this step.
DROP_STAGE = {Role.ALICE: "bell", Role.BOB: "finish", Role.CHARLIE: "measure"}

# Characters of a party's stderr that orchestrate reports.
STDERR_TAIL = 500


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
    until it is due or its deadline passes. One loop serves the session, on
    the caller's thread (:meth:`serve`) or on its own (:meth:`start`): it
    accepts the parties and handles every message of every connection, one at
    a time, so the transcript is a total order consistent with each
    connection's send order. Every message ends in :meth:`_answer`, which
    turns the engine's refusals into ERR_PHASE, writes the event lines the
    message's move added, and marks the session done.
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
        self.session_id = uuid.uuid4().hex[:12]
        self.timeout = timeout
        self.transcript_path = Path(transcript_path)

        self._selector = SeededSelector(seed)
        # The register, the roles that ever said Hello and the roles that sent
        # Finish: read them once the loop has stopped.
        self.session = SessionRegister(signal)
        self.helloed: set[Role] = set()
        self.finished: set[Role] = set()
        self._written = 0  # trace events already in the transcript
        self._streams: dict[Role, MessageStream] = {}
        self._granted = False
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
        self._thread: threading.Thread | None = None

    # -- lifecycle --------------------------------------------------------

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    def start(self) -> None:
        """Serve on a thread of its own until :meth:`stop`."""
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def wait(self, timeout: float | None = None) -> bool:
        return self._done.wait(self.timeout if timeout is None else timeout)

    def stop(self) -> None:
        """Stop the loop: nothing more is read or written, and every
        connection stays open until :meth:`shutdown`."""
        if self._thread is not None and self._thread.is_alive():
            self._waker.send(b"\0")
            self._thread.join()

    def shutdown(self) -> None:
        """Stop the loop, close the listener and every connection, and end
        the transcript. A party cut off here gets no ``# disconnect`` line."""
        self.stop()
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
        """Serve on this thread until the session completes or the timeout
        elapses, then shut down; returns whether the session completed."""
        try:
            return self._serve(time.monotonic() + (self.timeout if timeout is None else timeout))
        finally:
            self.shutdown()

    # -- the loop ---------------------------------------------------------------

    def _serve(self, deadline: float | None = None) -> bool:
        """Handle what the parties send until :meth:`stop` wakes the loop or,
        given a ``deadline``, until the session is done or the deadline
        passes. Returns whether the session is done."""
        while deadline is None or not self._done.is_set():
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                return False
            held_until = None if self._held is None else self._held.deadline
            until = min((t for t in (deadline, held_until) if t is not None), default=None)
            for key, _ in self._poller.select(None if until is None else max(0.0, until - now)):
                if key.fileobj is self._wake:
                    return self._done.is_set()
                if key.fileobj is self._listener:
                    self._accept()
                else:
                    self._receive(key.data)
            self._settle()
            while self._ready:
                self._process(self._ready.popleft())
        return True

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
        """Make the move ``message`` asks for, or refuse it; then write the
        trace events it added, and mark the session done once no move is due
        and every role has sent Finish. A move that is not due yet changes
        nothing: it returns False until ``deadline``, and is refused after it."""
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
        except PhaseError as exc:  # a move the engine refuses
            self._refuse(conn, _SessionError(ERR_PHASE, str(exc)))
        except _SessionError as exc:
            self._refuse(conn, exc)
        finally:
            for event in self.session.trace.events[self._written:]:
                self._transcript.write(event_line(event) + "\n")
            self._written = len(self.session.trace.events)
            if not self.session.due and self.finished == set(Role):
                self._done.set()
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

    # -- the transcript --------------------------------------------------------

    def _meta(self, text: str) -> None:
        self._transcript.write(f"# {text}\n")

    # -- message handlers ----------------------------------------------------

    def hello(self, body: dict, stream: MessageStream) -> Role:
        try:
            role = Role(body["role"])
        except (KeyError, ValueError, TypeError):
            raise _SessionError(ERR_FRAME, f"Hello needs a valid role, got {body!r}")
        if role in self._streams:
            raise _SessionError(ERR_ROLE_TAKEN, f"role {role.value} already connected")
        # A role that leaves before the Grant may join again; after it, none
        # may, or every party would be granted the session a second time.
        if self._granted:
            raise _SessionError(ERR_ROLE_TAKEN, f"role {role.value} left a started session")
        self._streams[role] = stream
        self.helloed.add(role)
        self._meta(f"hello role={role.value}")
        if len(self._streams) == len(Role):
            # Grant doubles as the session-start signal for every party.
            for granted_role, granted_stream in self._streams.items():
                granted_stream.send(
                    Kind.GRANT,
                    {"role": granted_role.value, "qubits": QUBITS_OF[granted_role]},
                )
            self._granted = True
        return role

    def detach(self, role: Role) -> None:
        # Only a party that leaves before its Finish can explain a stall; after
        # it, whether the line lands before shutdown would vary from run to run.
        if self._streams.pop(role, None) is not None and role not in self.finished:
            self._meta(f"disconnect role={role.value}")

    def finish(self, role: Role) -> None:
        self.finished.add(role)
        self._meta(f"finish role={role.value}")

    def classical(self, role: Role, body: dict) -> None:
        try:
            recipients = frozenset(Role(r) for r in body["recipients"])
            payload = parse_payload(body["payload"])
        except (KeyError, ValueError, TypeError):
            raise _SessionError(ERR_FRAME, f"malformed Classical body {body!r}")
        message = send(self.session, role, recipients, payload)
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
        """Make the move one OpRequest asks for and send its OpResult. The
        engine's PhaseError (or NotYet, having changed nothing, for a move that
        is not due yet) passes to :meth:`_answer`, which refuses it with
        ERR_PHASE and writes the move's event lines."""
        op = body.get("op")
        handler = self._OPS.get(op) if isinstance(op, str) else None
        if handler is None:
            raise _SessionError(ERR_FRAME, f"unknown op {op!r}")
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
        if len(self._streams) < len(Role):
            raise _SessionError(ERR_PHASE, "session not ready: parties missing")
        prepare(self.session, role)
        return {"op": "prepare", "ok": True}

    def _op_bell_measure(self, role: Role, body: dict) -> dict:
        qubits = self._require_qubits(role, body.get("qubits"))
        if qubits != [QUBIT_D, QUBIT_A]:
            raise _SessionError(ERR_PHASE, f"bell_measure covers the (D, A) pair, got {qubits}")
        return _measured("bell_measure", bell_measure(self.session, self._selector))

    def _op_apply_correction(self, role: Role, body: dict) -> dict:
        (qubit,) = self._require_qubits(role, [body.get("qubit")])
        name = body.get("unitary")
        unitary = NAMED_UNITARIES.get(name) if isinstance(name, str) else None
        # Identity corrections never cross the wire: parties skip them.
        if unitary is None or unitary.is_identity():
            raise _SessionError(ERR_PHASE, f"no correction {name!r} is ever requested")
        correct(self.session, role, unitary)
        return {"op": "apply_correction", "applied": name, "qubit": qubit}

    def _op_basis_measure(self, role: Role, body: dict) -> dict:
        self._require_qubits(role, [body.get("qubit")])
        if body.get("basis") != "plus_minus":
            raise _SessionError(ERR_PHASE, f"unsupported basis {body.get('basis')!r}")
        return _measured("basis_measure", basis_measure(self.session, role, self._selector))

    def _op_fetch_bob_state(self, role: Role, body: dict) -> dict:
        self._require_qubits(role, [body.get("qubit")])
        bob_state, fidelity = bob_finish(self.session, role)
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
    # Each role's exit code and the tail of its stderr.
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


def infer_stall(session: SessionRegister, helloed: set[Role]) -> tuple[str, str] | None:
    """(stalled_role, stalled_at) of a session that stopped short, from its
    register and the roles that said Hello: every role that never did, or else
    the SCHEDULE label of the first move still due, passing over the identity
    corrections a networked party never requests. None once no move is due."""
    missing = sorted(r.value for r in Role if r not in helloed)
    if missing:
        return ",".join(missing), "Join"
    if not session.due:
        return None
    # The moves due are a run of SCHEDULE that ends in Alice's prepare, a
    # measurement or Bob's finish, each of which occurs once in it.
    end = [entry[:2] for entry in SCHEDULE].index(session.due[-1][:2]) + 1
    entries = SCHEDULE[end - len(session.due): end]
    for (role, move, value), (_, _, _, label) in zip(session.due, entries):
        if not (move == "correct" and value.is_identity()):
            return role.value, label
    return None


def compare_transcript(
    reference: ProtocolResult,
    events: list[TraceEvent],
    stall: tuple[str, str] | None = None,
    unfinished: frozenset[Role] = frozenset(),
) -> ComparisonReport:
    """Compare a networked transcript's events with the in-process run, line
    for line.

    ``stall`` (see :func:`infer_stall`) and ``unfinished``, the roles that
    never sent their Finish, are read from the coordinator once the session
    has ended. A stall is reported as such. Otherwise the event lines must
    equal the reference trace without its identity corrections, byte for
    byte, which makes outcome, probability and fidelity equality exact;
    anything else is a mismatch at the first differing event. Equal events
    fail too while some role never sent its Finish.
    """
    report = ComparisonReport(match=False, reference_fidelity=reference.fidelity)
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
    elif unfinished:
        names = ",".join(sorted(r.value for r in unfinished))
        report.problems.append(f"session incomplete: no Finish from {names}")
    report.match = not report.problems
    return report


def _spawn(roles, config: PartyConfig) -> dict:
    """Fork one party per role; returns ``{pid: (role, stderr file)}``.

    Each party's stderr goes to its own unlinked file, so a flood never
    blocks it. Every file is made before the first fork, so the forks follow
    one another. If a fork fails, the files of the parties not forked are
    closed, the parties already forked are ended and reaped, and an OSError
    names the role that could not be forked.
    """
    files = [(role, tempfile.TemporaryFile()) for role in roles]
    parties = {}
    for index, (role, stderr) in enumerate(files):
        try:
            pid = os.fork()
        except OSError as exc:
            for _, unused in files[index:]:
                unused.close()
            _terminate(parties, 0.0, config.timeout)
            raise OSError(f"cannot fork party {role.value}: {exc}") from exc
        if pid == 0:
            _party_child(role, config, stderr.fileno())
        parties[pid] = (role, stderr)
    return parties


def _party_child(role: Role, config: PartyConfig, stderr: int):
    """The forked party: play ``role`` with stdout to the null device and
    stderr to ``stderr``, holding no other descriptor of the process it was
    forked from, then end the process without returning."""
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
        sys.stderr = open(2, "w", buffering=1, errors="backslashreplace")
        code = party.play(role, config)  # looked up here, so a test can patch it
    except BaseException:
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


def _terminate(parties: dict, grace: float, timeout: float) -> dict:
    """Reap the parties ``_spawn`` forked, as :func:`_reap` reports them.

    A party not done after ``grace`` seconds gets SIGTERM, and one still
    there ``timeout`` seconds later, the session's, gets SIGKILL. One that is
    still unreaped ``timeout`` seconds after that is left out.
    """
    reaped = _reap(parties, grace)
    for signum in (signal.SIGTERM, signal.SIGKILL):
        for pid in parties:  # not reaped, so the pid is still this party's
            os.kill(pid, signum)
        reaped.update(_reap(parties, timeout))
    return reaped


def _tail(stderr) -> str:
    """The last STDERR_TAIL characters of a party's stderr file, stripped."""
    size = stderr.seek(0, os.SEEK_END)
    stderr.seek(max(0, size - 4 * STDERR_TAIL))  # at most 4 bytes a character
    return stderr.read().decode("utf-8", "replace")[-STDERR_TAIL:].strip()


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

    The parties are forks of this process, one per role, each playing its
    script through its own socket as ``ghztp net party`` would; they carry
    only a PartyConfig, never the signal or the seed. Each one's exit code
    and stderr tail go into the report. With ``drop`` set, that party joins
    and then goes silent at its scripted step; the session must then stall
    instead of finishing.

    The caller's own work overlaps the parties' start and exit: it forks
    them first, runs the reference while they start, serves the session on
    the calling thread, and compares the transcript before it reaps them.
    """
    directory = Path(transcript_dir) if transcript_dir else Path(tempfile.mkdtemp(prefix="ghztp-"))
    directory.mkdir(parents=True, exist_ok=True)
    transcript = directory / "net-transcript.log"

    def failed(problem: str) -> ComparisonReport:
        return ComparisonReport(match=False, problems=[problem],
                                reference_fidelity=run_protocol(signal, seed=seed).fidelity,
                                transcript=str(transcript))

    try:
        coordinator = Coordinator(signal, seed, transcript, host, port, timeout)
    except OSError as exc:
        # open() names its file, bind() names none
        cause = f"cannot open transcript {transcript}" if exc.filename else f"cannot bind {host}:{port}"
        return failed(f"coordinator failed to start: {cause}: {exc}")
    # Each drop stage occurs in that role's script only.
    config = PartyConfig(host, coordinator.port, timeout, DROP_STAGE.get(drop))
    # The session's time runs from before the parties start theirs, so the
    # coordinator gives up on a stalled session before they do.
    deadline = time.monotonic() + timeout
    try:
        # Forked while this process has one thread; a party that connects
        # before the loop runs waits in the listener's backlog.
        parties = _spawn(Role, config)
    except OSError as exc:
        coordinator.shutdown()
        return failed(str(exc))
    done = False
    try:
        reference = run_protocol(signal, seed=seed)  # while the parties start
        done = coordinator._serve(deadline)
        # The loop has stopped: the session's transcript and state are final,
        # and the parties of a finished session exit meanwhile.
        _, events = read_transcript(transcript)
        stall = infer_stall(coordinator.session, coordinator.helloed)
        unfinished = frozenset(Role) - coordinator.finished
        report = compare_transcript(reference, events, stall, unfinished)
    finally:
        # Parties of a finished session are on their way out: let them exit.
        # After a stall the ones still waiting are killed on open connections,
        # which the stopped coordinator neither reads nor writes about.
        reaped = _terminate(parties, timeout if done else 0.0, timeout)
        coordinator.shutdown()

    report.transcript = str(transcript)
    # Only a failed party whose move the session stalled at can say why; the
    # others were still waiting.
    stalled = (report.stalled_role or "").split(",")
    for role in Role:
        child = reaped.get(role)
        if child is None:
            report.problems.append(f"party {role.value} did not exit")
            continue
        report.parties[role.value] = child
        if child["exit"] != 0 and (report.stalled_role is None or role.value in stalled):
            report.problems.append(
                f"party {role.value} exited with {child['exit']}, stderr ends {child['stderr']!r}"
            )
    report.match = not report.problems
    return report
