"""Coordinator/party tests over real loopback sockets, plus transcript tooling."""

import contextlib
import errno
import json
import os
import re
import select
import signal
import socket
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ghztp import cli, netharness, party
from ghztp.netharness import (
    Coordinator,
    ComparisonReport,
    PartyConfig,
    PartyError,
    compare_transcript,
    infer_stall,
    orchestrate,
    read_transcript,
    run_party,
)
from ghztp.protocol import (
    RECIPIENTS,
    BellOutcome,
    BobCorrected,
    CharlieOutcome,
    ClassicalMessage,
    CorrectionApplied,
    Finished,
    GhzPrepared,
    Role,
    SessionRegister,
    SignalPrepared,
    SignalState,
    basis_measure,
    bell_measure,
    bob_finish,
    correct,
    prepare,
    run_protocol,
    send,
)
from ghztp.qsim import ForcedSelector
from ghztp.wire import (
    ERR_FRAME,
    ERR_LOCALITY,
    ERR_PHASE,
    ERR_ROLE_TAKEN,
    Kind,
    MessageStream,
    WireMessage,
    encode,
)

SIGNAL = SignalState(0.6, 0.8)

# Frozen against SeededSelector: first Bell draw, then Charlie draw.
SEED_ALL_CORRECTIONS = 0  # PsiMinus, Minus: corrections X, ZX, then Z
SEED_NO_CORRECTIONS = 4  # PhiPlus, Plus: every correction is the identity
SEED_BOB_OWES_X = 5  # PsiPlus: Bob must apply X before Charlie may measure


@pytest.fixture
def make_coordinator(tmp_path):
    coordinators = []

    def make(seed=SEED_ALL_CORRECTIONS, timeout=5.0):
        path = tmp_path / f"net-{len(coordinators)}.log"
        coordinator = Coordinator(SIGNAL, seed=seed, transcript_path=path, timeout=timeout)
        coordinator.start()
        coordinators.append(coordinator)
        return coordinator

    yield make
    for coordinator in coordinators:
        coordinator.shutdown()


class Client:
    """Raw wire-level client for poking the coordinator directly."""

    def __init__(self, port: int, timeout: float = 5.0):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.settimeout(timeout)
        self.rfile = self.sock.makefile("rb")
        self.wfile = self.sock.makefile("wb")
        self.stream = MessageStream(self.rfile, self.wfile)

    def send(self, kind: Kind, body: dict):
        return self.stream.send(kind, body)

    def recv(self):
        return self.stream.recv()

    def send_raw(self, data: bytes) -> None:
        self.wfile.write(data)
        self.wfile.flush()

    def close(self) -> None:
        for stream in (self.rfile, self.wfile):
            with contextlib.suppress(OSError):
                stream.close()
        with contextlib.suppress(OSError):
            self.sock.close()


@contextlib.contextmanager
def joined_session(coordinator):
    """Three raw clients, all past Hello and holding their Grants."""
    clients = {role: Client(coordinator.port) for role in Role}
    try:
        for role, client in clients.items():
            client.send(Kind.HELLO, {"role": role.value})
        for client in clients.values():
            grant = client.recv()
            assert grant.kind is Kind.GRANT
            client.stream.session_id = grant.session_id
        yield clients
    finally:
        for client in clients.values():
            client.close()


def wait_for_meta(coordinator, text: str, timeout: float = 5.0) -> None:
    """Wait until the transcript holds the metadata line ``# text``."""
    deadline = time.monotonic() + timeout
    while f"# {text}\n" not in coordinator.transcript_path.read_text():
        assert time.monotonic() < deadline, f"no '# {text}' line"
        time.sleep(0.01)


def wait_until_joined(coordinator, role: str, timeout: float = 5.0) -> None:
    """Registration barrier: the coordinator logs every Hello it accepts."""
    wait_for_meta(coordinator, f"hello role={role}", timeout)


def broadcast(clients, payload: str) -> None:
    """Alice's broadcast, read by Bob and Charlie."""
    clients[Role.ALICE].send(Kind.CLASSICAL, {"recipients": ["bob", "charlie"], "payload": payload})
    for role in (Role.BOB, Role.CHARLIE):
        assert clients[role].recv().body["payload"] == payload


def expect_error(client: Client, code: str):
    message = client.recv()
    assert message.kind is Kind.ERROR
    assert message.body["code"] == code
    return message


def start_party(role: Role, port: int, results: dict, timeout=5.0, stop_before=None):
    config = PartyConfig(port=port, timeout=timeout, stop_before=stop_before)

    def target():
        try:
            results[role] = run_party(role, config)
        except Exception as exc:  # surfaced by the main thread's asserts
            results[role] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


# --- joining -------------------------------------------------------------


def test_grant_arrives_only_after_all_three_hellos(make_coordinator):
    coordinator = make_coordinator()
    alice = Client(coordinator.port)
    bob = Client(coordinator.port)
    charlie = Client(coordinator.port)
    try:
        alice.send(Kind.HELLO, {"role": "alice"})
        bob.send(Kind.HELLO, {"role": "bob"})
        readable, _, _ = select.select([alice.sock, bob.sock], [], [], 0.3)
        assert readable == []  # two of three joined: no Grant yet

        charlie.send(Kind.HELLO, {"role": "charlie"})
        for client, role, qubits in (
            (alice, "alice", [0, 1]),
            (bob, "bob", [2]),
            (charlie, "charlie", [3]),
        ):
            grant = client.recv()
            assert grant.kind is Kind.GRANT
            assert grant.session_id == coordinator.session_id
            assert grant.body == {"role": role, "qubits": qubits}
    finally:
        for client in (alice, bob, charlie):
            client.close()


def test_duplicate_role_is_refused_and_disconnected(make_coordinator):
    coordinator = make_coordinator()
    first = Client(coordinator.port)
    second = Client(coordinator.port)
    try:
        first.send(Kind.HELLO, {"role": "alice"})
        wait_until_joined(coordinator, "alice")  # Hellos on two sockets race otherwise
        second.send(Kind.HELLO, {"role": "alice"})
        expect_error(second, ERR_ROLE_TAKEN)
        assert second.recv() is None  # coordinator hung up
        # the original registration survives
        third = Client(coordinator.port)
        third.send(Kind.HELLO, {"role": "alice"})
        expect_error(third, ERR_ROLE_TAKEN)
        third.close()
    finally:
        first.close()
        second.close()


def test_a_second_hello_on_one_connection_is_refused_and_disconnected(make_coordinator):
    coordinator = make_coordinator()
    hoarder = Client(coordinator.port)
    try:
        hoarder.send(Kind.HELLO, {"role": "alice"})
        hoarder.send(Kind.HELLO, {"role": "bob"})
        expect_error(hoarder, ERR_FRAME)
        assert hoarder.recv() is None  # coordinator hung up
    finally:
        hoarder.close()
    # Bob was never bound and Alice left with the connection: three new
    # clients each get their role and a Grant.
    with joined_session(coordinator):
        pass


def test_a_role_that_leaves_after_the_grant_cannot_join_again(make_coordinator):
    coordinator = make_coordinator()
    with joined_session(coordinator) as clients:
        clients[Role.CHARLIE].close()
        wait_for_meta(coordinator, "disconnect role=charlie")
        rejoined = Client(coordinator.port)
        try:
            rejoined.send(Kind.HELLO, {"role": "charlie"})
            expect_error(rejoined, ERR_ROLE_TAKEN)
            assert rejoined.recv() is None  # coordinator hung up
        finally:
            rejoined.close()
        # Alice was granted the session once: her next message answers her op.
        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "prepare"})
        expect_error(clients[Role.ALICE], ERR_PHASE)  # Charlie is missing


def test_garbage_line_closes_that_connection_only(make_coordinator):
    coordinator = make_coordinator()
    alice = Client(coordinator.port)
    vandal = Client(coordinator.port)
    try:
        alice.send(Kind.HELLO, {"role": "alice"})
        wait_until_joined(coordinator, "alice")
        vandal.send_raw(b"definitely not json\n")
        expect_error(vandal, ERR_FRAME)
        assert vandal.recv() is None
        # server still up and alice still registered
        probe = Client(coordinator.port)
        probe.send(Kind.HELLO, {"role": "alice"})
        expect_error(probe, ERR_ROLE_TAKEN)
        probe.close()

        # an op name that is no string is refused like an unknown one
        bob = Client(coordinator.port)
        bob.send(Kind.HELLO, {"role": "bob"})
        bob.send(Kind.OP_REQUEST, {"op": ["prepare"]})
        expect_error(bob, ERR_FRAME)
        assert bob.recv() is None
        bob.close()
        probe = Client(coordinator.port)
        probe.send(Kind.HELLO, {"role": "alice"})
        expect_error(probe, ERR_ROLE_TAKEN)
        probe.close()
    finally:
        alice.close()
        vandal.close()


def test_ops_before_hello_are_refused_without_closing(make_coordinator):
    coordinator = make_coordinator()
    client = Client(coordinator.port)
    try:
        client.send(Kind.OP_REQUEST, {"op": "prepare"})
        expect_error(client, ERR_PHASE)
        # connection still usable: Hello goes through and ops answer again
        client.send(Kind.HELLO, {"role": "alice"})
        client.send(Kind.OP_REQUEST, {"op": "prepare"})
        expect_error(client, ERR_PHASE)  # parties missing, not a dead socket
    finally:
        client.close()


# --- op validation over the wire ------------------------------------------


def test_locality_rejection_leaves_state_untouched(make_coordinator):
    coordinator = make_coordinator(seed=SEED_NO_CORRECTIONS)
    with joined_session(coordinator) as clients:
        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "prepare"})
        assert clients[Role.ALICE].recv().body["ok"] is True
        assert coordinator.session is not None
        state = coordinator.session.state

        clients[Role.BOB].send(Kind.OP_REQUEST, {"op": "bell_measure", "qubits": [0, 1]})
        expect_error(clients[Role.BOB], ERR_LOCALITY)
        assert coordinator.session.state is state

        # a qubit that does not exist belongs to nobody
        clients[Role.BOB].send(
            Kind.OP_REQUEST, {"op": "apply_correction", "qubit": 5, "unitary": "X"}
        )
        expect_error(clients[Role.BOB], ERR_LOCALITY)
        assert coordinator.session.state is state

        clients[Role.ALICE].send(
            Kind.OP_REQUEST, {"op": "basis_measure", "qubit": 3, "basis": "plus_minus"}
        )
        expect_error(clients[Role.ALICE], ERR_LOCALITY)
        assert coordinator.session.state is state

        # the refused connection is still in the session
        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "bell_measure", "qubits": [0, 1]})
        result = clients[Role.ALICE].recv()
        assert result.kind is Kind.OP_RESULT
        assert result.body["outcome"] == "PhiPlus"


@pytest.mark.parametrize("qubits", ["01", [0.5, 1.5], [False, True]],
                         ids=["string", "floats", "bools"])
def test_a_qubit_list_must_be_a_json_list_of_integers(make_coordinator, qubits):
    coordinator = make_coordinator(seed=SEED_NO_CORRECTIONS)
    with joined_session(coordinator) as clients:
        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "prepare"})
        assert clients[Role.ALICE].recv().body["ok"] is True
        state = coordinator.session.state

        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "bell_measure", "qubits": qubits})
        expect_error(clients[Role.ALICE], ERR_FRAME)
        assert coordinator.session.state is state


def test_phase_order_is_enforced_over_the_wire(make_coordinator):
    coordinator = make_coordinator(seed=SEED_NO_CORRECTIONS)
    with joined_session(coordinator) as clients:
        assert coordinator.session.state is None
        assert coordinator.session.due == [(Role.ALICE, "prepare", None)]

        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "bell_measure", "qubits": [0, 1]})
        expect_error(clients[Role.ALICE], ERR_PHASE)

        clients[Role.CHARLIE].send(
            Kind.OP_REQUEST, {"op": "basis_measure", "qubit": 3, "basis": "plus_minus"}
        )
        expect_error(clients[Role.CHARLIE], ERR_PHASE)

        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "prepare"})
        assert clients[Role.ALICE].recv().kind is Kind.OP_RESULT
        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "prepare"})
        expect_error(clients[Role.ALICE], ERR_PHASE)  # no double preparation

        clients[Role.BOB].send(Kind.OP_REQUEST, {"op": "fetch_bob_state", "qubit": 2})
        expect_error(clients[Role.BOB], ERR_PHASE)


@pytest.mark.parametrize("after_alice", [False, True], ids=["before_alice", "after_alice"])
@pytest.mark.parametrize("role", [Role.BOB, Role.CHARLIE], ids=lambda r: r.value)
def test_only_alice_prepares(make_coordinator, role, after_alice):
    coordinator = make_coordinator(seed=SEED_NO_CORRECTIONS)
    with joined_session(coordinator) as clients:
        prepared = []
        if after_alice:
            clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "prepare"})
            assert clients[Role.ALICE].recv().kind is Kind.OP_RESULT
            prepared = [GhzPrepared(), SignalPrepared()]

        clients[role].send(Kind.OP_REQUEST, {"op": "prepare"})
        expect_error(clients[role], ERR_PHASE)
        # The refusal is written before it is sent, so no event can be missing yet.
        assert read_transcript(coordinator.transcript_path)[1] == prepared

        # The session goes on, and the refused party still hears Alice.
        if not after_alice:
            clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "prepare"})
            assert clients[Role.ALICE].recv().kind is Kind.OP_RESULT
        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "bell_measure", "qubits": [0, 1]})
        assert clients[Role.ALICE].recv().body["outcome"] == "PhiPlus"
        broadcast(clients, "PhiPlus")


def test_full_manual_session_with_unmatched_correction_refused(make_coordinator):
    coordinator = make_coordinator(seed=SEED_NO_CORRECTIONS)
    with joined_session(coordinator) as clients:
        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "prepare"})
        clients[Role.ALICE].recv()
        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "bell_measure", "qubits": [0, 1]})
        assert clients[Role.ALICE].recv().body["outcome"] == "PhiPlus"
        broadcast(clients, "PhiPlus")

        # PhiPlus owes nobody anything; an uninvited X, or an identity that
        # never crosses the wire, is a phase error
        for unitary in ("X", "I"):
            clients[Role.BOB].send(
                Kind.OP_REQUEST, {"op": "apply_correction", "qubit": 2, "unitary": unitary}
            )
            expect_error(clients[Role.BOB], ERR_PHASE)

        clients[Role.CHARLIE].send(
            Kind.OP_REQUEST, {"op": "basis_measure", "qubit": 3, "basis": "plus_minus"}
        )
        assert clients[Role.CHARLIE].recv().body["outcome"] == "Plus"
        # Bob finishes only once he has heard Charlie's outcome.
        clients[Role.CHARLIE].send(Kind.CLASSICAL, {"recipients": ["bob"], "payload": "Plus"})
        assert clients[Role.BOB].recv().body["payload"] == "Plus"

        clients[Role.BOB].send(Kind.OP_REQUEST, {"op": "fetch_bob_state", "qubit": 2})
        result = clients[Role.BOB].recv()
        assert result.body["fidelity"] >= 1.0 - 1e-10
        amp = result.body["amplitudes"]
        assert abs(complex(*amp[0]) - 0.6) <= 1e-12
        assert abs(complex(*amp[1]) - 0.8) <= 1e-12


def test_classical_relay_validates_sender_payload_and_recipients(make_coordinator):
    coordinator = make_coordinator(seed=SEED_ALL_CORRECTIONS)
    with joined_session(coordinator) as clients:
        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "prepare"})
        clients[Role.ALICE].recv()
        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "bell_measure", "qubits": [0, 1]})
        assert clients[Role.ALICE].recv().body["outcome"] == "PsiMinus"

        clients[Role.BOB].send(
            Kind.CLASSICAL, {"recipients": ["charlie"], "payload": "PsiMinus"}
        )
        expect_error(clients[Role.BOB], ERR_PHASE)  # Bob has nothing to announce

        clients[Role.ALICE].send(
            Kind.CLASSICAL, {"recipients": ["bob", "charlie"], "payload": "PhiPlus"}
        )
        expect_error(clients[Role.ALICE], ERR_PHASE)  # not the recorded outcome

        clients[Role.ALICE].send(
            Kind.CLASSICAL, {"recipients": ["bob"], "payload": "PsiMinus"}
        )
        expect_error(clients[Role.ALICE], ERR_PHASE)  # Charlie must hear it too

        clients[Role.ALICE].send(
            Kind.CLASSICAL, {"recipients": ["bob", "charlie"], "payload": "PsiMinus"}
        )
        for role in (Role.BOB, Role.CHARLIE):
            relayed = clients[role].recv()
            assert relayed.kind is Kind.CLASSICAL
            assert relayed.body["sender"] == "alice"
            assert relayed.body["payload"] == "PsiMinus"
            assert relayed.body["seq"] == 1


# --- ordering across parties ------------------------------------------------


def test_charlies_bell_correction_waits_for_bobs(make_coordinator):
    coordinator = make_coordinator(seed=SEED_BOB_OWES_X)
    with joined_session(coordinator) as clients:
        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "prepare"})
        clients[Role.ALICE].recv()
        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "bell_measure", "qubits": [0, 1]})
        assert clients[Role.ALICE].recv().body["outcome"] == "PsiPlus"
        broadcast(clients, "PsiPlus")

        answered = threading.Event()
        reply = {}

        def correct_charlie():
            clients[Role.CHARLIE].send(
                Kind.OP_REQUEST, {"op": "apply_correction", "qubit": 3, "unitary": "X"}
            )
            reply["body"] = clients[Role.CHARLIE].recv().body
            answered.set()

        thread = threading.Thread(target=correct_charlie, daemon=True)
        thread.start()
        assert not answered.wait(0.3)  # sent first, held on Bob's outstanding X

        clients[Role.BOB].send(
            Kind.OP_REQUEST, {"op": "apply_correction", "qubit": 2, "unitary": "X"}
        )
        assert clients[Role.BOB].recv().body["applied"] == "X"
        assert answered.wait(5.0)
        thread.join(5.0)
        assert reply["body"]["applied"] == "X"

        clients[Role.CHARLIE].send(
            Kind.OP_REQUEST, {"op": "basis_measure", "qubit": 3, "basis": "plus_minus"}
        )
        assert clients[Role.CHARLIE].recv().body["outcome"] == "Minus"
    coordinator.shutdown()
    _, events = read_transcript(coordinator.transcript_path)
    assert [e for e in events if isinstance(e, CorrectionApplied)] == [
        CorrectionApplied(Role.BOB, "X"),
        CorrectionApplied(Role.CHARLIE, "X"),
    ]


def test_a_correction_nobody_ever_owes_is_refused_at_once(make_coordinator):
    # Charlie's corrections wait for Bob's, but a Hadamard is never due.
    coordinator = make_coordinator(seed=SEED_BOB_OWES_X, timeout=5.0)
    with joined_session(coordinator) as clients:
        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "prepare"})
        clients[Role.ALICE].recv()
        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "bell_measure", "qubits": [0, 1]})
        clients[Role.ALICE].recv()
        start = time.monotonic()
        clients[Role.CHARLIE].send(
            Kind.OP_REQUEST, {"op": "apply_correction", "qubit": 3, "unitary": "H"}
        )
        expect_error(clients[Role.CHARLIE], ERR_PHASE)
        assert time.monotonic() - start < 1.0


def test_charlie_measurement_times_out_when_bob_never_corrects(make_coordinator):
    coordinator = make_coordinator(seed=SEED_BOB_OWES_X, timeout=0.5)
    with joined_session(coordinator) as clients:
        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "prepare"})
        clients[Role.ALICE].recv()
        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "bell_measure", "qubits": [0, 1]})
        clients[Role.ALICE].recv()
        broadcast(clients, "PsiPlus")
        start = time.monotonic()
        clients[Role.CHARLIE].send(
            Kind.OP_REQUEST, {"op": "apply_correction", "qubit": 3, "unitary": "X"}
        )
        expect_error(clients[Role.CHARLIE], ERR_PHASE)  # held on Bob's X, then refused
        assert time.monotonic() - start >= 0.5
        clients[Role.CHARLIE].send(
            Kind.OP_REQUEST, {"op": "basis_measure", "qubit": 3, "basis": "plus_minus"}
        )
        expect_error(clients[Role.CHARLIE], ERR_PHASE)


def test_a_correction_before_alices_broadcast_is_refused_and_not_written(make_coordinator):
    coordinator = make_coordinator(seed=SEED_ALL_CORRECTIONS)
    with joined_session(coordinator) as clients:
        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "prepare"})
        clients[Role.ALICE].recv()
        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "bell_measure", "qubits": [0, 1]})
        assert clients[Role.ALICE].recv().body["outcome"] == "PsiMinus"
        state = coordinator.session.state
        clients[Role.BOB].send(
            Kind.OP_REQUEST, {"op": "apply_correction", "qubit": 2, "unitary": "X"}
        )
        expect_error(clients[Role.BOB], ERR_PHASE)  # Bob has not heard the outcome yet
        assert coordinator.session.state is state
    coordinator.shutdown()
    _, events = read_transcript(coordinator.transcript_path)
    reference = run_protocol(SIGNAL, seed=SEED_ALL_CORRECTIONS)
    assert [netharness.event_line(e) for e in events] == reference.trace.lines()[:3]


def test_bob_cannot_finish_before_charlies_message(make_coordinator):
    coordinator = make_coordinator(seed=SEED_NO_CORRECTIONS)
    with joined_session(coordinator) as clients:
        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "prepare"})
        clients[Role.ALICE].recv()
        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "bell_measure", "qubits": [0, 1]})
        clients[Role.ALICE].recv()
        broadcast(clients, "PhiPlus")
        clients[Role.CHARLIE].send(
            Kind.OP_REQUEST, {"op": "basis_measure", "qubit": 3, "basis": "plus_minus"}
        )
        assert clients[Role.CHARLIE].recv().body["outcome"] == "Plus"
        clients[Role.BOB].send(Kind.OP_REQUEST, {"op": "fetch_bob_state", "qubit": 2})
        expect_error(clients[Role.BOB], ERR_PHASE)  # Charlie has not sent his outcome
        clients[Role.CHARLIE].send(Kind.CLASSICAL, {"recipients": ["bob"], "payload": "Plus"})
        assert clients[Role.BOB].recv().body["payload"] == "Plus"
        clients[Role.BOB].send(Kind.OP_REQUEST, {"op": "fetch_bob_state", "qubit": 2})
        assert clients[Role.BOB].recv().kind is Kind.OP_RESULT


def test_a_session_completes_on_bobs_fetch_when_every_finish_came_first(make_coordinator):
    # Three Finishes with a move still due do not complete the session; the
    # move that empties the schedule does, with nothing more to come.
    coordinator = make_coordinator(seed=SEED_NO_CORRECTIONS)
    with joined_session(coordinator) as clients:
        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "prepare"})
        clients[Role.ALICE].recv()
        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "bell_measure", "qubits": [0, 1]})
        clients[Role.ALICE].recv()
        broadcast(clients, "PhiPlus")
        clients[Role.CHARLIE].send(
            Kind.OP_REQUEST, {"op": "basis_measure", "qubit": 3, "basis": "plus_minus"}
        )
        clients[Role.CHARLIE].recv()
        clients[Role.CHARLIE].send(Kind.CLASSICAL, {"recipients": ["bob"], "payload": "Plus"})
        clients[Role.BOB].recv()
        for role, client in clients.items():
            client.send(Kind.FINISH, {})
            wait_for_meta(coordinator, f"finish role={role.value}")
        assert not coordinator.wait(0.2)
        clients[Role.BOB].send(Kind.OP_REQUEST, {"op": "fetch_bob_state", "qubit": 2})
        assert clients[Role.BOB].recv().kind is Kind.OP_RESULT
        assert coordinator.wait()
    coordinator.shutdown()
    assert coordinator.transcript_path.read_text().endswith("# session complete\n")


# --- scripted parties end to end ---------------------------------------------


def run_full_session(make_coordinator, seed, linger=0.0):
    coordinator = make_coordinator(seed=seed)
    results = {}
    threads = [start_party(role, coordinator.port, results) for role in Role]
    for thread in threads:
        thread.join(10.0)
    assert coordinator.wait(5.0), f"session did not complete: {results}"
    assert results == {role: 0 for role in Role}
    time.sleep(linger)
    coordinator.shutdown()
    assert infer_stall(coordinator.session, coordinator.helloed) is None
    assert coordinator.finished == set(Role)
    return read_transcript(coordinator.transcript_path)


@pytest.mark.parametrize("seed", [SEED_ALL_CORRECTIONS, SEED_NO_CORRECTIONS, SEED_BOB_OWES_X, 7])
def test_scripted_session_matches_in_process_run_bitwise(make_coordinator, seed):
    meta, events = run_full_session(make_coordinator, seed)
    assert any(line == "session complete" for line in meta)
    reference = run_protocol(SIGNAL, seed=seed)
    report = compare_transcript(reference, events)
    assert report.match, report.problems
    assert report.net_fidelity == reference.fidelity  # bitwise, not approximate


def test_identity_corrections_never_cross_the_wire(make_coordinator):
    _, events = run_full_session(make_coordinator, SEED_NO_CORRECTIONS)
    assert not [e for e in events if isinstance(e, (CorrectionApplied, BobCorrected))]


def test_all_corrections_cross_the_wire_when_due(make_coordinator):
    _, events = run_full_session(make_coordinator, SEED_ALL_CORRECTIONS)
    corrections = [e for e in events if isinstance(e, CorrectionApplied)]
    assert [(e.role, e.unitary) for e in corrections] == [(Role.BOB, "X"), (Role.CHARLIE, "ZX")]
    assert [e.unitary for e in events if isinstance(e, BobCorrected)] == ["Z"]


def test_a_completed_session_logs_no_disconnect(make_coordinator):
    # Every party hangs up after its Finish, and the coordinator has read each
    # EOF before shutdown; such a disconnect explains nothing.
    meta, _ = run_full_session(make_coordinator, SEED_ALL_CORRECTIONS, linger=0.2)
    assert "session complete" in meta
    assert not [line for line in meta if line.startswith("disconnect")]


class WithoutFinish:
    """A party's stream that sends everything but its Finish."""

    def __init__(self, stream: MessageStream):
        self.stream = stream

    def send(self, kind: Kind, body: dict):
        if kind is not Kind.FINISH:
            return self.stream.send(kind, body)

    def recv(self):
        return self.stream.recv()


def test_a_session_without_bobs_finish_fails_the_comparison(make_coordinator, monkeypatch):
    # Bob makes every move, fetch_bob_state included, and hangs up unfinished.
    run_schedule = party._run_schedule

    def unfinished_bob(stream, role, *args):
        return run_schedule(WithoutFinish(stream) if role is Role.BOB else stream, role, *args)

    monkeypatch.setattr(party, "_run_schedule", unfinished_bob)
    coordinator = make_coordinator(seed=SEED_ALL_CORRECTIONS, timeout=1.0)
    results = {}
    threads = [start_party(role, coordinator.port, results) for role in Role]
    for thread in threads:
        thread.join(10.0)
    assert results == {role: 0 for role in Role}
    assert not coordinator.wait()
    coordinator.shutdown()
    meta, events = read_transcript(coordinator.transcript_path)
    assert meta[-1] == "session incomplete"
    reference = run_protocol(SIGNAL, seed=SEED_ALL_CORRECTIONS)
    assert [netharness.event_line(e) for e in events] == reference.trace.lines()
    stall = infer_stall(coordinator.session, coordinator.helloed)
    report = compare_transcript(reference, events, stall, frozenset(Role) - coordinator.finished)
    assert not report.match
    assert report.problems == ["session incomplete: no Finish from bob"]
    assert report.stalled_at is None


def test_dropped_charlie_stalls_the_session_before_bob_finishes(make_coordinator):
    coordinator = make_coordinator(seed=SEED_ALL_CORRECTIONS)
    results = {}
    threads = [
        start_party(Role.ALICE, coordinator.port, results),
        start_party(Role.BOB, coordinator.port, results, timeout=1.0),
        start_party(Role.CHARLIE, coordinator.port, results, stop_before="measure"),
    ]
    for thread in threads:
        thread.join(10.0)
    assert not coordinator.wait(0.2)
    assert results[Role.CHARLIE] == 0  # went silent cleanly, did not crash
    assert isinstance(results[Role.BOB], TimeoutError)  # never heard from Charlie
    coordinator.shutdown()
    meta, events = read_transcript(coordinator.transcript_path)
    assert any(line == "session incomplete" for line in meta)
    assert "disconnect role=charlie" in meta  # before completion it explains the stall
    reference = run_protocol(SIGNAL, seed=SEED_ALL_CORRECTIONS)
    lines = [netharness.event_line(e) for e in events]
    assert lines == reference.trace.lines()[: len(lines)]
    assert infer_stall(coordinator.session, coordinator.helloed) == ("charlie", "CharlieMeasure")
    assert not any(isinstance(e, Finished) for e in events)


@pytest.mark.parametrize("role, stop, stall, events", [
    pytest.param(Role.ALICE, "broadcast", ("alice", "Broadcast"), 3, id="alice-broadcast"),
    pytest.param(Role.CHARLIE, "correction", ("charlie", "BellCorrection"), 5,
                 id="charlie-correction"),
    pytest.param(Role.CHARLIE, "send", ("charlie", "CharlieSend"), 7, id="charlie-send"),
])
def test_a_party_stopped_before_a_stage_stalls_the_session_there(
    make_coordinator, role, stop, stall, events
):
    # PsiMinus, Minus: every stage is a move the party makes. The others
    # wait out their short timeouts.
    coordinator = make_coordinator(seed=SEED_ALL_CORRECTIONS, timeout=0.3)
    results = {}
    threads = [start_party(r, coordinator.port, results, timeout=0.3,
                           stop_before=stop if r is role else None) for r in Role]
    for thread in threads:
        thread.join(10.0)
    assert results[role] == 0
    assert not coordinator.wait(0)
    coordinator.shutdown()
    _, got = read_transcript(coordinator.transcript_path)
    assert len(got) == events
    assert infer_stall(coordinator.session, coordinator.helloed) == stall


def test_a_bob_who_never_corrects_stalls_the_session_at_his_bell_correction(make_coordinator):
    # PsiMinus: Bob owes X, Charlie owes ZX, and Charlie's is held for Bob's.
    coordinator = make_coordinator(seed=SEED_ALL_CORRECTIONS, timeout=1.0)
    results = {}
    threads = [
        start_party(Role.ALICE, coordinator.port, results),
        start_party(Role.BOB, coordinator.port, results, stop_before="correction"),
        start_party(Role.CHARLIE, coordinator.port, results),
    ]
    for thread in threads:
        thread.join(10.0)
    assert results[Role.ALICE] == results[Role.BOB] == 0
    assert isinstance(results[Role.CHARLIE], PartyError)
    assert f"coordinator error {ERR_PHASE}" in str(results[Role.CHARLIE])
    coordinator.shutdown()

    _, events = read_transcript(coordinator.transcript_path)
    assert isinstance(events[-1], ClassicalMessage) and events[-1].sender is Role.ALICE
    stall = infer_stall(coordinator.session, coordinator.helloed)
    report = compare_transcript(run_protocol(SIGNAL, seed=SEED_ALL_CORRECTIONS), events, stall)
    assert (report.stalled_role, report.stalled_at) == ("bob", "BellCorrection")


# --- transcript analysis ----------------------------------------------------


# The Bell corrections a networked session makes, Bob's first; an identity
# is passed over.
BELL_CORRECTION_STALLS = {
    BellOutcome.PHI_PLUS: [],
    BellOutcome.PHI_MINUS: [("charlie", "BellCorrection")],
    BellOutcome.PSI_PLUS: [("bob", "BellCorrection"), ("charlie", "BellCorrection")],
    BellOutcome.PSI_MINUS: [("bob", "BellCorrection"), ("charlie", "BellCorrection")],
}
# Bob's final correction, unless it is the identity.
FINAL_CORRECTION_STALLS = {CharlieOutcome.PLUS: [], CharlieOutcome.MINUS: [("bob", "BobFinish")]}


@pytest.mark.parametrize("bell", list(BellOutcome), ids=lambda o: o.value)
@pytest.mark.parametrize("charlie", list(CharlieOutcome), ids=lambda o: o.value)
def test_infer_stall_names_the_first_move_due_on_every_branch(bell, charlie):
    expected = [
        ("alice", "Prepare"),
        ("alice", "BellMeasure"),
        ("alice", "Broadcast"),
        *BELL_CORRECTION_STALLS[bell],
        ("charlie", "CharlieMeasure"),
        ("charlie", "CharlieSend"),
        *FINAL_CORRECTION_STALLS[charlie],
        ("bob", "BobFinish"),
        None,
    ]
    labels = []
    session = SessionRegister(SIGNAL)
    while session.due:
        labels.append(infer_stall(session, set(Role)))
        # The move a networked party makes next: it never requests an identity.
        role, move, value = next(
            (role, move, value) for role, move, value in session.due
            if not (move == "correct" and value.is_identity())
        )
        if move == "prepare":
            prepare(session, role)
        elif move == "bell_measure":
            bell_measure(session, ForcedSelector(list(BellOutcome).index(bell)))
        elif move == "send":
            send(session, role, RECIPIENTS[role], value)
        elif move == "correct":
            correct(session, role, value)
        elif move == "basis_measure":
            basis_measure(session, role, ForcedSelector(list(CharlieOutcome).index(charlie)))
        else:
            bob_finish(session, role)
    labels.append(infer_stall(session, set(Role)))
    assert labels == expected


def test_infer_stall_names_every_role_that_never_said_hello():
    session = SessionRegister(SIGNAL)
    assert infer_stall(session, {Role.ALICE, Role.CHARLIE}) == ("bob", "Join")
    assert infer_stall(session, set()) == ("alice,bob,charlie", "Join")


def test_compare_transcript_accepts_the_reference_itself():
    reference = run_protocol(SIGNAL, seed=SEED_ALL_CORRECTIONS)
    report = compare_transcript(reference, list(reference.trace.events))
    assert report.match
    assert report.problems == []
    assert report.net_fidelity == reference.fidelity
    json_form = report.to_json()
    assert json_form["match"] is True
    assert json_form["stalled_at"] is None


def test_compare_transcript_flags_fidelity_tampering():
    reference = run_protocol(SIGNAL, seed=SEED_ALL_CORRECTIONS)
    events = list(reference.trace.events)
    events[-1] = Finished(0.25)
    report = compare_transcript(reference, events)
    assert not report.match
    assert any("fidelity" in problem for problem in report.problems)


def test_compare_transcript_flags_reordering_and_missing_corrections():
    reference = run_protocol(SIGNAL, seed=SEED_ALL_CORRECTIONS)
    events = list(reference.trace.events)
    events[1], events[2] = events[2], events[1]
    report = compare_transcript(reference, events)
    assert not report.match

    events = [e for e in reference.trace.events if not isinstance(e, CorrectionApplied)]
    report = compare_transcript(reference, events)
    assert not report.match
    assert any("'CorrectionApplied role=bob unitary=X'" in problem for problem in report.problems)


def test_read_transcript_splits_meta_from_events(tmp_path):
    path = tmp_path / "t.log"
    path.write_text(
        "# session id=abc seed=0\n"
        "\n"
        "GhzPrepared\n"
        "# hello role=alice\n"
        "Finished fidelity=1.0\n"
    )
    meta, events = read_transcript(path)
    assert meta == ["session id=abc seed=0", "hello role=alice"]
    assert len(events) == 2
    assert isinstance(events[1], Finished)


# --- orchestrate -------------------------------------------------------------


def test_orchestrate_matches_bitwise_for_a_tiny_negative_amplitude(tmp_path, monkeypatch):
    def play(role, config):  # writes what it was given to its stderr, then plays
        print(role.value, repr(config), file=sys.stderr)
        return PLAY(role, config)

    patch_play(monkeypatch, play)
    # repr(-3e-05) would read as an option on a command line; the parties never see the signal.
    signal = SignalState(complex(-3e-05, 0), 1)
    report = orchestrate(signal, seed=1, timeout=10.0, transcript_dir=tmp_path)
    assert report.match, report.problems
    assert report.net_fidelity == report.reference_fidelity == run_protocol(signal, seed=1).fidelity

    # A party receives only a PartyConfig: no signal, no seed.
    for role in Role:
        stderr = report.parties[role.value]["stderr"]
        assert re.fullmatch(rf"{role.value} PartyConfig\(host='127\.0\.0\.1', port=\d+, "
                            r"timeout=10\.0, stop_before=None\)", stderr), stderr


def test_orchestrate_on_an_occupied_port_reports_that_the_coordinator_failed(tmp_path):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        sock.listen(1)
        report = orchestrate(SIGNAL, seed=0, port=sock.getsockname()[1], timeout=5.0,
                             transcript_dir=tmp_path)
    assert not report.match
    (problem,) = report.problems
    assert problem.startswith("coordinator failed to start:") and "cannot bind" in problem
    assert report.stalled_at is None


def test_a_transcript_that_cannot_be_opened_releases_the_port(tmp_path):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    path = tmp_path / "missing" / "t.log"
    with pytest.raises(OSError) as raised:
        Coordinator(SIGNAL, seed=0, transcript_path=path, port=port)
    assert raised.value.filename == str(path)
    # ``raised`` keeps the half-built Coordinator alive through its traceback,
    # so the port is free only if the Coordinator closed its listening socket.
    with socket.socket() as again:
        again.bind(("127.0.0.1", port))


def test_orchestrate_names_a_transcript_it_cannot_open(tmp_path):
    transcript = tmp_path / "net-transcript.log"
    transcript.mkdir()  # open() for writing fails: it is a directory
    report = orchestrate(SIGNAL, seed=0, timeout=5.0, transcript_dir=tmp_path)
    assert not report.match
    (problem,) = report.problems
    assert problem.startswith(f"coordinator failed to start: cannot open transcript {transcript}: ")


# The real play, which a patched one may call.
PLAY = party.play


def patch_play(monkeypatch, play, roles=tuple(Role)) -> None:
    """Make each party of ``roles`` that orchestrate forks run ``play`` in
    place of the real one; the forks inherit this process's ``party.play``."""
    monkeypatch.setattr(party, "play",
                        lambda role, config: (play if role in roles else PLAY)(role, config))


def flooding_bob(role, config):
    """Plays Bob's part in full, then floods stderr past a pipe's 64 KiB and fails."""
    PLAY(role, config)
    sys.stderr.write("x" * 100_000 + " last words")
    return 3


def failing_bob(role, config):
    """Fails before it joins."""
    print("bob cannot start", file=sys.stderr)
    return 1


def test_a_party_that_floods_stderr_and_fails_is_reaped_and_reported(tmp_path, monkeypatch):
    patch_play(monkeypatch, flooding_bob, [Role.BOB])
    report = orchestrate(SIGNAL, seed=0, timeout=10.0, transcript_dir=tmp_path)

    assert not report.match
    assert report.stalled_at is None  # the session itself completed
    (problem,) = report.problems
    assert problem.startswith("party bob exited with 3, stderr ends 'xxx")
    assert problem.endswith(" last words'")


def test_orchestrate_needs_no_pythonpath(tmp_path, monkeypatch):
    # The parties import the ghztp this process runs, wherever it came from.
    monkeypatch.delenv("PYTHONPATH", raising=False)
    monkeypatch.chdir(tmp_path)
    report = orchestrate(SIGNAL, seed=0, timeout=5.0, transcript_dir=tmp_path)
    assert report.match, report.problems


def test_a_stalled_session_names_the_party_that_failed(tmp_path, monkeypatch):
    patch_play(monkeypatch, failing_bob, [Role.BOB])
    report = orchestrate(SIGNAL, seed=0, timeout=2.0, transcript_dir=tmp_path)

    assert not report.match
    assert (report.stalled_role, report.stalled_at) == ("bob", "Join")
    # Alice and Charlie, killed while they waited for their Grant, are not named.
    assert report.problems == [
        "session stalled at Join",
        "party bob exited with 1, stderr ends 'bob cannot start'",
    ]
    assert report.parties["bob"] == {"exit": 1, "stderr": "bob cannot start"}
    assert sorted(report.parties) == ["alice", "bob", "charlie"]


def deaf_charlie(role, config):
    """Ignores SIGTERM and never joins."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    time.sleep(60)
    return 0


def test_a_party_that_ignores_sigterm_is_killed_within_the_timeout(tmp_path, monkeypatch):
    patch_play(monkeypatch, deaf_charlie, [Role.CHARLIE])
    start = time.monotonic()
    report = orchestrate(SIGNAL, seed=0, timeout=0.5, transcript_dir=tmp_path)
    assert time.monotonic() - start < 5.0
    assert (report.stalled_role, report.stalled_at) == ("charlie", "Join")
    assert report.parties["charlie"]["exit"] == -signal.SIGKILL
    # Alice and Bob, waiting for their Grant, end at SIGTERM.
    assert report.parties["alice"]["exit"] == report.parties["bob"]["exit"] == -signal.SIGTERM


# What os.fork raises when the process limit is reached.
FORK_ERROR = OSError(errno.EAGAIN, "Resource temporarily unavailable")


def recording_fork(monkeypatch, fail_on: int | None = None) -> list[int]:
    """Record the pid of every party orchestrate forks; with ``fail_on``, that
    call of ``os.fork`` (counted from 1) raises instead."""
    fork = os.fork
    pids = []

    def forking():
        if len(pids) + 1 == fail_on:
            raise FORK_ERROR
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", forking)
    return pids


def assert_reaped(pids) -> None:
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_a_fork_that_fails_part_way_leaves_no_process(tmp_path, monkeypatch, capsys):
    pids = recording_fork(monkeypatch, fail_on=2)
    report = orchestrate(SIGNAL, seed=0, timeout=5.0, transcript_dir=tmp_path)

    assert report.problems == [f"cannot fork party bob: {FORK_ERROR}"]
    assert (report.match, report.stalled_at, report.parties) == (False, None, {})
    assert len(pids) == 1  # Alice's
    assert_reaped(pids)
    # The coordinator was shut down: its transcript is closed.
    assert (tmp_path / "net-transcript.log").read_text().endswith("# session incomplete\n")

    # ghztp net orchestrate reports it as a failed check, not a traceback.
    pids.clear()
    assert cli.main(["net", "orchestrate", "--transcript-dir", str(tmp_path)]) == cli.EXIT_CHECK_FAILED
    assert capsys.readouterr().err == f"problem: cannot fork party bob: {FORK_ERROR}\n"
    assert_reaped(pids)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_forked_party_holds_none_of_the_callers_descriptors(tmp_path, monkeypatch):
    def play(role, config):
        print(json.dumps(os.listdir("/proc/self/fd")), file=sys.stderr)
        return PLAY(role, config)

    patch_play(monkeypatch, play)
    report = orchestrate(SIGNAL, seed=0, timeout=10.0, transcript_dir=tmp_path)
    assert report.match, report.problems
    for role in Role:
        fds = {int(fd) for fd in json.loads(report.parties[role.value]["stderr"])}
        # 0, 1 and 2, and the descriptor os.listdir opened to list them
        assert {0, 1, 2} < fds and len(fds) == 4, (role, sorted(fds))


@pytest.mark.parametrize("drop, bob, problems", [
    pytest.param(None, None, [], id="completed"),
    pytest.param(Role.CHARLIE, None, ["session stalled at CharlieMeasure"], id="drop-charlie"),
    pytest.param(None, failing_bob, ["session stalled at Join",
                                     "party bob exited with 1, stderr ends 'bob cannot start'"],
                 id="failing-bob"),
])
def test_no_process_outlives_orchestrate(tmp_path, monkeypatch, drop, bob, problems):
    if bob is not None:
        patch_play(monkeypatch, bob, [Role.BOB])
    pids = recording_fork(monkeypatch)
    report = orchestrate(SIGNAL, seed=0, drop=drop, timeout=2.0, transcript_dir=tmp_path)
    assert report.problems == problems
    assert len(pids) == 3
    assert_reaped(pids)


# --- repeat runs, shutdown, and a fuzzer ------------------------------------------


def test_every_seed_gives_the_same_transcript_on_every_run(make_coordinator):
    for seed in range(10):
        runs = []
        for _ in range(3):
            _, events = run_full_session(make_coordinator, seed)
            report = compare_transcript(run_protocol(SIGNAL, seed=seed), events)
            assert report.match, (seed, report.problems)
            runs.append([netharness.event_line(e) for e in events])
        assert runs[0] == runs[1] == runs[2], seed


def test_shutdown_is_prompt_and_closes_a_silent_party_without_a_disconnect_line(
    make_coordinator,
):
    coordinator = make_coordinator(timeout=5.0)
    client = Client(coordinator.port)
    try:
        client.send(Kind.HELLO, {"role": "alice"})
        wait_until_joined(coordinator, "alice")
        start = time.monotonic()
        coordinator.shutdown()
        assert time.monotonic() - start < 0.5
        assert client.recv() is None  # the coordinator closed the connection
    finally:
        client.close()
    lines = coordinator.transcript_path.read_text().splitlines()
    assert lines[-1] == "# session incomplete"
    assert not [line for line in lines if line.startswith("# disconnect")]


def test_an_error_quoting_a_huge_request_still_fits_on_the_wire(make_coordinator):
    # The refusal quotes the body, and each 'é' grows from 2 bytes of UTF-8 to
    # the 6 of its JSON escape.
    coordinator = make_coordinator()
    client = Client(coordinator.port)
    hello = {"seq": 1, "session_id": "", "kind": "Hello", "body": {"role": "é" * 30_000}}
    try:
        client.send_raw(json.dumps(hello, ensure_ascii=False).encode() + b"\n")
        expect_error(client, ERR_FRAME)
        assert client.recv() is None
    finally:
        client.close()
    with joined_session(coordinator):  # the coordinator still serves
        pass


# The fuzzer's session: seed 0 owes every correction, so Charlie's Bell
# correction is held for Bob's.
FUZZ_SCRIPT = [
    (Role.ALICE, Kind.HELLO, {"role": "alice"}),
    (Role.BOB, Kind.HELLO, {"role": "bob"}),
    (Role.CHARLIE, Kind.HELLO, {"role": "charlie"}),
    (Role.ALICE, Kind.OP_REQUEST, {"op": "prepare"}),
    (Role.ALICE, Kind.OP_REQUEST, {"op": "bell_measure", "qubits": [0, 1]}),
    (Role.ALICE, Kind.CLASSICAL, {"recipients": ["bob", "charlie"], "payload": "PsiMinus"}),
    (Role.BOB, Kind.OP_REQUEST, {"op": "apply_correction", "qubit": 2, "unitary": "X"}),
    (Role.CHARLIE, Kind.OP_REQUEST, {"op": "apply_correction", "qubit": 3, "unitary": "ZX"}),
    (Role.CHARLIE, Kind.OP_REQUEST, {"op": "basis_measure", "qubit": 3, "basis": "plus_minus"}),
    (Role.CHARLIE, Kind.CLASSICAL, {"recipients": ["bob"], "payload": "Minus"}),
    (Role.BOB, Kind.OP_REQUEST, {"op": "apply_correction", "qubit": 2, "unitary": "Z"}),
    (Role.BOB, Kind.OP_REQUEST, {"op": "fetch_bob_state", "qubit": 2}),
    (Role.ALICE, Kind.FINISH, {}),
    (Role.BOB, Kind.FINISH, {}),
    (Role.CHARLIE, Kind.FINISH, {}),
]

FUZZ_REFERENCE = run_protocol(SIGNAL, seed=SEED_ALL_CORRECTIONS)

# Refused at once, and changes nothing, on any connection in any phase: the
# reply after it shows that everything sent before has been answered.
PROBE = {"op": "basis_measure", "qubit": -99}

# Lines that are no message of this connection.
BAD_LINES = {
    "junk": lambda client: b"not json\n",
    "stale": lambda client: encode(WireMessage(1, "", Kind.FINISH, {})),
    "foreign": lambda client: encode(WireMessage(10**6, "nobody", Kind.FINISH, {})),
}

fuzz_names = st.sampled_from([
    "alice", "bob", "charlie", "eve", "prepare", "bell_measure", "apply_correction",
    "basis_measure", "fetch_bob_state", "X", "Z", "ZX", "I", "H", "plus_minus",
    "PhiPlus", "PhiMinus", "PsiPlus", "PsiMinus", "Plus", "Minus",
])
fuzz_qubits = st.integers(-1, 4)
fuzz_values = st.recursive(
    st.none() | st.booleans() | fuzz_qubits | st.floats(-2, 5) | fuzz_names | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
fuzz_bodies = st.dictionaries(
    st.sampled_from(["role", "op", "qubits", "qubit", "unitary", "basis", "recipients", "payload"])
    | st.text(max_size=5),
    fuzz_values,
    max_size=4,
)
# (connection, kind, body): a move of the script, one with fields changed, or anything.
fuzz_messages = st.lists(
    st.one_of(
        st.sampled_from([(list(Role).index(r), k, b) for r, k, b in FUZZ_SCRIPT]),
        st.tuples(st.sampled_from(FUZZ_SCRIPT), fuzz_bodies).map(
            lambda pair: (list(Role).index(pair[0][0]), pair[0][1], {**pair[0][2], **pair[1]})
        ),
        st.tuples(st.integers(0, 3), st.sampled_from([*Kind, *BAD_LINES]), fuzz_bodies),
    ),
    max_size=8,
)


def next_reply(client: Client):
    """The next OpResult or Error, past Grants and relays; None once the
    coordinator has closed the connection."""
    while True:
        try:
            message = client.recv()
        except ConnectionResetError:  # closed with our probe still unread
            return None
        if message is None or message.kind in (Kind.OP_RESULT, Kind.ERROR):
            return message


def assert_closed(client: Client) -> None:
    assert next_reply(client) is None


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stage=st.integers(0, len(FUZZ_SCRIPT)), messages=fuzz_messages)
def test_fuzzed_messages_get_one_reply_each_and_never_stop_the_coordinator(
    tmp_path_factory, stage, messages
):
    # A short hold keeps examples quick; it only changes how soon a held
    # request of Charlie's is refused.
    coordinator = Coordinator(SIGNAL, seed=SEED_ALL_CORRECTIONS,
                              transcript_path=tmp_path_factory.mktemp("fuzz") / "t.log",
                              timeout=0.25)
    coordinator.start()
    clients = [Client(coordinator.port) for _ in range(4)]  # Alice, Bob, Charlie, a stranger
    joined = [False] * 4
    closed = [False] * 4
    try:
        # Each scripted move is made before the next is sent, as the parties make them.
        for role, kind, body in FUZZ_SCRIPT[:stage]:
            index = list(Role).index(role)
            clients[index].send(kind, body)
            if kind is Kind.HELLO:
                wait_until_joined(coordinator, role.value)
                joined[index] = True
            elif kind is Kind.OP_REQUEST:
                assert next_reply(clients[index]).kind is Kind.OP_RESULT
            elif kind is Kind.CLASSICAL:
                for name in body["recipients"]:
                    recipient = clients[list(Role).index(Role(name))]
                    while recipient.recv().kind is not Kind.CLASSICAL:
                        pass  # the Grant

        for index, kind, body in messages:
            client = clients[index]
            if closed[index]:
                continue
            if kind in BAD_LINES:
                client.send_raw(BAD_LINES[kind](client))
            else:
                client.send(kind, body)
            if not joined[index] and kind is not Kind.HELLO:
                reply = next_reply(client)  # refused: no role yet, or no message
                assert reply.kind is Kind.ERROR and reply.body["code"] in (ERR_PHASE, ERR_FRAME)
                if reply.body["code"] == ERR_FRAME:
                    assert_closed(client)
                    closed[index] = True
                continue
            client.send(Kind.OP_REQUEST, PROBE)
            replies = []
            while True:
                reply = next_reply(client)
                if reply is None or "does not own [-99]" in reply.body.get("message", ""):
                    break
                replies.append(reply)
            if reply is None:  # the coordinator hung up: after one framing or role error
                assert [(r.kind, r.body["code"]) for r in replies] in (
                    [(Kind.ERROR, ERR_FRAME)], [(Kind.ERROR, ERR_ROLE_TAKEN)]
                ), replies
                closed[index] = True
                continue
            joined[index] = True
            if kind is Kind.OP_REQUEST:
                assert len(replies) == 1, replies
            else:
                assert [r.kind for r in replies] in ([], [Kind.ERROR]), replies

        assert coordinator._thread.is_alive()
        fresh = Client(coordinator.port)
        try:
            fresh.send(Kind.OP_REQUEST, {"op": "prepare"})
            expect_error(fresh, ERR_PHASE)
        finally:
            fresh.close()
    finally:
        for client in clients:
            client.close()
        coordinator.shutdown()
    # Whatever the parties sent, the session was written in the in-process order.
    _, events = read_transcript(coordinator.transcript_path)
    got = [netharness.event_line(e) for e in events]
    expected = [netharness.event_line(e) for e in netharness._networked(FUZZ_REFERENCE)]
    assert got == expected[: len(got)], got
