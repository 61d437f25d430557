"""Coordinator/party tests over real loopback sockets, plus transcript tooling."""

import contextlib
import select
import socket
import threading
import time

import pytest

from ghztp.netharness import (
    Coordinator,
    ComparisonReport,
    OwnershipTable,
    PartyConfig,
    compare_transcript,
    default_ownership,
    infer_stall,
    read_transcript,
    run_party,
)
from ghztp.protocol import (
    BobCorrected,
    CorrectionApplied,
    Finished,
    Role,
    SignalState,
    run_protocol,
)
from ghztp.qsim import ValidationError
from ghztp.wire import ERR_FRAME, ERR_LOCALITY, ERR_PHASE, ERR_ROLE_TAKEN, Kind, MessageStream

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


def wait_until_joined(coordinator, role: str, timeout: float = 5.0) -> None:
    """Registration barrier: the coordinator logs every Hello it accepts."""
    deadline = time.monotonic() + timeout
    while f"# hello role={role}\n" not in coordinator.transcript_path.read_text():
        assert time.monotonic() < deadline, f"{role} never joined"
        time.sleep(0.01)


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


# --- ownership -----------------------------------------------------------


def test_ownership_must_cover_all_qubits_and_roles():
    with pytest.raises(ValidationError):
        OwnershipTable({0: Role.ALICE, 1: Role.ALICE, 2: Role.BOB})
    with pytest.raises(ValidationError):
        OwnershipTable({0: Role.ALICE, 1: Role.ALICE, 2: Role.BOB, 3: Role.BOB})


def test_default_ownership_layout():
    table = default_ownership()
    assert table.qubits_of(Role.ALICE) == [0, 1]
    assert table.qubits_of(Role.BOB) == [2]
    assert table.qubits_of(Role.CHARLIE) == [3]
    assert table.owns(Role.ALICE, [0, 1])
    assert not table.owns(Role.ALICE, [0, 2])
    assert not table.owns(Role.BOB, [5])


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
        fingerprint = coordinator.state_fingerprint()
        assert fingerprint is not None

        clients[Role.BOB].send(Kind.OP_REQUEST, {"op": "bell_measure", "qubits": [0, 1]})
        expect_error(clients[Role.BOB], ERR_LOCALITY)
        assert coordinator.state_fingerprint() == fingerprint

        clients[Role.ALICE].send(
            Kind.OP_REQUEST, {"op": "basis_measure", "qubit": 3, "basis": "plus_minus"}
        )
        expect_error(clients[Role.ALICE], ERR_LOCALITY)
        assert coordinator.state_fingerprint() == fingerprint

        # the refused connection is still in the session
        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "bell_measure", "qubits": [0, 1]})
        result = clients[Role.ALICE].recv()
        assert result.kind is Kind.OP_RESULT
        assert result.body["outcome"] == "PhiPlus"


def test_phase_order_is_enforced_over_the_wire(make_coordinator):
    coordinator = make_coordinator(seed=SEED_NO_CORRECTIONS)
    with joined_session(coordinator) as clients:
        assert coordinator.state_fingerprint() is None

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


def test_full_manual_session_with_unmatched_correction_refused(make_coordinator):
    coordinator = make_coordinator(seed=SEED_NO_CORRECTIONS)
    with joined_session(coordinator) as clients:
        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "prepare"})
        clients[Role.ALICE].recv()
        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "bell_measure", "qubits": [0, 1]})
        assert clients[Role.ALICE].recv().body["outcome"] == "PhiPlus"

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


def test_charlie_measurement_waits_for_bobs_bell_correction(make_coordinator):
    coordinator = make_coordinator(seed=SEED_BOB_OWES_X)
    with joined_session(coordinator) as clients:
        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "prepare"})
        clients[Role.ALICE].recv()
        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "bell_measure", "qubits": [0, 1]})
        assert clients[Role.ALICE].recv().body["outcome"] == "PsiPlus"

        clients[Role.CHARLIE].send(
            Kind.OP_REQUEST, {"op": "apply_correction", "qubit": 3, "unitary": "X"}
        )
        assert clients[Role.CHARLIE].recv().body["applied"] == "X"

        answered = threading.Event()
        outcome = {}

        def measure():
            clients[Role.CHARLIE].send(
                Kind.OP_REQUEST, {"op": "basis_measure", "qubit": 3, "basis": "plus_minus"}
            )
            outcome["body"] = clients[Role.CHARLIE].recv().body
            answered.set()

        thread = threading.Thread(target=measure, daemon=True)
        thread.start()
        assert not answered.wait(0.3)  # blocked on Bob's outstanding X

        clients[Role.BOB].send(
            Kind.OP_REQUEST, {"op": "apply_correction", "qubit": 2, "unitary": "X"}
        )
        assert clients[Role.BOB].recv().body["applied"] == "X"
        assert answered.wait(5.0)
        thread.join(5.0)
        assert outcome["body"]["outcome"] == "Minus"


def test_charlie_measurement_times_out_when_bob_never_corrects(make_coordinator):
    coordinator = make_coordinator(seed=SEED_BOB_OWES_X, timeout=0.5)
    with joined_session(coordinator) as clients:
        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "prepare"})
        clients[Role.ALICE].recv()
        clients[Role.ALICE].send(Kind.OP_REQUEST, {"op": "bell_measure", "qubits": [0, 1]})
        clients[Role.ALICE].recv()
        clients[Role.CHARLIE].send(
            Kind.OP_REQUEST, {"op": "apply_correction", "qubit": 3, "unitary": "X"}
        )
        clients[Role.CHARLIE].recv()
        clients[Role.CHARLIE].send(
            Kind.OP_REQUEST, {"op": "basis_measure", "qubit": 3, "basis": "plus_minus"}
        )
        expect_error(clients[Role.CHARLIE], ERR_PHASE)


# --- scripted parties end to end ---------------------------------------------


def run_full_session(make_coordinator, seed):
    coordinator = make_coordinator(seed=seed)
    results = {}
    threads = [start_party(role, coordinator.port, results) for role in Role]
    for thread in threads:
        thread.join(10.0)
    assert coordinator.wait(5.0), f"session did not complete: {results}"
    assert results == {role: 0 for role in Role}
    coordinator.shutdown()
    return read_transcript(coordinator.transcript_path)


@pytest.mark.parametrize("seed", [SEED_ALL_CORRECTIONS, SEED_NO_CORRECTIONS, SEED_BOB_OWES_X, 7])
def test_scripted_session_matches_in_process_run_bitwise(make_coordinator, seed):
    meta, events = run_full_session(make_coordinator, seed)
    assert any(line == "session complete" for line in meta)
    reference = run_protocol(SIGNAL, seed=seed)
    report = compare_transcript(reference, meta, events)
    assert report.match, report.problems
    assert report.net_fidelity == reference.fidelity  # bitwise, not approximate


def test_identity_corrections_never_cross_the_wire(make_coordinator):
    _, events = run_full_session(make_coordinator, SEED_NO_CORRECTIONS)
    assert not [e for e in events if isinstance(e, (CorrectionApplied, BobCorrected))]


def test_all_corrections_cross_the_wire_when_due(make_coordinator):
    _, events = run_full_session(make_coordinator, SEED_ALL_CORRECTIONS)
    corrections = [e for e in events if isinstance(e, CorrectionApplied)]
    assert {(e.role, e.unitary) for e in corrections} == {
        (Role.BOB, "X"),
        (Role.CHARLIE, "ZX"),
    }
    assert [e.unitary for e in events if isinstance(e, BobCorrected)] == ["Z"]


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
    assert infer_stall(meta, events) == ("charlie", "CharlieMeasure")
    assert not any(isinstance(e, Finished) for e in events)


# --- transcript analysis ----------------------------------------------------


HELLO_META = ["hello role=alice", "hello role=bob", "hello role=charlie"]


def reference_events():
    # seed 0: no identity corrections, so the networked trace keeps every line
    return list(run_protocol(SIGNAL, seed=SEED_ALL_CORRECTIONS).trace.events)


def test_infer_stall_walks_the_milestones():
    events = reference_events()
    assert infer_stall(["hello role=alice", "hello role=charlie"], []) == ("bob", "Join")
    assert infer_stall([], []) == ("alice,bob,charlie", "Join")
    assert infer_stall(HELLO_META, []) == ("alice", "Prepare")
    assert infer_stall(HELLO_META, events[:2]) == ("alice", "BellMeasure")
    assert infer_stall(HELLO_META, events[:3]) == ("alice", "Broadcast")
    assert infer_stall(HELLO_META, events[:4]) == ("charlie", "CharlieMeasure")
    assert infer_stall(HELLO_META, events[:7]) == ("charlie", "CharlieSend")
    assert infer_stall(HELLO_META, events[:8]) == ("bob", "BobFinish")
    assert infer_stall(HELLO_META, events) is None


def test_compare_transcript_accepts_the_reference_itself():
    reference = run_protocol(SIGNAL, seed=SEED_ALL_CORRECTIONS)
    report = compare_transcript(reference, HELLO_META, list(reference.trace.events))
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
    report = compare_transcript(reference, HELLO_META, events)
    assert not report.match
    assert any("fidelity" in problem for problem in report.problems)


def test_compare_transcript_flags_reordering_and_missing_corrections():
    reference = run_protocol(SIGNAL, seed=SEED_ALL_CORRECTIONS)
    events = list(reference.trace.events)
    events[1], events[2] = events[2], events[1]
    report = compare_transcript(reference, HELLO_META, events)
    assert not report.match

    events = [e for e in reference.trace.events if not isinstance(e, CorrectionApplied)]
    report = compare_transcript(reference, HELLO_META, events)
    assert not report.match
    assert any("correction" in problem for problem in report.problems)


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
