"""Property tests: invariants that should hold for arbitrary signals and states."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ghztp.protocol import (
    BELL_CORRECTION_TABLE,
    CHARLIE_CORRECTION_TABLE,
    Role,
    SignalState,
    run_protocol,
    trace_order_errors,
)
from ghztp.qsim import (
    COMPUTATIONAL,
    NAMED_UNITARIES,
    PLUS_MINUS,
    SQRT_HALF,
    BellOutcome,
    CharlieOutcome,
    ForcedSelector,
    StateVector,
    Unitary2x2,
    apply_single,
    basis_probabilities,
    bell_probabilities,
    measure_in_basis,
    partial_trace,
    tensor,
)
from ghztp.verify import bob_view_before_charlie
from tests.oracles import partial_trace_matrix

H_GATE = Unitary2x2([[SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF]], name="H")

finite = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def signals(draw):
    parts = [draw(finite) for _ in range(4)]
    norm = math.sqrt(sum(p * p for p in parts))
    assume(norm > 1e-3)
    return SignalState(
        complex(parts[0], parts[1]) / norm, complex(parts[2], parts[3]) / norm
    )


@st.composite
def states(draw, num_qubits=3):
    dim = 2**num_qubits
    parts = [draw(finite) for _ in range(2 * dim)]
    amplitudes = [complex(parts[2 * i], parts[2 * i + 1]) for i in range(dim)]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amplitudes))
    assume(norm > 1e-3)
    return StateVector(num_qubits, [a / norm for a in amplitudes])


# --- substrate ----------------------------------------------------------------


@given(states(num_qubits=2), states(num_qubits=1))
def test_tensor_product_preserves_normalization(left, right):
    combined = tensor(left, right)
    total = sum(abs(a) ** 2 for a in combined.amplitudes)
    assert abs(total - 1.0) <= 1e-12


@given(states(), st.integers(0, 2), st.sampled_from(["X", "Z", "ZX", "H"]))
def test_unitaries_preserve_normalization(state, qubit, name):
    unitary = H_GATE if name == "H" else NAMED_UNITARIES[name]
    moved = apply_single(state, qubit, unitary)
    total = sum(abs(a) ** 2 for a in moved.amplitudes)
    assert abs(total - 1.0) <= 1e-12


@given(states(), st.integers(0, 2), st.sampled_from([COMPUTATIONAL, PLUS_MINUS]))
def test_born_probabilities_are_complete(state, qubit, basis):
    p0, p1 = basis_probabilities(state, qubit, basis)
    assert p0 >= -1e-12 and p1 >= -1e-12
    assert abs(p0 + p1 - 1.0) <= 1e-10


@given(states())
def test_bell_probabilities_are_complete(state):
    probabilities = bell_probabilities(state, 0, 1)
    assert all(p >= -1e-12 for p in probabilities.values())
    assert abs(sum(probabilities.values()) - 1.0) <= 1e-10


@given(states(), st.integers(0, 2), st.sampled_from([COMPUTATIONAL, PLUS_MINUS]))
def test_projection_is_idempotent(state, qubit, basis):
    probabilities = basis_probabilities(state, qubit, basis)
    outcome = int(probabilities[1] > probabilities[0])  # the likelier one is forceable
    k, _, post = measure_in_basis(state, qubit, basis, ForcedSelector(outcome))
    assert k == outcome
    assert abs(basis_probabilities(post, qubit, basis)[k] - 1.0) <= 1e-10


@given(states(), st.integers(0, 2))
def test_partial_trace_matches_the_index_oracle(state, keep):
    rho = partial_trace(state, [keep])
    expected = partial_trace_matrix(state.amplitudes, [keep], state.num_qubits)
    assert abs(rho.entries - expected).max() <= 1e-12


# --- protocol ----------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(signals(), st.sampled_from(list(BellOutcome)), st.sampled_from(list(CharlieOutcome)))
def test_every_branch_teleports_every_signal(signal, bell, charlie):
    result = run_protocol(signal, forced=(bell, charlie))
    assert result.fidelity >= 1.0 - 1e-10
    assert abs(result.path_probability - 0.125) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(signals(), st.integers(0, 2**63 - 1))
def test_seeded_runs_are_reproducible_and_well_ordered(signal, seed):
    first = run_protocol(signal, seed=seed)
    second = run_protocol(signal, seed=seed)
    assert first.trace.lines() == second.trace.lines()
    assert first.bob_state == second.bob_state  # exact amplitude bits
    assert trace_order_errors(first.trace.events) == []


@settings(max_examples=20, deadline=None)
@given(signals(), st.sampled_from(list(BellOutcome)), st.sampled_from(list(CharlieOutcome)))
def test_corrections_in_the_trace_match_the_published_tables(signal, bell, charlie):
    result = run_protocol(signal, forced=(bell, charlie))
    events = result.trace.events
    u_bob, u_charlie = BELL_CORRECTION_TABLE[bell]
    logged = {(e.role, e.unitary) for e in events if hasattr(e, "role")}
    assert logged == {(Role.BOB, u_bob.name), (Role.CHARLIE, u_charlie.name)}
    final = [e.unitary for e in events if type(e).__name__ == "BobCorrected"]
    assert final == [CHARLIE_CORRECTION_TABLE[charlie].name]


# --- security ----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(signals(), st.sampled_from(list(BellOutcome)))
def test_bob_alone_sees_a_diagonal_mixture(signal, bell):
    report = bob_view_before_charlie(signal, bell)
    assert abs(report.rho_bob.entries[0, 1]) <= 1e-12
    assert abs(report.rho_bob.entries[1, 0]) <= 1e-12
    a2 = abs(signal.alpha) ** 2
    b2 = abs(signal.beta) ** 2
    assert abs(report.raw_fidelity - (a2 * a2 + b2 * b2)) <= 1e-10
    assert abs(report.unitary_bound - max(a2, b2)) <= 1e-10
    assert report.raw_fidelity >= -1e-10
    assert report.raw_fidelity <= report.unitary_bound + 1e-10
    assert report.unitary_bound <= 1.0 + 1e-10


@settings(max_examples=60, deadline=None)
@given(signals(), st.sampled_from(list(BellOutcome)))
def test_unbalanced_but_genuine_superpositions_stay_protected(signal, bell):
    weight = min(abs(signal.alpha) ** 2, abs(signal.beta) ** 2)
    assume(weight > 1e-6)
    report = bob_view_before_charlie(signal, bell)
    assert report.unitary_bound < 1.0 - 1e-7
