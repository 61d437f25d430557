"""Exit codes, output formats, and JSON round-trips for every subcommand."""

import json
import socket

import pytest

from ghztp.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONNECTION,
    EXIT_OK,
    EXIT_STALLED,
    EXIT_USAGE,
    PRESETS,
    RunConfig,
    UsageError,
    main,
)
from ghztp.protocol import SignalState, run_protocol
from ghztp.qsim import SQRT_HALF, BellOutcome, CharlieOutcome
from ghztp.verify import bob_view_before_charlie, enumerate_branches


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# --- RunConfig ---------------------------------------------------------------


def test_config_rejects_amplitudes_and_preset_together():
    with pytest.raises(UsageError):
        RunConfig(alpha=complex(1), beta=complex(0), preset="plus")


def test_config_rejects_half_given_amplitudes():
    with pytest.raises(UsageError):
        RunConfig(alpha=complex(1))


def test_config_rejects_seed_with_forced_outcomes():
    with pytest.raises(UsageError):
        RunConfig(seed=1, forced=(BellOutcome.PHI_PLUS, CharlieOutcome.PLUS))


def test_config_defaults_to_the_plus_preset():
    assert RunConfig().resolve_signal() == SignalState(*PRESETS["plus"])


def test_config_random_preset_is_seed_deterministic():
    assert RunConfig(preset="random", seed=9).resolve_signal() == RunConfig(
        preset="random", seed=9
    ).resolve_signal()
    assert RunConfig(preset="random", seed=9).resolve_signal() != RunConfig(
        preset="random", seed=10
    ).resolve_signal()


# --- run ---------------------------------------------------------------------


def test_run_seeded_preset_succeeds(capsys):
    code, out, _ = run_cli(capsys, "run", "--preset", "plus", "--seed", "1")
    assert code == EXIT_OK
    assert "fidelity: 1" in out
    assert "GhzPrepared" in out
    assert "Finished" in out


def test_run_basis_signal_lands_bob_on_basis_state(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--alpha", "1", "0", "--beta", "0", "0", "--format", "json"
    )
    assert code == EXIT_OK
    body = json.loads(out)
    b0, b1 = (complex(re, im) for re, im in body["bob_state"])
    assert abs(abs(b0) - 1.0) <= 1e-12
    assert abs(b1) <= 1e-12


def test_run_forced_branch_shows_the_z_correction(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--preset", "plus",
        "--force-bell", "PhiPlus", "--force-charlie", "Minus",
    )
    assert code == EXIT_OK
    assert "BobCorrected unitary=Z" in out


def test_run_json_round_trips_and_matches_in_process_result(capsys):
    code, out, _ = run_cli(capsys, "run", "--preset", "plus", "--seed", "3", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == run_protocol(SignalState(SQRT_HALF, SQRT_HALF), seed=3).to_json()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--alpha", "1", "0"],
        ["run", "--preset", "plus", "--alpha", "1", "0", "--beta", "0", "0"],
        ["run", "--alpha", "1", "0", "--beta", "1", "0"],
        ["run", "--alpha", "nan", "0", "--beta", "0", "0"],
        ["run", "--preset", "plus", "--force-bell", "PhiPlus"],
        ["run", "--preset", "plus", "--seed", "1",
         "--force-bell", "PhiPlus", "--force-charlie", "Plus"],
        ["stats", "--runs", "0"],
        ["security", "--sweep", "0"],
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert "error" in err


# --- enumerate -----------------------------------------------------------------


def test_enumerate_prints_eight_rows_and_checksum(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--preset", "plus")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    rows = [line for line in lines if " probability=" in line]
    assert len(rows) == 8
    assert all("probability=0.125 " in row for row in rows)
    assert lines[-1] == "sum_probability=1 min_fidelity=1"


def test_enumerate_json_is_an_array_of_eight_round_trippable_reports(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--alpha", "0.6", "0", "--beta", "0.8", "0", "--format", "json"
    )
    assert code == EXIT_OK
    body = json.loads(out)
    assert len(body) == 8
    assert all(abs(entry["probability"] - 0.125) <= 1e-10 for entry in body)
    assert body == [r.to_json() for r in enumerate_branches(SignalState(0.6, 0.8))]


# --- security ------------------------------------------------------------------


def test_security_balanced_signal_bounds_at_half(capsys):
    code, out, _ = run_cli(capsys, "security", "--preset", "plus")
    assert code == EXIT_OK
    assert out.count("unitary_bound=0.5") == 4
    assert "caveat" not in out


def test_security_basis_signal_prints_the_caveat(capsys):
    code, out, _ = run_cli(capsys, "security", "--preset", "zero")
    assert code == EXIT_OK
    assert out.count("unitary_bound=1") == 4
    assert "caveat" in out


def test_security_json_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "security", "--alpha", "0.6", "0", "--beta", "0.8", "0", "--format", "json"
    )
    assert code == EXIT_OK
    body = json.loads(out)
    assert [entry["bell"] for entry in body] == [o.value for o in BellOutcome]
    signal = SignalState(0.6, 0.8)
    assert body == [
        {"bell": bell.value, **bob_view_before_charlie(signal, bell).to_json()} for bell in BellOutcome
    ]


def test_security_sweep_reports_tiny_deviations(capsys):
    code, out, _ = run_cli(capsys, "security", "--sweep", "50", "--seed", "2")
    assert code == EXIT_OK
    assert "sweep samples=50" in out
    assert "max_bound_deviation=" in out


# --- stats ---------------------------------------------------------------------


def test_stats_is_deterministic_and_within_bounds(capsys):
    code, first, _ = run_cli(capsys, "stats", "--runs", "200", "--seed", "3")
    assert code == EXIT_OK
    assert "max_abs_z=" in first
    code, second, _ = run_cli(capsys, "stats", "--runs", "200", "--seed", "3")
    assert code == EXIT_OK
    assert first == second


def test_stats_json_counts_add_up(capsys):
    code, out, _ = run_cli(
        capsys, "stats", "--runs", "120", "--seed", "7", "--format", "json"
    )
    assert code == EXIT_OK
    body = json.loads(out)
    assert body["runs"] == 120
    bell_total = sum(o["count"] for o in body["outcomes"] if o["expected_p"] == 0.25)
    charlie_total = sum(o["count"] for o in body["outcomes"] if o["expected_p"] == 0.5)
    assert bell_total == 120
    assert charlie_total == 120
    assert body["max_abs_z"] < 4.0


# --- net -----------------------------------------------------------------------


def test_net_party_without_coordinator_exits_4(capsys):
    code, _, err = run_cli(
        capsys, "net", "party", "--role", "bob",
        "--port", str(closed_port()), "--timeout", "1",
    )
    assert code == EXIT_CONNECTION
    assert "connection error" in err


def test_net_party_reads_role_and_port_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("GHZTP_ROLE", "bob")
    monkeypatch.setenv("GHZTP_PORT", str(closed_port()))
    monkeypatch.setenv("GHZTP_TIMEOUT", "1")
    code, _, err = run_cli(capsys, "net", "party")
    assert code == EXIT_CONNECTION
    assert "connection error" in err


@pytest.mark.parametrize("name, flag", [("PORT", "--port"), ("TIMEOUT", "--timeout"),
                                        ("SEED", "--seed")])
def test_a_malformed_environment_default_fails_only_the_net_commands(
    capsys, monkeypatch, name, flag
):
    expected = run_cli(capsys, "run", "--seed", "1")
    monkeypatch.setenv(f"GHZTP_{name}", "abc")
    assert run_cli(capsys, "run", "--seed", "1") == expected
    with pytest.raises(SystemExit) as exited:
        main(["net", "orchestrate"])
    assert exited.value.code == EXIT_USAGE
    assert f"argument {flag}: invalid" in capsys.readouterr().err


def test_net_orchestrate_matches_the_in_process_run(capsys, tmp_path):
    # Preset seed 8's amplitudes moved by one ulp when normalized a second time.
    for signal_args in (["--seed", "7"], ["--preset", "random", "--seed", "8"]):
        directory = tmp_path / "-".join(signal_args)
        code, out, err = run_cli(
            capsys, "net", "orchestrate", *signal_args,
            "--transcript-dir", str(directory), "--timeout", "10",
        )
        assert code == EXIT_OK, (signal_args, err)
        assert "match: true" in out
        assert (directory / "net-transcript.log").exists()


def test_net_orchestrate_drop_charlie_stalls_at_his_measurement(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "net", "orchestrate", "--seed", "0", "--drop", "charlie",
        "--transcript-dir", str(tmp_path), "--timeout", "2",
    )
    assert code == EXIT_STALLED
    assert "match: false" in out
    assert "stalled-at-CharlieMeasure role=charlie" in out


def test_net_orchestrate_json_report(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "net", "orchestrate", "--seed", "4", "--format", "json",
        "--transcript-dir", str(tmp_path), "--timeout", "10",
    )
    assert code == EXIT_OK, err
    body = json.loads(out)
    assert body["match"] is True
    assert body["problems"] == []
    assert body["net_fidelity"] == body["reference_fidelity"]


def test_net_serve_on_an_occupied_port_exits_4(capsys, tmp_path):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        sock.listen(1)
        port = sock.getsockname()[1]
        code, _, err = run_cli(
            capsys, "net", "serve", "--port", str(port),
            "--transcript", str(tmp_path / "t.log"),
        )
    assert code == EXIT_CONNECTION
    assert "cannot bind" in err


def test_net_serve_with_a_transcript_it_cannot_open_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "t.log"
    code, out, err = run_cli(capsys, "net", "serve", "--transcript", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"cannot open transcript {path}: ")


def test_net_orchestrate_on_an_occupied_port_exits_1(capsys, tmp_path):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        sock.listen(1)
        code, out, err = run_cli(
            capsys, "net", "orchestrate", "--port", str(sock.getsockname()[1]),
            "--transcript-dir", str(tmp_path),
        )
    assert code == EXIT_CHECK_FAILED
    assert "match: false" in out
    assert "problem: coordinator failed to start:" in err and "cannot bind" in err
