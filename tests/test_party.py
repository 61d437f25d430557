"""The party process: what it imports, its script, and its command line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ghztp
from ghztp import cli, party
from ghztp.netharness import Coordinator
from ghztp.protocol import Role, SignalState
from ghztp.wire import Kind, WireMessage

# What a party never needs: the simulator, the protocol engine and the full CLI.
NUMPY_LAYERS = {"numpy", "ghztp.qsim", "ghztp.protocol", "ghztp.cli"}

# Nor the stdlib behind dataclasses and typing.
HEAVY_STDLIB = {"dataclasses", "typing", "inspect"}

# Nor the idna codec, which getaddrinfo needs only for a host given as a str.
IDNA = {"encodings.idna", "stringprep", "unicodedata"}


def child_env():
    """This process's environment, with this ghztp importable in a child."""
    root = str(Path(ghztp.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (root, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def imported_modules(importtime_log: str) -> set[str]:
    """Module names from ``python -X importtime`` output."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in importtime_log.splitlines()
        if line.startswith("import time:")
    }


def imported_by_ghztp(importtime_log: str) -> set[str]:
    """The ghztp modules in ``python -X importtime`` output, and every module
    imported while one of them was being imported. A module that ``site``
    imported first does not show up again."""
    entries = [
        (len(name) - len(name.lstrip()), name.strip())
        for name in (line.rsplit("|", 1)[1] for line in importtime_log.splitlines()
                     if line.startswith("import time:"))
    ]
    found = set()
    for i, (indent, name) in enumerate(entries):
        if name.split(".")[0] == "ghztp":
            found.add(name)
            # A module's line follows the lines of what it imported, indented deeper.
            j = i
            while j > 0 and entries[j - 1][0] > indent:
                j -= 1
                found.add(entries[j][1])
    return found


def test_every_name_the_package_exports_resolves():
    # The simulator-backed names are bound on first use, so a stale entry would
    # otherwise fail only when someone uses it.
    for name in ghztp.__all__:
        assert getattr(ghztp, name) is not None, name


def run_parties(tmp_path, *flags):
    """Play the three roles as ``python <flags> -X importtime -m ghztp net
    party`` processes against a coordinator; returns each one's exit code
    and stderr."""
    coordinator = Coordinator(SignalState(0.6, 0.8), seed=0, transcript_path=tmp_path / "t.log",
                              timeout=10.0)
    coordinator.start()
    try:
        parties = [
            subprocess.Popen(
                [sys.executable, *flags, "-X", "importtime", "-m", "ghztp", "net", "party",
                 "--role", role.value, "--port", str(coordinator.port), "--timeout", "10"],
                env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            for role in Role
        ]
        assert coordinator.wait(10.0)
    finally:
        coordinator.shutdown()
        logs = [proc.communicate(timeout=10)[1] for proc in parties]
    return [(role, proc.returncode, log) for role, proc, log in zip(Role, parties, logs)]


def test_a_party_process_never_imports_numpy(tmp_path):
    for role, code, log in run_parties(tmp_path):
        assert code == 0, (role, log[-500:])
        modules = imported_modules(log)
        assert not modules & NUMPY_LAYERS, (role, sorted(modules & NUMPY_LAYERS))
        assert "ghztp.wire" in modules  # the log was read


def test_ghztp_in_a_spawned_party_imports_no_numpy_dataclasses_or_typing(tmp_path):
    # Without site, nothing is imported before ghztp, so the log shows all
    # that ghztp's modules import. net orchestrate forks its parties from a
    # process that has the simulator imported.
    for role, code, log in run_parties(tmp_path, "-S"):
        assert code == 0, (role, log[-500:])
        modules = imported_by_ghztp(log)
        assert "ghztp.wire" in modules  # the log was read
        unwanted = modules & (NUMPY_LAYERS | HEAVY_STDLIB)
        assert not unwanted, (role, sorted(unwanted))
        # Not even the idna codec when it connects.
        assert not imported_modules(log) & IDNA, (role, sorted(imported_modules(log) & IDNA))


def test_the_cli_harness_and_verify_run_a_session_without_numpy():
    # The simulator runs on Python complex numbers; numpy is for the tests only.
    script = (
        "import ghztp.cli, ghztp.netharness, ghztp.verify\n"
        "from ghztp.protocol import SignalState, run_protocol\n"
        "assert run_protocol(SignalState(0.6, 0.8), seed=1).fidelity > 0.99\n"
    )
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", script], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-500:]
    modules = imported_modules(proc.stderr)
    assert "ghztp.qsim" in modules  # the log was read
    assert not {m for m in modules if m.split(".")[0] == "numpy"}


class Script:
    """A party's stream that hands it the given messages and records what it sends."""

    def __init__(self, *messages):
        self.messages = list(messages)
        self.sent = []

    def send(self, kind: Kind, body: dict):
        self.sent.append((kind, body))

    def recv(self):
        return self.messages.pop(0)


def test_a_party_refuses_an_outcome_of_the_wrong_kind():
    # Bob's first message must carry Alice's Bell outcome.
    stream = Script(WireMessage(2, "s", Kind.CLASSICAL, {"payload": "Plus"}))
    with pytest.raises(party.PartyError, match="expected alice's BellOutcome, got"):
        party._run_schedule(stream, Role.BOB, [2], None)
    assert stream.sent == []


@pytest.mark.parametrize("flags, args, env, code", [
    pytest.param([], ["--help"], {}, 0, id="help"),
    pytest.param([], [], {}, 2, id="no-role"),
    pytest.param([], [], {"GHZTP_ROLE": "eve"}, 2, id="env-role"),
    # one process plays one role
    pytest.param([], ["--role", "alice", "bob"], {}, 2, id="two-roles"),
    # -S: a party needs nothing that site processing sets up
    pytest.param(["-S"], ["--help"], {}, 0, id="help-no-site"),
    pytest.param(["-S"], [], {}, 2, id="no-role-no-site"),
    pytest.param(["-S"], [], {"GHZTP_ROLE": "eve"}, 2, id="env-role-no-site"),
])
def test_python_m_ghztp_net_party_prints_what_cli_main_prints(
    flags, args, env, code, capsys, monkeypatch
):
    monkeypatch.delenv("GHZTP_ROLE", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    with pytest.raises(SystemExit) as exited:
        cli.main(["net", "party", *args])
    expected = capsys.readouterr()
    done = subprocess.run([sys.executable, *flags, "-m", "ghztp", "net", "party", *args],
                          capture_output=True, text=True, env=child_env())
    assert exited.value.code == code
    assert (done.returncode, done.stdout, done.stderr) == (code, expected.out, expected.err)
