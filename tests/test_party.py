"""The party process: what it imports, and its command line."""

import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import ghztp
from ghztp import cli
from ghztp.netharness import Coordinator
from ghztp.protocol import Role, SignalState

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
    # The numpy-backed names are bound on first use, so a stale entry would
    # otherwise fail only when someone uses it.
    for name in ghztp.__all__:
        assert getattr(ghztp, name) is not None, name


def test_a_party_process_never_imports_numpy(tmp_path):
    coordinator = Coordinator(SignalState(0.6, 0.8), seed=0, transcript_path=tmp_path / "t.log",
                              timeout=10.0)
    coordinator.start()
    try:
        parties = [
            subprocess.Popen(
                [sys.executable, "-X", "importtime", "-m", "ghztp", "net", "party",
                 "--role", role.value, "--port", str(coordinator.port), "--timeout", "10"],
                env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            for role in Role
        ]
        assert coordinator.wait(10.0)
    finally:
        coordinator.shutdown()
        logs = [proc.communicate(timeout=10)[1] for proc in parties]
    for role, proc, log in zip(Role, parties, logs):
        assert proc.returncode == 0, (role, log[-500:])
        modules = imported_modules(log)
        assert not modules & NUMPY_LAYERS, (role, sorted(modules & NUMPY_LAYERS))
        assert "ghztp.wire" in modules  # the log was read


def test_ghztp_in_a_spawned_party_imports_no_numpy_dataclasses_or_typing(tmp_path):
    # A party host run by hand is the lean path: net orchestrate forks its
    # parties from a process that has the simulator imported.
    coordinator = Coordinator(SignalState(0.6, 0.8), seed=0, transcript_path=tmp_path / "t.log",
                              timeout=10.0)
    coordinator.start()
    try:
        host = subprocess.Popen(
            [sys.executable, "-X", "importtime", "-m", "ghztp", "net", "party",
             "--role", "alice", "bob", "charlie", "--port", str(coordinator.port), "--timeout", "10"],
            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert coordinator.wait(10.0)
    finally:
        coordinator.shutdown()
        out, log = host.communicate(timeout=10)
    assert host.returncode == 0, log[-500:]
    modules = imported_by_ghztp(log)
    assert "ghztp.wire" in modules  # the log was read
    unwanted = modules & (NUMPY_LAYERS | HEAVY_STDLIB)
    assert not unwanted, sorted(unwanted)
    # A forked party's stderr holds what -X importtime prints for each import
    # after the fork; there is none, not even the idna codec when it connects.
    assert [json.loads(line) for line in out.splitlines()] == [
        {"role": role.value, "exit": 0, "stderr": ""} for role in Role
    ]


def test_a_party_host_plays_every_role_against_a_coordinator(tmp_path):
    coordinator = Coordinator(SignalState(0.6, 0.8), seed=0, transcript_path=tmp_path / "t.log",
                              timeout=10.0)
    coordinator.start()
    try:
        host = subprocess.Popen(
            [sys.executable, "-m", "ghztp", "net", "party", "--role", "alice", "bob", "charlie",
             "--port", str(coordinator.port), "--timeout", "10"],
            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert coordinator.wait(10.0)
    finally:
        coordinator.shutdown()
        out, err = host.communicate(timeout=10)
    assert (host.returncode, err) == (0, "")
    lines = [json.loads(line) for line in out.splitlines()]
    assert sorted(lines, key=lambda line: line["role"]) == [
        {"role": role.value, "exit": 0, "stderr": ""} for role in Role
    ]
    assert coordinator.transcript_path.read_text().endswith("# session complete\n")


def test_a_party_host_reports_each_party_that_cannot_connect():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]  # closed once the probe is
    done = subprocess.run(
        [sys.executable, "-m", "ghztp", "net", "party", "--role", "bob", "charlie",
         "--port", str(port), "--timeout", "1"],
        env=child_env(), capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr) == (cli.EXIT_CONNECTION, "")
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    assert sorted(line["role"] for line in lines) == ["bob", "charlie"]
    for line in lines:
        assert line["exit"] == cli.EXIT_CONNECTION
        assert line["stderr"].startswith("connection error: ")


def test_a_role_given_twice_is_played_once(capsys):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]  # closed once the probe is
    # One role left: played in this process, with no host and no JSON line.
    code = cli.main(["net", "party", "--role", "bob", "bob", "--port", str(port), "--timeout", "1"])
    out, err = capsys.readouterr()
    assert (code, out) == (cli.EXIT_CONNECTION, "")
    assert err.startswith("connection error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flags, args, env, code", [
    pytest.param([], ["--help"], {}, 0, id="help"),
    pytest.param([], [], {}, 2, id="no-role"),
    pytest.param([], [], {"GHZTP_ROLE": "eve"}, 2, id="env-role"),
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
