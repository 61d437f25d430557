"""The party process: what it imports, and its command line."""

import os
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


@pytest.mark.parametrize("args, code", [(["--help"], 0), ([], 2)], ids=["help", "no-role"])
def test_python_m_ghztp_net_party_prints_what_cli_main_prints(args, code, capsys, monkeypatch):
    monkeypatch.delenv("GHZTP_ROLE", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    with pytest.raises(SystemExit) as exited:
        cli.main(["net", "party", *args])
    expected = capsys.readouterr()
    done = subprocess.run([sys.executable, "-m", "ghztp", "net", "party", *args],
                          capture_output=True, text=True, env=child_env())
    assert exited.value.code == code
    assert (done.returncode, done.stdout, done.stderr) == (code, expected.out, expected.err)
