"""Tests of the benchmark itself: each check rejects a wrong answer, and a short
run of every workload fails only the operations that the program's known
faults fail, the same share of every run.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SIGNAL = (complex(0.6, 0.0), complex(0.0, 0.8))


def session_output(seed: int):
    from ghztp.protocol import SignalState, run_protocol

    result = run_protocol(SignalState(*SIGNAL), seed=seed)
    return dict(signal=SIGNAL, seed=seed, bell=result.bell_outcome.value,
                charlie=result.charlie_outcome.value,
                path_probability=result.path_probability,
                bob_state=result.bob_state.amplitudes.tolist(),
                trace_lines=result.trace.lines())


def other(names, name):
    return next(n for n in names if n != name)


def test_predicted_outcomes_match_the_program():
    from ghztp.protocol import SignalState, run_protocol

    for seed in range(300):
        result = run_protocol(SignalState(*SIGNAL), seed=seed)
        assert checks.predicted_outcomes(seed) == (
            result.bell_outcome.value, result.charlie_outcome.value)


def test_session_check_passes_the_program_and_rejects_flipped_outcomes():
    good = session_output(seed=11)
    assert checks.check_session(**good) == []
    flipped_bell = dict(good, bell=other(checks.BELL_NAMES, good["bell"]))
    assert any("Bell outcome" in p for p in checks.check_session(**flipped_bell))
    flipped_charlie = dict(good, charlie=other(checks.CHARLIE_NAMES, good["charlie"]))
    assert any("Charlie outcome" in p for p in checks.check_session(**flipped_charlie))


def test_fidelity_short_of_one_by_1e_6_is_rejected():
    good = session_output(seed=12)
    # Bob's state turned away from the signal so that the overlap is 1 - 1e-6.
    a, b = SIGNAL
    theta = math.asin(math.sqrt(1e-6))
    ortho = (-b.conjugate(), a.conjugate())
    tilted = [math.cos(theta) * s + math.sin(theta) * o for s, o in zip(SIGNAL, ortho)]
    assert abs(checks.overlap(SIGNAL, tilted) - (1 - 1e-6)) < 1e-12
    assert checks.check_session(**dict(good, bob_state=tilted))
    short_line = good["trace_lines"][:-1] + [f"Finished fidelity={1 - 1e-6!r}"]
    assert checks.check_session(**dict(good, trace_lines=short_line))
    assert checks.check_fidelity(1 - 1e-6)
    rows = [(b, c, 0.125, 1.0) for b in checks.BELL_NAMES for c in checks.CHARLIE_NAMES]
    assert checks.check_branches(rows) == []
    rows[5] = rows[5][:3] + (1 - 1e-6,)
    assert checks.check_branches(rows)


def transcript_text(seed: int) -> str:
    """A complete transcript in the coordinator's format for the given seed."""
    bell, charlie = checks.predicted_outcomes(seed)
    return "\n".join([
        f"# session id=abc seed={seed}",
        "GhzPrepared",
        "SignalPrepared",
        f"BellMeasured outcome={bell} probability=0.25",
        f"Classical seq=1 sender=alice recipients=bob,charlie payload={bell}",
        f"CharlieMeasured outcome={charlie} probability=0.5",
        f"Classical seq=2 sender=charlie recipients=bob payload={charlie}",
        "Finished fidelity=1.0",
        "# session complete",
    ]) + "\n"


def test_transcript_check_rejects_a_missing_finished_line_and_wrong_outcomes():
    text = transcript_text(seed=5)
    assert checks.check_transcript(text, 5) == []
    no_finished = "".join(line for line in text.splitlines(keepends=True)
                          if not line.startswith("Finished"))
    assert any("Finished" in p for p in checks.check_transcript(no_finished, 5))
    incomplete = text.replace("# session complete", "# session incomplete")
    assert checks.check_transcript(incomplete, 5)
    bell, _ = checks.predicted_outcomes(5)
    wrong = text.replace(f"outcome={bell}", f"outcome={other(checks.BELL_NAMES, bell)}")
    assert checks.check_transcript(wrong, 5)


def test_stats_check_passes_the_program_and_rejects_counts_off_by_one():
    from ghztp import cli

    runs, seed = 64, 3
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["stats", "--runs", str(runs), "--seed", str(seed), "--format", "json"])
    report = json.loads(out.getvalue())
    assert checks.check_stats(report, code, runs, seed) == []
    for index in range(len(report["outcomes"])):
        for delta in (1, -1):
            bad = json.loads(out.getvalue())
            bad["outcomes"][index]["count"] += delta
            assert any("count" in p for p in checks.check_stats(bad, code, runs, seed))
    assert checks.check_stats(report, 1 - code, runs, seed)


def test_security_summary_check_rejects_coherence_before_charlie():
    good = {"samples": 10, "min_bound_excess": 0.0, "max_bound_excess": 1e-16,
            "max_fidelity_deviation": 1e-16, "max_off_diagonal": 0.0}
    assert checks.check_security_summary(good, 10) == []
    assert checks.check_security_summary(dict(good, max_off_diagonal=1e-9), 10)
    assert checks.check_security_summary(good, 11)


def test_self_time_subtracts_only_the_part_children_cover():
    spans = [
        Span(1, 0, 1, 1, "outer", 0, 100, 0),
        Span(2, 1, 1, 1, "child", 10, 30, 0),
        Span(3, 1, 1, 1, "child", 50, 120, 0),  # runs past its parent's end
        Span(4, 0, 1, 2, "other thread", 20, 40, 0),
    ]
    assert self_times(spans) == {1: 100 - 20 - 50, 2: 20, 3: 70, 4: 20}


def test_tracer_wraps_every_binding_and_restores_them():
    import types

    home = types.SimpleNamespace(f=lambda x: x + 1)
    caller = types.SimpleNamespace(f=home.f)
    original = home.f
    tracer = Tracer()
    tracer.install("home.f", [home, caller], "f")
    with tracer.span("outer"):
        assert caller.f(1) == 2
    assert [s.name for s in tracer.spans] == ["home.f", "outer"]
    assert tracer.spans[0].parent == tracer.spans[1].id
    tracer.uninstall()
    assert home.f is original and caller.f is original


def run_bench(*args, cwd=ROOT):
    done = subprocess.run([*SPEC["command"], *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)
    return done, (json.loads(done.stdout.strip().splitlines()[-1])
                  if done.returncode == 0 else None)


@pytest.mark.parametrize("workload", ["session", "sweep", "loopback"])
def test_short_run_has_no_failed_operation(workload):
    done, result = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", "0")
    assert done.returncode == 0, done.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_end_to_end_metrics(result)


def test_orchestrate_round_fails_exactly_the_two_faulty_sessions():
    done, result = run_bench("--workload", "orchestrate", "--seed", "3", "--seconds", "1",
                             "--trace", "0")
    assert done.returncode == 0, done.stderr
    assert result["correct"] and (result["attempted"], result["failed"]) == (10, 2)
    assert "coordinator failed to start" in done.stderr
    assert "BellMeasured lines differ" in done.stderr
    assert_end_to_end_metrics(result)


def test_orchestrate_check_reports_a_missing_transcript(tmp_path):
    import types

    from workloads import Orchestrate

    report = types.SimpleNamespace(transcript=str(tmp_path / "none.log"))
    problems = Orchestrate.check(None, (None, 1), report)
    assert problems and "no transcript" in problems[0]


def assert_end_to_end_metrics(result):
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"] and metrics[m["name"]]["value"] > 0


def test_traced_run_reports_every_per_layer_metric():
    done, result = run_bench("--workload", "session", "--seed", "4", "--seconds", "1",
                             "--trace", "1")
    assert done.returncode == 0, done.stderr
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert result["metrics"]["qsim.calls_per_session"]["value"] == 7
    # Only sessions that ran count: a coordinator that never started has no children.
    assert result["metrics"]["netharness.orchestrate.children_ms"]["value"] > 500


def test_run_without_the_program_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done, _ = run_bench("--workload", "session", "--seed", "1", "--seconds", "1", "--trace", "0",
                        cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
