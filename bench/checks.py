"""Correctness checks made apart from the program.

Nothing here imports ghztp. Every expected value comes from the seed and the
signal the benchmark generated, by plain Python arithmetic:

* Outcomes. A session seeded with ``s`` draws u1, u2 from ``random.Random(s)``;
  all four Bell outcomes and both Charlie outcomes have probability exactly
  1/4 and 1/2, so inverse-CDF sampling gives Bell index floor(4 * u1) and
  Charlie ``Plus`` exactly when u2 < 1/2.
* Path probability 1/4 * 1/2 = 1/8 on every branch.
* Bob's state equals the signal up to a global phase, so its overlap with the
  signal is 1.
* Before Charlie's message Bob holds diag(|alpha|^2, |beta|^2): no coherence.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
import random

BELL_NAMES = ("PhiPlus", "PhiMinus", "PsiPlus", "PsiMinus")
CHARLIE_NAMES = ("Plus", "Minus")

PROBABILITY_TOL = 1e-12
FIDELITY_TOL = 1e-10
OFF_DIAGONAL_TOL = 1e-10
Z_TOL = 1e-9
MAX_ABS_Z = 4.0  # the stats subcommand fails its check at or above this


def predicted_outcomes(seed: int) -> tuple[str, str]:
    """(Bell name, Charlie name) that a session seeded with ``seed`` must report."""
    rng = random.Random(seed)
    u1 = rng.random()
    u2 = rng.random()
    return BELL_NAMES[int(4 * u1)], CHARLIE_NAMES[0 if u2 < 0.5 else 1]


def overlap(signal: tuple[complex, complex], state) -> float:
    """|<signal|state>|^2 for two single-qubit states given as amplitude pairs."""
    a, b = signal
    s0, s1 = (complex(z) for z in state)
    inner = a.conjugate() * s0 + b.conjugate() * s1
    return inner.real * inner.real + inner.imag * inner.imag


def check_outcomes(seed: int, bell: str, charlie: str) -> list[str]:
    want_bell, want_charlie = predicted_outcomes(seed)
    problems = []
    if bell != want_bell:
        problems.append(f"seed {seed}: Bell outcome {bell}, predicted {want_bell}")
    if charlie != want_charlie:
        problems.append(f"seed {seed}: Charlie outcome {charlie}, predicted {want_charlie}")
    return problems


def check_path_probability(probability: float) -> list[str]:
    if abs(probability - 0.125) > PROBABILITY_TOL:
        return [f"path probability {probability!r} is not 1/8"]
    return []


def check_fidelity(fidelity: float, what: str = "fidelity") -> list[str]:
    if not abs(fidelity - 1.0) <= FIDELITY_TOL:
        return [f"{what} {fidelity!r} is not within {FIDELITY_TOL} of 1"]
    return []


def check_session(signal, seed: int, bell: str, charlie: str, path_probability: float,
                  bob_state, trace_lines: list[str]) -> list[str]:
    """One in-process session: outcomes, path probability, Bob's state, trace end."""
    problems = check_outcomes(seed, bell, charlie)
    problems += check_path_probability(path_probability)
    problems += check_fidelity(overlap(signal, bob_state), "Bob's overlap with the signal")
    last = trace_lines[-1] if trace_lines else ""
    if not last.startswith("Finished fidelity="):
        problems.append(f"trace does not end with Finished: {last!r}")
    else:
        problems += check_fidelity(float(last.partition("=")[2]), "traced fidelity")
    return problems


def check_branches(rows: list[tuple[str, str, float, float]]) -> list[str]:
    """enumerate_branches: all 8 (bell, charlie) pairs in order, each 1/8, fidelity 1."""
    problems = []
    expected = [(b, c) for b in BELL_NAMES for c in CHARLIE_NAMES]
    got = [(b, c) for b, c, _, _ in rows]
    if got != expected:
        problems.append(f"branches {got} are not the 8 pairs in order")
    for bell, charlie, probability, fidelity in rows:
        problems += [f"{bell}/{charlie}: {p}" for p in check_path_probability(probability)]
        problems += [f"{bell}/{charlie}: {p}" for p in check_fidelity(fidelity)]
    return problems


def check_security_summary(summary: dict, samples: int) -> list[str]:
    """security_sweep: the closed forms hold and Bob's pre-Charlie state is diagonal."""
    problems = []
    if summary.get("samples") != samples:
        problems.append(f"sweep reports {summary.get('samples')} samples, asked for {samples}")
    for key in ("min_bound_excess", "max_bound_excess", "max_fidelity_deviation"):
        if not abs(summary[key]) <= FIDELITY_TOL:
            problems.append(f"sweep {key} {summary[key]!r} exceeds {FIDELITY_TOL}")
    if not summary["max_off_diagonal"] <= OFF_DIAGONAL_TOL:
        problems.append(f"Bob's pre-Charlie off-diagonal {summary['max_off_diagonal']!r} "
                        f"exceeds {OFF_DIAGONAL_TOL}")
    return problems


def predicted_stats(runs: int, seed: int) -> tuple[dict[str, int], int]:
    """Outcome counts and exit code of ``ghztp stats --runs runs --seed seed``.

    stats draws one 63-bit seed per run from ``random.Random(seed)``; each run
    then follows :func:`predicted_outcomes`.
    """
    master = random.Random(seed)
    counts = dict.fromkeys(BELL_NAMES + CHARLIE_NAMES, 0)
    for _ in range(runs):
        bell, charlie = predicted_outcomes(master.getrandbits(63))
        counts[bell] += 1
        counts[charlie] += 1
    max_abs_z = max(abs(_z(counts[name], runs, p)) for name, p in _expected_p())
    return counts, 0 if max_abs_z < MAX_ABS_Z else 1


def _expected_p():
    return [(name, 0.25) for name in BELL_NAMES] + [(name, 0.5) for name in CHARLIE_NAMES]


def _z(count: int, runs: int, p: float) -> float:
    return (count - runs * p) / math.sqrt(runs * p * (1.0 - p))


def check_stats(report: dict, exit_code: int, runs: int, seed: int) -> list[str]:
    """``stats --format json``: counts predicted exactly, z-scores and exit code follow."""
    counts, want_exit = predicted_stats(runs, seed)
    problems = []
    if report.get("runs") != runs or report.get("seed") != seed:
        problems.append(f"stats echoes runs={report.get('runs')} seed={report.get('seed')}")
    rows = {row["outcome"]: row for row in report.get("outcomes", [])}
    if sorted(rows) != sorted(counts):
        problems.append(f"stats outcomes {sorted(rows)} are not {sorted(counts)}")
        return problems
    for name, p in _expected_p():
        row = rows[name]
        if row["count"] != counts[name]:
            problems.append(f"stats count {name}={row['count']}, predicted {counts[name]}")
        if row["expected_p"] != p:
            problems.append(f"stats expected_p {name}={row['expected_p']}, not {p}")
        if abs(row["z"] - _z(counts[name], runs, p)) > Z_TOL:
            problems.append(f"stats z {name}={row['z']!r} does not follow from the counts")
    if exit_code != want_exit:
        problems.append(f"stats exit code {exit_code}, predicted {want_exit}")
    return problems


def parse_transcript(text: str) -> tuple[list[str], dict[str, list[dict[str, str]]]]:
    """Meta lines and the event lines grouped by kind, each as its key=value fields."""
    meta: list[str] = []
    events: dict[str, list[dict[str, str]]] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            meta.append(line.lstrip("#").strip())
            continue
        kind, _, rest = line.partition(" ")
        events.setdefault(kind, []).append(dict(t.split("=", 1) for t in rest.split()))
    return meta, events


def check_transcript(text: str, seed: int) -> list[str]:
    """A networked session's transcript: complete, outcomes from the seed, 1/8, fidelity 1."""
    meta, events = parse_transcript(text)
    problems = []
    if not meta or meta[-1] != "session complete":
        problems.append(f"transcript is not marked complete: {meta[-1:]!r}")
    for kind in ("GhzPrepared", "SignalPrepared", "BellMeasured", "CharlieMeasured", "Finished"):
        if len(events.get(kind, [])) != 1:
            problems.append(f"transcript has {len(events.get(kind, []))} {kind} lines, not 1")
    if problems:
        return problems
    bell = events["BellMeasured"][0]
    charlie = events["CharlieMeasured"][0]
    problems += check_outcomes(seed, bell["outcome"], charlie["outcome"])
    problems += check_path_probability(float(bell["probability"]) * float(charlie["probability"]))
    problems += check_fidelity(float(events["Finished"][0]["fidelity"]), "transcript fidelity")
    relayed = [(m["sender"], m["payload"]) for m in events.get("Classical", [])]
    if relayed != [("alice", bell["outcome"]), ("charlie", charlie["outcome"])]:
        problems.append(f"classical messages {relayed} do not carry the two outcomes in order")
    return problems
