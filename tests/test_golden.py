"""Golden outputs of the in-process run, frozen literally.

These pin what the protocol engine writes and samples, byte for byte, so a
change to how the engine orders or checks moves cannot shift a trace line or
a sampled count unnoticed. Never edit a value here to let a change pass.

The simulator computes in plain double arithmetic, in one fixed order and
without numpy or a BLAS library, so these values no longer depend on the
host's CPU or math libraries.
"""

import json
import random
from collections import Counter

from ghztp.cli import main
from ghztp.protocol import SignalState, run_protocol
from ghztp.vocab import BellOutcome, CharlieOutcome

SIGNAL = SignalState(0.6, 0.8)

ALL_IDENTITY_TRACE = [
    "GhzPrepared",
    "SignalPrepared",
    "BellMeasured outcome=PhiPlus probability=0.2500000000000001",
    "Classical seq=1 sender=alice recipients=bob,charlie payload=PhiPlus",
    "CorrectionApplied role=bob unitary=I",
    "CorrectionApplied role=charlie unitary=I",
    "CharlieMeasured outcome=Plus probability=0.5000000000000001",
    "Classical seq=2 sender=charlie recipients=bob payload=Plus",
    "BobCorrected unitary=I",
    "Finished fidelity=1.0000000000000002",
]

ALL_CORRECTION_TRACE = [
    "GhzPrepared",
    "SignalPrepared",
    "BellMeasured outcome=PsiMinus probability=0.2500000000000001",
    "Classical seq=1 sender=alice recipients=bob,charlie payload=PsiMinus",
    "CorrectionApplied role=bob unitary=X",
    "CorrectionApplied role=charlie unitary=ZX",
    "CharlieMeasured outcome=Minus probability=0.5000000000000001",
    "Classical seq=2 sender=charlie recipients=bob payload=Minus",
    "BobCorrected unitary=Z",
    "Finished fidelity=1.0000000000000002",
]

# `ghztp stats --runs 2000 --seed 3`: the four Bell counts, then Charlie's two.
STATS_COUNTS = [
    ("PhiPlus", 516), ("PhiMinus", 495), ("PsiPlus", 554), ("PsiMinus", 435),
    ("Plus", 1018), ("Minus", 982),
]

# The eight (Bell, Charlie) branches of the same 2000 seeded runs.
BRANCH_COUNTS = {
    ("PhiPlus", "Plus"): 257, ("PhiPlus", "Minus"): 259,
    ("PhiMinus", "Plus"): 239, ("PhiMinus", "Minus"): 256,
    ("PsiPlus", "Plus"): 289, ("PsiPlus", "Minus"): 265,
    ("PsiMinus", "Plus"): 233, ("PsiMinus", "Minus"): 202,
}


def test_the_all_identity_branch_trace_is_frozen():
    result = run_protocol(SIGNAL, forced=(BellOutcome.PHI_PLUS, CharlieOutcome.PLUS))
    assert result.trace.lines() == ALL_IDENTITY_TRACE


def test_the_all_correction_branch_trace_is_frozen():
    result = run_protocol(SIGNAL, forced=(BellOutcome.PSI_MINUS, CharlieOutcome.MINUS))
    assert result.trace.lines() == ALL_CORRECTION_TRACE


def test_stats_counts_are_frozen(capsys):
    assert main(["stats", "--runs", "2000", "--seed", "3", "--format", "json"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert [(o["outcome"], o["count"]) for o in body["outcomes"]] == STATS_COUNTS


def test_branch_counts_are_frozen():
    # The seeds `stats --seed 3` draws, one per run.
    master = random.Random(3)
    counts = Counter()
    for _ in range(2000):
        result = run_protocol(SIGNAL, seed=master.getrandbits(63))
        counts[result.bell_outcome.value, result.charlie_outcome.value] += 1
    assert counts == BRANCH_COUNTS
