"""Every name the benchmark's tracer (bench/layers.py) wraps is still bound.

A renamed or deleted name would otherwise show only in a traced bench run,
as missing per-layer metrics.
"""

import importlib
from pathlib import Path

from ghztp.netharness import Coordinator

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_the_bench_tracer_installs_on_every_name_it_wraps_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    original = Coordinator.op_request
    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        assert Coordinator.op_request is not original
    finally:
        tracer.uninstall()
    assert Coordinator.op_request is original
