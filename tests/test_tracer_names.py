"""Every name the benchmark's tracer (bench/layers.py) wraps is still bound.

A renamed or deleted name would otherwise show only in a traced bench run,
as missing per-layer metrics.
"""

import importlib
from pathlib import Path

import pytest

from ghztp import netharness
from ghztp.netharness import Coordinator
from ghztp.protocol import SignalState

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    """The bench's ``layers`` and ``spans`` modules."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("layers"), importlib.import_module("spans")


def test_the_bench_tracer_installs_on_every_name_it_wraps_and_uninstalls(bench):
    layers, spans = bench
    original = Coordinator.op_request
    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        assert Coordinator.op_request is not original
    finally:
        tracer.uninstall()
    assert Coordinator.op_request is original


def test_a_traced_orchestrate_session_records_its_layers_in_order(bench, tmp_path):
    layers, spans = bench
    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        report = netharness.orchestrate(SignalState(0.6, 0.8), seed=0, timeout=10.0,
                                        transcript_dir=tmp_path)
    finally:
        tracer.uninstall()
    assert report.match, report.problems

    def span(name):
        (found,) = [s for s in tracer.spans if s.name == name]
        return found

    spawn, terminate = span("netharness._spawn"), span("netharness._terminate")
    # The caller's own work falls while the parties run: after the forks, before the reaping.
    for name in ("protocol.run_protocol", "netharness.compare_transcript"):
        assert spawn.end <= span(name).start <= span(name).end <= terminate.start, name
    assert {"netharness.orchestrate.reference_ms", "netharness.orchestrate.children_ms",
            "netharness.orchestrate.compare_ms"} <= set(layers.per_layer(tracer.spans, []))
