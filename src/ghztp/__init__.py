"""Controlled teleportation of one qubit through a shared GHZ state.

Simulator substrate (qsim), the three-party protocol with a supervising
third party (protocol), verification and security analyses (verify), and a
line-oriented network harness that runs the same protocol across processes
(wire, netharness, party). The ``ghztp`` command line fronts all of it.

Importing the package imports only the protocol's vocabulary (vocab); the
names that need numpy are bound on first use (PEP 562), so a party process,
which never uses them, never imports numpy.
"""

import importlib

from .vocab import BellOutcome, CharlieOutcome, Role

__version__ = "0.1.0"

# Name -> the module that defines it, imported when the name is first used.
_LAZY = {"SignalState": "protocol", "run_protocol": "protocol"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


__all__ = sorted([*_LAZY, "BellOutcome", "CharlieOutcome", "Role", "__version__"])
