"""Shared helpers for the paper-reproduction benchmark harness.

Every benchmark regenerates one table or figure of the paper, prints it,
and records it under ``benchmarks/results/`` so the reproduced numbers
can be cross-checked against the paper at any time.

Wall-clock output (the ``BENCH_*.json`` records at the repository root
and host-dependent tables) is written only when ``REPRO_BENCH_RECORD=1``
is set, as the CI bench job does before ``tools/check_bench.py``; a
plain test run still asserts every bar but leaves the tree unchanged.

The module has its own name, not ``conftest``: ``tests/conftest.py``
would shadow a ``from conftest import ...`` whenever one pytest run
collects both directories.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def _recording() -> bool:
    """True when wall-clock results should be written to disk."""
    return os.environ.get("REPRO_BENCH_RECORD") == "1"


def record(name: str, text: str, *, host_dependent: bool = False) -> None:
    """Print a rendered table/figure and persist it under results/.

    A ``host_dependent`` table is persisted only when :func:`_recording`.
    """
    print()
    print(text)
    if host_dependent and not _recording():
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def record_bench(path: Path, result: dict) -> None:
    """Write one ``BENCH_*.json`` record when :func:`_recording`."""
    if _recording():
        path.write_text(json.dumps(result, indent=2) + "\n")
