"""Shared helpers for the paper-reproduction benchmark harness.

Every benchmark regenerates one table or figure of the paper, prints it,
and records it under ``benchmarks/results/`` so the reproduced numbers
can be cross-checked against the paper at any time.
"""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def record(name: str, text: str) -> None:
    """Print a rendered table/figure and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)
