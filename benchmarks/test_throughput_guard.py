"""Throughput regression guard for the execution engines.

Records instructions-per-wall-second for every engine to
``BENCH_throughput.json`` at the repository root (machine-readable, so CI
and future sessions can diff trends), and **fails** if the template JIT
is not faster than the interpreter — the whole point of install-time
transpilation is that the one-off compile buys per-run speed, so a JIT
that interprets slower than the interpreter is a regression by
definition.

Unlike ``test_simulator_performance.py`` (pytest-benchmark statistics for
humans), this guard is a plain test: it always runs, keeps its own
timing loop, and asserts the invariant rather than a host-dependent
absolute number.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from bench_record import record_bench
from repro.vm import CertFCInterpreter, Interpreter, compile_program
from repro.vm.memory import Permission
from repro.workloads.fletcher32 import (
    FLETCHER32_INPUT,
    INPUT_BASE,
    fletcher32_program,
    make_context,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_throughput.json"

_ENGINES = {
    "interpreter": Interpreter,
    "certfc": CertFCInterpreter,
    "jit": compile_program,
}

#: Per-engine measurement window (seconds).  Short enough for CI, long
#: enough that the insns/s estimate is stable to a few percent.
_WINDOW_S = 0.15


def _throughput(factory) -> float:
    vm = factory(fletcher32_program())
    vm.access_list.grant_bytes("in", INPUT_BASE, FLETCHER32_INPUT,
                               Permission.READ)
    context = make_context()
    vm.run(context=context)  # warm up (and warm the MRU region cache)
    best = 0.0
    for _ in range(2):  # best-of-two damps scheduler noise
        start = time.perf_counter()
        executed = 0
        while time.perf_counter() - start < _WINDOW_S:
            executed += vm.run(context=context).stats.executed
        best = max(best, executed / (time.perf_counter() - start))
    return best


def test_throughput_guard():
    rates = {name: _throughput(factory) for name, factory in _ENGINES.items()}

    record_bench(
        RESULT_PATH,
        {
            "workload": "fletcher32 (360 B input)",
            "unit": "instructions per wall second",
            "python": sys.version.split()[0],
            "engines": {name: round(rate) for name, rate in rates.items()},
            "jit_speedup_vs_interpreter": round(
                rates["jit"] / rates["interpreter"], 2
            ),
        },
    )

    # The install-time template JIT must out-run the interpreter, full stop.
    assert rates["jit"] > rates["interpreter"], rates
