"""Table 4 — Hook overhead in clock ticks for the thread-switch example.

Paper:
                Empty hook   Hook with application
    Cortex-M4        109            1750
    ESP32             83            1163
    RISC-V           106             754
"""

from __future__ import annotations

import struct

from bench_record import record

from repro.analysis import format_table
from repro.core import FC_HOOK_SCHED, HostingEngine
from repro.rtos import Kernel, all_boards
from repro.workloads import thread_counter_program

PAPER = {
    "nrf52840": (109, 1750),
    "esp32-wroom-32": (83, 1163),
    "gd32vf103": (106, 754),
}


def measure(board):
    kernel = Kernel(board)
    engine = HostingEngine(kernel)
    context = struct.pack("<QQ", 1, 2)

    before = kernel.clock.cycles
    engine.fire_hook(FC_HOOK_SCHED, context)
    empty = kernel.clock.cycles - before

    container = engine.load(thread_counter_program())
    engine.attach(container, FC_HOOK_SCHED)
    before = kernel.clock.cycles
    engine.fire_hook(FC_HOOK_SCHED, context)
    with_app = kernel.clock.cycles - before
    return empty, with_app


def collect():
    return {board.name: measure(board) for board in all_boards()}


def test_table4_hook_overhead(benchmark):
    results = benchmark(collect)

    rows = [
        [name, empty, PAPER[name][0], with_app, PAPER[name][1]]
        for name, (empty, with_app) in results.items()
    ]
    record("table4_hook_overhead", format_table(
        ["Platform", "empty", "paper", "with app", "paper"], rows,
        title="Table 4: hook overhead in clock ticks (thread-switch hook)",
    ))

    for name, (empty, with_app) in results.items():
        paper_empty, paper_app = PAPER[name]
        assert empty == paper_empty  # calibrated anchor, exact
        assert abs(with_app - paper_app) / paper_app < 0.05
        # "~100 clock ticks on all the hardware we tested", and the hook is
        # a small fraction of the hosted logic's cost (the paper says <10 %;
        # its own RISC-V numbers give 16 %, so assert the loose form).
        assert 80 <= empty <= 120
        assert empty / (with_app - empty) < 0.20
