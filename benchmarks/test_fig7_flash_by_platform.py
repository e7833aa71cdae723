"""Fig 7 — Flash requirement for the engine builds across platforms.

Paper: grouped bars for rBPF / Femto-Containers / CertFC on Cortex-M4,
ESP32 and RISC-V, all under ~4.5 kB, CertFC always the smallest.
"""

from __future__ import annotations

from bench_record import record

from repro.analysis import bar_chart
from repro.rtos import all_boards
from repro.rtos.firmware import engine_flash_bytes

IMPLEMENTATIONS = ("rbpf", "femto-containers", "certfc")


def collect():
    boards = all_boards()
    return boards, {
        implementation: [
            engine_flash_bytes(implementation, board) for board in boards
        ]
        for implementation in IMPLEMENTATIONS
    }


def test_fig7_flash_by_platform(benchmark):
    boards, series = benchmark(collect)

    record("fig7_flash_by_platform", bar_chart(
        "Fig 7: flash requirement per implementation and platform",
        [board.name for board in boards],
        series,
        unit="B",
    ))

    for index, board in enumerate(boards):
        rbpf = series["rbpf"][index]
        femto = series["femto-containers"][index]
        certfc = series["certfc"][index]
        # Shapes: rBPF and Femto-Containers are nearly identical; CertFC is
        # roughly half; everything fits in the figure's 4.5 kB axis.
        assert abs(rbpf - femto) / rbpf < 0.05
        assert 0.35 <= certfc / rbpf <= 0.60
        assert certfc < femto < 4600
        assert rbpf <= 4600
    # ESP32 code is the largest, RISC-V (compressed ISA) the smallest.
    assert series["rbpf"][1] == max(series["rbpf"])
    assert series["rbpf"][2] == min(series["rbpf"])
