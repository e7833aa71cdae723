"""Fig 8 — Time per instruction on the Cortex-M4 platform.

Paper: twelve instructions (ALU, MEM, branches) for rBPF,
Femto-Containers and CertFC; rBPF ~ Femto-Containers ("the rBPF
extensions incur minimal overhead"), CertFC clearly slower ("the trade
off between the formally verified code and a natively optimized
implementation"), memory instructions the most expensive, up to ~2.75 us.
"""

from __future__ import annotations

from bench_record import record

from repro.analysis import bar_chart
from repro.rtos import nrf52840
from repro.vm import CertFCInterpreter, Interpreter, RbpfInterpreter
from repro.workloads.microbench import all_pairs

IMPLEMENTATIONS = (
    ("rBPF", RbpfInterpreter, "rbpf"),
    ("Femto-Containers", Interpreter, "femto-containers"),
    ("CertFC", CertFCInterpreter, "certfc"),
)


def measure():
    board = nrf52840()
    pairs = all_pairs(iterations=64, unroll=16)
    labels = [pair.label for pair in pairs]
    series = {name: [] for name, _cls, _impl in IMPLEMENTATIONS}
    for pair in pairs:
        for name, vm_class, implementation in IMPLEMENTATIONS:
            measured = vm_class(pair.measured).run()
            baseline = vm_class(pair.baseline).run()
            delta = (
                board.vm_execution_cycles(measured.stats, implementation)
                - board.vm_execution_cycles(baseline.stats, implementation)
            )
            series[name].append(
                board.us(delta) / (pair.iterations * pair.unroll)
            )
    return labels, series


def test_fig8_per_instruction(benchmark):
    labels, series = benchmark(measure)

    record("fig8_per_instruction", bar_chart(
        "Fig 8: time per instruction, Cortex-M4 (us)",
        labels, series, unit="us",
    ))

    for index, label in enumerate(labels):
        rbpf = series["rBPF"][index]
        femto = series["Femto-Containers"][index]
        certfc = series["CertFC"][index]
        # Extensions incur minimal overhead (within ~5 %).
        assert abs(femto - rbpf) / rbpf < 0.05, label
        # The verified build is 1.5-3x slower.
        assert 1.4 <= certfc / femto <= 3.2, label
        # Everything sits on the figure's 0-2.75 us axis.
        assert certfc <= 2.75, label

    by_label = dict(zip(labels, range(len(labels))))
    femto = series["Femto-Containers"]
    # Memory ops cost more than plain ALU; divide costs more than multiply.
    assert femto[by_label["MEM load double"]] > femto[by_label["ALU Add"]]
    assert femto[by_label["ALU divide imm"]] > femto[by_label["ALU multiply imm"]]
