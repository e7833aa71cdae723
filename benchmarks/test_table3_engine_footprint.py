"""Table 3 — Memory footprint of a Femto-Container hosting minimal logic
on Arm Cortex-M4.

Paper:
    Femto-Containers  2992 B ROM   624 B RAM
    rBPF              3032 B ROM   620 B RAM
    CertFC            1378 B ROM   672 B RAM
"""

from __future__ import annotations

from bench_record import record

from repro.analysis import format_table
from repro.rtos import nrf52840
from repro.rtos.firmware import engine_flash_bytes
from repro.vm import CertFCInterpreter, Interpreter, RbpfInterpreter, assemble

PAPER = {
    "femto-containers": (2992, 624),
    "rbpf": (3032, 620),
    "certfc": (1378, 672),
}

MINIMAL = "mov r0, 0\n    exit"

VM_CLASSES = {
    "femto-containers": Interpreter,
    "rbpf": RbpfInterpreter,
    "certfc": CertFCInterpreter,
}


def collect():
    board = nrf52840()
    program = assemble(MINIMAL)
    out = {}
    for name, vm_class in VM_CLASSES.items():
        vm = vm_class(program)
        vm.run()  # host minimal logic, as the paper does
        out[name] = (engine_flash_bytes(name, board), vm.ram_bytes)
    return out


def test_table3_engine_footprint(benchmark):
    results = benchmark(collect)

    rows = [
        [name, rom, PAPER[name][0], ram, PAPER[name][1]]
        for name, (rom, ram) in results.items()
    ]
    record("table3_engine_footprint", format_table(
        ["Implementation", "ROM B", "paper", "RAM B", "paper"], rows,
        title="Table 3: hosting-engine footprint, minimal logic, Cortex-M4",
    ))

    # Exact anchors (ROM is the calibrated model; RAM is derived).
    for name, (rom, ram) in results.items():
        assert rom == PAPER[name][0]
        assert abs(ram - PAPER[name][1]) <= 4
    # Orderings the paper highlights.
    assert results["certfc"][0] < results["femto-containers"][0]
    assert results["certfc"][1] > results["femto-containers"][1]
    # "CertFC actually reduces the footprint by 55 % on Cortex-M4".
    reduction = 1 - results["certfc"][0] / results["rbpf"][0]
    assert 0.5 <= reduction <= 0.6
