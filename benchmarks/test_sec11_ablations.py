"""§11 ablations — the paper's discussion-section design alternatives.

1. *Install time vs execution time*: transpiling eBPF to native closures at
   install time trades a one-off install cost for per-run speedup; we
   measure the crossover in runs.
2. *Fixed- vs variable-length instructions*: re-encoding the instruction
   stream without the unused fields ("the immediate field is not used with
   half of the instructions") shrinks images by roughly half.
3. *Virtualization vs power efficiency*: updating a container image over
   the radio costs far less energy than shipping a whole firmware.
"""

from __future__ import annotations

from bench_record import record

from repro.analysis import format_table
from repro.rtos import nrf52840, update_energy_uj
from repro.rtos.firmware import FirmwareImage
from repro.vm import Interpreter, compile_program
from repro.vm.compress import analyze
from repro.vm.memory import Permission
from repro.workloads import (
    FLETCHER32_INPUT,
    coap_handler_program,
    fletcher32_program,
    sensor_program,
    thread_counter_program,
)
from repro.workloads.fletcher32 import INPUT_BASE, make_context


def jit_crossover():
    board = nrf52840()
    program = fletcher32_program()

    interp = Interpreter(program)
    interp.access_list.grant_bytes("in", INPUT_BASE, FLETCHER32_INPUT,
                                   Permission.READ)
    interp_run = interp.run(context=make_context())
    interp_cycles = board.vm_execution_cycles(interp_run.stats,
                                              "femto-containers")

    jit = compile_program(program)
    jit.access_list.grant_bytes("in", INPUT_BASE, FLETCHER32_INPUT,
                                Permission.READ)
    jit_run = jit.run(context=make_context())
    jit_cycles = board.vm_execution_cycles(jit_run.stats, "jit")
    install_cycles = (jit.install_instruction_count
                      * board.jit_install_cycles_per_slot)

    assert interp_run.value == jit_run.value
    saving = interp_cycles - jit_cycles
    crossover_runs = -(-install_cycles // saving)
    return board, interp_cycles, jit_cycles, install_cycles, crossover_runs


def test_jit_install_vs_execution(benchmark):
    board, interp, jit, install, crossover = benchmark(jit_crossover)

    rows = [
        ["interpreted run", f"{board.us(interp):.0f} us"],
        ["transpiled run", f"{board.us(jit):.0f} us"],
        ["speedup", f"{interp / jit:.1f}x"],
        ["install cost (one-off)", f"{board.us(install):.0f} us"],
        ["crossover", f"{crossover} run(s)"],
    ]
    record("sec11_jit", format_table(
        ["Quantity", "value"], rows,
        title="Sec 11 ablation: install-time transpilation (fletcher32, M4)",
    ))

    assert interp / jit > 5          # "can result into a speed-up"
    assert crossover <= 3            # pays for itself almost immediately


def test_variable_length_encoding(benchmark):
    programs = {
        "fletcher32": fletcher32_program(),
        "thread-counter": thread_counter_program(),
        "sensor": sensor_program(),
        "coap-formatter": coap_handler_program(),
    }

    def analyze_all():
        return {name: analyze(program) for name, program in programs.items()}

    stats = benchmark(analyze_all)

    rows = [
        [name, s.original_bytes, s.compressed_bytes,
         f"{s.saving_percent:.1f}%"]
        for name, s in stats.items()
    ]
    record("sec11_compression", format_table(
        ["Program", "fixed B", "variable B", "saving"], rows,
        title="Sec 11 ablation: fixed- vs variable-length instructions",
    ))

    for name, s in stats.items():
        # "would reduce the instructions to 32 bits in size" for about half
        # the instructions -> expect 30-60 % total savings.
        assert 30.0 <= s.saving_percent <= 65.0, name


def test_update_energy_vs_virtualization(benchmark):
    """§11: network-transfer savings offset interpretation overhead."""
    board = nrf52840()
    container_image = coap_handler_program().to_bytes()
    firmware_image = FirmwareImage.riot_base(board).flash_bytes

    def compare():
        container = update_energy_uj(board, len(container_image))
        firmware = update_energy_uj(board, firmware_image)
        return container, firmware

    container_uj, firmware_uj = benchmark(compare)
    rows = [
        ["container update", f"{len(container_image)} B",
         f"{container_uj:,.0f} uJ"],
        ["full firmware update", f"{firmware_image} B",
         f"{firmware_uj:,.0f} uJ"],
        ["ratio", "", f"{firmware_uj / container_uj:.0f}x"],
    ]
    record("sec11_update_energy", format_table(
        ["Update", "payload", "radio+install energy"], rows,
        title="Sec 11 ablation: update energy, container vs full firmware",
    ))
    assert firmware_uj / container_uj > 50
