"""The §6 virtualization candidates and their cost/footprint profiles.

Each candidate executes the *same* fletcher32 workload on its own engine
(mini-wasm stack VM, script tree-walker, eBPF interpreter, native model)
and reports the Table 1/2 metrics.  ROM footprints of the third-party C
interpreters are documented profile constants (they cannot be derived from
Python); RAM and run/startup times are computed from
the executed workload through per-class cycle models calibrated on the
paper's Cortex-M4 measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from repro.rtos.board import Board
from repro.rtos.firmware import os_modules
from repro.runtimes.base import RuntimeMetrics
from repro.runtimes.script.interp import Interpreter as ScriptInterpreter
from repro.runtimes.script.lexer import tokenize
from repro.runtimes.sources import (
    SCRIPT_FLETCHER32_JS,
    SCRIPT_FLETCHER32_PY,
    WASM_FLETCHER32,
)
from repro.runtimes.wasm.asm import assemble as wasm_assemble
from repro.runtimes.wasm.interpreter import WasmInstance
from repro.vm.interpreter import RbpfInterpreter
from repro.workloads.fletcher32 import (
    FLETCHER32_INPUT,
    fletcher32_program,
    fletcher32_reference,
    make_context,
    native_instruction_estimate,
    prepare_vm,
)

#: rBPF runtime flash (engine + loader), from Fig 2's 8 % of 57 kB.
RBPF_RUNTIME_ROM = 4_560
#: WASM3 flash footprint (Table 1).
WASM3_ROM = 65_536
#: MicroPython flash footprint (Table 1).
MICROPYTHON_ROM = 103_424
#: RIOTjs flash footprint (Table 1).
RIOTJS_ROM = 123_904

#: Native Thumb-2 code for fletcher32: ~37 16-bit instructions (Table 2).
NATIVE_CODE_SIZE = 74


def host_os_rom_bytes() -> int:
    """The IoT-ready RIOT image without any VM (Table 1 last row)."""
    return sum(module.flash_bytes for module in os_modules())


def host_os_ram_bytes() -> int:
    from repro.rtos.firmware import HOST_OS_RAM

    return HOST_OS_RAM


# -- Native ------------------------------------------------------------------


class NativeCandidate:
    """Table 2's "Native C" row: the un-virtualized reference."""

    name = "Native C"

    def fletcher32_metrics(self, board: Board) -> RuntimeMetrics:
        result = fletcher32_reference(FLETCHER32_INPUT)
        cycles = board.native_cycles(native_instruction_estimate())
        return RuntimeMetrics(
            name=self.name,
            rom_bytes=0,
            ram_bytes=0,
            code_size=NATIVE_CODE_SIZE,
            cold_start_us=0.0,
            run_us=board.us(cycles),
            result=result,
        )


# -- rBPF ----------------------------------------------------------------------


class RbpfCandidate:
    """The eBPF/rBPF runtime (what Femto-Containers builds on)."""

    name = "rBPF"

    def fletcher32_metrics(self, board: Board) -> RuntimeMetrics:
        program = fletcher32_program()
        vm = RbpfInterpreter(program)
        prepare_vm(vm)
        execution = vm.run(context=make_context())
        cycles = board.vm_execution_cycles(execution.stats, "rbpf")
        return RuntimeMetrics(
            name=self.name,
            rom_bytes=RBPF_RUNTIME_ROM,
            ram_bytes=vm.ram_bytes,
            code_size=program.code_size,
            cold_start_us=board.us(board.vm_setup_cycles),
            run_us=board.us(cycles),
            result=execution.value,
        )


# -- WASM3-class --------------------------------------------------------------------


@dataclass(frozen=True)
class WasmProfile:
    """Cycle model of a WASM3-class transcoding interpreter."""

    op_cycles: Mapping[str, int]
    #: Startup: runtime/environment init plus per-byte transcoding.
    startup_base_cycles: int
    startup_cycles_per_byte: int


WASM3_PROFILE = WasmProfile(
    op_cycles=MappingProxyType({
        "alu": 13, "mul": 21, "div": 39, "mem": 32, "local": 11,
        "control": 19,
    }),
    startup_base_cycles=1_055_000,
    startup_cycles_per_byte=220,
)


class WasmCandidate:
    """Mini-WebAssembly runtime standing in for WASM3."""

    name = "WASM3"

    def __init__(self, profile: WasmProfile = WASM3_PROFILE):
        self.profile = profile

    def fletcher32_metrics(self, board: Board) -> RuntimeMetrics:
        module = wasm_assemble(WASM_FLETCHER32)
        instance = WasmInstance(module)
        instance.write_memory(0, FLETCHER32_INPUT)
        result = instance.run([len(FLETCHER32_INPUT)])
        run_cycles = sum(
            count * self.profile.op_cycles[cls]
            for cls, count in instance.stats.class_counts.items()
        )
        code_size = module.code_size
        startup = (
            self.profile.startup_base_cycles
            + self.profile.startup_cycles_per_byte * code_size
        )
        return RuntimeMetrics(
            name=self.name,
            rom_bytes=WASM3_ROM,
            ram_bytes=instance.ram_bytes,
            code_size=code_size,
            cold_start_us=board.us(startup),
            run_us=board.us(run_cycles),
            result=result,
        )


# -- script interpreters --------------------------------------------------------------


@dataclass(frozen=True)
class ScriptProfile:
    """Cost/footprint model of one script-interpreter runtime."""

    name: str
    rom_bytes: int
    state_ram_bytes: int
    heap_ram_bytes: int
    parse_base_cycles: int
    parse_cycles_per_token: int
    visit_cycles: Mapping[str, int]
    source: str

    @property
    def ram_bytes(self) -> int:
        return self.state_ram_bytes + self.heap_ram_bytes


MICROPYTHON_PROFILE = ScriptProfile(
    name="MicroPython",
    rom_bytes=MICROPYTHON_ROM,
    state_ram_bytes=2_200,
    heap_ram_bytes=6_196,          # configurable heap; Table 1 total 8.2 kB
    parse_base_cycles=1_337_000,   # interpreter + gc init, bytecode compile
    parse_cycles_per_token=350,
    visit_cycles=MappingProxyType({
        "literal": 102, "name": 138, "binop": 247, "assign": 218,
        "index": 378, "call": 1016, "control": 232,
    }),
    source=SCRIPT_FLETCHER32_PY,
)

RIOTJS_PROFILE = ScriptProfile(
    name="RIOTjs",
    rom_bytes=RIOTJS_ROM,
    state_ram_bytes=2_400,
    heap_ram_bytes=16_032,         # jerryscript-style heap; Table 1: 18 kB
    parse_base_cycles=296_000,     # lighter init than MicroPython
    parse_cycles_per_token=330,
    visit_cycles=MappingProxyType({
        "literal": 91, "name": 125, "binop": 222, "assign": 196,
        "index": 341, "call": 915, "control": 209,
    }),
    source=SCRIPT_FLETCHER32_JS,
)


class ScriptCandidate:
    """A tree-walking script runtime under a given profile."""

    def __init__(self, profile: ScriptProfile):
        self.profile = profile
        self.name = profile.name

    def fletcher32_metrics(self, board: Board) -> RuntimeMetrics:
        source = self.profile.source
        tokens = tokenize(source)
        interpreter = ScriptInterpreter.from_source(
            source, builtins={"input": FLETCHER32_INPUT, "len": len}
        )
        result = interpreter.run()
        run_cycles = sum(
            count * self.profile.visit_cycles[cls]
            for cls, count in interpreter.stats.class_counts.items()
        )
        startup = (
            self.profile.parse_base_cycles
            + self.profile.parse_cycles_per_token * len(tokens)
        )
        return RuntimeMetrics(
            name=self.name,
            rom_bytes=self.profile.rom_bytes,
            ram_bytes=self.profile.ram_bytes,
            code_size=len(source.encode()),
            cold_start_us=board.us(startup),
            run_us=board.us(run_cycles),
            result=int(result),  # type: ignore[arg-type]
        )


def all_candidates() -> list:
    """The §6 line-up, in the paper's Table 2 order."""
    return [
        NativeCandidate(),
        WasmCandidate(),
        RbpfCandidate(),
        ScriptCandidate(RIOTJS_PROFILE),
        ScriptCandidate(MICROPYTHON_PROFILE),
    ]
