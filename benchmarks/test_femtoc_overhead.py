"""Toolchain ablation — femtoC codegen vs hand-written assembly.

Not a paper experiment (the paper uses LLVM), but the same question its
toolchain answers: what does compiling high-level source cost vs expert
assembly, in code size and run time?  The naive femtoC lowering (stack
slots, no cross-statement register allocation) is the honest lower bound
of compiler quality; LLVM sits between it and hand-written code.
"""

from __future__ import annotations

from bench_record import record

from repro.analysis import format_table
from repro.femtoc import compile_source
from repro.rtos import nrf52840
from repro.vm import Interpreter
from repro.vm.memory import Permission
from repro.workloads.fletcher32 import (
    FLETCHER32_INPUT,
    INPUT_BASE,
    fletcher32_program,
    fletcher32_reference,
    make_context,
)

FLETCHER32_FEMTOC = """
var nbytes = 360;
var sum1 = 65535;
var sum2 = 65535;
var words = nbytes / 2;
var i = 0;
while (words > 0) {
  var tlen = words;
  if (tlen > 359) { tlen = 359; }
  words = words - tlen;
  while (tlen > 0) {
    sum1 = sum1 + (ctx_u8(i) | (ctx_u8(i + 1) << 8));
    sum2 = sum2 + sum1;
    i = i + 2;
    tlen = tlen - 1;
  }
  sum1 = (sum1 & 65535) + (sum1 >> 16);
  sum2 = (sum2 & 65535) + (sum2 >> 16);
}
sum1 = (sum1 & 65535) + (sum1 >> 16);
sum2 = (sum2 & 65535) + (sum2 >> 16);
return (sum2 << 16) | sum1;
"""


def measure():
    board = nrf52840()
    expected = fletcher32_reference(FLETCHER32_INPUT)

    hand = fletcher32_program()
    hand_vm = Interpreter(hand)
    hand_vm.access_list.grant_bytes("in", INPUT_BASE, FLETCHER32_INPUT,
                                    Permission.READ)
    hand_run = hand_vm.run(context=make_context())
    assert hand_run.value == expected

    compiled = compile_source(FLETCHER32_FEMTOC, name="fletcher-femtoc")
    compiled_vm = Interpreter(compiled)
    compiled_run = compiled_vm.run(context=FLETCHER32_INPUT,
                                   context_perms=Permission.READ)
    assert compiled_run.value == expected

    return {
        "hand": (hand.code_size, hand_run.stats.executed,
                 board.vm_execution_us(hand_run.stats, "femto-containers")),
        "femtoc": (compiled.code_size, compiled_run.stats.executed,
                   board.vm_execution_us(compiled_run.stats,
                                         "femto-containers")),
    }


def test_femtoc_codegen_overhead(benchmark):
    results = benchmark(measure)

    hand_size, hand_instr, hand_us = results["hand"]
    cc_size, cc_instr, cc_us = results["femtoc"]
    rows = [
        ["hand-written asm", hand_size, hand_instr, f"{hand_us:.0f} us", "1.0x"],
        ["femtoC compiled", cc_size, cc_instr, f"{cc_us:.0f} us",
         f"{cc_us / hand_us:.1f}x"],
    ]
    record("femtoc_overhead", format_table(
        ["fletcher32 variant", "code B", "executed", "run (M4)", "slowdown"],
        rows,
        title="Toolchain ablation: femtoC codegen vs hand-written eBPF",
    ))

    # Same answer, bounded overhead.
    assert cc_size <= 6 * hand_size
    assert cc_us / hand_us <= 6.0
