"""Simulator wall-clock throughput (not a paper experiment).

Library-health benchmark: how many eBPF instructions per wall-second each
execution engine simulates.  Useful for users sizing long simulations, and
it quantifies the execution-core design points in wall time as well as in
modelled cycles: the pre-decoded interpreter dispatch, the defensive
CertFC build, and the §11 install-time template JIT (basic blocks
compiled to Python source with registers as locals), which must deliver
at least a 3x interpreter-relative speedup.

Modelled-cycle accounting is engine-independent, so this file is the only
benchmark whose recorded output changes with execution-core performance
work; all Fig. 8 / Table 2 / Table 4 outputs stay byte-identical.
"""

from __future__ import annotations

from bench_record import record

from repro.analysis import format_table
from repro.vm import CertFCInterpreter, Interpreter, compile_program
from repro.vm.memory import Permission
from repro.workloads.fletcher32 import (
    FLETCHER32_INPUT,
    INPUT_BASE,
    fletcher32_program,
    make_context,
)

_ENGINES = {
    "interpreter": Interpreter,
    "certfc (defensive)": CertFCInterpreter,
    "jit (template)": compile_program,
}


def _make(factory):
    vm = factory(fletcher32_program())
    vm.access_list.grant_bytes("in", INPUT_BASE, FLETCHER32_INPUT,
                               Permission.READ)
    context = make_context()
    return vm, context


def _bench(benchmark, factory):
    vm, context = _make(factory)
    result = benchmark(lambda: vm.run(context=context))
    return result.stats.executed


def test_simulator_throughput_interpreter(benchmark):
    executed = _bench(benchmark, Interpreter)
    assert executed > 1000


def test_simulator_throughput_certfc(benchmark):
    executed = _bench(benchmark, CertFCInterpreter)
    assert executed > 1000


def test_simulator_throughput_jit(benchmark):
    executed = _bench(benchmark, compile_program)
    assert executed > 1000


def test_relative_wall_speed(benchmark):
    """One combined row: instructions simulated per wall-second."""
    import time

    def measure_all():
        rows = {}
        for name, factory in _ENGINES.items():
            vm, context = _make(factory)
            vm.run(context=context)  # warm up
            best = 0.0
            for _ in range(3):  # best-of-three damps scheduler noise
                start = time.perf_counter()
                executed = 0
                while time.perf_counter() - start < 0.05:
                    executed += vm.run(context=context).stats.executed
                best = max(best, executed / (time.perf_counter() - start))
            rows[name] = best
        return rows

    rows = benchmark.pedantic(measure_all, rounds=1, iterations=1)
    record("simulator_throughput", format_table(
        ["Engine", "instructions / wall second"],
        [[name, f"{rate:,.0f}"] for name, rate in rows.items()],
        title="Simulator wall-clock throughput (host-dependent)",
    ), host_dependent=True)
    # The template JIT must beat the pre-decoded interpreter by at least
    # 3x in wall time (the acceptance bar for the install-time-transpile
    # design point; it typically lands near 4x).
    assert rows["jit (template)"] > 3.0 * rows["interpreter"]
