"""Cross-runtime cost-model guard for the multi-runtime deploy plane.

Runs the same fletcher32 workload as an rBPF container, a mini-Wasm
container and a script container on one hosting engine, and records the
per-runtime code size, attach (startup) cycles, execution cycles and RAM
footprint to ``BENCH_runtime_matrix.json`` at the repository root.

The guarded invariants are the §6 story of the paper: every runtime must
produce the *same* checksum (the deploy plane is semantics-preserving
across runtimes), while the modelled per-run cost must order
``script > wasm > rbpf`` — rBPF with install-time transpilation is the
cheapest hook-path runtime, which is why the paper picks it.
"""

from __future__ import annotations

import sys
from pathlib import Path

from bench_record import record_bench
from repro.core import FC_HOOK_FANOUT, HostingEngine
from repro.core.hooks import Hook, HookMode
from repro.deploy import ImageSpec
from repro.rtos import Kernel
from repro.runtimes.sources import SCRIPT_FLETCHER32_PY, WASM_FLETCHER32
from repro.vm.imagecache import IMAGE_CACHE
from repro.vm.memory import Permission
from repro.workloads import FLETCHER32_INPUT, fletcher32_reference
from repro.workloads.fletcher32 import (
    INPUT_BASE,
    fletcher32_program,
    make_context,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_runtime_matrix.json"

_SPECS = {
    "rbpf": lambda: ImageSpec.from_program(fletcher32_program()),
    "wasm": lambda: ImageSpec.from_wasm(WASM_FLETCHER32, name="fletcher32"),
    "script": lambda: ImageSpec.from_script(SCRIPT_FLETCHER32_PY,
                                            name="fletcher32"),
}


def _measure(runtime: str) -> dict:
    IMAGE_CACHE.clear()
    spec = _SPECS[runtime]()
    engine = HostingEngine(Kernel(), implementation="jit")
    engine.register_hook(Hook(FC_HOOK_FANOUT, mode=HookMode.SYNC))
    container = engine.load(spec.instantiate("fletcher32"), name="fletcher32")

    before = engine.kernel.clock.cycles
    engine.attach(container, FC_HOOK_FANOUT)
    attach_cycles = engine.kernel.clock.cycles - before

    if runtime == "rbpf":
        # The eBPF program takes a {data_ptr, len} context and reads the
        # input buffer through a granted region.
        container.vm.access_list.grant_bytes(
            "in", INPUT_BASE, FLETCHER32_INPUT, Permission.READ)
        context = bytearray(make_context())
    else:
        context = bytearray(FLETCHER32_INPUT)
    run = engine.execute(container, context=context)
    assert run.ok, run.fault

    return {
        "code_bytes": len(spec.text) + len(spec.rodata) + len(spec.data),
        "attach_cycles": attach_cycles,
        "exec_cycles": run.cycles,
        "ram_bytes": container.ram_bytes,
        "value": run.value,
    }


def test_runtime_matrix_guard():
    ref = fletcher32_reference(FLETCHER32_INPUT)
    rows = {runtime: _measure(runtime) for runtime in _SPECS}

    # Semantics preservation: one workload, three runtimes, one answer.
    for runtime, row in rows.items():
        assert row["value"] == ref, (runtime, hex(row["value"]))
        row["checksum"] = f"0x{row.pop('value'):08x}"

    record_bench(
        RESULT_PATH,
        {
            "workload": "fletcher32 (360 B input), jit engine",
            "unit": "modelled board cycles",
            "python": sys.version.split()[0],
            "checksum": f"0x{ref:08x}",
            "runtimes": rows,
            "wasm_exec_overhead_vs_rbpf": round(
                rows["wasm"]["exec_cycles"] / rows["rbpf"]["exec_cycles"], 2
            ),
            "script_exec_overhead_vs_wasm": round(
                rows["script"]["exec_cycles"] / rows["wasm"]["exec_cycles"], 2
            ),
            "exec_overhead_bar": 1.0,
        },
    )

    # The §6 ordering: per-run cost script > wasm > rbpf, full stop.
    assert (rows["script"]["exec_cycles"]
            > rows["wasm"]["exec_cycles"]
            > rows["rbpf"]["exec_cycles"]), rows
