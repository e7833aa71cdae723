"""§10.3 — Femto-Containers with multiple instances: RAM accounting.

Paper anchors:
* each instance needs 624 B of RAM (stack + housekeeping);
* key-value stores for the multi-tenant example: ~340 B;
* the 3-container / 2-tenant example needs ~3.2 KiB of RAM;
* with ~2000 B applications, a 256 KiB Cortex-M4 fits ~100 instances
  next to the OS.
"""

from __future__ import annotations

from bench_record import record

from repro.analysis import format_table
from repro.rtos import nrf52840
from repro.rtos.firmware import HOST_OS_RAM
from repro.scenarios import build_multi_tenant_device


def collect():
    device = build_multi_tenant_device()
    # Run the system briefly so stores get populated realistically.
    device.kernel.run(until_us=3_000_000)
    engine = device.engine
    per_instance = device.sensor.vm.ram_bytes
    stores = engine.store_ram_bytes()
    total = engine.total_ram_bytes()
    return per_instance, stores, total


def density(app_bytes: int, ram_kib: int = 256) -> int:
    per_instance = 624 + app_bytes
    return (ram_kib * 1024 - HOST_OS_RAM) // per_instance


def test_sec10_3_multi_instance_density(benchmark):
    per_instance, stores, total = benchmark(collect)

    rows = [
        ["per-instance RAM", f"{per_instance} B", "624 B"],
        ["key-value stores", f"{stores} B", "~340 B"],
        ["3 containers / 2 tenants", f"{total} B", "~3.2 KiB"],
        ["density @2000 B apps, 256 KiB", f"{density(2000)} instances",
         "~100 instances"],
    ]
    record("sec10_3_density", format_table(
        ["Quantity", "measured", "paper"], rows,
        title="Sec 10.3: multi-instance RAM accounting",
    ))

    assert per_instance == 624
    assert 200 <= stores <= 500          # paper: 340 B
    assert 2_400 <= total <= 3_600       # paper: ~3.2 KiB
    assert 85 <= density(2000) <= 110    # paper: ~100 instances


def test_instances_scale_linearly(benchmark):
    """Adding instances adds exactly one VM state + image each."""
    from repro.core import FC_HOOK_TIMER, HostingEngine
    from repro.rtos import Kernel
    from repro.vm import assemble

    def grow():
        kernel = Kernel(nrf52840())
        engine = HostingEngine(kernel)
        sizes = []
        for index in range(8):
            container = engine.load(
                assemble("mov r0, 0\n    exit"), name=f"c{index}")
            engine.attach(container, FC_HOOK_TIMER)
            sizes.append(engine.total_ram_bytes())
        return sizes

    sizes = benchmark(grow)
    deltas = {b - a for a, b in zip(sizes, sizes[1:])}
    assert len(deltas) == 1  # perfectly linear
    (delta,) = deltas
    assert 624 <= delta <= 700  # instance + 16 B image + local store header
