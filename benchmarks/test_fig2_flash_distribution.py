"""Fig 2 — Flash memory distribution with different Femto-Containers.

Paper: RIOT with MicroPython runtime totals 154 kB (runtime 66 %);
RIOT with rBPF runtime totals 57 kB (crypto 13 %, network 35 %, kernel
30 %, OTA 14 %, runtime 8 %).
"""

from __future__ import annotations

from bench_record import record

from repro.analysis import pie_breakdown
from repro.rtos import FirmwareImage, nrf52840
from repro.runtimes.profiles import MICROPYTHON_ROM, RBPF_RUNTIME_ROM


def build_images():
    board = nrf52840()
    rbpf = FirmwareImage.riot_base(board).add_runtime("rBPF", RBPF_RUNTIME_ROM)
    upy = FirmwareImage.riot_base(board).add_runtime(
        "MicroPython", MICROPYTHON_ROM)
    return rbpf, upy


def test_fig2_flash_distribution(benchmark):
    rbpf, upy = benchmark(build_images)

    text = "\n\n".join([
        pie_breakdown(
            "Fig 2 (right): RIOT with rBPF Femto-Container "
            f"({rbpf.flash_bytes / 1000:.0f} kB total; paper: 57 kB)",
            {m.name: m.flash_bytes for m in rbpf.modules},
        ),
        pie_breakdown(
            "Fig 2 (left): RIOT with MicroPython Femto-Container "
            f"({upy.flash_bytes / 1000:.0f} kB total; paper: 154 kB)",
            {m.name: m.flash_bytes for m in upy.modules},
        ),
    ])
    record("fig2_flash_distribution", text)

    rbpf_share = rbpf.flash_percentages()["rBPF runtime"]
    upy_share = upy.flash_percentages()["MicroPython runtime"]
    # Paper: 8 % vs 66 % — "negligible impact (8% more ROM with rBPF)" vs
    # "a tremendous increase (200% more ROM with MicroPython)".
    assert 6.0 <= rbpf_share <= 10.0
    assert 60.0 <= upy_share <= 72.0
    assert 50_000 <= rbpf.flash_bytes <= 62_000
    assert 145_000 <= upy.flash_bytes <= 165_000
    base = FirmwareImage.riot_base(nrf52840())
    assert upy.flash_overhead_percent(base) > 150.0
    assert rbpf.flash_overhead_percent(base) < 10.0
