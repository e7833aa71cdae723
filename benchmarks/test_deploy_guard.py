"""Fleet-rollout regression guard for the declarative deployment API.

Applying one K-tenant x M-instance spec across an N-device fleet is the
cross-board payoff of the shared image cache: device 1 pays the host-side
verify and JIT transpile cold, devices 2..N ride the cached artifacts.
This guard rolls a 2x2 fletcher32 spec onto a 4-device fleet, records the
per-device wall times to ``BENCH_deploy.json`` at the repository root,
and **fails** if any cache-warm device's rollout is not at least 5x
faster than device 1's cold rollout.

The modelled device cost must be cache-*oblivious*: every device in the
fleet charges bit-identical virtual cycles for the same spec, warm or
cold (asserted on every trial).
"""

from __future__ import annotations

import sys
from pathlib import Path

from bench_record import record_bench
from repro.deploy import Fleet, fanout_spec
from repro.vm.imagecache import IMAGE_CACHE
from repro.workloads.fletcher32 import fletcher32_program

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_deploy.json"

DEVICES = 4
TENANTS = 2
INSTANCES = 2

#: Warm devices skip the dominant JIT transpile+compile entirely.
WARM_SPEEDUP_BAR = 5.0

_TRIALS = 5


def _one_rollout() -> tuple[list[float], list[int]]:
    """Cold-cache rollout of the spec across a fresh fleet."""
    IMAGE_CACHE.clear()
    fleet = Fleet(DEVICES, implementation="jit")
    spec = fanout_spec(tenants=TENANTS, instances_per_tenant=INSTANCES,
                       image=fletcher32_program())
    rollout = fleet.apply(spec)
    walls = [device.wall_s for device in rollout.devices]
    cycles = rollout.cycles_per_device()
    # Cache-obliviousness of the device model, checked on every trial.
    assert len(set(cycles)) == 1, cycles
    return walls, cycles


def test_deploy_guard():
    per_device: list[list[float]] = [[] for _ in range(DEVICES)]
    cycles: list[int] = []
    for _ in range(_TRIALS):
        walls, trial_cycles = _one_rollout()
        for index, wall in enumerate(walls):
            per_device[index].append(wall)
        cycles = trial_cycles
    IMAGE_CACHE.clear()  # leave no benchmark state behind for other tests

    best = [min(times) for times in per_device]
    speedups = [best[0] / wall for wall in best[1:]]
    record_bench(
        RESULT_PATH,
        {
            "workload": (f"{TENANTS} tenants x {INSTANCES} instances of "
                         f"fletcher32 per device, {DEVICES}-device fleet"),
            "unit": "seconds wall per device rollout (min of trials)",
            "python": sys.version.split()[0],
            "devices": [
                {
                    "device": f"dev{index}",
                    "rollout_us": round(wall * 1e6, 1),
                    "speedup_vs_dev0": (round(best[0] / wall, 2)
                                        if index else 1.0),
                }
                for index, wall in enumerate(best)
            ],
            "cycles_per_device": cycles[0],
            "warm_speedup_bar": WARM_SPEEDUP_BAR,
        },
    )

    # Every cache-warm device must beat the cold device by the bar.
    for index, speedup in enumerate(speedups, start=1):
        assert speedup >= WARM_SPEEDUP_BAR, (
            f"dev{index} rollout only {speedup:.2f}x faster than dev0 "
            f"(bar {WARM_SPEEDUP_BAR}x): {best}"
        )
