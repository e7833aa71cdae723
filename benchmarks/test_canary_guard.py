"""Canary-rollout regression guard.

Two invariants of the canary fleet rollout, checked on every trial and
recorded to ``BENCH_canary.json`` at the repository root:

* **Isolation** — a poisoned rollout (image verifies clean, faults at
  runtime) must roll back on the canary subset with *zero* observable
  change on every non-canary device: no actions applied, no cycles
  charged, no image hash moved.
* **Warm promotion** — when the fixed spec bakes clean and promotes, the
  non-canary devices ride the image cache the canary already warmed:
  each promoted device's rollout must be at least 5x faster in wall time
  than the canary's cold rollout (the same bar the deploy guard holds).
"""

from __future__ import annotations

import sys
from pathlib import Path

from bench_record import record_bench
from repro.core import FC_HOOK_FANOUT
from repro.core.hooks import HookMode
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    Fleet,
    HookSpec,
    ImageSpec,
    plan,
)
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE
from repro.workloads.fletcher32 import FLETCHER32_EBPF, fletcher32_program

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_canary.json"

DEVICES = 4
CANARIES = 1
TENANTS = 2
INSTANCES = 2

#: Promoted devices skip the dominant JIT transpile+compile entirely.
PROMOTED_SPEEDUP_BAR = 5.0

_TRIALS = 5

#: Passes the pre-flight verifier, dereferences an unmapped address.
POISON = "lddw r1, 0x10\n    ldxb r0, [r1]\n    exit"


def _spec(name: str, image: ImageSpec) -> DeploymentSpec:
    return DeploymentSpec(
        name=name,
        tenants=tuple(f"tenant-{index}" for index in range(TENANTS)),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images={"app": image},
        attachments=tuple(
            AttachmentSpec(image="app", hook=FC_HOOK_FANOUT,
                           tenant=f"tenant-{index}",
                           name=f"fc-{index}-{{i}}", count=INSTANCES)
            for index in range(TENANTS)
        ),
    )


def _fingerprint(device):
    return (
        device.kernel.clock.cycles,
        sorted((c.hook.name, c.name, c.image_hash)
               for c in device.engine.containers()),
    )


def _one_trial() -> tuple[float, list[float], int]:
    """Cold fleet, poisoned rollback, then clean promotion.

    Returns (canary cold wall, per-control walls, canary fault count).
    """
    IMAGE_CACHE.clear()
    fleet = Fleet(DEVICES, implementation="jit")
    base_image = ImageSpec.from_program(fletcher32_program())
    base = _spec("base", base_image)
    fleet.apply(base)

    # Poisoned rollout: must roll back without disturbing the controls.
    control = fleet.devices[CANARIES:]
    before = [_fingerprint(device) for device in control]
    poisoned = fleet.canary_rollout(
        _spec("v2", ImageSpec.from_program(
            assemble(POISON, name="poison"))),
        canary_count=CANARIES, bake_us=200_000.0, bake_fires=2,
    )
    assert poisoned.rolled_back and not poisoned.promoted
    faults = sum(poisoned.fault_deltas.values())
    assert faults > 0, "poisoned canary never faulted during the bake"
    assert [_fingerprint(device) for device in control] == before, \
        "rollback disturbed a non-canary device"
    assert plan(fleet.devices[0].engine, base).empty

    # Clean rollout: same behaviour, new text (a leading mov of a
    # release tag into the unused r9).  The JIT template is keyed on the
    # text, so the canary pays one cold compile and promotion rides it.
    fixed_image = ImageSpec.from_program(
        assemble(f"mov r9, 2\n{FLETCHER32_EBPF}"), name="app")
    promoted = fleet.canary_rollout(_spec("v2", fixed_image),
                                    canary_count=CANARIES,
                                    bake_us=200_000.0, bake_fires=2)
    assert promoted.promoted, promoted.reason
    assert all(plan(device.engine, _spec("v2", fixed_image)).empty
               for device in fleet.devices)
    return (promoted.canary[0].wall_s,
            [rollout.wall_s for rollout in promoted.control],
            faults)


def test_canary_guard():
    cold_walls: list[float] = []
    control_walls: list[list[float]] = [[] for _ in range(DEVICES - CANARIES)]
    faults = 0
    for _ in range(_TRIALS):
        cold, controls, trial_faults = _one_trial()
        cold_walls.append(cold)
        for index, wall in enumerate(controls):
            control_walls[index].append(wall)
        faults = trial_faults
    IMAGE_CACHE.clear()  # leave no benchmark state behind for other tests

    cold = min(cold_walls)
    best = [min(walls) for walls in control_walls]
    speedups = [cold / wall for wall in best]
    record_bench(
        RESULT_PATH,
        {
            "workload": (f"{TENANTS} tenants x {INSTANCES} instances of "
                         f"fletcher32 per device, {DEVICES}-device fleet, "
                         f"{CANARIES} canary"),
            "unit": "seconds wall per device rollout (min of trials)",
            "python": sys.version.split()[0],
            "rollback": {
                "canary_faults": faults,
                "control_devices_disturbed": 0,
            },
            "devices": [
                {"device": "dev0", "role": "canary",
                 "rollout_us": round(cold * 1e6, 1),
                 "speedup_vs_canary": 1.0},
            ] + [
                {"device": f"dev{index + CANARIES}", "role": "promoted",
                 "rollout_us": round(wall * 1e6, 1),
                 "speedup_vs_canary": round(cold / wall, 2)}
                for index, wall in enumerate(best)
            ],
            "promoted_speedup_bar": PROMOTED_SPEEDUP_BAR,
        },
    )

    for index, speedup in enumerate(speedups, start=CANARIES):
        assert speedup >= PROMOTED_SPEEDUP_BAR, (
            f"dev{index} promotion only {speedup:.2f}x faster than the "
            f"cold canary (bar {PROMOTED_SPEEDUP_BAR}x): "
            f"cold={cold * 1e6:.0f}us walls={best}"
        )
