"""Constant-memory fleet publish.

A publish replaces every device's containers.  Once a slot's container
is replaced nothing may keep it (or its VM) alive: not its tenant, not
the update worker's result history, not an ended worker thread.  Bytes
that never change — an image's ``.rodata`` — exist once, shared by
every instance, and stay read-only: a store into them still faults.
"""

from __future__ import annotations

import gc
import os
import random
import tracemalloc
import weakref

import pytest

from repro.core import FC_HOOK_FANOUT, FC_HOOK_TIMER, HostingEngine
from repro.core.hooks import HookMode
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    FaultInjector,
    HookSpec,
    ImageSpec,
    PublishOptions,
)
from repro.rtos import Kernel, nrf52840
from repro.scenarios import build_control_plane, build_fleet_publisher
from repro.vm import assemble
from repro.vm.errors import MemoryFault
from repro.vm.imagecache import IMAGE_CACHE
from repro.vm.memory import RODATA_BASE

DEVICES = 24
PUBLISHES = 4
IMAGES = 2
#: Small images keep the per-publish release record (the signed payload
#: the control plane keeps, the shared decoded spec) well below the
#: per-device budget even when spread over only 24 devices.
RODATA_BYTES = 256
#: Heap growth allowed per device per publish.  Before replaced
#: containers were released this was about 17 KiB.
GROWTH_BUDGET = 1024

TEXT = assemble("mov r0, 7\n    exit", name="app").to_bytes()


def release(rng: random.Random, text: bytes = TEXT) -> DeploymentSpec:
    images = {
        f"app{index}": ImageSpec(name=f"app{index}", text=text,
                                 rodata=rng.randbytes(RODATA_BYTES))
        for index in range(IMAGES)
    }
    return DeploymentSpec(
        name="fleet-release",
        tenants=("ops",),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images=images,
        attachments=tuple(
            AttachmentSpec(image=f"app{index}", hook=FC_HOOK_FANOUT,
                           tenant="ops", name=f"fc-{index}")
            for index in range(IMAGES)),
    )


def live_containers(plane):
    return [container for device in plane.devices()
            for container in device.engine.containers()]


def heap_snapshot():
    # The process-wide image cache is a bounded LRU keyed by image, not
    # per-device state; empty it so its entries do not count.
    IMAGE_CACHE.clear()
    gc.collect()
    return tracemalloc.take_snapshot().filter_traces([
        tracemalloc.Filter(False, __file__),
        tracemalloc.Filter(False, tracemalloc.__file__),
    ])


@pytest.fixture(scope="module")
def fleet_run():
    """Four publishes over one smoke fleet, observed from outside."""
    IMAGE_CACHE.clear()
    rng = random.Random(7)
    plane = build_control_plane(devices=DEVICES, seed=7)
    generations = []
    snapshots = []
    tracemalloc.start()
    try:
        for number in range(1, PUBLISHES + 1):
            result = plane.publish(release(rng))
            assert result.ok, result.reason
            generations.append([(weakref.ref(container),
                                 weakref.ref(container.vm))
                                for container in live_containers(plane)])
            if number in (2, 4):
                snapshots.append(heap_snapshot())
    finally:
        tracemalloc.stop()
    yield plane, generations, snapshots
    IMAGE_CACHE.clear()


class TestPublishRetention:
    def test_every_publish_replaced_every_container(self, fleet_run):
        plane, generations, _ = fleet_run
        assert all(len(generation) == DEVICES * IMAGES
                   for generation in generations)

    def test_replaced_containers_and_vms_are_collectable(self, fleet_run):
        plane, generations, _ = fleet_run
        gc.collect()
        for generation in generations[:-1]:
            assert [ref for pair in generation for ref in pair
                    if ref() is not None] == []
        current = generations[-1]
        assert all(c() is not None and vm() is not None
                   for c, vm in current)

    def test_tenant_owns_only_the_current_containers(self, fleet_run):
        plane, _, _ = fleet_run
        for device in plane.devices():
            tenant = device.engine.tenants["ops"]
            assert tenant.containers == device.engine.containers()

    def test_heap_growth_per_device_per_publish(self, fleet_run):
        _, _, (after_second, after_fourth) = fleet_run
        growth = sum(stat.size_diff
                     for stat in after_fourth.compare_to(after_second,
                                                         "filename"))
        per_device = growth / (DEVICES * (PUBLISHES - 2))
        assert per_device <= GROWTH_BUDGET, (
            f"{per_device:.0f} B retained per device per publish")

    def test_history_still_reports_the_last_apply(self, fleet_run):
        plane, _, _ = fleet_run
        plans = set()
        for device in plane.devices():
            applied = device.radio.worker.results[-1].applied
            assert len(applied.plan.actions) == IMAGES
            assert applied.containers == {
                (FC_HOOK_FANOUT, c.name): c
                for c in device.engine.containers()}
            plans.add(id(applied.plan))
        # Devices that planned the same actions share one plan object.
        assert len(plans) == 1


class TestSharedBytes:
    def test_release_payload_is_one_object_fleet_wide(self, fleet_run):
        """The broadcast body is decoded once per publish, so every
        device's storage slot holds the same payload object."""
        plane, _, _ = fleet_run
        images = {id(slot.image) for device in plane.devices()
                  for slot in device.radio.worker.storage.slots.values()
                  if slot.image}
        assert len(images) == 1

    def test_rodata_is_one_object_per_image_fleet_wide(self, fleet_run):
        plane, _, _ = fleet_run
        for name in (f"fc-{index}" for index in range(IMAGES)):
            sections = set()
            for container in live_containers(plane):
                if container.name != name:
                    continue
                region = next(region for region in
                              container.vm.access_list.regions
                              if region.name == ".rodata")
                assert region.data is container.program.rodata
                sections.add(id(region.data))
            assert len(sections) == 1

    @pytest.mark.parametrize("implementation", ["jit", "femto-containers"])
    def test_store_into_rodata_faults(self, implementation):
        engine = HostingEngine(Kernel(nrf52840()), implementation)
        rodata = b"read-only"
        container = engine.load(assemble(
            "lddwr r1, 0\n    stw [r1+0], 1\n    mov r0, 0\n    exit",
            rodata=rodata))
        engine.attach(container, FC_HOOK_TIMER)
        run = engine.execute(container)
        assert run.fault is not None and run.fault.kind == "MemoryFault"
        assert "lacks WRITE permission" in run.fault.message
        assert container.program.rodata == rodata

    @pytest.mark.parametrize("implementation", ["jit", "femto-containers"])
    def test_helper_write_into_rodata_faults(self, implementation):
        engine = HostingEngine(Kernel(nrf52840()), implementation)
        rodata = b"read-only"
        container = engine.load(assemble(
            "lddwr r1, 0\n    mov r2, r10\n    mov r3, 4\n"
            "    call bpf_memcpy\n    mov r0, 0\n    exit",
            rodata=rodata))
        engine.attach(container, FC_HOOK_TIMER)
        run = engine.execute(container)
        assert run.fault is not None and run.fault.kind == "MemoryFault"
        with pytest.raises(MemoryFault, match="lacks WRITE permission"):
            container.vm.access_list.write_bytes(RODATA_BASE, b"x")
        assert container.program.rodata == rodata


def held(engine):
    """Containers a device holds: attached plus supervisor-quarantined."""
    quarantined = [] if engine.supervisor is None else [
        health.container for health in engine.supervisor.counters().values()
        if health.quarantined]
    return engine.containers() + quarantined


def assert_freed_and_owned(fleet, refs):
    for device in fleet.devices:
        device.kernel.run_until_idle()  # ended worker threads let go
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []
    for device in fleet.devices:
        tenant = device.engine.tenants["ops"]
        assert sorted(map(id, tenant.containers)) \
            == sorted(map(id, held(device.engine))), device.name


class TestOwnershipUnderFaults:
    """Rollback, reboot recovery and probation re-attach all swap
    containers; ownership must follow the slot through every one."""

    def test_seeded_chaos_publish(self):
        # CI sweeps this under several fixed seeds (see the chaos job in
        # .github/workflows/ci.yml); locally it runs one.
        seed = int(os.environ.get("CHAOS_SEED", "11"))
        IMAGE_CACHE.clear()
        rng = random.Random(seed)
        publisher = build_fleet_publisher(devices=4, loss=0.1, seed=seed)
        assert publisher.publish(release(rng)).converged
        refs = [weakref.ref(c) for device in publisher.fleet.devices
                for c in device.engine.containers()]
        names = [device.name for device in publisher.fleet.devices]
        publisher.chaos = FaultInjector(FaultInjector.random_plan(
            names, seed=seed, horizon_us=400_000.0,
            crashes=2, bursts=1, stalls=1))
        result = publisher.publish(release(rng))
        assert result.converged, result.reason
        assert result.total_reboots > 0  # reboot recovery re-attached
        assert_freed_and_owned(publisher.fleet, refs)

    def test_canary_rollback(self):
        IMAGE_CACHE.clear()
        rng = random.Random(5)
        publisher = build_fleet_publisher(devices=3)
        assert publisher.publish(release(rng)).converged
        poison = assemble("lddw r1, 0x10\n    ldxb r0, [r1]\n    exit",
                          name="app").to_bytes()
        refs = [weakref.ref(c) for c in
                publisher.fleet.devices[0].engine.containers()]
        result = publisher.publish(release(rng, poison), PublishOptions(
            canary_count=1, bake_us=200_000.0, bake_fires=2))
        assert result.rolled_back
        assert_freed_and_owned(publisher.fleet, refs)
