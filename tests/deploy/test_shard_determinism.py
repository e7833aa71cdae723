"""Sharded co-run invariants: wall-clock-only, bit-identical modelling.

The shard executor partitions device kernels across co-run shards for
wall-clock throughput.  Modelled state must not notice: per-device
virtual clocks and charged cycles are pinned identical between the
single-loop (``shards=1``) and sharded executions, shard assignment is
deterministic, and decoding each release and image once per content
(the publish-scoped release cache plus the image cache's decoded
images) never changes a device's cycle bill.  Neither does persisting
and authenticating it once per content (the slot-record, NVM-frame,
payload-digest and COSE-verify memos): a forced-cold publish leaves
every device's flash byte for byte as a shared one does.
"""

from __future__ import annotations

import random

import pytest

import repro.rtos.nvm as nvm_module
import repro.suit.cose as cose_module
import repro.suit.manifest as manifest_module
import repro.suit.storage as storage_module
import repro.suit.worker as worker_module
from repro.core import FC_HOOK_FANOUT
from repro.core.hooks import HookMode
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    HookSpec,
    ImageSpec,
    PublishOptions,
    ShardExecutor,
    auto_shard_count,
    runtime_matrix_spec,
)
from repro.scenarios import build_fleet_publisher
from repro.suit import ed25519
from repro.suit.storage import NVM_SLOT_PREFIX
from repro.suit.worker import SuitUpdateWorker
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE

GOOD = "mov r0, 7\n    exit"


@pytest.fixture(autouse=True)
def fresh_cache():
    IMAGE_CACHE.clear()
    yield
    IMAGE_CACHE.clear()


def make_spec(source: str, name: str = "release") -> DeploymentSpec:
    return DeploymentSpec(
        name=name,
        tenants=("ops",),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images={"app": ImageSpec.from_program(assemble(source, name="app"))},
        attachments=(AttachmentSpec(image="app", hook=FC_HOOK_FANOUT,
                                    tenant="ops", name="worker", count=2),),
    )


def modelled_state(options: PublishOptions, devices: int = 8,
                   seed: int = 11,
                   spec: DeploymentSpec | None = None
                   ) -> tuple[dict, dict, bool]:
    """(per-device cycles charged, per-device final clock, ok)."""
    IMAGE_CACHE.clear()
    publisher = build_fleet_publisher(devices=devices, seed=seed)
    result = publisher.publish(spec or make_spec(GOOD, "v1"), options)
    charged = {row.device.name: row.cycles_charged for row in result.rows()}
    clocks = {device.name: device.kernel.clock.cycles
              for device in publisher.fleet.devices}
    return charged, clocks, result.ok


def persisted_state(options: PublishOptions, spec: DeploymentSpec,
                    devices: int = 8, seed: int = 11):
    """Modelled outcome plus every device's flash after one publish:
    (cycles charged, final clocks, NVM counters, stored frames, slot
    frames, ok).  NVM counters are ``(writes, erases, bytes_written)``;
    stored frames are each device's primary and shadow regions."""
    IMAGE_CACHE.clear()
    publisher = build_fleet_publisher(devices=devices, seed=seed)
    result = publisher.publish(spec, options)
    fleet = publisher.fleet.devices
    charged = {row.device.name: row.cycles_charged for row in result.rows()}
    clocks = {device.name: device.kernel.clock.cycles for device in fleet}
    counters = {device.name: (device.nvm.writes, device.nvm.erases,
                              device.nvm.bytes_written)
                for device in fleet}
    frames = {device.name: (dict(device.nvm._primary),
                            dict(device.nvm._shadow))
              for device in fleet}
    slot_frames = [frame for device in fleet
                   for key, frame in device.nvm._primary.items()
                   if key.startswith(NVM_SLOT_PREFIX)]
    return charged, clocks, counters, frames, slot_frames, result.ok


def forget_before_each_call(patch, module, memo: str, owner, attr: str):
    """Wrap ``owner.attr`` so ``module.memo`` is empty on every call."""
    original = getattr(owner, attr)

    def cold(*args, **kwargs):
        setattr(module, memo, None)
        return original(*args, **kwargs)

    patch.setattr(owner, attr, cold)


def named(count: int) -> list:
    from types import SimpleNamespace

    return [SimpleNamespace(name=f"dev{i}") for i in range(count)]


class TestShardExecutor:
    def test_assignment_is_deterministic_round_robin(self):
        executor = ShardExecutor(named(10), shards=3)
        assert executor.assignment() == {
            "dev0": 0, "dev3": 0, "dev6": 0, "dev9": 0,
            "dev1": 1, "dev4": 1, "dev7": 1,
            "dev2": 2, "dev5": 2, "dev8": 2,
        }

    def test_one_shard_reproduces_the_flat_loop_order(self):
        devices = named(5)
        executor = ShardExecutor(devices, shards=1)
        assert list(executor.iter_pending()) == devices

    def test_converged_shards_are_skipped(self):
        executor = ShardExecutor(named(6), shards=3)
        for name in ("dev0", "dev3"):  # all of shard 0
            executor.discard(name)
        assert [device.name for device in executor.iter_pending()] \
            == ["dev1", "dev4", "dev2", "dev5"]

    def test_auto_sizing_scales_and_clamps(self):
        assert auto_shard_count(1) == 1
        assert auto_shard_count(64) == 1
        assert auto_shard_count(65) == 2
        assert auto_shard_count(1024) == 16
        assert auto_shard_count(100_000) == 16  # clamped
        # shards never exceed devices
        assert ShardExecutor(named(2), shards=None).shard_count <= 2


class TestModelledCyclesInvariant:
    def test_sharding_never_changes_cycles_or_clocks(self):
        """shards=1 vs shards=4 vs auto: same per-device cycle bill and
        final virtual clock — sharding is wall-clock-only."""
        flat = modelled_state(PublishOptions(shards=1))
        sharded = modelled_state(PublishOptions(shards=4))
        auto = modelled_state(PublishOptions(shards=None))
        assert flat[2] and sharded[2] and auto[2]
        assert flat[0] == sharded[0] == auto[0]
        assert flat[1] == sharded[1] == auto[1]

    def test_release_cache_is_wall_clock_only(self, monkeypatch):
        """Sharing one decoded release and one decoded image per content
        across workers must not change any device's charged cycles:
        decode memoization is a host-side (wall-clock) effect.  The
        reference run forces every device to decode cold — its own
        envelope, spec, rBPF slots, Wasm module and script parse."""
        spec = runtime_matrix_spec()
        shared = modelled_state(PublishOptions(), spec=spec)
        decodes = []

        def cold_image(image_hash, decode):
            decodes.append(image_hash)
            return decode()

        with monkeypatch.context() as patch:
            # A memo that forgets every write: each lookup misses.
            patch.setattr(SuitUpdateWorker, "release_cache",
                          property(lambda self: {},
                                   lambda self, value: None),
                          raising=False)
            patch.setattr(IMAGE_CACHE, "image", cold_image)
            cold = modelled_state(PublishOptions(), spec=spec)
        # Every device decoded its own Wasm and script image.
        assert len(decodes) == 2 * 8
        assert cold[2] and shared[2]
        assert cold[0] == shared[0]
        assert cold[1] == shared[1]

    @pytest.mark.parametrize("options", [PublishOptions(),
                                         PublishOptions.scale()],
                             ids=["unicast", "multicast"])
    def test_content_memos_are_wall_clock_only(self, monkeypatch, options):
        """Encoding each slot record, framing it, hashing the payload
        and verifying the COSE signature once per content must leave
        every device's cycles, clock, flash counters and stored frames
        exactly as a forced-cold run leaves them, in which each device
        does all four itself."""
        spec = DeploymentSpec(
            name="memo",
            tenants=("ops",),
            hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
            images={"app": ImageSpec(
                name="app",
                text=assemble(GOOD, name="app").to_bytes(),
                rodata=random.Random(16).randbytes(1024))},
            attachments=(AttachmentSpec(image="app", hook=FC_HOOK_FANOUT,
                                        tenant="ops", name="worker"),),
        )
        verifies = []
        real_verify = ed25519.verify

        def counted_verify(*args):
            verifies.append(args)
            return real_verify(*args)

        monkeypatch.setattr(ed25519, "verify", counted_verify)
        for module, memo in ((storage_module, "_RECORD_MEMO"),
                             (nvm_module, "_FRAME_MEMO"),
                             (manifest_module, "_DIGEST_MEMO"),
                             (cose_module, "_VERIFY_MEMO")):
            monkeypatch.setattr(module, memo, None)
        shared = persisted_state(options, spec)
        shared_verifies = len(verifies)
        with monkeypatch.context() as patch:
            forget_before_each_call(patch, storage_module, "_RECORD_MEMO",
                                    storage_module.StorageRegistry,
                                    "_persist")
            forget_before_each_call(patch, nvm_module, "_FRAME_MEMO",
                                    nvm_module, "_frame")
            for module in (manifest_module, worker_module):
                forget_before_each_call(patch, manifest_module,
                                        "_DIGEST_MEMO", module,
                                        "payload_digest")
            forget_before_each_call(patch, cose_module, "_VERIFY_MEMO",
                                    cose_module.CoseSign1, "verify")
            cold = persisted_state(options, spec)
        assert shared[-1] and cold[-1]
        # The shared run really shared and the cold run really did not.
        assert shared_verifies == 1
        assert len(verifies) - shared_verifies == 8
        assert len({id(frame) for frame in shared[4]}) == 1
        assert len({id(frame) for frame in cold[4]}) == 8
        assert shared[:4] == cold[:4]

    def test_multicast_cycles_are_shard_independent(self):
        """The scale profile changes the *protocol* (one broadcast, no
        per-device fetch), so its cycle bill differs from unicast — but
        it must still be identical across shard counts."""
        one = modelled_state(PublishOptions.scale(shards=1))
        many = modelled_state(PublishOptions.scale(shards=4))
        assert one[2] and many[2]
        assert one[0] == many[0]
        assert one[1] == many[1]

    def test_legacy_kwargs_and_options_agree(self):
        IMAGE_CACHE.clear()
        by_options = build_fleet_publisher(devices=4, seed=7)
        via_options = by_options.publish(make_spec(GOOD, "v1"),
                                         PublishOptions(bake_us=500_000.0))
        IMAGE_CACHE.clear()
        by_kwargs = build_fleet_publisher(devices=4, seed=7)
        with pytest.warns(DeprecationWarning):
            via_kwargs = by_kwargs.publish(make_spec(GOOD, "v1"),
                                           bake_us=500_000.0)
        assert via_options.ok and via_kwargs.ok
        assert {r.device.name: r.cycles_charged
                for r in via_options.rows()} \
            == {r.device.name: r.cycles_charged for r in via_kwargs.rows()}

    def test_identical_runs_are_bit_identical(self):
        """Same seed, same options, fresh rigs: the whole modelled
        outcome replays — the property seeded chaos sweeps rely on."""
        first = modelled_state(PublishOptions.scale(), devices=12, seed=23)
        second = modelled_state(PublishOptions.scale(), devices=12, seed=23)
        assert first == second
