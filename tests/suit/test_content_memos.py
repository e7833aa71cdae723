"""Per-content memos never weaken a check.

A fleet publish persists and authenticates byte-identical content on
every device, so four host-side memos share that work: the slot-record
encode (``suit/storage.py``), the NVM journal frame (``rtos/nvm.py``),
the payload SHA-256 (``suit/manifest.py``) and a successful COSE verify
(``suit/cose.py``).  Each holds one entry.  These tests pin that a memo
hit is only ever taken for the very same bytes: a one-byte change still
fails its check, and a flash fault on one device never reaches another
device that shares the same frame object.
"""

from __future__ import annotations

import hashlib
import random

import pytest

import repro.rtos.nvm as nvm_module
import repro.suit.cose as cose_module
import repro.suit.manifest as manifest_module
import repro.suit.storage as storage_module
from repro.core import FC_HOOK_FANOUT, FC_HOOK_TIMER
from repro.core.hooks import HookMode
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    HookSpec,
    ImageSpec,
    PublishOptions,
)
from repro.net import CoapClient, CoapServer, Interface, Link, UdpStack
from repro.rtos import NvmStore
from repro.rtos.nvm import TornWrite
from repro.scenarios import build_fleet_publisher
from repro.suit import (
    CoseSign1,
    StorageRegistry,
    SuitEnvelope,
    SuitManifest,
    SuitUpdateWorker,
    UpdateStatus,
    cbor,
    ed25519,
    payload_digest,
)
from repro.suit.storage import NVM_SLOT_PREFIX
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE

SEED = bytes(range(32))
PUBLIC = ed25519.public_key(SEED)
LOCATION = "spec:memo"
KEY = NVM_SLOT_PREFIX + LOCATION


def flipped(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


# -- payload digest ----------------------------------------------------------


def image_rig(kernel, engine):
    link = Link(kernel, loss=0.0, seed=21)
    dev = link.attach(Interface("dev"))
    host = link.attach(Interface("host"))
    repo = CoapServer(kernel, UdpStack(host).socket(5683), threaded=False)
    client = CoapClient(kernel, UdpStack(dev).socket(40000))
    worker = SuitUpdateWorker(engine, client, trust_anchor=PUBLIC,
                              repo_addr="host")
    return repo, worker


def image_manifest(engine, payload: bytes, seq: int) -> SuitManifest:
    return SuitManifest(
        sequence_number=seq,
        storage_location=str(engine.hook(FC_HOOK_TIMER).uuid),
        digest=payload_digest(payload),
        size=len(payload),
        uri=f"/fw/app{seq}",
    )


def run_update(kernel, worker, envelope: bytes):
    worker.trigger(envelope)
    kernel.run(until_us=kernel.now_us + 400_000_000)
    return worker.results[-1]


class TestDigestMemo:
    def test_one_byte_change_is_a_different_digest(self):
        good = assemble("mov r0, 1\n    exit").to_bytes()
        assert payload_digest(good) == payload_digest(good)
        assert manifest_module._DIGEST_MEMO[0] is good
        bad = flipped(good, len(good) // 2)
        assert len(bad) == len(good)
        assert payload_digest(bad) == hashlib.sha256(bad).digest()
        assert payload_digest(bad) != payload_digest(good)

    def test_mutable_buffers_are_hashed_every_time(self):
        buffer = bytearray(b"\x00" * 300)
        first = payload_digest(buffer)
        buffer[7] ^= 0xFF
        assert payload_digest(buffer) == hashlib.sha256(buffer).digest()
        assert payload_digest(buffer) != first

    def test_mismatch_after_a_memo_hit(self, kernel, engine):
        repo, worker = image_rig(kernel, engine)
        good = assemble("mov r0, 1\n    exit").to_bytes()
        first = image_manifest(engine, good, seq=1)
        repo.register_blob(first.uri, lambda: good)
        result = run_update(kernel, worker,
                            SuitEnvelope.create(first, SEED).encode())
        assert result.status is UpdateStatus.OK
        # The good payload's digest is memoized; the repository now
        # serves a same-length copy that differs in one byte.
        second = image_manifest(engine, good, seq=2)
        assert manifest_module._DIGEST_MEMO[0] == good
        repo.register_blob(second.uri, lambda: flipped(good, 3))
        result = run_update(kernel, worker,
                            SuitEnvelope.create(second, SEED).encode())
        assert result.status is UpdateStatus.DIGEST_MISMATCH


# -- COSE verify -------------------------------------------------------------


def with_signature(envelope: SuitEnvelope, signature: bytes) -> SuitEnvelope:
    auth = envelope.auth
    return SuitEnvelope(auth=CoseSign1(protected=auth.protected,
                                       payload=auth.payload,
                                       signature=signature))


class TestVerifyMemo:
    def test_flipped_signature_after_a_memo_hit(self):
        sign1 = CoseSign1.sign(b"release", SEED)
        assert sign1.verify(PUBLIC) and sign1.verify(PUBLIC)
        assert cose_module._VERIFY_MEMO == (sign1.protected, sign1.payload,
                                           sign1.signature, PUBLIC)
        for at in (0, 31, 63):
            forged = CoseSign1(protected=sign1.protected,
                               payload=sign1.payload,
                               signature=flipped(sign1.signature, at))
            assert not forged.verify(PUBLIC)
        other = CoseSign1(protected=sign1.protected,
                          payload=b"releasf", signature=sign1.signature)
        assert not other.verify(PUBLIC)
        assert not sign1.verify(ed25519.public_key(bytes(32)))
        assert sign1.verify(PUBLIC)

    def test_worker_rejects_flipped_signature_after_a_memo_hit(
            self, kernel, engine):
        repo, worker = image_rig(kernel, engine)
        good = assemble("mov r0, 1\n    exit").to_bytes()
        first = image_manifest(engine, good, seq=1)
        repo.register_blob(first.uri, lambda: good)
        envelope = SuitEnvelope.create(first, SEED)
        assert run_update(kernel, worker,
                          envelope.encode()).status is UpdateStatus.OK
        second = SuitEnvelope.create(image_manifest(engine, good, seq=2),
                                     SEED)
        assert second.verify(PUBLIC)  # memoized
        forged = with_signature(second, flipped(second.auth.signature, 9))
        result = run_update(kernel, worker, forged.encode())
        assert result.status is UpdateStatus.SIGNATURE_INVALID
        assert worker.storage.highest_sequence(first.storage_location) == 1

    def test_mutable_fields_are_never_memoized(self):
        payload = bytearray(b"release")
        sign1 = CoseSign1.sign(bytes(payload), SEED)
        mutable = CoseSign1(protected=sign1.protected, payload=payload,
                            signature=sign1.signature)
        cose_module._VERIFY_MEMO = None
        assert mutable.verify(PUBLIC)
        assert cose_module._VERIFY_MEMO is None
        payload[0] ^= 0x01
        assert not mutable.verify(PUBLIC)


# -- shared NVM frames -------------------------------------------------------


def big_image(seed: int) -> bytes:
    return random.Random(seed).randbytes(1024)


def device() -> StorageRegistry:
    return StorageRegistry(nvm=NvmStore())


def clean_record(storage: StorageRegistry, image: bytes, sequence: int):
    raw = storage.nvm.read(KEY)
    assert raw is not None
    record = cbor.decode(raw)
    assert record["image"] == image and record["sequence"] == sequence
    restored = StorageRegistry(nvm=storage.nvm).restore()
    assert [(slot.image, slot.sequence_number) for slot in restored] \
        == [(image, sequence)]


class TestRecordMemo:
    def test_same_metadata_different_image_is_a_new_record(self):
        first, second = device(), device()
        image, other = big_image(5), big_image(6)
        assert len(image) == len(other)
        first.install(LOCATION, image, 1, name="memo")
        second.install(LOCATION, other, 1, name="memo")
        assert second.nvm._primary[KEY] is not first.nvm._primary[KEY]
        clean_record(first, image, 1)
        clean_record(second, other, 1)

    def test_an_equal_image_shares_the_record(self):
        first, second = device(), device()
        image = big_image(7)
        first.install(LOCATION, image, 1, name="memo")
        second.install(LOCATION, bytes(bytearray(image)), 1, name="memo")
        assert second.nvm._primary[KEY] is first.nvm._primary[KEY]
        second.install(LOCATION, image, 2, name="memo")
        clean_record(second, image, 2)
        clean_record(first, image, 1)


class TestSharedFrames:
    """Two devices persist one release: both stores hold one frame
    object, and a fault on one device reaches only that device."""

    def pair(self):
        image = big_image(1)
        neighbour, victim = device(), device()
        neighbour.install(LOCATION, image, 1, name="memo")
        victim.install(LOCATION, image, 1, name="memo")
        shared = neighbour.nvm._primary[KEY]
        assert victim.nvm._primary[KEY] is shared
        return image, neighbour, victim, shared

    def test_bit_flip_stays_on_its_device(self):
        image, neighbour, victim, shared = self.pair()
        assert victim.nvm.bit_flip(KEY)
        assert victim.nvm.read(KEY) is None  # unreplicated: lost
        assert nvm_module._unframe(shared) is not None
        clean_record(neighbour, image, 1)

    @pytest.mark.parametrize("phase", ["shadow", "commit"])
    def test_torn_write_stays_on_its_device(self, phase):
        image, neighbour, victim, _ = self.pair()
        update = big_image(2)
        neighbour.install(LOCATION, update, 2, name="memo")
        shared = neighbour.nvm._primary[KEY]
        victim.nvm.tear_next_write(phase, match=NVM_SLOT_PREFIX)
        with pytest.raises(TornWrite):
            victim.install(LOCATION, update, 2, name="memo")
        assert victim.nvm.torn == 1
        torn = victim.nvm._shadow if phase == "shadow" \
            else victim.nvm._primary
        assert nvm_module._unframe(torn[KEY]) is None
        assert nvm_module._unframe(shared) is not None
        clean_record(neighbour, update, 2)
        # The victim presents the old value or the new one, never junk.
        expected = (image, 1) if phase == "shadow" else (update, 2)
        clean_record(victim, *expected)

    def test_wear_out_stays_on_its_device(self):
        image = big_image(3)
        neighbour, victim = device(), device()
        neighbour.install(LOCATION, image, 1, name="memo")
        shared = neighbour.nvm._primary[KEY]
        victim.nvm.erase_budget = 0
        victim.install(LOCATION, image, 1, name="memo")
        # Both copies of the slot record and of the sequence record.
        assert victim.nvm.worn_writes == 4
        assert victim.nvm.read(KEY) is None  # both regions worn
        assert nvm_module._unframe(shared) is not None
        clean_record(neighbour, image, 1)

    def test_small_records_are_framed_afresh(self):
        storage = device()
        storage.install(LOCATION, big_image(4), 1, name="memo")
        slot_record = nvm_module._FRAME_MEMO
        seq_key = storage_module.NVM_SEQ_PREFIX + LOCATION
        assert storage.nvm.read(seq_key) is not None
        # The sequence record did not evict the slot record's frame.
        assert nvm_module._FRAME_MEMO is slot_record
        assert slot_record[1] is storage.nvm._primary[KEY]


# -- one release per memo ----------------------------------------------------


def release(index: int) -> DeploymentSpec:
    rodata = random.Random(index).randbytes(1024)
    return DeploymentSpec(
        name="memo",
        tenants=("ops",),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images={"app": ImageSpec(
            name="app", text=assemble("mov r0, 7\n    exit").to_bytes(),
            rodata=rodata)},
        attachments=(AttachmentSpec(image="app", hook=FC_HOOK_FANOUT,
                                    tenant="ops", name="worker"),),
    )


@pytest.mark.parametrize("options", [PublishOptions(),
                                     PublishOptions.scale()],
                         ids=["unicast", "multicast"])
def test_each_memo_holds_the_last_release(options):
    IMAGE_CACHE.clear()
    publisher = build_fleet_publisher(devices=3, seed=5)
    for index in range(3):
        result = publisher.publish(release(index), options)
        assert result.ok
    IMAGE_CACHE.clear()
    sequence = result.sequence_number
    devices = publisher.fleet.devices
    fields, encoded, _seq_record = storage_module._RECORD_MEMO
    assert fields[2] == sequence
    payload, frame = nvm_module._FRAME_MEMO
    assert payload is encoded
    assert all(dev.nvm._primary[NVM_SLOT_PREFIX + fields[0]] is frame
               for dev in devices)
    _protected, signed, _signature, key = cose_module._VERIFY_MEMO
    manifest = SuitManifest.from_cbor(signed)
    assert manifest.sequence_number == sequence
    assert key == publisher.trust_anchor
    digested, digest = manifest_module._DIGEST_MEMO
    assert digest == manifest.digest == hashlib.sha256(fields[1]).digest()
    assert digested == fields[1]
