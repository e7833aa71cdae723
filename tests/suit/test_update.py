"""Manifest model, storage slots, and the device-side update worker —
including every threat-model attack (§3 "Install and update time attacks").
"""

from __future__ import annotations

import pytest

from repro.core import FC_HOOK_SCHED, FC_HOOK_TIMER
from repro.net import CoapClient, CoapServer, Interface, Link, UdpStack
from repro.suit import (
    SuitEnvelope,
    SuitManifest,
    SuitUpdateWorker,
    UpdateStatus,
    ed25519,
    payload_digest,
)
from repro.suit.manifest import ManifestError
from repro.suit.storage import StorageRegistry
from repro.vm import assemble
from repro.workloads import thread_counter_program

SEED = bytes(range(32))
PUBLIC = ed25519.public_key(SEED)
ATTACKER_SEED = bytes(range(100, 132))


class TestManifest:
    def make(self, **overrides) -> SuitManifest:
        payload = b"\x95" + bytes(7)
        defaults = dict(
            sequence_number=3,
            storage_location="uuid-here",
            digest=payload_digest(payload),
            size=len(payload),
            uri="/fw/app",
            name="app",
        )
        defaults.update(overrides)
        return SuitManifest(**defaults)

    def test_cbor_roundtrip(self):
        manifest = self.make()
        assert SuitManifest.from_cbor(manifest.to_cbor()) == manifest

    def test_matches_payload(self):
        payload = b"\x95" + bytes(7)
        assert self.make().matches_payload(payload)
        assert not self.make().matches_payload(payload + b"x")
        assert not self.make().matches_payload(b"\x00" * 8)

    def test_bad_version_rejected(self):
        raw = self.make().to_cbor()
        from repro.suit import cbor

        decoded = cbor.decode(raw)
        decoded[1] = 99
        with pytest.raises(ManifestError, match="version"):
            SuitManifest.from_cbor(cbor.encode(decoded))

    def test_missing_key_rejected(self):
        from repro.suit import cbor

        with pytest.raises(ManifestError):
            SuitManifest.from_cbor(cbor.encode({1: 1}))

    def test_envelope_sign_verify(self):
        envelope = SuitEnvelope.create(self.make(), SEED)
        assert envelope.verify(PUBLIC)
        assert envelope.manifest() == self.make()

    def test_envelope_decode_roundtrip(self):
        envelope = SuitEnvelope.create(self.make(), SEED)
        decoded = SuitEnvelope.decode(envelope.encode())
        assert decoded.verify(PUBLIC)


class TestStorage:
    def test_slots_created_on_demand(self):
        registry = StorageRegistry()
        assert not registry.slot("loc").occupied
        assert registry.highest_sequence("loc") == -1

    def test_install_tracks_sequence(self):
        registry = StorageRegistry()
        registry.install("loc", b"img", 5)
        assert registry.slot("loc").occupied
        assert registry.highest_sequence("loc") == 5
        assert registry.ram_bytes == 3


@pytest.fixture
def deployment(kernel, engine):
    """Device + firmware-repo host wired over a link, worker ready."""
    link = Link(kernel, loss=0.0, seed=5)
    dev_if = link.attach(Interface("dev"))
    host_if = link.attach(Interface("host"))
    dev_udp, host_udp = UdpStack(dev_if), UdpStack(host_if)
    repo = CoapServer(kernel, host_udp.socket(5683), threaded=False)
    client = CoapClient(kernel, dev_udp.socket(40000))
    worker = SuitUpdateWorker(engine, client, trust_anchor=PUBLIC,
                              repo_addr="host")
    return kernel, engine, repo, worker


def deploy(kernel, repo, worker, payload: bytes, manifest: SuitManifest,
           seed: bytes = SEED):
    repo.register_blob(manifest.uri, lambda: payload)
    worker.trigger(SuitEnvelope.create(manifest, seed).encode())
    kernel.run(until_us=120_000_000)
    return worker.results[-1]


def manifest_for(engine, payload: bytes, seq: int = 1,
                 hook: str = FC_HOOK_TIMER, uri: str = "/fw/app",
                 name: str = "app") -> SuitManifest:
    return SuitManifest(
        sequence_number=seq,
        storage_location=str(engine.hook(hook).uuid),
        digest=payload_digest(payload),
        size=len(payload),
        uri=uri,
        name=name,
    )


class TestWorker:
    def test_successful_update_attaches(self, deployment):
        kernel, engine, repo, worker = deployment
        payload = thread_counter_program().to_bytes()
        result = deploy(kernel, repo, worker, payload,
                        manifest_for(engine, payload, hook=FC_HOOK_SCHED))
        assert result.ok, result.message
        assert engine.hook(FC_HOOK_SCHED).occupied
        assert worker.storage.slot(
            str(engine.hook(FC_HOOK_SCHED).uuid)).sequence_number == 1

    def test_update_replaces_previous_version(self, deployment):
        kernel, engine, repo, worker = deployment
        v1 = assemble("mov r0, 1\n    exit").to_bytes()
        v2 = assemble("mov r0, 2\n    exit").to_bytes()
        assert deploy(kernel, repo, worker, v1,
                      manifest_for(engine, v1, seq=1, uri="/fw/v1")).ok
        assert deploy(kernel, repo, worker, v2,
                      manifest_for(engine, v2, seq=2, uri="/fw/v2")).ok
        container = engine.hook(FC_HOOK_TIMER).containers[0]
        assert engine.execute(container).value == 2

    def test_history_does_not_keep_replaced_containers(self, deployment):
        import gc

        kernel, engine, repo, worker = deployment
        v1 = assemble("mov r0, 1\n    exit").to_bytes()
        v2 = assemble("mov r0, 2\n    exit").to_bytes()
        assert deploy(kernel, repo, worker, v1,
                      manifest_for(engine, v1, seq=1, uri="/fw/v1")).ok
        first = worker.results[-1]
        assert first.container is engine.hook(FC_HOOK_TIMER).containers[0]
        assert deploy(kernel, repo, worker, v2,
                      manifest_for(engine, v2, seq=2, uri="/fw/v2")).ok
        kernel.run_until_idle()  # the replaced worker thread exits
        gc.collect()
        assert first.container is None
        assert worker.results[-1].container \
            is engine.hook(FC_HOOK_TIMER).containers[0]

    def test_forged_signature_rejected(self, deployment):
        kernel, engine, repo, worker = deployment
        payload = assemble("mov r0, 1\n    exit").to_bytes()
        result = deploy(kernel, repo, worker, payload,
                        manifest_for(engine, payload), seed=ATTACKER_SEED)
        assert result.status is UpdateStatus.SIGNATURE_INVALID
        assert not engine.hook(FC_HOOK_TIMER).occupied

    def test_sequence_replay_rejected(self, deployment):
        kernel, engine, repo, worker = deployment
        payload = assemble("mov r0, 1\n    exit").to_bytes()
        manifest = manifest_for(engine, payload)
        assert deploy(kernel, repo, worker, payload, manifest).ok
        result = deploy(kernel, repo, worker, payload, manifest)
        assert result.status is UpdateStatus.SEQUENCE_REPLAY

    def test_payload_swap_detected_by_digest(self, deployment):
        """Man-in-the-middle swaps the payload on the repo after signing."""
        kernel, engine, repo, worker = deployment
        good = assemble("mov r0, 1\n    exit").to_bytes()
        evil = assemble("mov r0, 666\n    exit").to_bytes()
        manifest = manifest_for(engine, good)
        repo.register_blob(manifest.uri, lambda: evil)  # the swap
        worker.trigger(SuitEnvelope.create(manifest, SEED).encode())
        kernel.run(until_us=120_000_000)
        assert worker.results[-1].status is UpdateStatus.DIGEST_MISMATCH
        assert not engine.hook(FC_HOOK_TIMER).occupied

    def test_unknown_storage_location_rejected(self, deployment):
        kernel, engine, repo, worker = deployment
        payload = assemble("mov r0, 1\n    exit").to_bytes()
        manifest = SuitManifest(
            sequence_number=1,
            storage_location="11111111-2222-3333-4444-555555555555",
            digest=payload_digest(payload), size=len(payload), uri="/fw/app",
        )
        result = deploy(kernel, repo, worker, payload, manifest)
        assert result.status is UpdateStatus.UNKNOWN_HOOK

    def test_malformed_envelope_rejected(self, deployment):
        kernel, _engine, _repo, worker = deployment
        worker.trigger(b"\x00garbage")
        kernel.run(until_us=1_000_000)
        assert worker.results[-1].status is UpdateStatus.MALFORMED

    def test_unverifiable_bytecode_rejected_preflight(self, deployment):
        """Signed, authentic, but fails the pre-flight check: REJECTED."""
        kernel, engine, repo, worker = deployment
        payload = b"\xff" * 16  # invalid opcodes
        result = deploy(kernel, repo, worker, payload,
                        manifest_for(engine, payload))
        assert result.status is UpdateStatus.REJECTED
        assert not engine.hook(FC_HOOK_TIMER).occupied

    def test_fetch_failure_reported(self, deployment):
        kernel, engine, _repo, worker = deployment
        payload = assemble("mov r0, 1\n    exit").to_bytes()
        manifest = manifest_for(engine, payload, uri="/fw/not-served")
        worker.trigger(SuitEnvelope.create(manifest, SEED).encode())
        kernel.run(until_us=400_000_000)
        assert worker.results[-1].status is UpdateStatus.FETCH_FAILED

    def test_update_survives_lossy_link(self, kernel, engine):
        link = Link(kernel, loss=0.25, seed=11)
        dev_if = link.attach(Interface("dev"))
        host_if = link.attach(Interface("host"))
        dev_udp, host_udp = UdpStack(dev_if), UdpStack(host_if)
        repo = CoapServer(kernel, host_udp.socket(5683), threaded=False)
        client = CoapClient(kernel, dev_udp.socket(40000))
        worker = SuitUpdateWorker(engine, client, trust_anchor=PUBLIC,
                                  repo_addr="host")
        payload = thread_counter_program().to_bytes()
        result = deploy(kernel, repo, worker, payload,
                        manifest_for(engine, payload))
        assert result.ok, result.message
