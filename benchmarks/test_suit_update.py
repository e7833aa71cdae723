"""§5 validation experiment — end-to-end SUIT update latency and security.

No paper table gives absolute numbers here; the experiment validates the
whole deployment pipeline (manifest signing, CoAP trigger, block-wise
fetch over a lossy 802.15.4-class link, digest/signature/rollback checks,
pre-flight verification, hot attach) and reports where the time goes.
"""

from __future__ import annotations

from bench_record import record

from repro.analysis import format_table
from repro.core import FC_HOOK_SCHED, HostingEngine
from repro.net import CoapClient, CoapServer, Interface, Link, UdpStack
from repro.rtos import Kernel, nrf52840
from repro.suit import (
    SuitEnvelope,
    SuitManifest,
    SuitUpdateWorker,
    UpdateStatus,
    ed25519,
    payload_digest,
)
from repro.workloads import thread_counter_program

SEED = bytes(range(32))


def run_update(loss: float):
    kernel = Kernel(nrf52840())
    engine = HostingEngine(kernel)
    link = Link(kernel, loss=loss, seed=21)
    device_if = link.attach(Interface("dev"))
    host_if = link.attach(Interface("host"))
    device_udp, host_udp = UdpStack(device_if), UdpStack(host_if)
    repo = CoapServer(kernel, host_udp.socket(5683), threaded=False)
    client = CoapClient(kernel, device_udp.socket(40000))
    worker = SuitUpdateWorker(engine, client,
                              trust_anchor=ed25519.public_key(SEED),
                              repo_addr="host")
    payload = thread_counter_program().to_bytes()
    manifest = SuitManifest(
        sequence_number=1,
        storage_location=str(engine.hook(FC_HOOK_SCHED).uuid),
        digest=payload_digest(payload),
        size=len(payload),
        uri="/fw/tc",
        name="thread-counter",
    )
    repo.register_blob("/fw/tc", lambda: payload)
    worker.trigger(SuitEnvelope.create(manifest, SEED).encode())
    kernel.run(until_us=600_000_000)
    result = worker.results[-1]
    return result, len(payload), link.stats


def test_suit_update_end_to_end(benchmark):
    result, payload_bytes, stats = benchmark(run_update, 0.0)
    lossy_result, _bytes, lossy_stats = run_update(0.20)

    rows = [
        ["payload", f"{payload_bytes} B", ""],
        ["clean link: status", result.status.value, ""],
        ["clean link: latency", f"{result.duration_us / 1000:.1f} ms",
         "(dominated by the ed25519 verify, ~91 ms at 64 MHz)"],
        ["clean link: frames", stats.frames_sent, ""],
        ["20% loss: status", lossy_result.status.value, ""],
        ["20% loss: latency", f"{lossy_result.duration_us / 1000:.1f} ms",
         "(CoAP retransmissions recover)"],
        ["20% loss: frames", lossy_stats.frames_sent, ""],
    ]
    record("suit_update", format_table(
        ["Quantity", "value", "note"], rows,
        title="SUIT end-to-end update (validation experiment)",
    ))

    assert result.status is UpdateStatus.OK
    assert lossy_result.status is UpdateStatus.OK
    assert lossy_stats.frames_sent > stats.frames_sent  # retransmissions
    assert result.duration_us < lossy_result.duration_us
