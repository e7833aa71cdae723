"""gcoap edge cases: dedup bounds, NON requests, malformed input, and
byte-identical CON retransmissions."""

from __future__ import annotations

from dataclasses import astuple

import pytest

from repro.deploy import PublishOptions, fanout_spec
from repro.net import CoapMessage, CoapServer, Interface, Link, UdpStack, coap
from repro.net.gcoap import CoapClient
from repro.scenarios import build_fleet_publisher
from repro.vm.imagecache import IMAGE_CACHE


@pytest.fixture
def rig(kernel):
    link = Link(kernel, loss=0.0, seed=1)
    a = link.attach(Interface("a"))
    b = link.attach(Interface("b"))
    sa, sb = UdpStack(a), UdpStack(b)
    server = CoapServer(kernel, sb.socket(5683), threaded=False)
    server.register("/echo", lambda req, dg: req.reply(coap.CONTENT,
                                                       req.payload))
    return kernel, sa, server


class TestServerEdgeCases:
    def test_non_requests_are_answered_but_not_cached(self, rig):
        kernel, sa, server = rig
        hits = []
        server.register("/count", lambda req, dg: (
            hits.append(1), req.reply(coap.CONTENT, bytes([len(hits)]))
        )[1])
        sock = sa.socket(40000)
        replies = []
        sock.on_datagram = lambda dg: replies.append(dg.payload)
        request = CoapMessage(mtype=coap.NON, code=coap.GET, message_id=9,
                              token=b"\x01")
        request.add_uri_path("/count")
        sock.send_to("b", 5683, request.encode())
        kernel.run_until_idle()
        sock.send_to("b", 5683, request.encode())
        kernel.run_until_idle()
        # NON has no exchange cache: the handler runs twice.
        assert len(hits) == 2

    def test_dedup_cache_bounded(self, rig):
        kernel, sa, server = rig
        sock = sa.socket(40000)
        for mid in range(80):
            request = CoapMessage(mtype=coap.CON, code=coap.GET,
                                  message_id=mid, token=bytes([mid & 0xFF]))
            request.add_uri_path("/echo")
            sock.send_to("b", 5683, request.encode())
            kernel.run_until_idle()
        assert len(server._dedup) <= 64

    def test_malformed_datagram_ignored(self, rig):
        kernel, sa, server = rig
        sock = sa.socket(40000)
        sock.send_to("b", 5683, b"\xff\xff")
        kernel.run_until_idle()  # must not raise

    def test_ack_and_rst_ignored_by_server(self, rig):
        kernel, sa, server = rig
        sock = sa.socket(40000)
        replies = []
        sock.on_datagram = lambda dg: replies.append(dg.payload)
        for mtype in (coap.ACK, coap.RST):
            message = CoapMessage(mtype=mtype, code=coap.GET, message_id=3)
            message.add_uri_path("/echo")
            sock.send_to("b", 5683, message.encode())
        kernel.run_until_idle()
        assert replies == []

    def test_resource_request_counter(self, rig):
        kernel, sa, server = rig
        resource = server.resources["/echo"]
        sock = sa.socket(40000)
        request = CoapMessage(mtype=coap.CON, code=coap.GET, message_id=1,
                              token=b"\x02")
        request.add_uri_path("/echo")
        sock.send_to("b", 5683, request.encode())
        kernel.run_until_idle()
        assert resource.requests == 1

    def test_trailing_slash_normalized_on_register(self, kernel):
        link = Link(kernel)
        iface = link.attach(Interface("x"))
        server = CoapServer(kernel, UdpStack(iface).socket(5683),
                            threaded=False)
        server.register("/a/b/", lambda req, dg: req.reply(coap.CONTENT))
        assert "/a/b" in server.resources


def lossy_publish_log(monkeypatch) -> tuple[list, list, int]:
    """Per-frame log and LinkStats of a seeded 5 %-loss unicast publish.

    Each log row is (sender, destination, datagram bytes, the sender's
    virtual time); the stats are the link's and every radio's.
    """
    IMAGE_CACHE.clear()
    publisher = build_fleet_publisher(devices=4, loss=0.05, seed=3)
    clocks = {device.radio.addr: device.kernel
              for device in publisher.fleet.devices}
    frames = []
    transmit = Link.transmit

    def logged(link, src, dst_addr, payload):
        kernel = clocks.get(src.addr, publisher.kernel)
        frames.append((src.addr, dst_addr, bytes(payload), kernel.now_us))
        return transmit(link, src, dst_addr, payload)

    encodes = []
    encode = CoapMessage.encode

    def counted(message):
        encodes.append(message)
        return encode(message)

    with monkeypatch.context() as patch:
        patch.setattr(Link, "transmit", logged)
        patch.setattr(CoapMessage, "encode", counted)
        result = publisher.publish(fanout_spec(), PublishOptions())
    IMAGE_CACHE.clear()
    assert result.ok
    stats = [astuple(publisher.link.stats)] + [
        astuple(device.radio.iface.stats)
        for device in publisher.fleet.devices]
    return frames, stats, len(encodes)


class TestRetransmission:
    """RFC 7252 §4.2: a retransmission resends the identical datagram,
    so the client encodes each CON request once."""

    def test_lossy_publish_is_byte_identical_to_reencoding(self,
                                                           monkeypatch):
        frames, stats, encodes = lossy_publish_log(monkeypatch)
        transmit = CoapClient._transmit

        def reencoding(client, pending):
            pending.raw = pending.message.encode()
            return transmit(client, pending)

        with monkeypatch.context() as patch:
            patch.setattr(CoapClient, "_transmit", reencoding)
            old_frames, old_stats, old_encodes = \
                lossy_publish_log(monkeypatch)
        assert stats[0][1] > 0  # frames were dropped ...
        assert len({row[:3] for row in frames}) < len(frames)  # ... resent
        assert frames == old_frames
        assert stats == old_stats
        assert encodes < old_encodes
