"""Link-layer edge cases: fragmentation loss semantics, airtime, accounting."""

from __future__ import annotations

import random

import pytest

from repro.net import Interface, Link, UdpStack
from repro.net.link import FRAME_PAYLOAD


@pytest.fixture
def wire(kernel):
    link = Link(kernel, loss=0.0, seed=1)
    a = link.attach(Interface("a"))
    b = link.attach(Interface("b"))
    return link, UdpStack(a), UdpStack(b)


class TestFragmentation:
    def test_single_frame_below_mtu(self, kernel, wire):
        link, sa, sb = wire
        sb.socket(1)
        sa.socket(2).send_to("b", 1, bytes(FRAME_PAYLOAD - 10))
        kernel.run_until_idle()
        assert link.stats.frames_sent == 1

    def test_fragment_count_scales(self, kernel, wire):
        link, sa, sb = wire
        sb.socket(1)
        sa.socket(2).send_to("b", 1, bytes(FRAME_PAYLOAD * 3))
        kernel.run_until_idle()
        assert link.stats.frames_sent == 4  # 3 full + UDP header spill

    def test_airtime_grows_with_size(self, kernel, wire):
        link, sa, sb = wire
        arrivals = []
        sb.socket(1).on_datagram = lambda dg: arrivals.append(kernel.now_us)
        sa.socket(2).send_to("b", 1, bytes(10))
        kernel.run_until_idle()
        small = arrivals[-1]
        sa.socket(3).send_to("b", 1, bytes(400))
        kernel.run_until_idle()
        large = arrivals[-1] - small
        assert large > small

    def test_any_fragment_loss_kills_the_datagram(self, kernel):
        """Link-layer reassembly has no ARQ: with loss high enough that a
        multi-fragment datagram nearly always loses one frame, almost
        nothing is delivered while single-frame datagrams mostly survive."""
        link = Link(kernel, loss=0.45, seed=13)
        a = link.attach(Interface("a"))
        b = link.attach(Interface("b"))
        sa, sb = UdpStack(a), UdpStack(b)
        got_small, got_big = [], []
        sb.socket(1).on_datagram = lambda dg: got_small.append(1)
        sb.socket(2).on_datagram = lambda dg: got_big.append(1)
        sender_small = sa.socket(3)
        sender_big = sa.socket(4)
        for _ in range(40):
            sender_small.send_to("b", 1, bytes(10))       # 1 fragment
            sender_big.send_to("b", 2, bytes(600))        # 7 fragments
        kernel.run_until_idle()
        assert len(got_small) > len(got_big)
        assert len(got_small) >= 10

    def test_stats_account_bytes(self, kernel, wire):
        link, sa, sb = wire
        sb.socket(1)
        sa.socket(2).send_to("b", 1, bytes(100))
        kernel.run_until_idle()
        assert link.stats.bytes_sent == 104  # payload + UDP header
        assert link.stats.datagrams_delivered == 1


class TestPerInterfaceStats:
    """Each endpoint carries its own traffic counters — the radio-energy
    model charges a *device* for what its own radio did, not a share of
    the whole broadcast domain."""

    def test_sender_and_receiver_count_their_own_sides(self, kernel, wire):
        link, sa, sb = wire
        sb.socket(1)
        sa.socket(2).send_to("b", 1, bytes(50))
        kernel.run_until_idle()
        tx, rx = link.interface("a").stats, link.interface("b").stats
        assert tx.frames_sent == 1
        assert tx.bytes_sent > 50  # payload + UDP header
        assert tx.bytes_received == 0
        assert rx.frames_sent == 0
        assert rx.datagrams_delivered == 1
        assert rx.bytes_received == tx.bytes_sent

    def test_lost_frames_still_charged_to_the_sender(self, kernel):
        link = Link(kernel, loss=0.999, seed=3)
        a = link.attach(Interface("a"))
        link.attach(Interface("b"))
        sa = UdpStack(a)
        sender = sa.socket(2)
        for _ in range(5):
            sender.send_to("b", 1, bytes(10))
        kernel.run_until_idle()
        stats = link.interface("a").stats
        assert stats.frames_sent == 5  # airtime spent whether heard or not
        assert stats.frames_dropped == 5
        assert link.interface("b").stats.bytes_received == 0

    def test_detached_radio_receives_nothing(self, kernel, wire):
        """A frame in flight when the destination powers off lands on the
        dead radio — neither delivered nor counted for the reborn one."""
        link, sa, sb = wire
        sb.socket(1)
        dead = link.interface("b")
        sa.socket(2).send_to("b", 1, bytes(20))
        link.detach("b")  # power-fail while the frame is in the air
        reborn = link.attach(Interface("b"))
        UdpStack(reborn).socket(1)
        kernel.run_until_idle()
        assert dead.stats.datagrams_delivered == 0
        assert reborn.stats.datagrams_delivered == 0
        assert link.stats.datagrams_delivered == 0


class TestLosslessDice:
    """A lossless link skips its loss rolls in one call, but must leave
    the seeded stream exactly where per-fragment rolls would."""

    MEMBERS = 6
    PAYLOAD = bytes(FRAME_PAYLOAD * 3 + 5)  # 4 fragments

    def _group(self, kernel, seed):
        link = Link(kernel, loss=0.0, seed=seed)
        src = link.attach(Interface("src"))
        heard: list[str] = []
        for index in range(self.MEMBERS):
            member = link.attach(Interface(f"m{index}"))
            member.receive = (
                lambda data, src_addr, name=member.addr: heard.append(name))
            link.join("ff02::fc", member)
        link.join("ff02::fc", src)  # the sender never hears itself
        return link, src, heard

    def test_lossless_then_lossy_matches_per_draw_reference(self, kernel):
        link, src, heard = self._group(kernel, seed=29)
        reference = random.Random(29)
        fragments = -(-len(self.PAYLOAD) // FRAME_PAYLOAD)

        link.transmit(src, "ff02::fc", self.PAYLOAD)
        for _ in range(self.MEMBERS * fragments):
            reference.random()
        assert link._rng.getstate() == reference.getstate()
        link.transmit(src, "src", self.PAYLOAD)  # lossless unicast
        for _ in range(fragments):
            reference.random()
        assert link._rng.getstate() == reference.getstate()
        kernel.run_until_idle()
        assert heard == [f"m{index}" for index in range(self.MEMBERS)]

        link.loss = 0.2
        heard.clear()
        link.transmit(src, "ff02::fc", self.PAYLOAD)
        kernel.run_until_idle()
        expected = [
            f"m{index}" for index in range(self.MEMBERS)
            if not any(reference.random() < 0.2 for _ in range(fragments))
        ]
        assert heard == expected
        assert 0 < len(expected) < self.MEMBERS  # the seed exercises both
        assert link.stats.frames_dropped == self.MEMBERS - len(expected)
