"""Fig 9 — Execution duration of the three example applications on the
three platforms.

Paper: fletcher32 1.3-2.2 ms; thread-counter 10-27 us (Cortex-M4 the
slowest at ~27 us); CoAP response formatter 23-72 us.
"""

from __future__ import annotations

import struct

from bench_record import record

from repro.analysis import bar_chart
from repro.core import CoapResponseContext, FC_HOOK_COAP, FC_HOOK_SCHED, FC_HOOK_TIMER, HostingEngine
from repro.rtos import Kernel, all_boards
from repro.vm.memory import Permission
from repro.workloads import (
    FLETCHER32_INPUT,
    coap_handler_program,
    fletcher32_program,
    thread_counter_program,
)
from repro.workloads.fletcher32 import INPUT_BASE, make_context


def run_fletcher(board) -> float:
    kernel = Kernel(board)
    engine = HostingEngine(kernel)
    container = engine.load(fletcher32_program())
    engine.attach(container, FC_HOOK_TIMER)
    container.vm.access_list.grant_bytes(
        "input", INPUT_BASE, FLETCHER32_INPUT, Permission.READ)
    run = engine.execute(container, make_context())
    assert run.ok
    return run.duration_us


def run_thread_counter(board) -> float:
    kernel = Kernel(board)
    engine = HostingEngine(kernel)
    container = engine.load(thread_counter_program())
    engine.attach(container, FC_HOOK_SCHED)
    run = engine.execute(container, struct.pack("<QQ", 1, 2))
    assert run.ok
    return run.duration_us


def run_coap_formatter(board) -> float:
    kernel = Kernel(board)
    engine = HostingEngine(kernel)
    tenant = engine.create_tenant("A")
    tenant.store.store(0x10, 2150)
    container = engine.load(coap_handler_program(), tenant=tenant)
    engine.attach(container, FC_HOOK_COAP)
    run = engine.execute(container, struct.pack("<Q", 1),
                         pdu=CoapResponseContext())
    assert run.ok
    return run.duration_us


def collect():
    boards = all_boards()
    labels = [board.name for board in boards]
    return labels, {
        "fletcher32": [run_fletcher(b) for b in boards],
        "thread-counter": [run_thread_counter(b) for b in boards],
        "coap-formatter": [run_coap_formatter(b) for b in boards],
    }


def test_fig9_applications(benchmark):
    labels, series = benchmark(collect)

    record("fig9_applications", bar_chart(
        "Fig 9: execution duration of the example applications (us)\n"
        "paper bands: fletcher32 1300-2200 us | thread-counter 10-27 us | "
        "coap-formatter 23-72 us",
        labels, series, unit="us",
    ))

    fletcher = series["fletcher32"]
    counter = series["thread-counter"]
    formatter = series["coap-formatter"]

    # fletcher32: millisecond-scale, Cortex-M4 slowest; the absolute band is
    # ~25 % below the paper's (documented calibration trade-off vs Table 4).
    assert all(800 <= v <= 2300 for v in fletcher)
    assert fletcher[0] == max(fletcher)
    assert 1300 <= fletcher[0] <= 2300  # M4 lands inside the paper band

    # thread-counter: 10-27 us band, Cortex-M4 slowest, RISC-V fastest.
    assert all(8 <= v <= 30 for v in counter)
    assert counter[0] == max(counter)
    assert counter[2] == min(counter)

    # CoAP formatter: 23-72 us band, same platform ordering.
    assert all(20 <= v <= 75 for v in formatter)
    assert formatter[0] == max(formatter)
    assert formatter[2] == min(formatter)
