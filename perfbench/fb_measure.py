"""Host-speed reference kernel and the statistics the benchmark reports.

Wall time on a shared host drifts between runs, so every timing is also
reported *normalised*: scaled by ``reference kernel time / kernel time
measured now``.  The kernel is fixed pure-Python work that imports no
repository code — a bytecode dispatch loop, object construction and
method calls, dict, generator, closure and byte-buffer traffic, the
same interpreter paths the simulator spends its time in — so a host
that runs it slower right now runs the workload slower too, and the
ratio cancels most of that.

Changing :func:`kernel_once` changes what "normalised" means; the
reference time in ``reference.json`` must be re-recorded with it.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import struct
import sys
import time

_PROGRAM = (
    # (opcode, operand): a checksum loop over a 64-entry table.
    ("load", 0), ("add", 1), ("mix", 7), ("store", 0),
    ("load", 1), ("add", 3), ("mix", 13), ("store", 1),
    ("step", 1), ("loop", 0),
)


class _Record:
    """A plain attribute-bag object, like the simulator's value types."""

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value
        self.tags = [key & 7, value & 15]

    def score(self, salt: int) -> int:
        return (self.value * 31 + self.key + salt) & 0xFFFF


def _dispatch() -> int:
    """A bytecode dispatch loop over registers and a lookup table."""
    table = [(index * 2654435761) & 0xFFFF for index in range(64)]
    regs = [0, 0]
    acc = 0
    pc = 0
    index = 0
    program = _PROGRAM
    size = len(program)
    while index < 320:
        opcode, operand = program[pc]
        if opcode == "load":
            acc = regs[operand]
        elif opcode == "add":
            acc = (acc + table[(index + operand) & 63]) & 0xFFFFFFFF
        elif opcode == "mix":
            acc = ((acc << operand) | (acc >> (32 - operand))) & 0xFFFFFFFF
        elif opcode == "store":
            regs[operand] = acc
        elif opcode == "step":
            index += operand
        pc += 1
        if pc == size:
            pc = 0
    return regs[0] ^ regs[1]


def _objects() -> int:
    """Object construction, method calls, a string-keyed dict, sorting
    and formatting."""
    records = [_Record(key, (key * 2654435761) & 0xFFFFF)
               for key in range(400)]
    index = {f"k{record.key}": record for record in records}
    total = 0
    for salt in range(3):
        for record in index.values():
            total += record.score(salt) + record.tags[salt & 1]
    ranked = sorted(((record.score(total & 7), record.key)
                     for record in records), reverse=True)
    blob = b"".join(struct.pack("<HI", score, key)
                    for score, key in ranked[:200])
    text = ",".join(f"{key}:{score}" for score, key in ranked[:100])
    return total ^ len(blob) ^ len(text)


def _counting(limit: int):
    for value in range(limit):
        yield value * 3


def _buffers() -> int:
    """A larger dict working set, a generator, exception handlers,
    closures and bytearray slicing."""
    table = {key: [key, key * 2, str(key)] for key in range(1500)}
    acc = 0
    for value in _counting(1500):
        row = table.get(value % 1500)
        try:
            acc += row[0] + len(row[2])
        except TypeError:
            acc -= 1

    def scaler(factor: int):
        return lambda operand: (factor * operand) & 0xFFFF

    acc += sum(scaler(factor)(acc & 0xFF) for factor in range(200))
    data = bytearray(4096)
    for offset in range(0, 4096, 16):
        data[offset:offset + 4] = struct.pack("<I", (acc + offset)
                                              & 0xFFFFFFFF)
    return acc ^ sum(data[::64])


def kernel_once() -> int:
    """One fixed unit of pure-Python work (3 ms on the reference host)."""
    return (_dispatch() ^ _objects() ^ _buffers()) & 0xFFFFFFFF


#: Result of :func:`kernel_once`; a mismatch means the kernel changed.
KERNEL_CHECK = kernel_once()


def kernel_block(calls: int = 1) -> float:
    """Median seconds of ``calls`` kernel runs (one speed sample)."""
    samples = []
    enabled = gc.isenabled()
    # The kernel's garbage is freed by reference counting; a collection
    # triggered inside it would time the workload's heap, not the host.
    gc.disable()
    try:
        for _ in range(calls):
            start = time.perf_counter()
            value = kernel_once()
            samples.append(time.perf_counter() - start)
            if value != KERNEL_CHECK:
                raise RuntimeError("host-speed kernel is not deterministic")
    finally:
        if enabled:
            gc.enable()
    return statistics.median(samples)


class SpeedTrack:
    """Kernel samples taken between timed blocks, and the scale factor
    each block's timings get from the samples around it."""

    def __init__(self, reference_s: float, calls: int = 1) -> None:
        self.reference_s = reference_s
        self.calls = calls
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(kernel_block(self.calls))

    def factor(self, block: int) -> float:
        """Scale for the block timed between samples ``block`` and
        ``block + 1``.  Only those two: the host's speed moves within a
        second, and wider windows tracked it worse in every workload."""
        pair = self.samples[block:block + 2]
        return self.reference_s / statistics.fmean(pair)

    def run_factor(self) -> float:
        """Scale for timings taken outside the blocks (set-up)."""
        return self.reference_s / statistics.median(self.samples)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, pct: float) -> int:
    """Samples strictly above the nearest-rank ``pct`` percentile."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)
