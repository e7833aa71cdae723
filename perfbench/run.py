#!/usr/bin/env python3
"""Repository benchmark: hook fires, OTA publishes and a 1,000-device
fleet publish, timed end to end and, in a separate traced run, per layer.

Run from the repository root::

    python3 perfbench/run.py --workload hook_fire_jit --seed 1 \\
        --seconds 10 --trace 0

Each invocation runs one workload in this (fresh) process: set-up
(repeated, median reported as ``setup_s``), an untimed warm-up, then
closed-loop operations for ``--seconds``.  Host-speed samples of a fixed
pure-Python kernel are taken between blocks of operations, and every
timing is scaled by ``reference kernel time / local kernel time``: the
reported end-to-end numbers are *normalised* host time (what the
operation would take on the host the reference was recorded on), with
the raw figures printed beside them.

``--trace 1`` alternates untraced and traced blocks and reports the
per-layer table instead (calls, self time and share of traced wall per
layer boundary, ``other`` and ``trace_overhead``).

Every operation's output is checked; a failed check is counted in
``failed``.  Human-readable lines come first, and the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--smoke`` shrinks the fleet to 24 devices for quick self-tests, and
``--expect-fletcher`` overrides the expected fletcher32 checksum (a
wrong value must show up as failed operations).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from array import array
from pathlib import Path

import fb_measure  # no repository code: importable before the path check

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
DEFAULT_SEED = 1

#: End-to-end metrics, in ``BENCHMARK.json`` order, with their units.
END_TO_END = {
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: What each workload's generic metrics are called in the report.
REPORT_NAMES = {
    "hook_fire_jit": ("jit_fire", "us", "fires"),
    "hook_fire_interp": ("interp_fire", "us", "fires"),
    "ota_install": ("ota_install", "ms", "devices"),
    "ota_noop": ("ota_noop", "ms", "devices"),
    "ota_replay": ("ota_replay", "ms", "devices"),
    "fleet_publish": ("fleet_publish", "ms", "fleet_devices"),
}


class Timer:
    """Times exactly the public call it is handed; optionally traced.

    ``function`` takes no arguments and looks the public entry point up
    itself, so a traced call reaches the wrapper installed just before
    it.  A traced timer installs the tracer's wrappers around each call
    and also banks the change of the rig's own counters (image cache,
    link) across the call.
    """

    def __init__(self, tracer=None, probe=None):
        self.tracer = tracer
        self.traced = tracer is not None
        self.probe = probe
        self.times = array("d")
        self.deltas: dict[str, float] = {}

    def __call__(self, function):
        tracer = self.tracer
        if tracer is None:
            start = time.perf_counter_ns()
            result = function()
            self.times.append((time.perf_counter_ns() - start) / 1e9)
            return result
        before = self.probe()
        tracer.install()
        start = time.perf_counter_ns()
        try:
            result = function()
        finally:
            elapsed = time.perf_counter_ns() - start
            tracer.uninstall()
        tracer.wall_ns += elapsed
        tracer.ops += 1
        for key, value in self.probe().items():
            self.deltas[key] = self.deltas.get(key, 0) + value - before[key]
        self.times.append(elapsed / 1e9)
        return result


def _probe_for(workload):
    """Counters the program keeps itself, read around traced calls."""
    from repro.vm.imagecache import IMAGE_CACHE

    def probe() -> dict[str, float]:
        values = {"cache_hits": IMAGE_CACHE.hits,
                  "cache_misses": IMAGE_CACHE.misses}
        # Looked up per call: publish workloads swap in fresh rigs.
        rig = workload.rig
        link = getattr(rig, "link", None)
        if link is None and hasattr(rig, "publisher"):
            link = rig.publisher.link
        stats = link.stats if link is not None else None
        for field in ("frames_sent", "frames_dropped", "bytes_sent"):
            values[field] = getattr(stats, field, 0)
        return values

    return probe


def _setup(workload, factor_track) -> list[tuple[float, float]]:
    """Build the rig ``workload.setups`` times; (raw, normalised) s."""
    results = []
    factor_track.sample()
    for index in range(workload.setups):
        workload.rig = None
        gc.collect()
        start = time.perf_counter()
        workload.build()
        raw = time.perf_counter() - start
        factor_track.sample()
        results.append((raw, index))
    return [(raw, raw * factor_track.factor(index))
            for raw, index in results]


def _timed(workload, seconds: float, track, tracer=None):
    """Closed-loop blocks for ``seconds``.  Returns the raw and the
    normalised op times of the untraced blocks, the traced blocks'
    counter deltas, and the peak RSS (read before the results are
    post-processed, so it does not count the benchmark's own lists)."""
    blocks: list[array] = []
    block_index: list[int] = []
    deltas: dict[str, float] = {}
    probe = _probe_for(workload) if tracer is not None else None
    track.sample()
    deadline = time.perf_counter() + seconds
    block = 0
    while True:
        traced = tracer is not None and block % 2 == 1
        timer = Timer(tracer if traced else None, probe)
        if not workload.gc_per_op:
            gc.collect()
        for _ in range(workload.block_ops):
            workload.before_op()
            if workload.gc_per_op:
                gc.collect()
            workload.run_op(timer)
        track.sample()
        if traced:
            for key, value in timer.deltas.items():
                deltas[key] = deltas.get(key, 0) + value
        else:
            blocks.append(timer.times)
            block_index.append(block)
        block += 1
        if time.perf_counter() >= deadline and (
                tracer is None or block >= 2):
            break
    peak_rss = fb_measure.peak_rss_mb()
    normalised = [t * track.factor(index)
                  for times, index in zip(blocks, block_index)
                  for t in times]
    raw = [t for times in blocks for t in times]
    return raw, normalised, deltas, peak_rss


def _reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--expect-fletcher", type=lambda s: int(s, 0),
                        default=None)
    args = parser.parse_args(argv)

    source = HERE.parent / "src"
    if not (source / "repro").is_dir():
        print(f"error: no repro sources under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(HERE))

    import fb_trace
    import fb_workloads

    if args.workload not in fb_workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(fb_workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    reference = _reference()
    kwargs = {"smoke": args.smoke}
    if args.expect_fletcher is not None:
        kwargs["fletcher_expected"] = args.expect_fletcher
    workload = fb_workloads.WORKLOADS[args.workload](args.seed, **kwargs)
    reference_s = reference["kernel_s"]

    setups = _setup(workload, fb_measure.SpeedTrack(
        reference_s, workload.speed_calls))
    for _ in range(workload.warmup_ops):
        workload.run_op(fb_workloads.UNTIMED)
    cycles = workload.modelled_cycles()
    key = args.workload + workload.reference_suffix
    expected_cycles = reference["modelled_cycles"].get(key)
    cycles_checked = args.seed == DEFAULT_SEED and expected_cycles is not None
    if cycles_checked:
        workload.check(cycles == expected_cycles,
                       f"modelled_cycles {cycles} != reference "
                       f"{expected_cycles}")

    track = fb_measure.SpeedTrack(reference_s, workload.speed_calls)
    tracer = fb_trace.Tracer() if args.trace else None
    raw, normalised, deltas, peak_rss = _timed(workload, args.seconds,
                                               track, tracer)
    workload.finish()

    trigger_bytes = None
    if isinstance(workload, fb_workloads.FleetPublish):
        expected_bytes = reference["trigger_bytes_per_device"].get(key)
        trigger_bytes = max(workload.trigger_bytes)
        workload.check(
            len(workload.trigger_bytes) == 1
            and (expected_bytes is None or trigger_bytes == expected_bytes),
            f"trigger bytes/device {sorted(workload.trigger_bytes)} != "
            f"reference {expected_bytes}")

    label, unit, work = REPORT_NAMES[args.workload]
    scale = 1e6 if unit == "us" else 1e3
    count = len(raw)
    tail = workload.tail_pct
    work_total = workload.units_per_op * count
    values = {
        "op_ms_p50": fb_measure.percentile(normalised, 50) * 1e3,
        "op_ms_tail": fb_measure.percentile(normalised, tail) * 1e3,
        "work_per_s": work_total / sum(normalised),
        "setup_s": statistics.median(norm for _raw, norm in setups),
        "peak_rss_mb": peak_rss,
    }
    raw_values = {
        "op_ms_p50": fb_measure.percentile(raw, 50) * 1e3,
        "op_ms_tail": fb_measure.percentile(raw, tail) * 1e3,
        "work_per_s": work_total / sum(raw),
        "setup_s": statistics.median(raw_s for raw_s, _norm in setups),
    }

    print(f"# workload={args.workload} seed={args.seed} "
          f"cpu_count={os.cpu_count()} python={sys.version.split()[0]} "
          f"seconds={args.seconds:g} trace={args.trace} smoke={args.smoke}")
    print(f"# host speed: kernel {statistics.median(track.samples) * 1e3:.4f}"
          f" ms now vs {reference_s * 1e3:.4f} ms reference "
          f"(normalised = raw x {track.run_factor():.4f})")
    tail_name = f"p{tail:g}"
    print(f"{label}_{unit}_p50 = {values['op_ms_p50'] * scale / 1e3:.4f} "
          f"{unit} (raw {raw_values['op_ms_p50'] * scale / 1e3:.4f}), "
          f"n={count}")
    print(f"{label}_{unit}_{tail_name} = "
          f"{values['op_ms_tail'] * scale / 1e3:.4f} {unit} "
          f"(raw {raw_values['op_ms_tail'] * scale / 1e3:.4f}), "
          f"n={count}, {fb_measure.beyond(count, tail)} samples beyond "
          f"(reported as op_ms_tail)")
    print(f"{work}_per_s = {values['work_per_s']:.4f} 1/s "
          f"(raw {raw_values['work_per_s']:.4f})")
    print(f"setup_s = {values['setup_s']:.6f} s "
          f"(raw {raw_values['setup_s']:.6f}), n={len(setups)}")
    print(f"peak_rss_mb = {values['peak_rss_mb']:.2f} MiB")
    print(f"modelled_cycles = {cycles} count (after set-up and "
          f"{workload.warmup_ops} warm-up ops; "
          f"{'checked' if cycles_checked else 'not checked at this seed'})")
    if trigger_bytes is not None:
        print(f"trigger_bytes_per_device = {trigger_bytes:.4f} count")

    if tracer is None:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        table = tracer.table()
        checks = workload.cross_checks(table, tracer.ops)
        checks.append(("boundary self times add up to the outermost "
                       "spans, which fit in the traced wall",
                       sum(tracer.self_ns.values()) == tracer.outer_ns
                       <= tracer.wall_ns))
        for description, ok in checks:
            workload.check(ok, f"cross-check failed: {description}")
            print(f"# cross-check {'ok ' if ok else 'FAIL'} {description}")
        lookups = deltas.get("cache_hits", 0) + deltas.get("cache_misses", 0)
        table["vm.image_cache.hit_ratio"] = (
            deltas.get("cache_hits", 0) / lookups if lookups else 0.0)
        for field in ("frames_sent", "frames_dropped", "bytes_sent"):
            table[f"net.link.{field}"] = deltas.get(field, 0)
        table["net.trigger_bytes_per_device"] = trigger_bytes or 0.0
        table["rtos.modelled_cycles"] = cycles
        untraced_per_op = sum(raw) / count
        traced_per_op = tracer.wall_ns / 1e9 / max(1, tracer.ops)
        table["trace_overhead"] = traced_per_op / untraced_per_op
        for name, value in table.items():
            print(f"  {name:38} {value:.6g}")
        metrics = {name: {"value": table[name], "unit": unit}
                   for name, unit in per_layer_units().items()}

    for failure in workload.failures:
        print(f"# FAILED: {failure}")
    print(json.dumps({
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }))
    return 0


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    import fb_trace

    units: dict[str, str] = {}
    for name in fb_trace.BOUNDARIES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.share"] = "ratio"
    for layer in fb_trace.LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    for counter, _fn in fb_trace.COUNTERS.values():
        units[counter] = "count"
    units.update({
        "vm.image_cache.hit_ratio": "ratio",
        "net.link.frames_sent": "count",
        "net.link.frames_dropped": "count",
        "net.link.bytes_sent": "bytes",
        "net.trigger_bytes_per_device": "bytes",
        "rtos.modelled_cycles": "count",
        "other.self_s": "s",
        "other.share": "ratio",
        "traced_wall_s": "s",
        "trace_overhead": "ratio",
    })
    return units


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # One string-hash layout for every run: dict and set layouts
        # otherwise differ per process and move timings by a few %.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
