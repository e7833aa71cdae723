"""The benchmark's workloads, driven only through public entry points.

Every workload is single-process, single-thread and closed-loop: the next
operation starts when the previous one returned.  Each builds its rig
(set-up, timed apart), runs a fixed untimed warm-up, then timed
operations.  Every operation's output is checked, and a failed check is
counted, never dropped.

* ``hook_fire_jit`` / ``hook_fire_interp`` — one nRF52840 device per
  engine: 2 tenants x 4 thread counters on a SYNC fan-out hook, and one
  rBPF fletcher32 over the 360 B input on a second SYNC hook; a seeded
  sequence picks the hook and the next-pid context of every
  :meth:`HostingEngine.fire_hook`.
* ``ota_install`` / ``ota_noop`` / ``ota_replay`` — an 8-device fleet,
  unicast :class:`PublishOptions`, 5 % seeded frame loss.  An install is
  a new release (6 distinct rBPF fletcher32 images, 1 Wasm and 1 script
  image across 2 tenants); a noop republishes the installed spec (0 plan
  actions); a replay republishes an old sequence number (every device
  refuses with ``SEQUENCE_REPLAY``).
* ``fleet_publish`` — :class:`ControlPlane` over 1,000 devices, default
  scale profile, lossless link; every release changes 2 x 4 KiB images.
"""

from __future__ import annotations

import gc
import random
import struct

from repro.core import FC_HOOK_FANOUT, Hook
from repro.core.hooks import HookMode
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    HookSpec,
    ImageSpec,
    PublishOptions,
    plan,
)
from repro.runtimes.sources import SCRIPT_FLETCHER32_PY, WASM_FLETCHER32
from repro.scenarios import (
    build_control_plane,
    build_fanout_device,
    build_fleet_publisher,
)
from repro.suit.worker import UpdateStatus
from repro.vm import assemble
from repro.vm.imagecache import IMAGE_CACHE
from repro.vm.memory import Permission
from repro.workloads import FLETCHER32_INPUT, fletcher32_program
from repro.workloads.fletcher32 import INPUT_BASE, make_context

#: fletcher32 of the 360 B input (the paper's §6 checksum).
FLETCHER32_EXPECTED = 0x6C56E4EC
FLETCHER_HOOK = "bench.hook.fletcher"


class _Untimed:
    """Stands in for the benchmark's timer on untimed operations."""

    traced = False

    def __call__(self, function):
        return function()


UNTIMED = _Untimed()


class Workload:
    """One workload: set-up, warm-up, timed operations, checks."""

    #: Work one operation does, in ``work_per_s`` units (a fire, or the
    #: devices a publish reaches).
    units_per_op = 1
    #: Reported tail percentile; fixed per workload so runs compare.
    tail_pct = 50.0
    #: Operations between two host-speed samples.
    block_ops = 1
    #: Untimed operations after set-up (caches warm, lazy set-up done).
    warmup_ops = 1
    #: Collect garbage before every operation (else before every block).
    gc_per_op = True
    #: Set-up repetitions (the median is reported).
    setups = 3
    #: Appended to the name to key ``reference.json`` (sizes differ).
    reference_suffix = ""
    #: Kernel runs per host-speed sample (more around long operations).
    speed_calls = 3
    #: Timed operations per rig (``None``: one rig for the whole run).
    #: Every publish leaves per-device history behind in the program
    #: (worker results, applied plans), so on one long-lived rig each
    #: publish costs a little more than the last and a run's median
    #: would depend on how many operations the host managed.  A fresh
    #: rig every few operations keeps the mix the same in every run.
    ops_per_rig: int | None = None

    def __init__(self, seed: int, smoke: bool = False,
                 fletcher_expected: int = FLETCHER32_EXPECTED) -> None:
        self.seed = seed
        self.smoke = smoke
        self.fletcher_expected = fletcher_expected
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rig = None
        self._rig_ops = 0

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; record the first failures."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what)

    # -- per workload ---------------------------------------------------------

    def build(self):
        """Construct a fresh rig (the timed set-up)."""
        raise NotImplementedError

    def before_op(self) -> None:
        """Untimed: swap in a fresh, warmed-up rig when one is due."""
        if self.ops_per_rig is None:
            return
        if self._rig_ops == self.ops_per_rig:
            self.rig = None
            gc.collect()
            self.build()
            for _ in range(self.warmup_ops):
                self.run_op(UNTIMED)
            self._rig_ops = 0
        self._rig_ops += 1

    def run_op(self, timer) -> None:
        """One operation: ``timer`` times exactly the public call."""
        raise NotImplementedError

    def finish(self) -> None:
        """End-of-run checks over the whole run."""

    def devices(self) -> list:
        raise NotImplementedError

    def modelled_cycles(self) -> int:
        """Virtual cycles charged on every device clock so far."""
        return sum(device.kernel.clock.cycles for device in self.devices())

    def cross_checks(self, table: dict[str, float], ops: int) -> list:
        """(description, ok) pairs tying traced call counts to the
        operations the traced blocks issued."""
        return []


# -- hook_fire ----------------------------------------------------------------


class HookFire(Workload):
    tail_pct = 99.0
    block_ops = 128
    warmup_ops = 256
    gc_per_op = False
    setups = 9
    speed_calls = 1
    #: Per 128-fire block: fan-out fires : fletcher32 fires = 3 : 1.
    FANOUT_SHARE = 96
    COUNTERS = 8

    def __init__(self, implementation: str, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.implementation = implementation
        # An interpreted fletcher32 fire (~1.5 ms) is long enough for
        # the host's multi-ms stalls to land on over 1 % of them, so its
        # p99 measures the host; p95 still sits in the program's own
        # distribution.
        self.tail_pct = 99.0 if implementation == "jit" else 95.0
        self.fanout_fires = 0
        self.traced_fires = {"fanout": 0, "fletcher": 0}
        self._queue: list[tuple[str, bytes]] = []
        self._fletcher_context = make_context()

    def build(self):
        IMAGE_CACHE.clear()
        device = build_fanout_device(tenants=2, instances_per_tenant=4,
                                     implementation=self.implementation)
        engine = device.engine
        engine.register_hook(Hook(FLETCHER_HOOK, mode=HookMode.SYNC))
        container = engine.load(fletcher32_program(), name="fletcher32")
        engine.attach(container, FLETCHER_HOOK)
        container.vm.access_list.grant_bytes(
            "fletcher-input", INPUT_BASE, FLETCHER32_INPUT, Permission.READ)
        self.fanout_fires = 0
        self.rig = device
        return device

    def _next(self) -> tuple[str, bytes]:
        if not self._queue:
            block = [FC_HOOK_FANOUT] * self.FANOUT_SHARE
            block += [FLETCHER_HOOK] * (self.block_ops - self.FANOUT_SHARE)
            self.rng.shuffle(block)
            self._queue = [
                (hook, struct.pack("<QQ", 0, self.rng.randrange(1, 64))
                 if hook == FC_HOOK_FANOUT else self._fletcher_context)
                for hook in reversed(block)
            ]
        return self._queue.pop()

    def run_op(self, timer) -> None:
        hook, context = self._next()
        engine = self.rig.engine
        firing = timer(lambda: engine.fire_hook(hook, context))
        runs = firing.runs
        if hook == FC_HOOK_FANOUT:
            self.fanout_fires += 1
            if timer.traced:
                self.traced_fires["fanout"] += 1
            self.check(len(runs) == self.COUNTERS
                       and all(run.ok and run.value == 0 for run in runs),
                       f"fan-out fire {self.fanout_fires}")
        else:
            if timer.traced:
                self.traced_fires["fletcher"] += 1
            self.check(len(runs) == 1 and runs[0].ok
                       and runs[0].value == self.fletcher_expected,
                       f"fletcher32 returned {runs[0].value!r}")

    def finish(self) -> None:
        total = sum(self.rig.engine.global_store.snapshot().values())
        self.check(total == self.COUNTERS * self.fanout_fires,
                   f"thread-counter total {total} != "
                   f"{self.COUNTERS} x {self.fanout_fires} fan-out fires")

    def devices(self) -> list:
        return [self.rig]

    def cross_checks(self, table, ops):
        fanout = self.traced_fires["fanout"]
        fletcher = self.traced_fires["fletcher"]
        runs = self.COUNTERS * fanout + fletcher
        return [
            ("core.fire_hook.calls == traced fires",
             table["core.fire_hook.calls"] == fanout + fletcher == ops),
            ("core.execute.calls == container runs",
             table["core.execute.calls"] == runs),
            ("vm.run.calls == container runs",
             table["vm.run.calls"] == runs),
            ("no deploy work on the hot path",
             table["deploy.apply.calls"] == 0),
        ]


# -- ota_update ---------------------------------------------------------------


def _ota_release(rng: random.Random, number: int) -> DeploymentSpec:
    """A release whose 8 images are all new: 6 rBPF fletcher32 (seeded
    rodata makes each distinct), 1 Wasm and 1 script fletcher32."""
    text = fletcher32_program().to_bytes()
    images = {}
    attachments = []
    for index in range(6):
        images[f"fletcher-{index}"] = ImageSpec(
            name=f"fletcher-{index}", text=text, rodata=rng.randbytes(64))
        attachments.append(AttachmentSpec(
            image=f"fletcher-{index}", hook=FC_HOOK_FANOUT,
            tenant=f"tenant-{index % 2}", name=f"fletcher-{index}"))
    stamp = f"{number}{rng.randrange(1 << 20)}"
    wasm = WASM_FLETCHER32.replace(
        "locals=5\n", f"locals=5\n    i32.const {stamp}\n    drop\n", 1)
    images["wasm"] = ImageSpec.from_wasm(wasm, name="wasm")
    images["script"] = ImageSpec.from_script(
        f"# release {stamp}\n{SCRIPT_FLETCHER32_PY}", name="script")
    attachments.append(AttachmentSpec(image="wasm", hook=FC_HOOK_FANOUT,
                                      tenant="tenant-0", name="wasm"))
    attachments.append(AttachmentSpec(image="script", hook=FC_HOOK_FANOUT,
                                      tenant="tenant-1", name="script"))
    return DeploymentSpec(
        name="ota-release",
        tenants=("tenant-0", "tenant-1"),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images=images,
        attachments=tuple(attachments),
    )


class OtaUpdate(Workload):
    DEVICES = 8
    units_per_op = DEVICES
    IMAGES = 8

    def __init__(self, kind: str, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.kind = kind
        # Tails sit below the knee where publishes slowed by a
        # retransmitted frame begin; the knee moves with the loss seed.
        self.tail_pct = {"install": 90.0, "noop": 95.0, "replay": 90.0}[kind]
        self.block_ops = {"install": 1, "noop": 2, "replay": 8}[kind]
        self.ops_per_rig = {"install": 10, "noop": 20, "replay": 96}[kind]
        self.releases = 0
        self.spec: DeploymentSpec | None = None
        self.sequence = 0

    def _publish(self, spec, options, timer):
        publisher = self.rig
        # Looked up inside the call: a traced timer wraps it first.
        return timer(lambda: publisher.publish(spec, options))

    def _install(self, timer) -> None:
        self.releases += 1
        spec = _ota_release(self.rng, self.releases)
        result = self._publish(spec, PublishOptions(), timer)
        converged = result.ok and all(
            row.actions > 0 for row in result.rows())
        settled = all(plan(device.engine, spec).empty
                      for device in self.devices())
        self.check(converged and settled
                   and len(result.rows()) == self.DEVICES,
                   f"install {self.releases}: {result.reason}")
        self.spec = spec
        self.sequence = result.sequence_number

    def build(self):
        IMAGE_CACHE.clear()
        self.rig = build_fleet_publisher(
            devices=self.DEVICES, implementation="jit", loss=0.05,
            seed=self.seed, storage_gc_horizon=2)
        if self.kind != "install":
            self._install(UNTIMED)
        return self.rig

    def run_op(self, timer) -> None:
        if self.kind == "install":
            self._install(timer)
        elif self.kind == "noop":
            result = self._publish(self.spec, PublishOptions(), timer)
            self.check(result.ok and len(result.rows()) == self.DEVICES
                       and all(row.actions == 0 for row in result.rows()),
                       f"noop: {result.reason}")
        else:
            result = self._publish(
                self.spec, PublishOptions(sequence_number=self.sequence),
                timer)
            self.check(len(result.rows()) == self.DEVICES and all(
                row.result.status is UpdateStatus.SEQUENCE_REPLAY
                for row in result.rows()),
                f"replay not refused: {result.reason}")

    def devices(self) -> list:
        return self.rig.fleet.devices

    def cross_checks(self, table, ops):
        devices = ops * self.DEVICES
        checks = [("deploy.publish.calls == publishes",
                   table["deploy.publish.calls"] == ops)]
        if self.kind == "replay":
            return checks + [
                ("no device fetches, plans or applies a replay",
                 table["deploy.plan.calls"] == 0
                 and table["deploy.apply.calls"] == 0
                 and table["net.get_blockwise.calls"] == 0),
                ("every refusal verified the envelope",
                 table["suit.cose_verify.calls"] >= devices),
            ]
        checks.append(("deploy.apply.calls == publishes x devices",
                       table["deploy.apply.calls"] == devices))
        if self.kind == "install":
            checks += [
                ("runtimes.attach.wasm/script.calls == installs x devices",
                 table["runtimes.attach.wasm.calls"] == devices
                 and table["runtimes.attach.script.calls"] == devices),
                ("runtimes.attach.rbpf.calls == 6 x installs x devices",
                 table["runtimes.attach.rbpf.calls"] == 6 * devices),
                ("deploy.plan.actions == 8 x installs x devices",
                 table["deploy.plan.actions"] == self.IMAGES * devices),
            ]
        else:
            checks.append(("a noop plans 0 actions and compiles nothing",
                           table["deploy.plan.actions"] == 0
                           and table["vm.verify.calls"] == 0
                           and table["vm.jit_compile.calls"] == 0))
        return checks


# -- fleet_publish ------------------------------------------------------------


class FleetPublish(Workload):
    tail_pct = 50.0
    IMAGES = 2
    RODATA_BYTES = 4096
    #: About 17 KiB per device stays behind after every publish.
    ops_per_rig = 6

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.count = 24 if self.smoke else 1000
        if self.smoke:
            self.reference_suffix = "@smoke"
        self.units_per_op = self.count
        self.trigger_bytes: set[float] = set()
        self._text = assemble("mov r0, 7\n    exit", name="app").to_bytes()

    def build(self):
        IMAGE_CACHE.clear()
        self.rig = build_control_plane(devices=self.count, seed=self.seed)
        return self.rig

    def _release(self) -> DeploymentSpec:
        images = {
            f"app{index}": ImageSpec(
                name=f"app{index}", text=self._text,
                rodata=self.rng.randbytes(self.RODATA_BYTES))
            for index in range(self.IMAGES)
        }
        return DeploymentSpec(
            name="fleet-release",
            tenants=("ops",),
            hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
            images=images,
            attachments=tuple(
                AttachmentSpec(image=f"app{index}", hook=FC_HOOK_FANOUT,
                               tenant="ops", name=f"fc-{index}")
                for index in range(self.IMAGES)),
        )

    def run_op(self, timer) -> None:
        plane = self.rig
        spec = self._release()
        result = timer(lambda: plane.publish(spec))
        rows = result.rows()
        sequence = result.sequence_number
        current = all(row.sequence == sequence for row in plane.status())
        devices = self.devices()
        settled = all(plan(device.engine, spec).empty
                      for device in (devices[0], devices[-1]))
        if rows:
            self.trigger_bytes.add(result.trigger_tx_bytes / len(rows))
        self.check(result.ok and len(rows) == self.count and current
                   and settled, f"fleet publish: {result.reason}")

    def devices(self) -> list:
        return self.rig.devices()

    def cross_checks(self, table, ops):
        return [
            ("deploy.apply.calls == publishes x devices",
             table["deploy.apply.calls"] == ops * self.count),
            ("no block-wise fetch under the inline-payload profile",
             table["net.get_blockwise.calls"] == 0),
        ]


WORKLOADS = {
    "hook_fire_jit": lambda *a, **k: HookFire("jit", *a, **k),
    "hook_fire_interp": lambda *a, **k: HookFire("femto-containers", *a, **k),
    "ota_install": lambda *a, **k: OtaUpdate("install", *a, **k),
    "ota_noop": lambda *a, **k: OtaUpdate("noop", *a, **k),
    "ota_replay": lambda *a, **k: OtaUpdate("replay", *a, **k),
    "fleet_publish": FleetPublish,
}
