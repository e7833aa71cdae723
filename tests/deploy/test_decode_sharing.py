"""Decode once per content, not once per device.

Every publish hands its target workers one publish-scoped release cache,
so a unicast publish to N devices decodes the envelope, the manifest and
the :class:`~repro.deploy.spec.DeploymentSpec` once.  A non-rBPF image
decodes once per content through the process-wide image cache: each
instance is a shallow copy with its own ``name`` that shares the parsed
script (or decoded Wasm module).  Both are wall-clock only — every
device is still charged its full parse cycles at attach — and a script
that fails to parse is refused everywhere and never cached.
"""

from __future__ import annotations

import copy
import dataclasses
import os

import pytest

from repro.core import FC_HOOK_FANOUT
from repro.core.hooks import HookMode
from repro.deploy import (
    AttachmentSpec,
    DeploymentSpec,
    FaultInjector,
    HookSpec,
    ImageSpec,
    PublishOptions,
)
from repro.runtimes.profiles import MICROPYTHON_PROFILE
from repro.runtimes.script import container as script_container
from repro.runtimes.script.container import ScriptContainerRuntime
from repro.runtimes.script.lexer import tokenize
from repro.runtimes.sources import SCRIPT_FLETCHER32_PY, WASM_FLETCHER32
from repro.scenarios import build_fleet_publisher
from repro.suit.worker import UpdateStatus
from repro.vm.imagecache import IMAGE_CACHE
from repro.workloads import FLETCHER32_INPUT, fletcher32_reference

DEVICES = 5
#: Script instances per device (two names, one image).
SCRIPTS = 2
BROKEN_SCRIPT = "var total = ;\nreturn total;\n"


@pytest.fixture(autouse=True)
def fresh_cache():
    IMAGE_CACHE.clear()
    yield
    IMAGE_CACHE.clear()


def release(script: str = SCRIPT_FLETCHER32_PY) -> DeploymentSpec:
    return DeploymentSpec(
        name="decode-sharing",
        tenants=("ops",),
        hooks=(HookSpec(FC_HOOK_FANOUT, HookMode.SYNC),),
        images={
            "script": ImageSpec.from_script(script, name="script"),
            "wasm": ImageSpec.from_wasm(WASM_FLETCHER32, name="wasm"),
        },
        attachments=(
            AttachmentSpec(image="script", hook=FC_HOOK_FANOUT,
                           tenant="ops", name="script-{i}", count=SCRIPTS),
            AttachmentSpec(image="wasm", hook=FC_HOOK_FANOUT,
                           tenant="ops", name="wasm"),
        ),
    )


def instances(publisher, runtime: str) -> list:
    return [container for device in publisher.fleet.devices
            for container in device.engine.containers()
            if container.program.runtime == runtime]


@pytest.fixture
def published(monkeypatch):
    """One unicast publish; records each script attach's cycle charge."""
    charges = []
    attach = ScriptContainerRuntime.attach

    def spy(self, engine, container, *args):
        before = engine.kernel.clock.cycles
        vm = attach(self, engine, container, *args)
        charges.append((engine, container.program.name,
                        engine.kernel.clock.cycles - before))
        return vm

    monkeypatch.setattr(ScriptContainerRuntime, "attach", spy)
    publisher = build_fleet_publisher(devices=DEVICES, seed=5)
    result = publisher.publish(release(), PublishOptions())
    assert result.ok, result.reason
    return publisher, charges


class TestOneDecodePerPublish:
    def test_devices_share_one_spec_and_one_script_ast(self, published):
        publisher, _ = published
        applied = [device.radio.worker.results[-1].applied
                   for device in publisher.fleet.devices]
        assert len({id(result.plan.spec) for result in applied}) == 1
        scripts = instances(publisher, "script")
        assert len(scripts) == DEVICES * SCRIPTS
        assert len({id(c.program.script) for c in scripts}) == 1
        wasm = instances(publisher, "wasm")
        assert len({id(c.program.module) for c in wasm}) == 1
        # One image object per instance: only the parse is shared.
        assert len({id(c.program) for c in scripts}) == DEVICES * SCRIPTS

    def test_each_instance_keeps_its_name_and_pays_its_parse(self,
                                                             published):
        publisher, charges = published
        for container in instances(publisher, "script"):
            assert container.program.name == container.name
        parse_cycles = (MICROPYTHON_PROFILE.parse_base_cycles
                        + MICROPYTHON_PROFILE.parse_cycles_per_token
                        * len(tokenize(SCRIPT_FLETCHER32_PY)))
        assert sorted(name for _, name, _ in charges) == sorted(
            f"script-{i}" for i in range(SCRIPTS) for _ in range(DEVICES))
        assert [cycles for _, _, cycles in charges] == \
            [parse_cycles] * (DEVICES * SCRIPTS)
        assert len({id(engine) for engine, _, _ in charges}) == DEVICES

    def test_shared_parse_is_unchanged_by_running(self, published):
        publisher, _ = published
        script = instances(publisher, "script")[0].program.script
        module = instances(publisher, "wasm")[0].program.module
        before = copy.deepcopy((script, module))
        reference = fletcher32_reference(FLETCHER32_INPUT)
        for device in publisher.fleet.devices:
            for _ in range(2):
                firing = device.engine.fire_hook(
                    FC_HOOK_FANOUT, context=bytearray(FLETCHER32_INPUT))
                assert firing.results == [reference] * (SCRIPTS + 1)
        assert (script, module) == before
        with pytest.raises(dataclasses.FrozenInstanceError):
            script.body[0].line = 99
        with pytest.raises(dataclasses.FrozenInstanceError):
            module.start = 1


class TestBrokenScript:
    def test_refused_everywhere_and_never_cached(self, monkeypatch):
        parses = []
        parse = script_container.parse

        def counting_parse(source):
            parses.append(source)
            return parse(source)

        monkeypatch.setattr(script_container, "parse", counting_parse)
        publisher = build_fleet_publisher(devices=DEVICES, seed=5)
        broken = release(BROKEN_SCRIPT)
        for attempt in (1, 2):
            result = publisher.publish(broken, PublishOptions())
            assert not result.ok
            assert {row.result.status for row in result.rows()} \
                == {UpdateStatus.REJECTED}
            # Every device parsed (and refused) the payload itself.
            assert len(parses) == attempt * DEVICES
            assert IMAGE_CACHE.stats()["image_entries"] == 0
            assert all(not device.engine.containers()
                       for device in publisher.fleet.devices)


class TestUnderFaults:
    def test_seeded_chaos_publish_shares_one_parse(self):
        """Rebooted devices get fresh workers wired to the same release
        cache, and recovery re-activates from flash through it: the
        fleet still ends on one parse per image content."""
        # CI sweeps this under several fixed seeds (see the chaos job in
        # .github/workflows/ci.yml); locally it runs one.
        seed = int(os.environ.get("CHAOS_SEED", "11"))
        publisher = build_fleet_publisher(devices=4, loss=0.1, seed=seed)
        names = [device.name for device in publisher.fleet.devices]
        publisher.chaos = FaultInjector(FaultInjector.random_plan(
            names, seed=seed, horizon_us=400_000.0,
            crashes=2, bursts=1, stalls=1))
        result = publisher.publish(release(), PublishOptions())
        assert result.converged, result.reason
        assert result.total_reboots > 0
        scripts = instances(publisher, "script")
        assert len(scripts) == 4 * SCRIPTS
        assert len({id(c.program.script) for c in scripts}) == 1
        reference = fletcher32_reference(FLETCHER32_INPUT)
        for device in publisher.fleet.devices:
            firing = device.engine.fire_hook(
                FC_HOOK_FANOUT, context=bytearray(FLETCHER32_INPUT))
            assert firing.results == [reference] * (SCRIPTS + 1)
