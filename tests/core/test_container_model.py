"""Container dataclass accounting and lifecycle bookkeeping."""

from __future__ import annotations

import pytest

from repro.core import AttachError, ContainerState, FC_HOOK_TIMER, Tenant
from repro.core.container import VM_CLASSES, FemtoContainer
from repro.vm import assemble


class TestContainerModel:
    def test_vm_classes_cover_all_implementations(self):
        from repro.rtos.board import IMPLEMENTATIONS

        assert set(VM_CLASSES) == set(IMPLEMENTATIONS)

    def test_initial_state(self):
        container = FemtoContainer(name="c", program=assemble("exit"))
        assert container.state is ContainerState.LOADED
        assert container.vm is None
        assert container.local_store.name == "c-local"

    def test_tenant_adoption(self):
        tenant = Tenant(name="t")
        container = FemtoContainer(name="c", program=assemble("exit"),
                                   tenant=tenant)
        assert container in tenant.containers
        # Adopting twice is idempotent.
        tenant.adopt(container)
        assert tenant.containers.count(container) == 1

    def test_ram_without_vm_counts_image_and_store(self):
        program = assemble("mov r0, 1\n    exit")
        container = FemtoContainer(name="c", program=program)
        assert container.ram_bytes == (
            program.image_size + container.local_store.ram_bytes
        )

    def test_lifetime_accounting_accumulates(self, engine):
        container = engine.load(assemble("""
    mov r1, 3
loop:
    sub r1, 1
    jne r1, 0, loop
    mov r0, 0
    exit
"""))
        engine.attach(container, FC_HOOK_TIMER)
        first = engine.execute(container)
        second = engine.execute(container)
        assert container.runs == 2
        assert container.total_cycles == first.cycles + second.cycles
        assert container.lifetime_stats.executed == \
            first.stats.executed + second.stats.executed
        assert container.lifetime_stats.branches_taken == 4

    def test_helper_call_accounting_merged(self, engine):
        container = engine.load(assemble(
            "mov r1, 1\n    mov r2, 2\n    call bpf_store_global\n    exit"))
        engine.attach(container, FC_HOOK_TIMER)
        engine.execute(container)
        engine.execute(container)
        from repro.vm.helpers import BPF_STORE_GLOBAL

        assert container.lifetime_stats.helper_calls[BPF_STORE_GLOBAL] == 2


class TestTenantOwnership:
    """A tenant owns what it holds now, not every container it ever had."""

    def _slot(self, engine, value=1):
        tenant = engine.create_tenant("t")
        container = engine.load(assemble(f"mov r0, {value}\n    exit"),
                                tenant=tenant, name="slot")
        engine.attach(container, FC_HOOK_TIMER)
        return tenant, container

    def test_ram_bytes_constant_across_replaces(self, engine):
        tenant, container = self._slot(engine)
        container = engine.replace(container, assemble("mov r0, 2\n    exit"))
        after_one = tenant.ram_bytes
        for value in range(3, 10):
            container = engine.replace(
                container, assemble(f"mov r0, {value}\n    exit"))
        assert tenant.ram_bytes == after_one
        assert tenant.containers == [container]

    def test_replace_releases_the_old_container(self, engine):
        tenant, old = self._slot(engine)
        fresh = engine.replace(old, assemble("mov r0, 2\n    exit"))
        assert old not in tenant.containers
        assert fresh in tenant.containers

    def test_failed_replace_leaves_ownership_unchanged(self, engine):
        tenant, old = self._slot(engine)
        before = list(tenant.containers)
        ram_before = tenant.ram_bytes
        with pytest.raises(AttachError, match="rejected"):
            engine.replace(old, assemble("mov r10, 1\n    exit"))
        assert tenant.containers == before == [old]
        assert tenant.ram_bytes == ram_before

    def test_quarantine_keeps_ownership(self, engine):
        """Detaching (the supervisor's quarantine) is not a release."""
        tenant, container = self._slot(engine)
        engine.detach(container)
        assert tenant.containers == [container]

    def test_identity_not_field_equality(self):
        """Two containers stamped from one image are distinct members."""
        tenant = Tenant(name="t")
        program = assemble("exit")
        first = FemtoContainer(name="c", program=program, tenant=tenant)
        second = FemtoContainer(name="c", program=program, tenant=tenant)
        assert first != second
        assert tenant.containers == [first, second]
        tenant.release(second)
        assert tenant.containers == [first]
