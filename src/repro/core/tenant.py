"""Tenants: the mutually-distrusting parties deploying containers (§2, §3).

A tenant owns a set of containers and one tenant-scoped key-value store
shared among them.  The threat model's "malicious tenant" is exercised in
tests by running adversarial bytecode under a tenant and asserting that
neither the OS, nor other tenants' stores and memory, are reachable.

Ownership follows the slot, not history: a tenant owns the containers it
loaded until :meth:`~repro.core.engine.HostingEngine.replace` swaps one
out or a deployment plan's ``Detach`` removes it; a supervisor
quarantine keeps ownership.  A rollback that re-attaches a container
restores its ownership.  So :attr:`Tenant.ram_bytes` counts what the
tenant holds now, and a replaced container is not kept alive by its
tenant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.kvstore import KeyValueStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.container import FemtoContainer

#: Per-tenant housekeeping struct: identity, permissions, container list
#: head, store reference (the "(and housekeeping)" of §10.3's 340 B).
TENANT_STRUCT_BYTES = 40


@dataclass
class Tenant:
    """One code-deploying party on the device.

    ``containers`` lists what the tenant owns now (see the module
    docstring's ownership rule), compared by identity.
    """

    name: str
    store: KeyValueStore = field(default=None)  # type: ignore[assignment]
    containers: list["FemtoContainer"] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.store is None:
            self.store = KeyValueStore(name=f"{self.name}-store", scope="tenant")

    def adopt(self, container: "FemtoContainer") -> None:
        if container not in self.containers:
            self.containers.append(container)

    def release(self, container: "FemtoContainer") -> None:
        """End ownership of ``container`` (idempotent)."""
        if container in self.containers:
            self.containers.remove(container)

    @property
    def ram_bytes(self) -> int:
        """Tenant-attributable RAM: housekeeping, store and containers."""
        return TENANT_STRUCT_BYTES + self.store.ram_bytes + sum(
            container.ram_bytes for container in self.containers
        )

    def __hash__(self) -> int:
        return hash(self.name)
