"""Adapter registry: (role, id) -> implementation lookup.

Registration happens at startup (module import or application wiring);
resolution is read-only afterwards.
"""

from __future__ import annotations

import threading
from typing import Any

from ..errors import AdapterLookupError, RegistryError
from .base import AdapterDescriptor, AdapterRole


class AdapterRegistry:
    def __init__(self) -> None:
        self._entries: dict[tuple[AdapterRole, str], tuple[AdapterDescriptor, Any]] = {}
        self._lock = threading.Lock()

    def register(self, descriptor: AdapterDescriptor, implementation: Any) -> None:
        key = (descriptor.role, descriptor.id)
        with self._lock:
            if key in self._entries:
                raise RegistryError(f"adapter already registered for {descriptor.role.value}/{descriptor.id}")
            self._entries[key] = (descriptor, implementation)

    def resolve(self, role: AdapterRole | str, id: str) -> Any:
        return self._lookup(role, id)[1]

    def descriptor(self, role: AdapterRole | str, id: str) -> AdapterDescriptor:
        return self._lookup(role, id)[0]

    def available(self, role: AdapterRole | str) -> list[str]:
        role = AdapterRole(role)
        return sorted(id for (r, id) in self._entries if r is role)

    def _lookup(self, role: AdapterRole | str, id: str) -> tuple[AdapterDescriptor, Any]:
        role = AdapterRole(role)
        try:
            return self._entries[(role, id)]
        except KeyError:
            available = ", ".join(self.available(role)) or "<none>"
            raise AdapterLookupError(
                f"no {role.value} adapter registered under id {id!r}; available: {available}"
            ) from None
