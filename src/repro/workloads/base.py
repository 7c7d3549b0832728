"""Workload base class, address-space layout, and the workload registry."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.trace.events import AccessKind, Trace, TraceBuilder
from repro.trace.patterns import AccessPattern


class AddressMap:
    """Allocates non-overlapping, aligned address regions to structures.

    Workload data structures live in one flat byte-address space (the
    application's virtual memory as SHADE would see it). Each structure
    gets its own region so pattern classification and cache-index
    behaviour are realistic.
    """

    def __init__(self, base: int = 0x1000_0000, alignment: int = 64) -> None:
        if alignment <= 0 or alignment & (alignment - 1):
            raise ConfigurationError(
                f"alignment must be a power of two, got {alignment}"
            )
        self._cursor = base
        self._alignment = alignment
        self._regions: dict[str, tuple[int, int]] = {}

    def allocate(self, name: str, size: int) -> int:
        """Reserve ``size`` bytes for structure ``name``; return its base."""
        if size <= 0:
            raise ConfigurationError(f"region '{name}' has size {size}")
        if name in self._regions:
            raise ConfigurationError(f"region '{name}' allocated twice")
        align = self._alignment
        base = (self._cursor + align - 1) // align * align
        self._regions[name] = (base, size)
        self._cursor = base + size
        return base

    def region(self, name: str) -> tuple[int, int]:
        """(base, size) of a previously allocated region."""
        return self._regions[name]

    @property
    def regions(self) -> Mapping[str, tuple[int, int]]:
        """All allocated regions, keyed by structure name."""
        return dict(self._regions)


class MiscTraffic:
    """Zipf-distributed background traffic over a large region.

    Whole-program tracers (SHADE in the paper) record *all* of a
    process's loads and stores, not only the named data structures:
    stack spills, runtime bookkeeping, library state. That residue has
    strong temporal locality (a few hot locations) over a footprint too
    large for a scratchpad — servable well only by a cache. Workloads
    interleave calls to :meth:`access` with their kernel accesses to
    reproduce it.
    """

    def __init__(
        self,
        builder: TraceBuilder,
        rng: np.random.Generator,
        base: int,
        footprint: int,
        struct: str = "misc",
        slot_bytes: int = 8,
        zipf_exponent: float = 0.9,
        write_fraction: float = 0.25,
    ) -> None:
        if footprint <= 0 or footprint < slot_bytes:
            raise ConfigurationError(f"bad misc footprint: {footprint}")
        if not 0.0 <= write_fraction <= 1.0:
            raise ConfigurationError(
                f"write fraction out of range: {write_fraction}"
            )
        self._builder = builder
        self._rng = rng
        self._base = base
        self._struct = struct
        self._slot_bytes = slot_bytes
        self._write_fraction = write_fraction
        slots = footprint // slot_bytes
        ranks = np.arange(1, slots + 1, dtype=np.float64)
        weights = 1.0 / ranks**zipf_exponent
        self._weights = weights / weights.sum()
        # Scatter the popularity ranking across the region so hot slots
        # do not all share cache sets.
        self._placement = rng.permutation(slots)
        self._pending: list[tuple[int, bool]] = []

    def _refill(self) -> None:
        slots = self._rng.choice(
            len(self._weights), size=1024, p=self._weights
        )
        writes = self._rng.random(1024) < self._write_fraction
        self._pending = [
            (int(self._placement[s]), bool(w))
            for s, w in zip(slots, writes)
        ]

    def access(self) -> None:
        """Record one zipf-placed background access."""
        if not self._pending:
            self._refill()
        slot, write = self._pending.pop()
        address = self._base + slot * self._slot_bytes
        kind = AccessKind.WRITE if write else AccessKind.READ
        self._builder.record(address, self._slot_bytes, kind, self._struct)


class Workload(ABC):
    """An instrumented application producing a tagged memory trace.

    Subclasses implement :meth:`run`, recording every load/store of
    their data structures into the supplied :class:`TraceBuilder`, and
    declare :attr:`pattern_hints` — the source-level access-pattern
    knowledge standing in for APEX's C front-end analysis.
    """

    #: Registry name; subclasses override.
    name: str = "workload"

    def __init__(self, scale: float = 1.0, seed: int = 0) -> None:
        if scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {scale}")
        self.scale = scale
        self.seed = seed

    @property
    @abstractmethod
    def pattern_hints(self) -> Mapping[str, AccessPattern]:
        """Per-structure access-pattern hints (APEX source knowledge)."""

    def hints_for(self, trace: Trace) -> dict[str, AccessPattern]:
        """:attr:`pattern_hints` restricted to the structures in ``trace``.

        At small scales a workload may never touch a structure it
        declares a hint for (compress at scale 0.02 emits no
        ``globals`` access for some seeds), and
        :func:`repro.trace.patterns.profile_patterns` rejects hints
        for absent structures.
        """
        present = set(trace.structs)
        return {
            struct: pattern
            for struct, pattern in self.pattern_hints.items()
            if struct in present
        }

    @abstractmethod
    def run(self, builder: TraceBuilder) -> None:
        """Execute the workload, recording accesses into ``builder``."""

    def trace(self) -> Trace:
        """Execute the workload and return its frozen trace."""
        builder = TraceBuilder(self.name)
        self.run(builder)
        return builder.build()


_REGISTRY: dict[str, type[Workload]] = {}


def register_workload(cls: type[Workload]) -> type[Workload]:
    """Class decorator adding a workload to the name registry."""
    if cls.name in _REGISTRY:
        raise ConfigurationError(f"workload '{cls.name}' registered twice")
    _REGISTRY[cls.name] = cls
    return cls


def workload_names() -> tuple[str, ...]:
    """Registered workload names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_workload(name: str, scale: float = 1.0, seed: int = 0) -> Workload:
    """Instantiate a registered workload by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload '{name}'; known: {', '.join(workload_names())}"
        ) from None
    return cls(scale=scale, seed=seed)
