"""Allocation: logical connections → physical connectivity components.

"Allocate the logical connections to physical connections from the
Connectivity Library" — for one clustering level, enumerate every
feasible assignment of clusters to library presets:

* clusters carrying chip-boundary channels may only use
  off-chip-capable presets;
* a preset must support at least as many ports as the cluster has
  endpoints (a dedicated link cannot implement a three-endpoint
  cluster);
* each cluster gets its *own instance* of the chosen preset (two
  clusters assigned "ahb" are two separate AHB buses).

The full cross product can be large at fine clustering levels; the
``max_assignments`` guard thins it deterministically (evenly strided)
so exploration cost stays bounded — mirroring the paper's "max cost
constraint" guard on the number of logical connections.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.conex.clustering import ClusteringLevel, LogicalConnection
from repro.connectivity.architecture import (
    ClusterAssignment,
    ConnectivityArchitecture,
    cluster_ports,
)
from repro.connectivity.library import ConnectivityLibrary, ConnectivityPreset
from repro.errors import ExplorationError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.apex.architectures import MemoryArchitecture


def compatible_presets(
    cluster: LogicalConnection,
    library: ConnectivityLibrary,
    memory: "MemoryArchitecture | None" = None,
) -> list[ConnectivityPreset]:
    """Library presets able to implement ``cluster``.

    With ``memory``, port demand weighs multi-port modules by their
    port count (:func:`repro.connectivity.architecture.cluster_ports`);
    without it, each endpoint counts one port.
    """
    if cluster.crosses_chip:
        pool = library.off_chip_choices()
    else:
        pool = library.on_chip_choices()
    ports = cluster_ports(cluster.endpoints, memory)
    return [preset for preset in pool if preset.max_ports >= ports]


def _strided_flat_indices(total: int, limit: int) -> list[int]:
    """Flat cross-product indices, evenly thinned to ``limit``.

    The stride accumulates in floating point on purpose — this is the
    historical thinning rule, and the enumerated candidate set (hence
    every downstream golden number) depends on reproducing the exact
    ``int(position)`` sequence.
    """
    if total <= limit:
        return list(range(total))
    stride = total / limit
    position = 0.0
    flats = []
    for _ in range(limit):
        flats.append(int(position))
        position += stride
    return flats


def _decode_flat(flat: int, radices: Sequence[int]) -> tuple[int, ...]:
    """Mixed-radix digits of ``flat``, last cluster least significant."""
    digits = []
    remainder = flat
    for radix in reversed(radices):
        remainder, digit = divmod(remainder, radix)
        digits.append(digit)
    return tuple(reversed(digits))


def _strided_product(
    choices: Sequence[Sequence[ConnectivityPreset]], limit: int
) -> Iterator[tuple[ConnectivityPreset, ...]]:
    """The cross product of ``choices``, evenly thinned to ``limit``."""
    radices = [len(options) for options in choices]
    total = 1
    for radix in radices:
        total *= radix
    for flat in _strided_flat_indices(total, limit):
        digits = _decode_flat(flat, radices)
        yield tuple(
            options[digit] for options, digit in zip(choices, digits)
        )


@dataclass(frozen=True, eq=False)
class AssignmentPlan:
    """A clustering level's candidate assignments, without the objects.

    The plan holds the per-cluster preset pools plus an ``(N, clusters)``
    index matrix — one row per candidate, one column per cluster. Names,
    signatures, and the columnar Phase-I estimator all work straight off
    the indices; :meth:`materialize` builds the full
    :class:`ConnectivityArchitecture` (the expensive part: one component
    instance per cluster) only for the candidates that survive pruning.

    Candidate order, names, and the thinning rule are exactly those of
    :func:`enumerate_assignments`, which is now a thin wrapper that
    materializes every row.
    """

    level: ClusteringLevel
    presets: tuple[tuple[ConnectivityPreset, ...], ...]
    choices: np.ndarray
    name_prefix: str

    def __len__(self) -> int:
        return len(self.choices)

    def name(self, index: int) -> str:
        """The architecture name candidate ``index`` will carry."""
        return f"{self.name_prefix}_L{self.level.size}_{index}"

    @cached_property
    def _cluster_keys(self) -> tuple[tuple[str, ...], ...]:
        """Each cluster's sorted channel names (fixed for the plan)."""
        return tuple(
            tuple(sorted(channel.name for channel in cluster.channels))
            for cluster in self.level.clusters
        )

    @cached_property
    def _preset_names(self) -> tuple[tuple[str, ...], ...]:
        """Each cluster's preset pool, by name."""
        return tuple(
            tuple(preset.name for preset in pool) for pool in self.presets
        )

    def preset_signature(self, index: int) -> tuple:
        """Structural signature of candidate ``index``.

        Matches
        :meth:`~repro.connectivity.architecture.ConnectivityArchitecture.preset_signature`
        of the materialized candidate, so dedup can run before any
        component is built.
        """
        row = self.choices[index].tolist()
        return tuple(
            sorted(
                (key, names[choice])
                for key, names, choice in zip(
                    self._cluster_keys, self._preset_names, row
                )
            )
        )

    def materialize(self, index: int) -> ConnectivityArchitecture:
        """Build the full architecture object for candidate ``index``."""
        row = self.choices[index]
        clusters = []
        for position, cluster in enumerate(self.level.clusters):
            preset = self.presets[position][row[position]]
            component = preset.instantiate(f"{preset.name}#{position}")
            clusters.append(
                ClusterAssignment(
                    channels=cluster.channels,
                    preset_name=preset.name,
                    component=component,
                )
            )
        return ConnectivityArchitecture(
            name=self.name(index), clusters=clusters
        )


def plan_assignments(
    level: ClusteringLevel,
    library: ConnectivityLibrary,
    name_prefix: str = "conn",
    max_assignments: int = 4096,
    memory: "MemoryArchitecture | None" = None,
) -> AssignmentPlan:
    """The feasible assignments for one level, as an index plan.

    Raises :class:`ExplorationError` when some cluster has no
    compatible preset (the level is infeasible with this library).
    ``memory`` refines port feasibility for multi-port modules.
    """
    if max_assignments < 1:
        raise ExplorationError(
            f"max_assignments must be >= 1: {max_assignments}"
        )
    per_cluster: list[tuple[ConnectivityPreset, ...]] = []
    for cluster in level.clusters:
        presets = compatible_presets(cluster, library, memory)
        if not presets:
            raise ExplorationError(
                f"no library preset can implement cluster with endpoints "
                f"{cluster.endpoints}"
            )
        per_cluster.append(tuple(presets))

    radices = [len(presets) for presets in per_cluster]
    total = 1
    for radix in radices:
        total *= radix
    flats = _strided_flat_indices(total, max_assignments)
    choices = np.empty((len(flats), len(per_cluster)), dtype=np.int64)
    for row, flat in enumerate(flats):
        choices[row] = _decode_flat(flat, radices)
    choices.setflags(write=False)
    return AssignmentPlan(
        level=level,
        presets=tuple(per_cluster),
        choices=choices,
        name_prefix=name_prefix,
    )


def assignment_neighbors(
    connectivity: ConnectivityArchitecture,
    library: ConnectivityLibrary,
    memory: "MemoryArchitecture | None" = None,
) -> list[ConnectivityArchitecture]:
    """One-swap neighbors: each cluster re-mapped to each alternative.

    The Neighborhood strategy (paper Table 2) explores "the points in
    the neighborhood of the points selected by the Pruned approach";
    in the connectivity dimension a design's neighbors are the
    assignments differing in exactly one cluster's component.
    """
    neighbors: list[ConnectivityArchitecture] = []
    for index, cluster in enumerate(connectivity.clusters):
        logical = LogicalConnection(
            channels=cluster.channels,
            bandwidth=0.0,
            crosses_chip=cluster.crosses_chip,
        )
        for preset in compatible_presets(logical, library, memory):
            if preset.name == cluster.preset_name:
                continue
            clusters = list(connectivity.clusters)
            clusters[index] = ClusterAssignment(
                channels=cluster.channels,
                preset_name=preset.name,
                component=preset.instantiate(f"{preset.name}#{index}"),
            )
            neighbors.append(
                ConnectivityArchitecture(
                    name=f"{connectivity.name}~{index}:{preset.name}",
                    clusters=clusters,
                )
            )
    return neighbors


def enumerate_assignments(
    level: ClusteringLevel,
    library: ConnectivityLibrary,
    name_prefix: str = "conn",
    max_assignments: int = 4096,
    memory: "MemoryArchitecture | None" = None,
) -> list[ConnectivityArchitecture]:
    """All feasible connectivity architectures for one clustering level.

    Raises :class:`ExplorationError` when some cluster has no
    compatible preset (the level is infeasible with this library).
    """
    plan = plan_assignments(
        level, library, name_prefix=name_prefix,
        max_assignments=max_assignments, memory=memory,
    )
    return [plan.materialize(index) for index in range(len(plan))]
