"""Logical-qubit to core assignment, updated as teleportation moves qubits."""

from __future__ import annotations

from .topology import MeshTopology


class CapacityError(ValueError):
    """More qubits than the mesh can hold."""


class PlacementMap:
    """Mutable qubit -> core map with per-core occupancy counts.

    A core may be pushed past its capacity of computation qubits; the move
    succeeds and is reported as congestion rather than rejected. Owned and
    mutated by a single simulation run.
    """

    def __init__(self, qubit_core: list[int], num_cores: int, capacity: int):
        self.capacity = capacity
        self._qubit_core = list(qubit_core)
        self._core_load = [0] * num_cores
        for core in self._qubit_core:
            self._core_load[core] += 1

    @classmethod
    def initial_mapping(cls, num_qubits: int, topology: MeshTopology, n_per_core: int) -> "PlacementMap":
        """Block 1:1 mapping: qubit i starts on core i // n_per_core."""
        if n_per_core < 1:
            raise ValueError("n_per_core must be positive")
        limit = topology.num_cores * n_per_core
        if num_qubits > limit:
            raise CapacityError(f"{num_qubits} qubits exceed {topology.num_cores} cores x {n_per_core}")
        return cls([q // n_per_core for q in range(num_qubits)], topology.num_cores, n_per_core)

    def core_of(self, qubit: int) -> int:
        return self._qubit_core[qubit]

    def occupancy(self, core: int) -> int:
        return self._core_load[core]

    def max_occupancy(self) -> int:
        return max(self._core_load)

    def relocate(self, qubit: int, to: int) -> bool:
        """Move a qubit to a core; True means the destination is now over
        capacity (a congestion event). Moving to the current core is a no-op."""
        if not (0 <= qubit < len(self._qubit_core)):
            raise ValueError(f"qubit {qubit} outside 0..{len(self._qubit_core) - 1}")
        if not (0 <= to < len(self._core_load)):
            raise ValueError(f"core {to} outside 0..{len(self._core_load) - 1}")
        origin = self._qubit_core[qubit]
        if origin == to:
            return False
        self._core_load[origin] -= 1
        self._core_load[to] += 1
        self._qubit_core[qubit] = to
        return self._core_load[to] > self.capacity
