"""Logical-qubit to core assignment, updated as teleportation moves qubits."""

from __future__ import annotations


class CapacityError(ValueError):
    """More qubits than the mesh can hold."""


class PlacementMap:
    """Mutable qubit -> core map with per-core occupancy counts.

    A map starts as the block mapping: qubit i on core i // capacity. cores
    lists each qubit's core, and peak is the highest occupancy any core has
    held since the map was built. A core may be pushed past its capacity of
    computation qubits; the move succeeds and is reported as congestion
    rather than rejected. Owned and mutated by a single simulation run, which
    applies each layer's moves in one relocate_all call; relocate is the
    range-checked single move.
    """

    def __init__(self, num_qubits: int, num_cores: int, capacity: int):
        if capacity < 1:
            raise ValueError("n_per_core must be positive")
        if num_qubits > num_cores * capacity:
            raise CapacityError(f"{num_qubits} qubits exceed {num_cores} cores x {capacity}")
        self.capacity = capacity
        self.cores = [q // capacity for q in range(num_qubits)]
        full, rest = divmod(num_qubits, capacity)  # full cores, then one holding the rest
        self._core_load = ([capacity] * full + [rest] + [0] * num_cores)[:num_cores]
        self.peak = min(num_qubits, capacity)

    def relocate(self, qubit: int, to: int) -> bool:
        """Move a qubit to a core; True means the destination is now over
        capacity (a congestion event). Moving to the current core is a no-op."""
        if not (0 <= qubit < len(self.cores)):
            raise ValueError(f"qubit {qubit} outside 0..{len(self.cores) - 1}")
        if not (0 <= to < len(self._core_load)):
            raise ValueError(f"core {to} outside 0..{len(self._core_load) - 1}")
        return self.relocate_all([(qubit, to)]) > 0

    def relocate_all(self, moves) -> int:
        """Apply (qubit, core) moves in order, each as relocate would, in one
        call; return the congestion events and raise peak as loads grow. The
        moves are not range-checked, as relocate's are: the engine passes its
        own hops.
        """
        cores, load, capacity, peak = self.cores, self._core_load, self.capacity, self.peak
        congested = 0
        for qubit, to in moves:
            origin = cores[qubit]
            if origin == to:
                continue
            cores[qubit] = to
            load[origin] -= 1
            held = load[to] + 1
            load[to] = held
            if held > capacity:
                congested += 1
            if held > peak:
                peak = held
        self.peak = peak
        return congested
