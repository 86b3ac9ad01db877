"""Logical-qubit to core assignment, updated as teleportation moves qubits."""

from __future__ import annotations

from .topology import MeshTopology


class CapacityError(ValueError):
    """More qubits than the mesh can hold."""


class PlacementMap:
    """Mutable qubit -> core map with per-core occupancy counts.

    A core may be pushed past its capacity of computation qubits; the move
    succeeds and is reported as congestion rather than rejected. Owned and
    mutated by a single simulation run, which applies each layer's moves in
    one relocate_all call; relocate is the range-checked single move.

    ``core_of(qubit)`` is the bound ``__getitem__`` of the qubit -> core
    list, a C call on the engine's per-gate path: it indexes as a list does,
    raising IndexError past the end.
    """

    def __init__(self, qubit_core: list[int], num_cores: int, capacity: int):
        self.capacity = capacity
        self._qubit_core = list(qubit_core)
        self.core_of = self._qubit_core.__getitem__
        self._core_load = [0] * num_cores
        for qubit, core in enumerate(self._qubit_core):
            if not (0 <= core < num_cores):
                raise ValueError(f"qubit {qubit} placed on core {core}, outside 0..{num_cores - 1}")
            self._core_load[core] += 1

    def __setstate__(self, state):
        # A deep copy would keep the original's bound lookup (copy treats it
        # as atomic); bind core_of to this map's own list instead.
        self.__dict__.update(state)
        self.core_of = self._qubit_core.__getitem__

    @classmethod
    def initial_mapping(cls, num_qubits: int, topology: MeshTopology, n_per_core: int) -> "PlacementMap":
        """Block 1:1 mapping: qubit i starts on core i // n_per_core."""
        if n_per_core < 1:
            raise ValueError("n_per_core must be positive")
        limit = topology.num_cores * n_per_core
        if num_qubits > limit:
            raise CapacityError(f"{num_qubits} qubits exceed {topology.num_cores} cores x {n_per_core}")
        return cls([q // n_per_core for q in range(num_qubits)], topology.num_cores, n_per_core)

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
        return self.relocate_all([(qubit, to)], 0)[0] > 0

    def relocate_all(self, moves, peak: int) -> tuple[int, int]:
        """Apply (qubit, core) moves in order, each as relocate would, in one call.

        Returns (congestion events, peak): peak is the larger of the given
        peak and each moved qubit's destination occupancy after its move. A
        no-op move changes no load, so a peak given as max_occupancy() comes
        back as the highest occupancy any core held. The moves are not
        range-checked, as relocate's are: the engine passes its own hops.
        """
        qubit_core, load, capacity = self._qubit_core, self._core_load, self.capacity
        congested = 0
        for qubit, to in moves:
            origin = qubit_core[qubit]
            if origin == to:
                continue
            qubit_core[qubit] = to
            load[origin] -= 1
            held = load[to] + 1
            load[to] = held
            if held > capacity:
                congested += 1
            if held > peak:
                peak = held
        return congested, peak
