"""Independent reference implementations used to cross-check the package."""

from __future__ import annotations

import random

from qnocsim.circuit import Circuit
from qnocsim.protocol import TimingConfig
from qnocsim.topology import MeshTopology


def dag_depth_oracle(circuit: Circuit) -> int:
    """Longest path (node count) through the operand-sharing gate DAG.

    Quadratic scan over explicit predecessor sets; deliberately different
    from the greedy layering in the package.
    """
    longest: list[int] = []
    gates = circuit.gates
    for i, gate in enumerate(gates):
        operands = set(gate.qubits)
        pred = [longest[j] for j in range(i) if operands & set(gates[j].qubits)]
        longest.append(1 + max(pred, default=0))
    return max(longest, default=0)


def two_qubit_count(circuit: Circuit) -> int:
    return sum(1 for g in circuit.gates if g.is_two_qubit)


def phase_finish(timing: TimingConfig, start: float, attempts: int) -> float:
    """Finish of a hop granted at start whose data qubit is already at its
    source core: the entanglement attempts, then t_meas, t_classical and
    t_correct, summed in that order. Summing all durations first and adding
    them to start differs in the last bits on non-integer durations."""
    return (start + attempts * timing.t_epr) + (timing.t_meas + timing.t_classical + timing.t_correct)


def xy_route_by_steps(topology: MeshTopology, src: int, dst: int) -> list[int]:
    """XY route walked one coordinate step at a time through core_at."""
    sx, sy = topology.coord_of(src)
    dx, dy = topology.coord_of(dst)
    route = [src]
    x, y = sx, sy
    step = 1 if dx > x else -1
    while x != dx:
        x += step
        route.append(topology.core_at(x, y))
    step = 1 if dy > y else -1
    while y != dy:
        y += step
        route.append(topology.core_at(x, y))
    return route


def random_circuit(num_qubits: int, num_gates: int, seed: int, two_qubit_bias: float = 0.6) -> Circuit:
    rng = random.Random(seed)
    ops = []
    for _ in range(num_gates):
        if num_qubits >= 2 and rng.random() < two_qubit_bias:
            a, b = rng.sample(range(num_qubits), 2)
            ops.append(("cx", (a, b)))
        else:
            ops.append((rng.choice(["h", "u"]), (rng.randrange(num_qubits),)))
    return Circuit.from_ops(num_qubits, ops)


class ScriptedRng:
    """Stands in for random.Random with a fixed uniform-draw script."""

    def __init__(self, values):
        self.values = list(values)

    def random(self) -> float:
        return self.values.pop(0)
