"""Independent reference implementations used to cross-check the package."""

from __future__ import annotations

import math
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


def expanded_by_program_order(circuit: Circuit, hops) -> Circuit:
    """The circuit with one ``u`` marker per hop on the hop's qubit, in hop
    order (chain, then hop index), just before the gate that requested it."""
    markers: dict[int, list] = {}
    for hop in sorted(hops, key=lambda h: (h.gate_id, h.chain, h.hop_index)):
        markers.setdefault(hop.gate_id, []).append(("u", (hop.qubit,)))
    ops = []
    for gate in circuit.gates:
        ops.extend(markers.pop(gate.gate_id, []))
        ops.append((gate.name, gate.qubits))
    assert not markers, f"hops for unknown gates {sorted(markers)}"
    return Circuit.from_ops(circuit.num_qubits, ops)


def two_qubit_count(circuit: Circuit) -> int:
    return sum(1 for g in circuit.gates if g.is_two_qubit)


def phase_finish(timing: TimingConfig, start: float, attempts: int) -> float:
    """Finish of a hop granted at start whose data qubit is already at its
    source core: the entanglement attempts, then t_meas, t_classical and
    t_correct, summed in that order. Summing all durations first and adding
    them to start differs in the last bits on non-integer durations."""
    return (start + attempts * timing.t_epr) + (timing.t_meas + timing.t_classical + timing.t_correct)


def chain_latency_pmf(timing: TimingConfig, hops: int, tol: float = 1e-15) -> dict[float, float]:
    """Exact latency distribution of one uncontended sequential chain of
    hops: t_epr·N + hops·tail, where N ~ NegBin(hops, p_bsm) counts the
    attempts up to the hops-th success, P(N = n) = C(n-1, hops-1)·p^hops·(1-p)^(n-hops).
    Truncated at the first term below tol past the mean n = hops/p, after
    which the terms only fall."""
    if hops == 0:
        return {0.0: 1.0}
    p = timing.p_bsm
    tail = timing.t_meas + timing.t_classical + timing.t_correct
    pmf: dict[float, float] = {}
    n = hops
    while True:
        prob = math.comb(n - 1, hops - 1) * p**hops * (1.0 - p) ** (n - hops)
        pmf[n * timing.t_epr + hops * tail] = prob
        if n * p >= hops and prob < tol:
            return pmf
        n += 1


def max_pmf(a: dict[float, float], b: dict[float, float]) -> dict[float, float]:
    """Distribution of max(X, Y) for independent X ~ a and Y ~ b."""
    out: dict[float, float] = {}
    for x, px in a.items():
        for y, py in b.items():
            v = x if x > y else y
            out[v] = out.get(v, 0.0) + px * py
    return out


def pmf_mean_var(pmf: dict[float, float]) -> tuple[float, float]:
    mean = math.fsum(v * p for v, p in pmf.items())
    return mean, math.fsum((v - mean) ** 2 * p for v, p in pmf.items())


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
