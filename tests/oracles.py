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


def layerize_reference(circuit: Circuit) -> list[list[int]]:
    """Greedy ASAP layering as first written: each gate joins the layer after
    the last one that used any of its operands."""
    layers: list[list[int]] = []
    qubit_level = [0] * circuit.num_qubits
    for gate_id, gate in enumerate(circuit.gates):
        level = max(qubit_level[q] for q in gate.qubits)
        if level == len(layers):
            layers.append([])
        layers[level].append(gate_id)
        for q in gate.qubits:
            qubit_level[q] = level + 1
    return layers


def expanded_by_program_order(circuit: Circuit, hops) -> Circuit:
    """The circuit with one ``u`` marker per hop on the hop's qubit, in hop
    order (chain, then hop index), just before the gate that requested it."""
    markers: dict[int, list] = {}
    for hop in sorted(hops, key=lambda h: (h.gate_id, h.chain, h.hop_index)):
        markers.setdefault(hop.gate_id, []).append(("u", (hop.qubit,)))
    ops = []
    for gate_id, gate in enumerate(circuit.gates):
        ops.extend(markers.pop(gate_id, []))
        ops.append((gate.name, gate.qubits))
    assert not markers, f"hops for unknown gates {sorted(markers)}"
    return Circuit.from_ops(circuit.num_qubits, ops)


def layer_bounds(requests, hops, cfg) -> dict[float, tuple[float, float, float, float]]:
    """Per layer, keyed by its requests' issue time, in issue order: (critical
    latency, chain floor, link floor, core floor), from a run's records alone.

    A hop holds its link and a communication qubit at each end for at least
    d = attempts * t_epr + tail, with tail = t_meas + t_classical + t_correct,
    and a layer's hops lie within [issue, issue + critical latency). So under
    any grant rule that respects capacity, the critical latency is at least:
    - chain: the latest chain end with no wait, summed as the engine sums,
      from f = issue; a sequential hop gives f = (f + a * t_epr) + tail, a
      pipelined one f = max(issue + a * t_epr, f) + tail;
    - link: the busiest link's sum of d (capacity 1);
    - core: the busiest core's sum of d, each hop counted at both ends,
      divided by m.
    """
    timing = cfg.timing
    t_epr, tail = timing.t_epr, timing.t_meas + timing.t_classical + timing.t_correct
    issue_of = {request.gate_id: request.issue for request in requests}
    chain_floor: dict[tuple, float] = {}  # (issue, gate, chain) -> the chain's floor end so far
    link_held: dict[tuple, float] = {}  # (issue, link) -> sum of d
    core_held: dict[tuple, float] = {}  # (issue, core) -> sum of d
    for hop in sorted(hops, key=lambda h: (h.gate_id, h.chain, h.hop_index)):
        issue = issue_of[hop.gate_id]
        key = (issue, hop.gate_id, hop.chain)
        f = chain_floor.get(key, issue)
        if cfg.pipeline_hops:
            f = max(issue + hop.attempts * t_epr, f) + tail
        else:
            f = (f + hop.attempts * t_epr) + tail
        chain_floor[key] = f
        d = hop.attempts * t_epr + tail
        link_held[issue, hop.link] = link_held.get((issue, hop.link), 0.0) + d
        for core in (hop.src_core, hop.dst_core):
            core_held[issue, core] = core_held.get((issue, core), 0.0) + d
    critical = _max_per_issue({(r.issue, r.gate_id): r.latency for r in requests})
    latest_end, busiest_link, busiest_core = map(_max_per_issue, (chain_floor, link_held, core_held))
    m = cfg.m_per_core
    return {issue: (critical[issue], latest_end[issue] - issue, busiest_link[issue], busiest_core[issue] / m)
            for issue in sorted(critical)}


def _max_per_issue(values: dict[tuple, float]) -> dict[float, float]:
    """The largest value per issue time, of values keyed (issue, ...)."""
    out: dict[float, float] = {}
    for (issue, *_), value in values.items():
        out[issue] = max(out.get(issue, value), value)
    return out


def two_qubit_count(circuit: Circuit) -> int:
    return sum(1 for g in circuit.gates if len(g.qubits) == 2)


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
    """XY route walked one coordinate step at a time, numbering each core y * width + x."""
    sx, sy = topology.coord_of(src)
    dx, dy = topology.coord_of(dst)
    route = [src]
    x, y = sx, sy
    step = 1 if dx > x else -1
    while x != dx:
        x += step
        route.append(y * topology.width + x)
    step = 1 if dy > y else -1
    while y != dy:
        y += step
        route.append(y * topology.width + x)
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
