"""Workload generators.

Synthetic circuits sweep inter-core communication load under a controlled
connectivity radius (the hop distance between the cores initially holding a
gate's two operands). The real benchmarks are generated at coupling level:
which qubit pairs interact, in what order. Gate unitaries are irrelevant to
the simulated quantities and are not modeled.

All generators are pure functions of their arguments, including the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .circuit import Circuit
from .protocol import derived_rng
from .strategy import twt_meeting_core
from .topology import MeshTopology

_BUILD_ATTEMPTS = 32


class GenerationError(ValueError):
    """Requested workload cannot be realized on the given mesh."""


@dataclass(frozen=True)
class CrMode:
    """Connectivity-radius mode: every request at a fixed radius, or each
    request's radius drawn uniformly from 1..radius."""

    kind: str  # "fixed" | "random"
    radius: int

    def __post_init__(self):
        if self.kind not in ("fixed", "random"):
            raise ValueError(f"cr mode kind must be fixed or random, got {self.kind!r}")
        if self.radius < 1:
            raise ValueError("connectivity radius must be positive")

    @classmethod
    def parse(cls, token: str) -> "CrMode":
        """Parse ``fixed:<r>`` or ``random:<max_r>``."""
        kind, sep, value = token.partition(":")
        if not sep or not value.isdigit():
            raise ValueError(f"bad cr mode token {token!r}, expected fixed:<r> or random:<max>")
        return cls(kind, int(value))

    def __str__(self) -> str:
        return f"{self.kind}:{self.radius}"


@dataclass(frozen=True)
class SynthSpec:
    target_depth: int
    requests_per_layer: int
    cr_mode: CrMode
    seed: int

    def __post_init__(self):
        if self.target_depth < 1:
            raise ValueError("target_depth must be positive")
        if self.requests_per_layer < 1:
            raise ValueError("requests_per_layer must be positive")


def gen_synthetic(spec: SynthSpec, topology: MeshTopology, qubits_per_core: int) -> Circuit:
    """Random circuit of exactly target_depth layers of two-qubit gates.

    Each layer holds requests_per_layer gates with pairwise-disjoint
    operands; under the block 1:1 mapping the two operand cores of every
    gate lie exactly r hops apart (fixed mode) or at a radius drawn
    uniformly from 1..max (random mode).

    Layers are forced to stay distinct under ASAP layering by threading each
    gate through the previous layer: the j-th gate of a layer reuses the
    j-th gate of the layer before as its first operand and pairs it with a
    previously untouched qubit.
    """
    if spec.cr_mode.radius > topology.diameter:
        raise GenerationError(
            f"radius {spec.cr_mode.radius} exceeds mesh diameter {topology.diameter}"
        )
    if spec.cr_mode.kind == "fixed" and spec.requests_per_layer > topology.num_cores // 2:
        raise GenerationError(
            f"{spec.requests_per_layer} requests per layer cannot be paired on {topology.num_cores} cores"
        )
    num_qubits = topology.num_cores * qubits_per_core
    needed = spec.requests_per_layer * (spec.target_depth + 1)
    if needed > num_qubits:
        raise GenerationError(f"workload needs {needed} qubits, mesh holds {num_qubits}")

    last_error = "no feasible qubit pairing"
    for attempt in range(_BUILD_ATTEMPTS):
        rng = derived_rng(f"synth:{spec.seed}:{attempt}")
        try:
            ops = _build_synthetic(spec, topology, qubits_per_core, rng)
        except _BuildFailed as failed:
            last_error = str(failed)
            continue
        return Circuit.from_ops(num_qubits, ops)
    raise GenerationError(f"could not realize {spec.cr_mode} workload: {last_error}")


class _BuildFailed(Exception):
    pass


def _build_synthetic(spec, topology, qubits_per_core, rng):
    free = [qubits_per_core] * topology.num_cores

    def take(core):
        qubit = core * qubits_per_core + (qubits_per_core - free[core])
        free[core] -= 1
        return qubit

    # Placement evolution is pure geometry, so the builder can track where a
    # strategy would leave the threaded qubit (hop-by-hop parks it at its home
    # core, two-way at the meeting core) and refuse partner cores the qubit
    # already occupies. Every generated gate is then a genuine inter-core
    # request under either strategy, which is what the request count sweeps.
    def cores_at(origin, radius, avoid):
        return [c for c in topology.ring(origin, radius) if c != avoid and free[c] > 0]

    def draw_partners(origin, avoid):
        """Free cores at the drawn radius from origin; the caller picks one."""
        if spec.cr_mode.kind == "fixed":
            partners = cores_at(origin, spec.cr_mode.radius, avoid)
            if not partners:
                raise _BuildFailed(f"no free core at radius {spec.cr_mode.radius} from core {origin}")
            return partners
        partners = cores_at(origin, rng.randint(1, spec.cr_mode.radius), avoid)
        if partners:
            return partners
        feasible = [r for r in range(1, spec.cr_mode.radius + 1) if cores_at(origin, r, avoid)]
        if not feasible:
            raise _BuildFailed(f"no free core within radius {spec.cr_mode.radius} of core {origin}")
        return cores_at(origin, rng.choice(feasible), avoid)

    ops = []
    chains: list[tuple[int, int, int]] = []  # per slot: (qubit, home core, core under two-way)
    radii = [spec.cr_mode.radius] if spec.cr_mode.kind == "fixed" else range(1, spec.cr_mode.radius + 1)
    ring = topology.ring
    for _slot in range(spec.requests_per_layer):
        src_candidates = [
            c for c in range(topology.num_cores)
            if free[c] > 0 and any(free[p] > 0 for r in radii for p in ring(c, r))
        ]
        if not src_candidates:
            raise _BuildFailed("no source core with a reachable partner left")
        src_core = rng.choice(src_candidates)
        src_qubit = take(src_core)
        dst_core = rng.choice(draw_partners(src_core, avoid=None))
        dst_qubit = take(dst_core)
        ops.append(("cx", (src_qubit, dst_qubit)))
        chains.append((dst_qubit, dst_core, twt_meeting_core(topology, src_core, dst_core)))

    for _layer in range(1, spec.target_depth):
        for slot in range(spec.requests_per_layer):
            chain_qubit, home_core, twt_core = chains[slot]
            dst_core = rng.choice(draw_partners(home_core, avoid=twt_core))
            dst_qubit = take(dst_core)
            ops.append(("cx", (chain_qubit, dst_qubit)))
            chains[slot] = (dst_qubit, dst_core, twt_meeting_core(topology, twt_core, dst_core))
    return ops


def gen_qft(n: int) -> Circuit:
    """Coupling-level quantum Fourier transform on n qubits.

    One one-qubit gate per qubit, then a two-qubit gate between every
    unordered qubit pair: n(n-1)/2 two-qubit gates in total.
    """
    if n < 1:
        raise ValueError("qft needs at least one qubit")
    return Circuit.from_ops(n, _qft_ops(n))


def _qft_ops(n):
    for i in range(n):
        yield "h", (i,)
        for j in range(i + 1, n):
            yield "cx", (j, i)


def gen_cuccaro(n_bits: int) -> Circuit:
    """Coupling-level ripple-carry adder on 2*n_bits + 2 qubits.

    A forward chain of majority blocks over consecutive qubit triples
    (2i, 2i+1, 2i+2), the carry-out gate, then the unmajority chain walking
    back. Every interaction stays within a logical index gap of 2, which is
    what makes this the nearest-neighbor workload of the suite.
    """
    if n_bits < 1:
        raise ValueError("adder needs at least one bit")
    ops = []
    for i in range(n_bits):
        c, b, a = 2 * i, 2 * i + 1, 2 * i + 2
        ops += [("cx", (a, b)), ("cx", (a, c)), ("cx", (c, b))]
    ops.append(("cx", (2 * n_bits, 2 * n_bits + 1)))
    for i in reversed(range(n_bits)):
        c, b, a = 2 * i, 2 * i + 1, 2 * i + 2
        ops += [("cx", (c, b)), ("cx", (a, c)), ("cx", (a, b))]
    return Circuit.from_ops(2 * n_bits + 2, ops)


def gen_mcmt(n_controls: int, n_targets: int) -> Circuit:
    """Coupling-level multi-control multi-target gate, V-chain style.

    Controls accumulate into a chain of ancillas (three two-qubit gates per
    step), the accumulator fans out to every target, then the accumulation
    is uncomputed in mirror order. With a single control the accumulator is
    the control itself and the circuit degenerates to a fan-out.
    """
    if n_controls < 1 or n_targets < 1:
        raise ValueError("need at least one control and one target")
    k, t = n_controls, n_targets
    ancillas = list(range(k, 2 * k - 1))
    targets = list(range(2 * k - 1, 2 * k - 1 + t))
    forward = []
    if k >= 2:
        forward += [("cx", (0, ancillas[0])), ("cx", (1, ancillas[0])), ("cx", (0, 1))]
        for i in range(1, k - 1):
            prev_anc, ctrl, anc = ancillas[i - 1], i + 1, ancillas[i]
            forward += [("cx", (prev_anc, anc)), ("cx", (ctrl, anc)), ("cx", (prev_anc, ctrl))]
    accumulator = ancillas[-1] if ancillas else 0
    ops = list(forward)
    ops += [("cx", (accumulator, target)) for target in targets]
    ops += [(name, qubits) for name, qubits in reversed(forward)]
    return Circuit.from_ops(2 * k - 1 + t, ops)


def gen_quantum_volume(n: int, n_layers: int, seed: int) -> Circuit:
    """Dense random circuit: each layer pairs up a fresh permutation of the
    qubits and applies one two-qubit gate per pair (floor(n/2) gates)."""
    if n < 2:
        raise ValueError("quantum volume needs at least two qubits")
    if n_layers < 1:
        raise ValueError("need at least one layer")
    return Circuit.from_ops(n, _quantum_volume_ops(n, n_layers, random.Random(seed)))


def _quantum_volume_ops(n, n_layers, rng):
    for _layer in range(n_layers):
        perm = list(range(n))
        rng.shuffle(perm)
        for i in range(n // 2):
            yield "cx", (perm[2 * i], perm[2 * i + 1])
