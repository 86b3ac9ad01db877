"""Discrete-event simulation of a circuit on the mesh.

Execution model: layers run under barrier semantics; every gate of layer k,
including all of its communication, finishes before layer k+1 starts. A
two-qubit gate whose operands sit on different cores becomes an inter-core
request: the configured strategy plans teleport hops, hops of one qubit run
strictly sequentially, and the two hop chains of a two-way plan run
concurrently. The gate executes at the plan's meeting core once both
operands have arrived.

Every hop occupies its BSM link and one communication qubit at each endpoint
core for its full duration. Contended resources are granted FIFO by the time
a hop becomes ready, ties broken by gate id, then chain, then hop index,
which makes every run a deterministic function of circuit and configuration.

With pipeline_hops enabled, entanglement for later hops of a chain may be
generated while earlier hops are still in flight (resources permitting); the
data qubit itself still traverses hops in order. The default keeps hops
strictly sequential.

Expanded depth, with one teleport marker per hop just before the gate that
requested it, is counted per qubit in program order: the order in which each
qubit's hops and gates complete.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right, insort
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import starmap
from operator import itemgetter

# depth stays bound here although run no longer calls it: perfbench/tracing.py
# wraps engine.depth by name.
from .circuit import Circuit, depth, layerize  # noqa: F401
from .placement import PlacementMap
from .protocol import TimingConfig, entanglement_attempts, request_stream
from .strategy import STRATEGIES, plan
from .topology import MeshTopology


@dataclass(frozen=True)
class SimConfig:
    topology: MeshTopology
    n_per_core: int = 2
    m_per_core: int = 2
    timing: TimingConfig = TimingConfig()
    strategy: str = "hh"
    seed: int = 0
    pipeline_hops: bool = False

    def __post_init__(self):
        if self.n_per_core < 1:
            raise ValueError("n_per_core must be positive")
        if self.m_per_core < 1:
            raise ValueError("m_per_core must be positive; teleportation needs a communication qubit")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}")


@dataclass(frozen=True, slots=True)
class HopRecord:
    gate_id: int
    chain: int
    hop_index: int
    qubit: int
    link: tuple[int, int]
    src_core: int
    dst_core: int
    attempts: int
    start: float
    finish: float


@dataclass(frozen=True, slots=True)
class RequestRecord:
    gate_id: int
    src_core: int
    dst_core: int
    distance: int
    rounds: int
    attempts: int
    issue: float
    arrival: float

    @property
    def latency(self) -> float:
        return self.arrival - self.issue


class _Records(Sequence):
    """Read-only sequence of records, built from the engine's rows on first read.

    The engine logs one plain tuple per hop or request, in the record's field
    order. Nothing builds a record until a caller reads one; then all are
    built at once and the rows are dropped. The view compares, hashes, adds,
    pickles and copies as the tuple of its records.
    """

    __slots__ = ("_cls", "_items")

    def __init__(self, cls, rows):
        self._cls = cls  # None once _items holds the records
        self._items = rows

    def _records(self) -> tuple:
        if self._cls is not None:
            self._items = tuple(starmap(self._cls, self._items))
            self._cls = None
        return self._items

    def __len__(self):
        return len(self._items)

    def __getitem__(self, index):
        return self._records()[index]

    def __iter__(self):
        return iter(self._records())

    def __eq__(self, other):
        if isinstance(other, _Records):
            other = other._records()
        return self._records() == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self):
        return hash(self._records())

    def __add__(self, other):
        return self._records() + other

    def __radd__(self, other):
        return other + self._records()

    def __repr__(self):
        return repr(self._records())

    def __reduce__(self):
        return tuple, (self._records(),)


@dataclass(frozen=True)
class SimReport:
    total_delay: float
    comm_delay_sum: float
    comm_delay_critical: float
    original_depth: int
    expanded_depth: int
    inter_core_requests: int
    congestion_events: int
    max_core_occupancy: int
    requests: Sequence[RequestRecord]  # built on first read; tuple(...) gives a plain tuple
    hops: Sequence[HopRecord]
    final_placement: tuple[int, ...]  # qubit -> core after the last layer


class _Resources:
    """Busy tracking for BSM links and per-core communication qubits."""

    def __init__(self, num_cores: int, m_per_core: int):
        self.link_busy_until: dict[tuple[int, int], float] = {}
        self.core_releases: list[list[float]] = [[] for _ in range(num_cores)]
        self.m = m_per_core

    def comm_free_at(self, core: int, t: float) -> float:
        """Earliest time >= t when the core has a free communication qubit."""
        releases = self.core_releases[core]  # sorted; those after t are still held
        if len(releases) - bisect_right(releases, t) < self.m:
            return t
        return releases[-self.m]

    def grant(self, link: tuple[int, int], a: int, b: int, start: float, finish: float):
        self.link_busy_until[link] = finish
        insort(self.core_releases[a], finish)
        insort(self.core_releases[b], finish)


class _Chain:
    """One qubit's hop sequence within a request."""

    __slots__ = ("gate_id", "index", "qubit", "hops", "position", "finish", "rng", "attempts")

    def __init__(self, gate_id, index, qubit, start_core, hops, start_time, rng):
        self.gate_id = gate_id
        self.index = index
        self.qubit = qubit
        self.hops = hops
        self.position = start_core
        self.finish = start_time  # data qubit available at current position
        self.rng = rng
        self.attempts = 0


def run(circuit: Circuit, cfg: SimConfig) -> SimReport:
    """Simulate a circuit; deterministic per (circuit, cfg).

    For a two-qubit gate the first operand is the moving source endpoint and
    the second the destination, matching the (control, target) reading of
    the gate-list format.
    """
    topo = cfg.topology
    t_gate = cfg.timing.t_gate
    placement = PlacementMap.initial_mapping(circuit.num_qubits, topo, cfg.n_per_core)
    layers = layerize(circuit)  # looked up as a module global: perfbench/tracing.py wraps it
    gates = circuit.gates
    core_of, relocate, occupancy_of = placement.core_of, placement.relocate, placement.occupancy
    draws = cfg.timing.p_bsm < 1  # at p_bsm == 1 no hop consumes randomness, so chains get no stream

    now = 0.0
    comm_sum = 0.0
    comm_critical = 0.0
    congestion_events = 0
    max_occupancy = placement.max_occupancy()
    request_rows: list[tuple] = []  # RequestRecord fields, one tuple per request
    hop_rows: list[tuple] = []  # HopRecord fields, one tuple per hop
    level = [0] * circuit.num_qubits  # expanded-circuit depth reached by each qubit
    relocation_order = itemgetter(9, 0, 1, 2)  # (finish, gate_id, chain, hop_index): qubits move as their hops finish

    for layer in layers:
        has_local = False  # a gate that needs no teleport finishes at now + t_gate
        chains: list[_Chain] = []
        requests = []  # (gate_id, src_core, dst_core, distance, rounds, chains), until the record is built
        for gate_id in layer:
            qubits = gates[gate_id].qubits
            if len(qubits) == 1:  # Circuit has checked every gate's arity
                has_local = True
                level[qubits[0]] += 1
                continue
            q_src, q_dst = qubits
            src_core = core_of(q_src)
            dst_core = core_of(q_dst)
            if src_core == dst_core:
                has_local = True
                level[q_src] = level[q_dst] = max(level[q_src], level[q_dst]) + 1
                continue
            comm_plan = plan(cfg.strategy, topo, src_core, dst_core)
            # One teleport marker per hop on each moving qubit, before the gate.
            level[q_src] += len(comm_plan.src_hops)
            level[q_dst] += len(comm_plan.dst_hops)
            level[q_src] = level[q_dst] = max(level[q_src], level[q_dst]) + 1
            request_chains = []
            for chain_idx, (qubit, start_core, hops) in enumerate(
                [(q_src, src_core, comm_plan.src_hops), (q_dst, dst_core, comm_plan.dst_hops)]
            ):
                if not hops:
                    continue
                rng = request_stream(cfg.seed, gate_id, chain_idx) if draws else None
                request_chains.append(_Chain(gate_id, chain_idx, qubit, start_core, hops, now, rng))
            chains += request_chains
            distance = topo.hop_distance(src_core, dst_core)
            requests.append((gate_id, src_core, dst_core, distance, comm_plan.rounds, request_chains))

        layer_end = now + t_gate if has_local else now  # t_gate >= 0, so this is max(now, now + t_gate)
        layer_hops = len(hop_rows)
        _drain_hops(cfg, chains, now, hop_rows)
        for hop in sorted(hop_rows[layer_hops:], key=relocation_order):
            dst_core = hop[6]
            if relocate(hop[3], dst_core):  # qubit
                congestion_events += 1
            occupancy = occupancy_of(dst_core)
            if occupancy > max_occupancy:
                max_occupancy = occupancy

        layer_latency = 0.0
        for gate_id, src_core, dst_core, distance, rounds, request_chains in requests:
            arrival = max(chain.finish for chain in request_chains)
            attempts = sum(chain.attempts for chain in request_chains)
            request_rows.append((gate_id, src_core, dst_core, distance, rounds, attempts, now, arrival))
            latency = arrival - now  # RequestRecord.latency
            comm_sum += latency
            layer_latency = max(layer_latency, latency)
            layer_end = max(layer_end, arrival + t_gate)

        comm_critical += layer_latency
        now = layer_end

    return SimReport(
        total_delay=now,
        comm_delay_sum=comm_sum,
        comm_delay_critical=comm_critical,
        original_depth=len(layers),
        expanded_depth=max(level),
        inter_core_requests=len(request_rows),
        congestion_events=congestion_events,
        max_core_occupancy=max_occupancy,
        requests=_Records(RequestRecord, request_rows),
        hops=_Records(HopRecord, hop_rows),
        final_placement=tuple(placement.core_of(q) for q in range(circuit.num_qubits)),
    )


def _drain_hops(cfg, chains, layer_start, hop_rows):
    """Grant every hop of the layer's chains, appending one row of HopRecord fields each."""
    topo, timing = cfg.topology, cfg.timing
    resources = _Resources(topo.num_cores, cfg.m_per_core)
    link_busy_until = resources.link_busy_until
    comm_free_at = resources.comm_free_at
    grant = resources.grant
    link_between = topo.bsm_link_between
    attempts_of = entanglement_attempts
    p_bsm, t_epr, max_attempts = timing.p_bsm, timing.t_epr, timing.max_attempts
    tail = timing.t_meas + timing.t_classical + timing.t_correct
    pipelined = cfg.pipeline_hops
    heappush, heappop = heapq.heappush, heapq.heappop
    add_hop = hop_rows.append

    # One entry per chain. A pipelined chain's next hop is ready at the layer
    # start, so it pops before every other chain's pending entry, the order
    # that queueing all its hops up front would give.
    pending = [(layer_start, chain.gate_id, chain.index, 0, chain) for chain in chains]
    heapq.heapify(pending)

    # Same arithmetic as max(), written out; TimingConfig rejects NaN, on
    # which the two would differ.
    while pending:
        ready, gate_id, chain_idx, hop_idx, chain = heappop(pending)
        src = chain.position
        dst = chain.hops[hop_idx]
        link = link_between(src, dst)  # the topology's shared tuple; a new (min, max) per hop costs peak RSS
        base = link_busy_until.get(link, 0.0)
        if ready > base:
            base = ready
        start = comm_free_at(src, base)  # never earlier than base
        dst_free = comm_free_at(dst, base)
        if dst_free > start:
            start = dst_free
        attempts = attempts_of(p_bsm, chain.rng, max_attempts)
        epr_done = start + attempts * t_epr
        finish = chain.finish
        if epr_done > finish:
            finish = epr_done
        finish += tail
        grant(link, src, dst, start, finish)
        add_hop((gate_id, chain_idx, hop_idx, chain.qubit, link, src, dst, attempts, start, finish))
        chain.position = dst
        chain.finish = finish
        chain.attempts += attempts
        if hop_idx + 1 < len(chain.hops):
            heappush(pending, (layer_start if pipelined else finish, gate_id, chain_idx, hop_idx + 1, chain))


def audit_resources(report: SimReport, cfg: SimConfig) -> list[str]:
    """Event-trace audit: every BSM link serves one teleport at a time and no
    core ever exceeds its communication-qubit pool. Returns violations."""
    link_intervals: dict[tuple[int, int], list[tuple[float, float]]] = {}
    core_intervals: dict[int, list[tuple[float, float]]] = {}
    for hop in report.hops:
        link_intervals.setdefault(hop.link, []).append((hop.start, hop.finish))
        for core in hop.link:
            core_intervals.setdefault(core, []).append((hop.start, hop.finish))
    violations = []
    for link, intervals in sorted(link_intervals.items()):
        intervals.sort()
        for (s1, f1), (s2, f2) in zip(intervals, intervals[1:]):
            if s2 < f1:
                violations.append(f"link {link}: overlap [{s1}, {f1}) vs [{s2}, {f2})")
    for core, intervals in sorted(core_intervals.items()):
        events = []
        for s, f in intervals:
            events.append((s, 1))
            events.append((f, -1))
        events.sort(key=lambda e: (e[0], e[1]))  # releases before acquisitions
        held = 0
        for t, delta in events:
            held += delta
            if held > cfg.m_per_core:
                violations.append(f"core {core}: {held} communication qubits held at t={t}")
    return violations
