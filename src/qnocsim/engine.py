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
A link, and each of a core's m communication qubits, is free from the finish
of the last hop granted it; a hop takes the earliest-free qubit at each end.
The idle gap before a grant's start is never backfilled by a later grant.
A request's attempts are the sum of its hops' attempts, and its arrival is
the latest finish among its hops, taken as each chain's last hop is granted.
Attempts never depend on timing, so all of a request's are drawn when it is
planned, from one stream per request, one call per chain: the source chain's
hops first, in hop order, then the destination chain's. A request at distance
d has d hops under either strategy, so hh and twt draw the same d attempt
counts, in the same order, for a request between the same cores.

Qubits move as their hops finish: ties in finish go by gate id, then chain,
then hop index. Each hop's row goes into a slot fixed when its request is
planned, so a layer's rows sit in (gate id, chain, hop index) order, and a
stable sort by finish alone gives the relocation order, which the placement
map applies in one call.

A run keeps only its totals. The first read of a report's hop or request
records simulates the run again with logging on and stores both tuples; the
determinism above makes that replay exact, and it is checked against the
report's totals.

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
import math
from dataclasses import dataclass, field
from itertools import starmap
from operator import itemgetter

# depth and entanglement_attempts stay bound here although run no longer calls
# them: perfbench/tracing.py wraps both by name.
from .circuit import Circuit, _collector_paused, depth, layerize  # noqa: F401
from .placement import PlacementMap
from .protocol import TimingConfig, chain_attempts, entanglement_attempts, request_stream  # noqa: F401
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
    src_core: int
    dst_core: int
    attempts: int
    start: float
    finish: float

    @property
    def link(self) -> tuple[int, int]:
        """The BSM link the hop held: its two cores, lower id first."""
        return min(self.src_core, self.dst_core), max(self.src_core, self.dst_core)


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
    # A report from run has neither until one is read (__getattr__). Left out
    # of repr, so that printing a report neither replays the run nor prints its log.
    requests: tuple[RequestRecord, ...] = field(repr=False)
    hops: tuple[HopRecord, ...] = field(repr=False)
    final_placement: tuple[int, ...]  # qubit -> core after the last layer

    def __getattr__(self, name):
        """Called only for an attribute the instance lacks: the first read of
        either record fills both. A replay that raises leaves the report unread."""
        state = vars(self)
        replay = state.get("_replay") if name in ("requests", "hops") else None
        if replay is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        requests, hops = replay()
        del state["_replay"]
        state.update(requests=requests, hops=hops)  # past the frozen __setattr__
        return state[name]

    def __getstate__(self):
        self.hops  # pickle and copy carry the records, not the replay closure
        return vars(self)


def run(circuit: Circuit, cfg: SimConfig) -> SimReport:
    """Simulate a circuit; deterministic per (circuit, cfg).

    For a two-qubit gate the first operand is the moving source endpoint and
    the second the destination, matching the (control, target) reading of
    the gate-list format. The report starts without its hops and requests:
    the first read of either, or a replace, copy or pickle of the report,
    simulates the run once more with logging on and stores both tuples. That
    replay looks up layerize, plan and request_stream as module globals, as
    the run does, and raises RuntimeError if its totals differ from the
    report's. Raises ValueError if the delay totals are not finite, as when
    the timing values overflow.

    Per layer, the run plans every request and draws each hop chain's
    attempts in one call, grants the hops (_drain_hops) into rows held in
    (gate id, chain, hop index) slots, takes each request's arrival at its
    chains' last hops, then sorts the rows stably by finish and relocates
    their qubits in one PlacementMap call.
    """
    fields = _simulate(circuit, cfg, None)
    overflowed = [f"{name}={fields[name]}" for name in ("total_delay", "comm_delay_sum", "comm_delay_critical")
                  if not math.isfinite(fields[name])]
    if overflowed:
        raise ValueError(f"timing values too large: simulated delay is not finite ({', '.join(overflowed)})")

    def replay() -> tuple[tuple[RequestRecord, ...], tuple[HopRecord, ...]]:
        requests, hops = logs = [], []
        if _simulate(circuit, cfg, logs) != fields:
            raise RuntimeError(
                "the run could not be reproduced: simulating it again to log its hops gave other totals;"
                " read a report's records before restoring a patched engine global"
            )
        return tuple(requests), tuple(hops)

    report = object.__new__(SimReport)
    vars(report).update(fields, _replay=replay)  # no records until one is read
    return report


@_collector_paused
def _simulate(circuit: Circuit, cfg: SimConfig, logs: tuple[list, list] | None) -> dict:
    """The one simulation loop: the SimReport fields but the two logs.

    With logs = (requests, hops), it appends one RequestRecord per request,
    in plan order, and one HopRecord per hop, in grant order; run passes
    None. Automatic garbage collection is paused throughout, for the run and
    its replay alike.
    """
    topo = cfg.topology
    timing = cfg.timing
    t_gate = timing.t_gate
    placement = PlacementMap.initial_mapping(circuit.num_qubits, topo, cfg.n_per_core)
    layers = layerize(circuit)  # looked up as a module global: perfbench/tracing.py wraps it
    gates = circuit.gates
    cores, relocate_all = placement.cores, placement.relocate_all
    attempts_of = chain_attempts
    draws = timing.p_bsm < 1  # at p_bsm == 1 no hop consumes randomness, so requests get no stream
    if logs is not None:
        request_log, hop_log = logs

    now = 0.0
    comm_sum = 0.0
    comm_critical = 0.0
    congestion_events = 0
    inter_core_requests = 0
    level = [0] * circuit.num_qubits  # expanded-circuit depth reached by each qubit
    finish_of, move_of = itemgetter(8), itemgetter(3, 5)  # a hop row's finish and its (qubit, dst_core)

    for layer in layers:
        pending = []  # one _drain_hops heap entry per hop chain
        # Each hop's entanglement attempts, by slot: (gate_id, chain,
        # hop_index) order, since a layer lists its gate ids in ascending order.
        attempts = []
        requests = []  # (gate_id, src_core, dst_core, distance, rounds, attempts), until the record is built
        for gate_id in layer:
            qubits = gates[gate_id].qubits
            if len(qubits) == 1:  # Circuit has checked every gate's arity
                level[qubits[0]] += 1
                continue
            q_src, q_dst = qubits
            src_core = cores[q_src]
            dst_core = cores[q_dst]
            if src_core == dst_core:
                gate_level = level[q_src]
                if level[q_dst] > gate_level:
                    gate_level = level[q_dst]
                level[q_src] = level[q_dst] = gate_level + 1
                continue
            comm_plan = plan(cfg.strategy, topo, src_core, dst_core)
            # One teleport marker per hop on each moving qubit, before the gate.
            level[q_src] += len(comm_plan.src_hops)
            level[q_dst] += len(comm_plan.dst_hops)
            level[q_src] = level[q_dst] = max(level[q_src], level[q_dst]) + 1
            request_attempts = 0
            # Draws never depend on timing, so they are all made here, one
            # call per chain: the chains take consecutive draws of the
            # request's one stream.
            rng = request_stream(cfg.seed, gate_id) if draws else None
            for chain_idx, (qubit, start_core, route) in enumerate(
                [(q_src, src_core, comm_plan.src_hops), (q_dst, dst_core, comm_plan.dst_hops)]
            ):
                if route:
                    pending.append((now, gate_id, chain_idx, 0, qubit, start_core, now, route, len(attempts)))
                    hop_attempts = attempts_of(timing, rng, len(route))
                    request_attempts += sum(hop_attempts)
                    attempts += hop_attempts
            distance = topo.hop_distance(src_core, dst_core)
            requests.append((gate_id, src_core, dst_core, distance, comm_plan.rounds, request_attempts))

        layer_end = now + t_gate  # every gate ends here or later: a request arrives at now or later
        granted = [] if logs is not None else None
        hop_rows, arrival = _drain_hops(cfg, pending, attempts, granted)
        if logs is not None:
            hop_log.extend(starmap(HopRecord, granted))
        # Stable: rows of equal finish keep their slot order, so this is
        # (finish, gate_id, chain, hop_index) order.
        hop_rows.sort(key=finish_of)
        congestion_events += relocate_all(map(move_of, hop_rows))

        inter_core_requests += len(requests)
        layer_latency = 0.0
        for request in requests:
            arrived = arrival[request[0]]
            if logs is not None:
                request_log.append(RequestRecord(*request, now, arrived))
            latency = arrived - now  # RequestRecord.latency
            comm_sum += latency
            layer_latency = max(layer_latency, latency)
            layer_end = max(layer_end, arrived + t_gate)

        comm_critical += layer_latency
        now = layer_end

    return dict(
        total_delay=now,
        comm_delay_sum=comm_sum,
        comm_delay_critical=comm_critical,
        original_depth=len(layers),
        expanded_depth=max(level),
        inter_core_requests=inter_core_requests,
        congestion_events=congestion_events,
        max_core_occupancy=placement.peak,
        final_placement=tuple(cores),
    )


def _drain_hops(cfg, pending, attempts, granted):
    """Grant every hop of the layer's chains; return (rows, arrival).

    pending holds one heap entry per chain, for its next hop:
    (ready, gate_id, chain, hop_index, qubit, core, data_at, route, slot).
    The qubit's data is at core from data_at on, and route lists the core
    each hop of the chain goes to. A chain's hops have consecutive slots,
    fixed at planning: attempts[slot] is the hop's entanglement attempts and
    rows[slot] its row of HopRecord fields, so rows come out in (gate_id,
    chain, hop_index) order. arrival maps each gate id to the latest finish
    of its chains' last hops. granted, unless None, gets each row in grant
    order. The first four entry fields are unique, so heap comparison never
    reaches route.
    """
    topo, timing = cfg.topology, cfg.timing
    link_busy_until: dict[tuple[int, int], float] = {}  # link -> finish of its last grant
    # Per core, a min-heap of qubit free times. No core serves more than the
    # layer's len(attempts) hops, so a free time past that count is never the min.
    comm_free_at = [[0.0] * min(cfg.m_per_core, len(attempts)) for _ in range(topo.num_cores)]
    link_between = topo.bsm_link_between
    t_epr, tail = timing.t_epr, timing.t_meas + timing.t_classical + timing.t_correct
    pipelined = cfg.pipeline_hops
    heappush, heappop, heapreplace = heapq.heappush, heapq.heappop, heapq.heapreplace
    rows: list[tuple | None] = [None] * len(attempts)
    arrival: dict[int, float] = {}

    # Every entry starts ready at the layer start. A pipelined chain's next
    # hop stays ready then, so it pops before every other chain's pending
    # entry, the order that queueing all its hops up front would give.
    heapq.heapify(pending)

    # Same arithmetic as max(), written out; TimingConfig rejects NaN, on
    # which the two would differ.
    while pending:
        ready, gate_id, chain_idx, hop_idx, qubit, src, data_at, route, slot = heappop(pending)
        dst = route[hop_idx]
        link = link_between(src, dst)
        start = link_busy_until.get(link, 0.0)
        if ready > start:
            start = ready
        # Each end core needs a free communication qubit: wait for its earliest.
        src_free, dst_free = comm_free_at[src], comm_free_at[dst]
        if src_free[0] > start:
            start = src_free[0]
        if dst_free[0] > start:
            start = dst_free[0]
        hop_attempts = attempts[slot]
        epr_done = start + hop_attempts * t_epr
        finish = data_at
        if epr_done > finish:
            finish = epr_done
        finish += tail
        link_busy_until[link] = finish
        heapreplace(src_free, finish)  # finish >= start >= the replaced free time
        heapreplace(dst_free, finish)
        row = rows[slot] = (gate_id, chain_idx, hop_idx, qubit, src, dst, hop_attempts, start, finish)
        if granted is not None:
            granted.append(row)
        if hop_idx + 1 < len(route):
            next_ready = ready if pipelined else finish
            heappush(pending, (next_ready, gate_id, chain_idx, hop_idx + 1, qubit, dst, finish, route, slot + 1))
        elif finish > arrival.get(gate_id, -math.inf):  # the chain's qubit has arrived
            arrival[gate_id] = finish
    return rows, arrival


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
