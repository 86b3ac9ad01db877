"""Per-layer tracing of qnocsim from outside the package.

Each traced name is replaced where its caller looks it up: a module global
for functions (``qnocsim.engine.plan`` is what ``engine.run`` calls), the
class for methods. Per-layer calls get a span (name, start, end, parent span,
engine-run id); per-hop and topology calls are only counted, to keep the
overhead down. Spans stay in memory until the process writes them out.
"""

from __future__ import annotations

import time

from qnocsim import circuit, engine, experiment, placement, topology

# Counted-only methods, patched on their class: (metric, class, method).
_COUNTED = (
    ("topology.coord_of_calls", topology.MeshTopology, "coord_of"),
    ("topology.hop_distance_calls", topology.MeshTopology, "hop_distance"),
    ("topology.bsm_link_calls", topology.MeshTopology, "bsm_link_between"),
    ("topology.xy_route_calls", topology.MeshTopology, "xy_route"),
    ("circuit.gate_by_id_calls", circuit.Circuit, "gate_by_id"),
)
_GENERATORS = ("gen_synthetic", "gen_qft", "gen_cuccaro", "gen_mcmt", "gen_quantum_volume")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, engine-run id or -1]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._run_id = -1
        self._runs = 0

    def count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def timed(self, name: str, fn, new_run: bool = False):
        """Wrap fn in a span; new_run marks an engine run, whose spans share its id."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            outer_run = self._run_id
            if new_run:
                self._run_id = self._runs
                self._runs += 1
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self._run_id])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
                self._run_id = outer_run

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """(total seconds, self seconds, calls) per span name. Self time is a
        span's duration minus the durations of its direct children."""
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _run in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for (name, start, end, _parent, _run), covered in zip(self.spans, children):
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - covered)
            calls[name] = calls.get(name, 0) + 1
        return total, own, calls


class _EngineCircuit:
    """Stands in for ``Circuit`` in the engine module, so that only the
    engine's own ``from_ops`` calls (building the expanded circuit) are traced."""

    def __init__(self, cls, from_ops):
        self._cls = cls
        self.from_ops = from_ops

    def __call__(self, *args, **kwargs):
        return self._cls(*args, **kwargs)


def install(tracer: Tracer):
    """Patch qnocsim in this process so that every traced call reports to tracer."""
    experiment.run_experiment = tracer.timed("experiment.run_experiment", experiment.run_experiment)
    experiment.iter_points = tracer.timed("experiment.iter_points", experiment.iter_points)
    experiment.run = tracer.timed("engine.run", experiment.run, new_run=True)
    for gen_name in _GENERATORS:
        setattr(experiment, gen_name, tracer.timed("benchgen.gen", _counting_gates(
            tracer, "benchgen.gates_generated", getattr(experiment, gen_name))))

    engine.layerize = tracer.timed("circuit.layerize", engine.layerize)
    engine.depth = tracer.timed("circuit.depth", engine.depth)
    engine.Circuit = _EngineCircuit(circuit.Circuit, tracer.timed("circuit.from_ops", _counting_gates(
        tracer, "circuit.gates_built", circuit.Circuit.from_ops)))
    engine.plan = tracer.timed("strategy.plan", engine.plan)
    engine.request_stream = tracer.timed("protocol.request_stream", engine.request_stream)

    attempts_of = engine.entanglement_attempts

    def entanglement_attempts(*args, **kwargs):
        attempts = attempts_of(*args, **kwargs)
        tracer.count("protocol.attempt_calls")
        tracer.count("protocol.attempts", attempts)
        return attempts

    engine.entanglement_attempts = entanglement_attempts

    relocate = placement.PlacementMap.relocate

    def relocate_counted(self, qubit, to):
        congested = relocate(self, qubit, to)
        tracer.count("placement.relocate_calls")
        tracer.count("placement.congestion_events", int(congested))
        return congested

    placement.PlacementMap.relocate = relocate_counted
    for metric, cls, method in _COUNTED:
        setattr(cls, method, tracer.counted(metric, getattr(cls, method)))


def _counting_gates(tracer: Tracer, metric: str, fn):
    def wrapper(*args, **kwargs):
        built = fn(*args, **kwargs)
        tracer.count(metric, len(built.gates))
        return built

    return wrapper
