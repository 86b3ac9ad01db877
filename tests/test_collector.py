"""Automatic garbage collection is paused while circuits are built or parsed
and while the engine simulates, and the collector's state is restored as
found on every way out."""

import gc
import tracemalloc

import pytest

from qnocsim.benchgen import gen_qft, gen_quantum_volume
from qnocsim.circuit import Circuit, ParseError, parse_circuit, serialize_circuit
from qnocsim.engine import SimConfig, run
from qnocsim.protocol import ProtocolError, TimingConfig
from qnocsim.topology import MeshTopology


@pytest.fixture
def collections():
    """A callable that returns how many collections have started since the fixture began."""
    was_enabled = gc.isenabled()
    gc.enable()
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    yield lambda: len(starts)
    gc.callbacks.remove(count)
    if not was_enabled:
        gc.disable()


def test_bulk_phases_start_at_most_the_collection_after_the_pause(collections):
    # Each phase allocates far more than the 700 objects that start a
    # collection: 32,896 gates, or 108,162 hop rows on the qv run. Unpaused,
    # each phase but qv generation starts over a hundred collections. Only
    # the one just after the pause ends may start.
    qft = gen_qft(256)
    assert collections() <= 1
    text = serialize_circuit(qft)
    before = collections()
    assert parse_circuit(text) == qft
    assert collections() - before <= 1
    before = collections()
    circuit = gen_quantum_volume(1024, 20, 7)
    assert collections() - before <= 1
    cfg = SimConfig(topology=MeshTopology(16, 16), n_per_core=4, m_per_core=1, timing=TimingConfig(p_bsm=0.5), seed=1)
    before = collections()
    report = run(circuit, cfg)
    assert collections() - before <= 1
    before = collections()
    assert len(report.hops) == 108_162  # the replay
    assert collections() - before <= 1


def test_gen_qft_keeps_no_op_list():
    # A full (name, qubits) list beside the gates peaked at 1.53 times what
    # the circuit keeps; streamed into from_ops the peak is 1.01 times.
    tracemalloc.start()
    try:
        circuit = gen_qft(256)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(circuit.gates) == 256 * 257 // 2
    assert peak <= 1.1 * kept


ONE_GATE = Circuit.from_ops(16, [("cx", (0, 15))])  # six hops on the 4x4 mesh


def _run_one_gate(**timing):
    return run(ONE_GATE, SimConfig(topology=MeshTopology(4, 4), n_per_core=1, timing=TimingConfig(**timing)))


def _ops_that_raise():
    yield "cx", (0, 1)
    raise RuntimeError("ops failed")


CALLS = {
    "run and replay": (lambda: _run_one_gate(p_bsm=0.5).hops[0], None),
    "from_ops": (lambda: Circuit.from_ops(2, [("cx", (0, 1))]), None),
    "parse_circuit": (lambda: parse_circuit("qubits 2\ncx 0 1\n"), None),
    "run max_attempts": (lambda: _run_one_gate(p_bsm=0.01, max_attempts=1), ProtocolError),
    "run t_epr=1e308": (lambda: _run_one_gate(t_epr=1e308), ValueError),
    "from_ops invalid gate": (lambda: Circuit.from_ops(2, [("cx", (0, 0))]), ValueError),
    "from_ops ops raise": (lambda: Circuit.from_ops(2, _ops_that_raise()), RuntimeError),
    "parse_circuit ParseError": (lambda: parse_circuit("qubits 2\ncx 0 5\n"), ParseError),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("call", CALLS)
def test_the_collector_state_is_restored(call, enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        fn, error = CALLS[call]
        if error is None:
            fn()
        else:
            with pytest.raises(error):
                fn()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
