import random

import pytest

from oracles import ScriptedRng, phase_finish
from qnocsim import engine
from qnocsim.circuit import Circuit
from qnocsim.engine import SimConfig
from qnocsim.protocol import (
    ProtocolError,
    TimingConfig,
    chain_attempts,
    entanglement_attempts,
    request_stream,
)
from qnocsim.topology import MeshTopology

MESH = MeshTopology(4, 4)


def test_certain_success_takes_one_attempt_without_touching_the_stream():
    rng = random.Random(0)
    assert entanglement_attempts(TimingConfig(p_bsm=1.0), rng) == 1
    assert rng.random() == random.Random(0).random()


def test_geometric_mean_attempts_at_half_probability():
    rng = random.Random(123)
    timing = TimingConfig(p_bsm=0.5)
    n = 100_000
    mean = sum(entanglement_attempts(timing, rng) for _ in range(n)) / n
    assert mean == pytest.approx(2.0, abs=0.05)


def test_attempt_sequence_is_reproducible_per_stream():
    timing = TimingConfig(p_bsm=0.3)
    draws_a = [entanglement_attempts(timing, request_stream(7, gate_id)) for gate_id in range(20)]
    draws_b = [entanglement_attempts(timing, request_stream(7, gate_id)) for gate_id in range(20)]
    assert draws_a == draws_b
    assert draws_a != [entanglement_attempts(timing, request_stream(8, g)) for g in range(20)]


@pytest.mark.parametrize("p_bsm", [0.5, 0.3])
def test_a_chain_draw_equals_one_draw_per_hop(p_bsm):
    """Drawing n hops in one call takes the values, and leaves the stream at
    the next value, that n one-hop draws do."""
    timing = TimingConfig(p_bsm=p_bsm)
    for gate_id in range(40):
        hops = gate_id % 7
        chain, per_hop = request_stream(3, gate_id), request_stream(3, gate_id)
        assert chain_attempts(timing, chain, hops) == [entanglement_attempts(timing, per_hop) for _ in range(hops)]
        assert chain.random() == per_hop.random()


def test_a_certain_chain_draw_takes_one_attempt_per_hop_without_touching_the_stream():
    rng = random.Random(0)
    assert chain_attempts(TimingConfig(p_bsm=1.0), rng, 5) == [1] * 5
    assert chain_attempts(TimingConfig(p_bsm=1.0), None, 3) == [1] * 3
    assert rng.random() == random.Random(0).random()


@pytest.mark.parametrize("k", [0, 1, 3])
def test_a_chain_draw_fails_at_the_hop_that_runs_out_of_attempts(k):
    """The k-th hop needs 3 attempts with a cap of 2: the chain draw raises
    the one-hop draw's ProtocolError, having consumed the same values."""
    cfg = TimingConfig(p_bsm=0.5, max_attempts=2)
    script = [0.9, 0.1] * k + [0.9, 0.9, 0.9]
    with pytest.raises(ProtocolError) as one_hop:
        rng = ScriptedRng(script)
        for _ in range(k + 1):
            entanglement_attempts(cfg, rng)
    chain = ScriptedRng(script + [0.5])
    with pytest.raises(ProtocolError) as whole_chain:
        chain_attempts(cfg, chain, k + 2)
    assert str(whole_chain.value) == str(one_hop.value) == "entanglement not heralded within 2 attempts"
    assert chain.values == [0.9, 0.5]


@pytest.mark.parametrize("p_bsm", [0.5, 0.3])
@pytest.mark.parametrize("a, b", [(3, 0), (1, 1), (2, 4), (5, 2)])
def test_one_request_draw_equals_its_two_chain_draws(p_bsm, a, b):
    """The engine draws a request's a + b hops in one call: the values, and
    the stream left behind, of a source-chain call followed by a
    destination-chain call."""
    timing = TimingConfig(p_bsm=p_bsm)
    for gate_id in range(30):
        one, two = request_stream(4, gate_id), request_stream(4, gate_id)
        assert chain_attempts(timing, one, a + b) == chain_attempts(timing, two, a) + chain_attempts(timing, two, b)
        assert one.random() == two.random()


@pytest.mark.parametrize("a, b", [(2, 2), (1, 3)])
def test_one_request_draw_fails_at_the_hop_its_two_chain_draws_fail_at(a, b):
    """Hop k of a + b runs out of attempts: one call raises the ProtocolError
    that the chain holding hop k raises, having consumed the same values."""
    cfg = TimingConfig(p_bsm=0.5, max_attempts=2)
    for k in range(a + b):
        script = [0.9, 0.1] * k + [0.9, 0.9, 0.9, 0.5]
        two = ScriptedRng(script)
        with pytest.raises(ProtocolError) as chains:
            chain_attempts(cfg, two, a)
            chain_attempts(cfg, two, b)
        one = ScriptedRng(script)
        with pytest.raises(ProtocolError) as request:
            chain_attempts(cfg, one, a + b)
        assert str(request.value) == str(chains.value) == "entanglement not heralded within 2 attempts"
        assert one.values == two.values == [0.9, 0.5]


def test_invalid_probability_rejected():
    with pytest.raises(ValueError):
        entanglement_attempts(TimingConfig(p_bsm=0.0), random.Random(0))
    with pytest.raises(ValueError):
        TimingConfig(p_bsm=1.5)
    with pytest.raises(ValueError):
        TimingConfig(t_epr=-1)
    with pytest.raises(ValueError, match="^max_attempts must be positive when set$"):
        TimingConfig(max_attempts=0)


@pytest.mark.parametrize("name", ["t_epr", "t_meas", "t_classical", "t_correct", "t_gate"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_durations_rejected(name, value):
    with pytest.raises(ValueError, match=name):
        TimingConfig(**{name: value})


def _one_hop(timing: TimingConfig, src: int = 0, dst: int = 1, seed: int = 0, warmup: bool = False):
    """The hop of one hh request between adjacent cores of MESH, simulated by
    the engine with one qubit per core. With warmup a one-qubit gate on the
    source runs first, so the hop starts at t_gate."""
    ops = [("h", (src,))] if warmup else []
    circuit = Circuit.from_ops(MESH.num_cores, ops + [("cx", (src, dst))])
    report = engine.run(circuit, SimConfig(topology=MESH, n_per_core=1, timing=timing, seed=seed))
    (hop,) = report.hops
    return hop


def test_hop_finish_is_the_sum_of_step_durations():
    cfg = TimingConfig(t_epr=10, t_meas=2, t_classical=1, t_correct=1, p_bsm=1.0)
    hop = _one_hop(cfg)
    assert hop.finish == 14.0
    assert hop.attempts == 1
    assert hop.link == (0, 1)


def test_zero_durations_finish_at_start():
    cfg = TimingConfig(t_epr=0, t_meas=0, t_classical=0, t_correct=0, t_gate=3.5, p_bsm=1.0)
    hop = _one_hop(cfg, 5, 6, warmup=True)
    assert hop.start == 3.5
    assert hop.finish == 3.5


def test_three_attempts_cost_three_epr_rounds(monkeypatch):
    cfg = TimingConfig(t_epr=10, t_meas=2, t_classical=1, t_correct=1, p_bsm=0.5)
    monkeypatch.setattr(engine, "request_stream", lambda *args: ScriptedRng([0.9, 0.9, 0.1]))  # fail, fail, succeed
    hop = _one_hop(cfg)
    assert hop.attempts == 3
    assert hop.finish == 34.0


def test_attempt_cap_exhaustion(monkeypatch):
    rng = ScriptedRng([0.9, 0.9, 0.9])
    cfg = TimingConfig(p_bsm=0.5, max_attempts=2)
    with pytest.raises(ProtocolError):
        entanglement_attempts(cfg, rng)
    monkeypatch.setattr(engine, "request_stream", lambda *args: ScriptedRng([0.9, 0.9, 0.9]))
    with pytest.raises(ProtocolError):
        _one_hop(cfg)


def test_latency_additivity_over_random_configs():
    rng = random.Random(99)
    for _ in range(50):
        start = rng.uniform(0, 100)
        cfg = TimingConfig(
            t_epr=rng.uniform(0, 20),
            t_meas=rng.uniform(0, 5),
            t_classical=rng.uniform(0, 5),
            t_correct=rng.uniform(0, 5),
            t_gate=start,
            p_bsm=rng.uniform(0.2, 1.0),
        )
        hop = _one_hop(cfg, 1, 2, seed=rng.randrange(2**32), warmup=True)
        assert hop.start == start
        assert hop.finish == phase_finish(cfg, start, hop.attempts)


def test_finish_is_monotone_in_every_duration():
    base = TimingConfig(t_epr=5, t_meas=2, t_classical=1, t_correct=1, p_bsm=1.0)
    reference = _one_hop(base).finish
    for field in ("t_epr", "t_meas", "t_classical", "t_correct"):
        bumped = TimingConfig(**{**_as_dict(base), field: getattr(base, field) + 3})
        assert _one_hop(bumped).finish >= reference


def _as_dict(cfg: TimingConfig) -> dict:
    return {
        "t_epr": cfg.t_epr,
        "t_meas": cfg.t_meas,
        "t_classical": cfg.t_classical,
        "t_correct": cfg.t_correct,
        "t_gate": cfg.t_gate,
        "p_bsm": cfg.p_bsm,
        "max_attempts": cfg.max_attempts,
    }
