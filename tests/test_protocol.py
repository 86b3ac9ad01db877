import random

import pytest

from oracles import ScriptedRng
from qnocsim.protocol import (
    ProtocolError,
    TimingConfig,
    entanglement_attempts,
    request_stream,
    teleport_hop,
)
from qnocsim.topology import MeshTopology

MESH = MeshTopology(4, 4)


def test_certain_success_takes_one_attempt_without_touching_the_stream():
    rng = random.Random(0)
    assert entanglement_attempts(1.0, rng) == 1
    assert rng.random() == random.Random(0).random()


def test_geometric_mean_attempts_at_half_probability():
    rng = random.Random(123)
    n = 100_000
    mean = sum(entanglement_attempts(0.5, rng) for _ in range(n)) / n
    assert mean == pytest.approx(2.0, abs=0.05)


def test_attempt_sequence_is_reproducible_per_stream():
    draws_a = [entanglement_attempts(0.3, request_stream(7, gate_id, 0)) for gate_id in range(20)]
    draws_b = [entanglement_attempts(0.3, request_stream(7, gate_id, 0)) for gate_id in range(20)]
    assert draws_a == draws_b
    assert draws_a != [entanglement_attempts(0.3, request_stream(8, g, 0)) for g in range(20)]


def test_invalid_probability_rejected():
    with pytest.raises(ValueError):
        entanglement_attempts(0.0, random.Random(0))
    with pytest.raises(ValueError):
        TimingConfig(p_bsm=1.5)
    with pytest.raises(ValueError):
        TimingConfig(t_epr=-1)


@pytest.mark.parametrize("name", ["t_epr", "t_meas", "t_classical", "t_correct", "t_gate"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_durations_rejected(name, value):
    with pytest.raises(ValueError, match=name):
        TimingConfig(**{name: value})


def test_hop_finish_is_the_sum_of_step_durations():
    cfg = TimingConfig(t_epr=10, t_meas=2, t_classical=1, t_correct=1, p_bsm=1.0)
    outcome = teleport_hop(MESH, 0, 1, 0.0, cfg, random.Random(0))
    assert outcome.finish == 14.0
    assert outcome.attempts == 1
    assert outcome.link == (0, 1)


def test_zero_durations_finish_at_start():
    cfg = TimingConfig(t_epr=0, t_meas=0, t_classical=0, t_correct=0, t_gate=0, p_bsm=1.0)
    outcome = teleport_hop(MESH, 5, 6, 3.5, cfg, random.Random(0))
    assert outcome.finish == 3.5


def test_three_attempts_cost_three_epr_rounds():
    cfg = TimingConfig(t_epr=10, t_meas=2, t_classical=1, t_correct=1, p_bsm=0.5)
    rng = ScriptedRng([0.9, 0.9, 0.1])  # fail, fail, succeed
    outcome = teleport_hop(MESH, 0, 1, 0.0, cfg, rng)
    assert outcome.attempts == 3
    assert outcome.finish == 34.0


def test_non_adjacent_hop_is_a_protocol_error():
    with pytest.raises(ProtocolError):
        teleport_hop(MESH, 0, 15, 0.0, TimingConfig(), random.Random(0))
    with pytest.raises(ProtocolError):
        teleport_hop(MESH, 2, 2, 0.0, TimingConfig(), random.Random(0))


def test_attempt_cap_exhaustion():
    rng = ScriptedRng([0.9, 0.9, 0.9])
    with pytest.raises(ProtocolError):
        entanglement_attempts(0.5, rng, max_attempts=2)
    cfg = TimingConfig(p_bsm=0.5, max_attempts=2)
    with pytest.raises(ProtocolError):
        teleport_hop(MESH, 0, 1, 0.0, cfg, ScriptedRng([0.9, 0.9, 0.9]))


def test_latency_additivity_over_random_configs():
    rng = random.Random(99)
    for _ in range(50):
        cfg = TimingConfig(
            t_epr=rng.uniform(0, 20),
            t_meas=rng.uniform(0, 5),
            t_classical=rng.uniform(0, 5),
            t_correct=rng.uniform(0, 5),
            p_bsm=rng.uniform(0.2, 1.0),
        )
        stream = random.Random(rng.randrange(2**32))
        start = rng.uniform(0, 100)
        outcome = teleport_hop(MESH, 1, 2, start, cfg, stream)
        expected = outcome.attempts * cfg.t_epr + cfg.t_meas + cfg.t_classical + cfg.t_correct
        assert outcome.finish == outcome.start + expected
        assert outcome.finish == start + cfg.hop_latency(outcome.attempts)


def test_finish_is_monotone_in_every_duration():
    base = TimingConfig(t_epr=5, t_meas=2, t_classical=1, t_correct=1, p_bsm=1.0)
    reference = teleport_hop(MESH, 0, 1, 0.0, base, random.Random(0)).finish
    for field in ("t_epr", "t_meas", "t_classical", "t_correct"):
        bumped = TimingConfig(**{**_as_dict(base), field: getattr(base, field) + 3})
        assert teleport_hop(MESH, 0, 1, 0.0, bumped, random.Random(0)).finish >= reference


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
