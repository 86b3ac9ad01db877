"""Timed model of one teleportation hop between adjacent cores.

A hop breaks down into four timed phases:

  1. entanglement generation: photons from the communication qubits of both
     cores meet at the shared BSM node; each attempt costs t_epr and succeeds
     with probability p_bsm (Barret-Kok style heralding, retried until
     success);
  2. source-side pre-processing and Bell measurement of the data qubit with
     the local entangled qubit (t_meas);
  3. transfer of the two classical correction bits to the neighbor over the
     classical NoC (t_classical);
  4. conditional correction at the destination (t_correct).

All durations are abstract time units. The defaults make entanglement
generation the dominant cost and are overridable through configuration.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from .topology import MeshTopology


class ProtocolError(RuntimeError):
    """Teleportation primitive misuse or attempt-cap exhaustion."""


@dataclass(frozen=True)
class TimingConfig:
    t_epr: float = 10.0
    t_meas: float = 2.0
    t_classical: float = 1.0
    t_correct: float = 1.0
    t_gate: float = 2.0
    p_bsm: float = 1.0
    max_attempts: int | None = None

    def __post_init__(self):
        for name in ("t_epr", "t_meas", "t_classical", "t_correct", "t_gate"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if not (0.0 < self.p_bsm <= 1.0):
            raise ValueError(f"p_bsm must be in (0, 1], got {self.p_bsm}")
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError("max_attempts must be positive when set")

    def hop_latency(self, attempts: int) -> float:
        """Closed-form duration of one hop given its attempt count."""
        return attempts * self.t_epr + self.t_meas + self.t_classical + self.t_correct


@dataclass(frozen=True)
class TeleportOutcome:
    link: tuple[int, int]
    attempts: int
    start: float
    finish: float


def entanglement_attempts(p_bsm: float, rng: random.Random | None, max_attempts: int | None = None) -> int:
    """Bernoulli trials up to and including the first heralded success.

    With p_bsm == 1 no randomness is consumed, so certain-success runs are
    independent of the stream state and rng may be None.
    """
    if not (0.0 < p_bsm <= 1.0):
        raise ValueError(f"p_bsm must be in (0, 1], got {p_bsm}")
    if p_bsm >= 1.0:
        return 1
    attempts = 1
    while rng.random() >= p_bsm:
        attempts += 1
        if max_attempts is not None and attempts > max_attempts:
            raise ProtocolError(f"entanglement not heralded within {max_attempts} attempts")
    return attempts


def teleport_hop(
    topology: MeshTopology,
    src: int,
    dst: int,
    start: float,
    cfg: TimingConfig,
    rng: random.Random,
) -> TeleportOutcome:
    """One adjacent-core teleport; the data qubit is at dst from finish onward.

    Multi-hop transfers are the planning layer's job; a non-adjacent pair
    here is a protocol error.
    """
    if not topology.is_adjacent(src, dst):
        raise ProtocolError(f"cores {src} and {dst} are not adjacent")
    link = topology.bsm_link_between(src, dst)
    attempts = entanglement_attempts(cfg.p_bsm, rng, cfg.max_attempts)
    return TeleportOutcome(link=link, attempts=attempts, start=start, finish=start + cfg.hop_latency(attempts))


def request_stream(seed: int, gate_id: int, chain: int = 0) -> random.Random:
    """Private random stream for one hop chain of one request.

    Derived by hashing, so the values a chain draws never depend on how the
    simulator interleaves events across requests or chains.
    """
    digest = hashlib.sha256(f"{seed}:{gate_id}:{chain}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))
