"""Timing parameters and entanglement-attempt draws of a teleportation hop.

A hop between adjacent cores breaks down into four timed phases:

  1. entanglement generation: photons from the communication qubits of both
     cores meet at the shared BSM node; each attempt costs t_epr and succeeds
     with probability p_bsm (Barret-Kok style heralding, retried until
     success);
  2. source-side pre-processing and Bell measurement of the data qubit with
     the local entangled qubit (t_meas);
  3. transfer of the two classical correction bits to the neighbor over the
     classical NoC (t_classical);
  4. conditional correction at the destination (t_correct).

This module holds the durations, which TimingConfig checks once, and draws
the attempt counts from them. The engine draws all of a request's counts
when it plans the request, and engine._drain_hops applies them. A hop
granted at start finishes at

  finish = max(start + attempts·t_epr, data arrival) + t_meas + t_classical + t_correct

where data arrival is when the data qubit reaches the hop's source core
(never later than start unless hops are pipelined).

All durations are abstract time units. The defaults make entanglement
generation the dominant cost and are overridable through configuration.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass


class ProtocolError(RuntimeError):
    """Entanglement not heralded within the configured attempt cap."""


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


def entanglement_attempts(timing: TimingConfig, rng: random.Random | None) -> int:
    """Bernoulli trials at timing.p_bsm up to and including the first heralded success.

    With p_bsm == 1 no randomness is consumed, so certain-success runs are
    independent of the stream state and rng may be None.
    """
    p_bsm, max_attempts = timing.p_bsm, timing.max_attempts
    if p_bsm >= 1.0:
        return 1
    attempts = 1
    while rng.random() >= p_bsm:
        attempts += 1
        if max_attempts is not None and attempts > max_attempts:
            raise ProtocolError(f"entanglement not heralded within {max_attempts} attempts")
    return attempts


def request_stream(seed: int, gate_id: int) -> random.Random:
    """Private random stream for one request; both of its hop chains draw from it.

    Derived by hashing, so the values a request draws never depend on how the
    simulator interleaves events across requests. The key keeps the ":0" of
    the source chain's key from when each chain had its own stream, so a
    request's source chain, and so every hh request, draws what it drew then.
    """
    return derived_rng(f"{seed}:{gate_id}:0")


def derived_rng(key: str) -> random.Random:
    """random.Random seeded from the first 8 bytes of sha256(key)."""
    return random.Random(int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big"))
