"""Communication planners for an inter-core two-qubit gate.

Hop-by-hop (``hh``): the source operand teleports one hop at a time along
the XY route; the gate runs at the destination core.

Two-way (``twt``): both operands teleport toward a meeting core. On a shared
row or column they converge along that axis, meeting at the core closer to
the destination when the distance is odd. For diagonal placements the source
moves only along x, the destination only along y, and they meet at the
corner (x of destination, y of source). The gate runs at the meeting core.

Planners are pure; plans are computed once from current positions and never
revised mid-flight.
"""

from __future__ import annotations

from dataclasses import dataclass

from .topology import MeshTopology

STRATEGIES = ("hh", "twt")


@dataclass(frozen=True)
class CommPlan:
    src_hops: tuple[int, ...]
    dst_hops: tuple[int, ...]
    exec_core: int

    @property
    def rounds(self) -> int:
        return max(len(self.src_hops), len(self.dst_hops))


def plan_hh(topology: MeshTopology, src: int, dst: int) -> CommPlan:
    """Source qubit walks the XY route to the destination core."""
    _check_distinct(src, dst)
    route = topology.xy_route(src, dst)
    return CommPlan(src_hops=tuple(route[1:]), dst_hops=(), exec_core=dst)


def plan_twt(topology: MeshTopology, src: int, dst: int) -> CommPlan:
    """Both qubits converge on a meeting core; see module docstring."""
    _check_distinct(src, dst)
    sx, sy = topology.coord_of(src)
    dx, dy = topology.coord_of(dst)
    if sy == dy:
        d = abs(dx - sx)
        src_steps = (d + 1) // 2
        meet = topology.core_at(sx + src_steps * _sign(dx - sx), sy)
    elif sx == dx:
        d = abs(dy - sy)
        src_steps = (d + 1) // 2
        meet = topology.core_at(sx, sy + src_steps * _sign(dy - sy))
    else:
        meet = topology.core_at(dx, sy)
    src_hops = tuple(topology.xy_route(src, meet)[1:])
    dst_hops = tuple(topology.xy_route(dst, meet)[1:])
    return CommPlan(src_hops=src_hops, dst_hops=dst_hops, exec_core=meet)


def plan(strategy: str, topology: MeshTopology, src: int, dst: int) -> CommPlan:
    if strategy == "hh":
        return plan_hh(topology, src, dst)
    if strategy == "twt":
        return plan_twt(topology, src, dst)
    raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")


def _check_distinct(src: int, dst: int):
    if src == dst:
        raise ValueError("operands share a core; no communication plan applies")


def _sign(v: int) -> int:
    return 1 if v > 0 else -1
