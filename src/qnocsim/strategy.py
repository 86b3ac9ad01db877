"""Communication planners for an inter-core two-qubit gate.

Hop-by-hop (``hh``): the source operand teleports one hop at a time along
the XY route; the gate runs at the destination core.

Two-way (``twt``): both operands teleport toward a meeting core on hh's XY
route, the source walking it forward and the destination backward. On a
shared row or column they meet ceil(d/2) hops from the source, the core
closer to the destination when the distance d is odd. For diagonal
placements the source moves only along x, the destination only along y, and
they meet at the route's corner (x of destination, y of source). The gate
runs at the meeting core. ``twt_meeting_core`` holds this rule, computed from
the row-major core ids alone; ``plan_twt`` and the synthetic generator both
call it.

Planners are pure; plans are computed once from current positions and never
revised mid-flight.
"""

from __future__ import annotations

from dataclasses import dataclass

from .topology import MeshTopology

STRATEGIES = ("hh", "twt")
_SHARED_CORE = "operands share a core; no communication plan applies"


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
    route = topology.xy_route(src, dst)
    return _split(route, len(route) - 1)


def plan_twt(topology: MeshTopology, src: int, dst: int) -> CommPlan:
    """Both qubits converge on a meeting core on the XY route; see module docstring."""
    route = topology.xy_route(src, dst)
    return _split(route, route.index(twt_meeting_core(topology, src, dst)))


def twt_meeting_core(topology: MeshTopology, src: int, dst: int) -> int:
    """The core where plan_twt runs the gate, found without building a route."""
    width = topology.width
    cores = width * topology.height
    if not (0 <= src < cores and 0 <= dst < cores):  # coord_of raises plan_twt's error
        topology.coord_of(src)
        topology.coord_of(dst)
    if src == dst:
        raise ValueError(_SHARED_CORE)
    (sy, sx), (dy, dx) = divmod(src, width), divmod(dst, width)
    if sx != dx and sy != dy:
        return src + dx - sx  # the route's corner: destination column, source row
    # A shared row or column: dst - src is d steps of one sign; walk ceil(d/2) of them.
    d = abs(dx - sx) + abs(dy - sy)
    return src + (dst - src) // d * ((d + 1) // 2)


def plan(strategy: str, topology: MeshTopology, src: int, dst: int) -> CommPlan:
    if strategy == "hh":
        return plan_hh(topology, src, dst)
    if strategy == "twt":
        return plan_twt(topology, src, dst)
    raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")


def _split(route: list[int], meet: int) -> CommPlan:
    """The source walks route up to index meet; the destination walks back down to it."""
    if len(route) == 1:
        raise ValueError(_SHARED_CORE)
    # dst_hops is route[meet:-1] reversed; the negative stop keeps index 0 when meet is 0.
    return CommPlan(
        src_hops=tuple(route[1 : meet + 1]),
        dst_hops=tuple(route[-2 : meet - len(route) - 1 : -1]),
        exec_core=route[meet],
    )
