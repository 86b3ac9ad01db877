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
the row-major core ids alone; ``plan`` and the synthetic generator both call
it.

The planner is pure; a plan is computed once from current positions and
never revised mid-flight.
"""

from __future__ import annotations

from .topology import MeshTopology

STRATEGIES = ("hh", "twt")
_SHARED_CORE = "operands share a core; no communication plan applies"


def twt_meeting_core(topology: MeshTopology, src: int, dst: int) -> int:
    """The core where plan("twt", ...) runs the gate, found without building a route."""
    width = topology.width
    cores = width * topology.height
    if not (0 <= src < cores and 0 <= dst < cores):  # coord_of raises plan's error
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


def plan(strategy: str, topology: MeshTopology, src: int, dst: int) -> tuple[list[int], list[int]]:
    """(src_hops, dst_hops): the source walks the XY route up to the meeting
    core, never src itself, and the destination walks back to it. The gate
    runs at src_hops[-1]; dst_hops is empty under hh."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    route = topology.xy_route(src, dst)
    if len(route) == 1:
        raise ValueError(_SHARED_CORE)
    meet = len(route) - 1 if strategy == "hh" else route.index(twt_meeting_core(topology, src, dst))
    return route[1 : meet + 1], route[-2 : meet - 1 : -1]  # the second is route[meet:-1] reversed
