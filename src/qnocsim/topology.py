"""2D mesh of quantum cores with BSM link nodes on every adjacent core pair.

Cores are numbered row-major: core id = y * width + x, core 0 in the corner
at (0, 0). Every pair of adjacent cores shares one Bell-state-measurement
(BSM) node, identified by the canonical (low, high) core-id pair. Routes
follow deterministic XY routing: correct the x coordinate first, then y.
Instances are immutable after construction and safe to share; each builds
its coordinate and link tables once, and each ring (the cores at a given hop
distance from an origin) on first use.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MeshTopology:
    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"mesh dimensions must be positive, got {self.width}x{self.height}")
        coords = tuple((core % self.width, core // self.width) for core in range(self.width * self.height))
        links: dict[tuple[int, int], tuple[int, int]] = {}
        for core, (x, y) in enumerate(coords):
            if x < self.width - 1:
                links[core, core + 1] = links[core + 1, core] = (core, core + 1)
            if y < self.height - 1:
                below = core + self.width
                links[core, below] = links[below, core] = (core, below)
        object.__setattr__(self, "_coords", coords)  # core id -> (x, y)
        object.__setattr__(self, "_links", links)  # (a, b) and (b, a) -> canonical link id
        object.__setattr__(self, "_rings", {})  # (origin, radius) -> ring, filled by ring()

    @property
    def num_cores(self) -> int:
        return self.width * self.height

    @property
    def diameter(self) -> int:
        """Maximum hop distance between any two cores."""
        return (self.width - 1) + (self.height - 1)

    def coord_of(self, core: int) -> tuple[int, int]:
        """(x, y) coordinate of a core id, which is y * width + x."""
        self._check_core(core)
        return self._coords[core]

    def _check_core(self, core: int):
        # Explicit bounds: a negative id must not wrap around the tables.
        if not (0 <= core < len(self._coords)):
            raise ValueError(f"core {core} outside 0..{self.num_cores - 1}")

    def hop_distance(self, a: int, b: int) -> int:
        """Manhattan distance between two cores."""
        coords = self._coords
        if not (0 <= a < len(coords) and 0 <= b < len(coords)):
            self._check_core(a)
            self._check_core(b)
        (ax, ay), (bx, by) = coords[a], coords[b]
        return abs(ax - bx) + abs(ay - by)

    def ring(self, origin: int, radius: int) -> tuple[int, ...]:
        """Cores exactly radius hops from origin, in ascending id order.

        Built row by row on first use, then kept: each row within radius of
        the origin holds at most the two cores radius - |dy| columns to
        either side. An origin's rings partition the mesh, so the table
        holds at most num_cores**2 core ids over every radius up to the
        diameter.
        """
        key = (origin, radius)
        ring = self._rings.get(key)
        if ring is None:
            ox, oy = self.coord_of(origin)
            width = self.width
            cores = []
            for y in range(max(0, oy - radius), min(self.height - 1, oy + radius) + 1):
                dx = radius - abs(y - oy)
                row = y * width
                if ox - dx >= 0:
                    cores.append(row + ox - dx)
                if dx and ox + dx < width:
                    cores.append(row + ox + dx)
            ring = self._rings[key] = tuple(cores)
        return ring

    def xy_route(self, src: int, dst: int) -> list[int]:
        """Deterministic XY route from src to dst, both endpoints included.

        Moves along x toward the destination column first, then along y.
        Length is always hop_distance(src, dst) + 1.
        """
        coords = self._coords
        if not (0 <= src < len(coords) and 0 <= dst < len(coords)):
            self._check_core(src)
            self._check_core(dst)
        (sx, sy), (dx, dy) = coords[src], coords[dst]
        corner = src + dx - sx  # destination column, source row
        x_step = 1 if dx > sx else -1
        y_step = self.width if dy > sy else -self.width
        route = list(range(src, corner + x_step, x_step))
        route.extend(range(corner + y_step, dst + y_step, y_step))
        return route

    def bsm_link_between(self, a: int, b: int) -> tuple[int, int]:
        """Canonical id of the BSM link joining two adjacent cores."""
        link = self._links.get((a, b))
        if link is None:
            self._check_core(a)
            self._check_core(b)
            raise ValueError(f"no BSM link between non-adjacent cores {a} and {b}")
        return link

    def bsm_links(self) -> list[tuple[int, int]]:
        """All BSM links, one per unordered adjacent core pair, in ascending order."""
        return sorted(set(self._links.values()))
