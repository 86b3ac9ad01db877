"""2D mesh of quantum cores with BSM link nodes on every adjacent core pair.

Cores are numbered row-major: core id = y * width + x, core 0 in the corner
at (0, 0). Every pair of adjacent cores shares one Bell-state-measurement
(BSM) node, identified by the canonical (low, high) core-id pair. Routes
follow deterministic XY routing: correct the x coordinate first, then y.
Instances are immutable after construction and safe to share; each builds
its coordinate and link tables once.
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

    @property
    def num_cores(self) -> int:
        return self.width * self.height

    @property
    def diameter(self) -> int:
        """Maximum hop distance between any two cores."""
        return (self.width - 1) + (self.height - 1)

    def core_at(self, x: int, y: int) -> int:
        """Core id at mesh coordinate (x, y)."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"coordinate ({x}, {y}) outside {self.width}x{self.height} mesh")
        return y * self.width + x

    def coord_of(self, core: int) -> tuple[int, int]:
        """(x, y) coordinate of a core id; inverse of core_at."""
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

    def is_adjacent(self, a: int, b: int) -> bool:
        return self.hop_distance(a, b) == 1

    def neighbors(self, core: int) -> tuple[int, ...]:
        """Adjacent cores in north, south, west, east order (those that exist)."""
        x, y = self.coord_of(core)
        out = []
        if y > 0:
            out.append(core - self.width)
        if y < self.height - 1:
            out.append(core + self.width)
        if x > 0:
            out.append(core - 1)
        if x < self.width - 1:
            out.append(core + 1)
        return tuple(out)

    def xy_route(self, src: int, dst: int) -> list[int]:
        """Deterministic XY route from src to dst, both endpoints included.

        Moves along x toward the destination column first, then along y.
        Length is always hop_distance(src, dst) + 1.
        """
        sx, sy = self.coord_of(src)
        dx, dy = self.coord_of(dst)
        route = [src]
        x, y = sx, sy
        step = 1 if dx > x else -1
        while x != dx:
            x += step
            route.append(self.core_at(x, y))
        step = 1 if dy > y else -1
        while y != dy:
            y += step
            route.append(self.core_at(x, y))
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
        """All BSM links, one per unordered adjacent core pair."""
        links = []
        for core in range(self.num_cores):
            x, y = self.coord_of(core)
            if x < self.width - 1:
                links.append((core, core + 1))
            if y < self.height - 1:
                links.append((core, core + self.width))
        return links
