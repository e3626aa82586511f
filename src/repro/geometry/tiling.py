"""Network tilings: region sets with a ``nbr`` relation (§II-A).

Two tilings are provided:

* :class:`GridTiling` — the paper's running example: a ``width × height``
  board of unit squares.  Squares sharing an edge *or a corner* are
  neighbors, so the region-graph distance is the Chebyshev distance and
  the diameter of a ``k × k`` board is ``k − 1``.
* :class:`GraphTiling` — an arbitrary connected region graph given by an
  adjacency mapping; distances come from BFS (cached per source).

Both expose the same interface, which the hierarchy and communication
layers program against.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from .points import Point
from .regions import Region, RegionId


class Tiling:
    """Abstract base: a finite connected set of regions plus ``nbr``."""

    def regions(self) -> List[RegionId]:
        """All region ids, in a stable order."""
        raise NotImplementedError

    def region(self, rid: RegionId) -> Region:
        """The :class:`Region` for ``rid``."""
        raise NotImplementedError

    def neighbors(self, rid: RegionId) -> List[RegionId]:
        """Regions sharing a boundary point with ``rid`` (excluding itself)."""
        raise NotImplementedError

    def are_neighbors(self, a: RegionId, b: RegionId) -> bool:
        return a != b and b in self.neighbors(a)

    def distance(self, a: RegionId, b: RegionId) -> int:
        """Length of the shortest path in the neighbor graph."""
        raise NotImplementedError

    def diameter(self) -> int:
        """Maximum distance between any two regions (``D`` in the paper)."""
        raise NotImplementedError

    def region_of_point(self, point: Point) -> RegionId:
        """Region containing ``point`` (minimum id wins on boundaries)."""
        candidates = [
            rid for rid in self.regions() if self.region(rid).contains(point)
        ]
        if not candidates:
            raise ValueError(f"point {point} outside the deployment space")
        return min(candidates)

    def validate(self) -> None:
        """Check the §II-A assumptions: symmetry, irreflexivity, connectivity."""
        ids = self.regions()
        if not ids:
            raise ValueError("tiling has no regions")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate region ids")
        for rid in ids:
            nbrs = self.neighbors(rid)
            if rid in nbrs:
                raise ValueError(f"region {rid!r} neighbors itself")
            if len(set(nbrs)) != len(nbrs):
                raise ValueError(f"duplicate neighbors at {rid!r}")
            for other in nbrs:
                if rid not in self.neighbors(other):
                    raise ValueError(f"nbr not symmetric between {rid!r}, {other!r}")
        # Connectivity via BFS from an arbitrary region.
        seen = {ids[0]}
        frontier = deque([ids[0]])
        while frontier:
            cur = frontier.popleft()
            for nxt in self.neighbors(cur):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if len(seen) != len(ids):
            raise ValueError("region graph is not connected")


class GridTiling(Tiling):
    """Unit-square board with 8-neighborhood (edges and corners).

    Region ids are ``(col, row)`` pairs with ``0 <= col < width`` and
    ``0 <= row < height``; the square for ``(c, r)`` spans
    ``[c, c+1] × [r, r+1]``.
    """

    def __init__(self, width: int, height: Optional[int] = None) -> None:
        if height is None:
            height = width
        if width < 1 or height < 1:
            raise ValueError("grid dimensions must be positive")
        self.width = width
        self.height = height
        self._regions: Dict[RegionId, Region] = {}
        for col in range(width):
            for row in range(height):
                rid = (col, row)
                self._regions[rid] = Region(
                    rid,
                    center=Point(col + 0.5, row + 0.5),
                    bounds=(float(col), float(row), float(col + 1), float(row + 1)),
                )
        self._region_order = sorted(self._regions)
        self._nbr_cache: Dict[RegionId, List[RegionId]] = {}

    def regions(self) -> List[RegionId]:
        return list(self._region_order)

    def region(self, rid: RegionId) -> Region:
        try:
            return self._regions[rid]
        except KeyError:
            raise KeyError(f"unknown region {rid!r}") from None

    def neighbors(self, rid: RegionId) -> List[RegionId]:
        if rid not in self._regions:
            raise KeyError(f"unknown region {rid!r}")
        cached = self._nbr_cache.get(rid)
        if cached is not None:
            return list(cached)
        col, row = rid
        out = []
        for dc in (-1, 0, 1):
            for dr in (-1, 0, 1):
                if dc == 0 and dr == 0:
                    continue
                other = (col + dc, row + dr)
                if other in self._regions:
                    out.append(other)
        out.sort()
        self._nbr_cache[rid] = out
        return list(out)

    def distance(self, a: RegionId, b: RegionId) -> int:
        if a not in self._regions or b not in self._regions:
            raise KeyError(f"unknown region in distance({a!r}, {b!r})")
        return max(abs(a[0] - b[0]), abs(a[1] - b[1]))

    def diameter(self) -> int:
        return max(self.width, self.height) - 1

    def region_of_point(self, point: Point) -> RegionId:
        # Closed-form: boundary points belong to the minimum-id region,
        # which for (col,row) ordering is the lower-left candidate square.
        if not (0 <= point.x <= self.width and 0 <= point.y <= self.height):
            raise ValueError(f"point {point} outside the deployment space")

        def squares(coord: float, limit: int) -> List[int]:
            base = int(coord)
            cands = []
            if coord == base and base - 1 >= 0:
                cands.append(base - 1)
            cands.append(min(base, limit - 1))
            return cands

        options = [
            (c, r)
            for c in squares(point.x, self.width)
            for r in squares(point.y, self.height)
        ]
        return min(options)


class GraphTiling(Tiling):
    """Arbitrary connected region graph.

    Args:
        adjacency: Mapping of region id to an iterable of neighbor ids.
            The relation is symmetrized automatically.
        centers: Optional mapping of region id to a representative
            :class:`Point`; defaults to distinct points on a line.
    """

    def __init__(
        self,
        adjacency: Dict[RegionId, Iterable[RegionId]],
        centers: Optional[Dict[RegionId, Point]] = None,
    ) -> None:
        adj: Dict[RegionId, set] = {rid: set() for rid in adjacency}
        for rid, nbrs in adjacency.items():
            for other in nbrs:
                if other == rid:
                    raise ValueError(f"region {rid!r} listed as its own neighbor")
                if other not in adj:
                    adj[other] = set()
                adj[rid].add(other)
                adj[other].add(rid)
        # Sorted once here: neighbors() hands out copies of these.
        self._nbrs: Dict[RegionId, Tuple[RegionId, ...]] = {
            rid: tuple(sorted(others)) for rid, others in adj.items()
        }
        self._order = sorted(self._nbrs)
        self._regions = {}
        for idx, rid in enumerate(self._order):
            point = centers[rid] if centers and rid in centers else Point(float(idx), 0.0)
            self._regions[rid] = Region(rid, center=point)
        self._dist_cache: Dict[RegionId, Dict[RegionId, int]] = {}
        self._diameter: Optional[int] = None

    def regions(self) -> List[RegionId]:
        return list(self._order)

    def region(self, rid: RegionId) -> Region:
        try:
            return self._regions[rid]
        except KeyError:
            raise KeyError(f"unknown region {rid!r}") from None

    def neighbors(self, rid: RegionId) -> List[RegionId]:
        try:
            return list(self._nbrs[rid])
        except KeyError:
            raise KeyError(f"unknown region {rid!r}") from None

    def _bfs(self, source: RegionId) -> Dict[RegionId, int]:
        cached = self._dist_cache.get(source)
        if cached is not None:
            return cached
        dist = {source: 0}
        frontier = deque([source])
        while frontier:
            cur = frontier.popleft()
            for nxt in self._nbrs[cur]:
                if nxt not in dist:
                    dist[nxt] = dist[cur] + 1
                    frontier.append(nxt)
        self._dist_cache[source] = dist
        return dist

    def distance(self, a: RegionId, b: RegionId) -> int:
        if a not in self._nbrs or b not in self._nbrs:
            raise KeyError(f"unknown region in distance({a!r}, {b!r})")
        dist = self._bfs(a)
        if b not in dist:
            raise ValueError(f"regions {a!r} and {b!r} are disconnected")
        return dist[b]

    def diameter(self) -> int:
        if self._diameter is None:
            best = 0
            for rid in self._order:
                dist = self._bfs(rid)
                best = max(best, max(dist.values()))
            self._diameter = best
        return self._diameter


def line_tiling(length: int) -> GraphTiling:
    """Convenience: a path graph of ``length`` regions (ids ``0..length-1``)."""
    if length < 1:
        raise ValueError("length must be positive")
    adjacency: Dict[RegionId, List[RegionId]] = {i: [] for i in range(length)}
    for i in range(length - 1):
        adjacency[i].append(i + 1)
    centers = {i: Point(float(i) + 0.5, 0.5) for i in range(length)}
    return GraphTiling(adjacency, centers)
