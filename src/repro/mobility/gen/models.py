"""Runtime mobility models backing the generator combinators.

Each :class:`~repro.mobility.gen.spec.GeneratorSpec` resolves to one of
these :class:`~repro.mobility.models.MobilityModel` subclasses, which
the existing :class:`~repro.mobility.evader.Evader` consumes unchanged.

Generated models are **move-strict**: ``allows_stay`` is ``False`` and
``next_region`` never returns the current region (the one exception is
:class:`ReplayModel`, which idles once its finite recorded trace is
exhausted).  They may also carry a per-step ``dwell_factor`` — the
waypoint-graph model's per-edge speed profile — which the trace
generator multiplies into the base dwell before clamping to the §VI
floor.

Models that need a restricted view of the space (obstacle fields) hold
their own masked tiling and ignore the tiling argument the caller
passes; masked moves are a subset of real-tiling neighbor moves, so the
evader's neighbor validation still holds.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...geometry.regions import RegionId
from ...geometry.tiling import GraphTiling, Tiling
from ..models import MobilityContractError, MobilityModel

__all__ = [
    "GeneratedModel",
    "MobilityContractError",
    "masked_tiling",
    "UniformWalkModel",
    "WaypointGraphModel",
    "HotspotModel",
    "DitherModel",
    "ReplayModel",
    "MaskedModel",
    "ComposeModel",
    "SwitchModel",
    "TimeSliceModel",
]


class GeneratedModel(MobilityModel):
    """Base for generator-produced models: move-strict, speed-profiled."""

    #: Generated models never stay (see Evader.step's contract).
    allows_stay = False

    def dwell_factor(self, current: RegionId, target: RegionId) -> float:
        """Dwell multiplier for the step ``current → target`` (≥ 0)."""
        return 1.0


def _region_graph(tiling: Tiling) -> Dict[RegionId, List[RegionId]]:
    """Each region of ``tiling`` mapped to its neighbors, in tiling order."""
    return {r: tiling.neighbors(r) for r in tiling.regions()}


def _walkable_error(
    graph: Dict[RegionId, List[RegionId]], blocked: Set[RegionId]
) -> Optional[str]:
    """Why masking ``blocked`` out of ``graph`` leaves no walkable
    space — fewer than two regions, or a disconnected remainder — or
    ``None`` when the remainder is walkable.  Ids in ``blocked`` that
    are not in ``graph`` are ignored."""
    allowed = [r for r in graph if r not in blocked]
    if len(allowed) < 2:
        return "obstacle field leaves fewer than two regions"
    seen = {allowed[0]}
    frontier = [allowed[0]]
    while frontier:
        for nxt in graph[frontier.pop()]:
            if nxt not in seen and nxt not in blocked:
                seen.add(nxt)
                frontier.append(nxt)
    if len(seen) != len(allowed):
        return "obstacle field disconnects the tiling"
    return None


def masked_tiling(tiling: Tiling, obstacles: Sequence[RegionId]) -> GraphTiling:
    """The sub-tiling of ``tiling`` with ``obstacles`` removed.

    Raises :class:`ValueError` when the remainder is empty, has no moves
    (a single region), or is disconnected — an obstacle field must leave
    a walkable space.
    """
    blocked = set(obstacles)
    graph = _region_graph(tiling)
    unknown = blocked - graph.keys()
    if unknown:
        raise ValueError(f"obstacle regions not in the tiling: {sorted(unknown)}")
    error = _walkable_error(graph, blocked)
    if error is not None:
        raise ValueError(error)
    adjacency = {
        r: [n for n in nbrs if n not in blocked]
        for r, nbrs in graph.items()
        if r not in blocked
    }
    centers = {r: tiling.region(r).center for r in adjacency}
    return GraphTiling(adjacency, centers)


def _greedy_step(
    tiling: Tiling, current: RegionId, target: RegionId
) -> RegionId:
    """The neighbor of ``current`` closest to ``target`` (min-id ties).

    Distances are taken from ``target``: the neighbor relation is
    symmetric (§II-A), so the values are those to ``target``, and a
    :class:`GraphTiling` runs one cached BFS per target rather than
    one per neighbor.
    """
    return min(
        tiling.neighbors(current),
        key=lambda nb: (tiling.distance(target, nb), nb),
    )


class UniformWalkModel(GeneratedModel):
    """Uniform random neighbor walk (the seeded-generator counterpart of
    :class:`~repro.mobility.models.RandomNeighborWalk`)."""

    def next_region(self, current, tiling, rng):
        return rng.choice(tiling.neighbors(current))


class WaypointGraphModel(GeneratedModel):
    """Walks a waypoint graph with per-edge speed profiles.

    The model patrols ``nodes``: it steps greedily through the tiling
    toward the current target waypoint; on arrival it draws the next
    waypoint uniformly from the graph edges out of the reached node.
    ``speeds[edge]`` scales the dwell of every step on that leg.
    """

    def __init__(
        self,
        nodes: Tuple[RegionId, ...],
        edges: Dict[int, Tuple[int, ...]],
        speeds: Dict[Tuple[int, int], float],
    ) -> None:
        self.nodes = nodes
        self.edges = edges
        self.speeds = speeds
        self._at = 0  # index of the waypoint we left
        self._target = 0  # index of the waypoint we are heading to

    def start_region(self, tiling, rng):
        self._at = rng.randrange(len(self.nodes))
        self._target = self._at
        return self.nodes[self._at]

    def _advance_target(self, rng) -> None:
        options = self.edges[self._target]
        self._at = self._target
        self._target = options[rng.randrange(len(options))]

    def next_region(self, current, tiling, rng):
        while self.nodes[self._target] == current:
            self._advance_target(rng)
        return _greedy_step(tiling, current, self.nodes[self._target])

    def dwell_factor(self, current, target):
        return self.speeds.get((self._at, self._target), 1.0)


class HotspotModel(GeneratedModel):
    """Hotspot churn: steps toward a time-varying attraction point.

    Every ``period`` steps the attraction switches to a fresh uniformly
    drawn one of the ``pool_size`` candidate hotspots (drawn lazily from
    the step rng, so the schedule is part of the trace's seed
    discipline).  At the hotspot the model orbits it with uniform
    neighbor steps until the next churn.
    """

    def __init__(self, pool: Tuple[RegionId, ...], period: int) -> None:
        self.pool = pool
        self.period = period
        self._steps = 0
        self._hotspot: Optional[RegionId] = None

    def next_region(self, current, tiling, rng):
        if self._hotspot is None or self._steps % self.period == 0:
            self._hotspot = self.pool[rng.randrange(len(self.pool))]
        self._steps += 1
        if self._hotspot == current:
            return rng.choice(tiling.neighbors(current))
        return _greedy_step(tiling, current, self._hotspot)


class DitherModel(GeneratedModel):
    """Adversarial handover-maximizing walk (the §IV-B stressor).

    Each step moves to the neighbor separated from the current region at
    the most hierarchy levels — the walk finds and then hugs the deepest
    cluster boundary it can reach, so nearly every relocation forces
    grows/shrinks through the deepest shared level (the most expensive
    §VI floor).  Ties break on the smallest region id: the path is a
    pure function of the start region.
    """

    def __init__(self, hierarchy) -> None:
        self.hierarchy = hierarchy

    def _split_depth(self, u: RegionId, v: RegionId) -> int:
        h = self.hierarchy
        return sum(
            1 for level in range(h.max_level) if h.cluster(u, level) != h.cluster(v, level)
        )

    def next_region(self, current, tiling, rng):
        return min(
            tiling.neighbors(current),
            key=lambda nb: (-self._split_depth(current, nb), nb),
        )


class ReplayModel(GeneratedModel):
    """Replays a recorded region sequence, then idles.

    The one generated model allowed to stay: a finite recorded trace
    runs out, and idling at its final region is the only §VI-legal
    continuation under a periodic dwell clock.
    """

    allows_stay = True

    def __init__(self, path: Tuple[RegionId, ...]) -> None:
        if not path:
            raise ValueError("replay needs at least one region")
        self.path = path
        self._index = 0

    def start_region(self, tiling, rng):
        self._index = 0
        for a, b in zip(self.path, self.path[1:]):
            if not tiling.are_neighbors(a, b):
                raise ValueError(
                    f"replayed hop {a!r} -> {b!r} is not a neighbor move"
                )
        return self.path[0]

    def next_region(self, current, tiling, rng):
        target = self.path[self._index]
        if current == target:
            if self._index + 1 == len(self.path):
                return current  # trace exhausted: idle (allows_stay)
            self._index += 1
            target = self.path[self._index]
        if current == target or tiling.are_neighbors(current, target):
            return target
        # Off-path (a combinator sibling moved the evader): walk back
        # toward the next recorded region before resuming the replay.
        return _greedy_step(tiling, current, target)


class MaskedModel(GeneratedModel):
    """Runs ``inner`` on a fixed obstacle-masked sub-tiling.

    The tiling the caller passes is mostly ignored: the mask was
    resolved once (seeded) and every move the inner model makes respects
    it.  The one exception is composition — a sibling model in a
    ``Compose``/``Switch``/``TimeSlice`` may carry the evader outside
    the masked space, in which case this model steps greedily (on the
    caller's full tiling) back toward the nearest allowed region before
    handing control to ``inner`` again.
    """

    def __init__(
        self,
        inner: MobilityModel,
        tiling: GraphTiling,
        obstacles: Tuple[RegionId, ...],
    ) -> None:
        self.inner = inner
        self.tiling = tiling
        self.obstacles = obstacles
        self._allowed = set(tiling.regions())

    def start_region(self, tiling, rng):
        return self.inner.start_region(self.tiling, rng)

    def next_region(self, current, tiling, rng):
        if current not in self._allowed:
            return min(
                tiling.neighbors(current),
                key=lambda nb: (
                    min(tiling.distance(nb, a) for a in self._allowed),
                    nb,
                ),
            )
        return self.inner.next_region(current, self.tiling, rng)

    def dwell_factor(self, current, target):
        inner_factor = getattr(self.inner, "dwell_factor", None)
        if inner_factor is None:
            return 1.0
        return inner_factor(current, target)


class ComposeModel(GeneratedModel):
    """Weighted per-step mixture of child models."""

    def __init__(
        self, parts: Tuple[MobilityModel, ...], weights: Tuple[float, ...]
    ) -> None:
        self.parts = parts
        self.weights = weights
        self._total = sum(weights)
        self._active = parts[0]

    def start_region(self, tiling, rng):
        start = self.parts[0].start_region(tiling, rng)
        for part in self.parts[1:]:
            part.start_region(tiling, rng)
        return start

    def _pick(self, rng) -> MobilityModel:
        draw = rng.random() * self._total
        acc = 0.0
        for part, weight in zip(self.parts, self.weights):
            acc += weight
            if draw < acc:
                return part
        return self.parts[-1]

    def next_region(self, current, tiling, rng):
        self._active = self._pick(rng)
        return self._active.next_region(current, tiling, rng)

    def dwell_factor(self, current, target):
        factor = getattr(self._active, "dwell_factor", None)
        return 1.0 if factor is None else factor(current, target)


class SwitchModel(GeneratedModel):
    """Round-robin between child models every ``every`` steps."""

    def __init__(self, parts: Tuple[MobilityModel, ...], every: int) -> None:
        self.parts = parts
        self.every = every
        self._steps = 0

    def start_region(self, tiling, rng):
        start = self.parts[0].start_region(tiling, rng)
        for part in self.parts[1:]:
            part.start_region(tiling, rng)
        return start

    @property
    def _active(self) -> MobilityModel:
        return self.parts[(self._steps // self.every) % len(self.parts)]

    def next_region(self, current, tiling, rng):
        active = self._active
        self._steps += 1
        return active.next_region(current, tiling, rng)

    def dwell_factor(self, current, target):
        # _steps already advanced: charge the step to the model that chose it.
        previous = self.parts[((self._steps - 1) // self.every) % len(self.parts)]
        factor = getattr(previous, "dwell_factor", None)
        return 1.0 if factor is None else factor(current, target)


class TimeSliceModel(GeneratedModel):
    """Piecewise schedule: child ``i`` drives steps ``< boundaries[i]``,
    the last child drives everything after the final boundary."""

    def __init__(
        self, parts: Tuple[MobilityModel, ...], boundaries: Tuple[int, ...]
    ) -> None:
        self.parts = parts
        self.boundaries = boundaries
        self._steps = 0
        self._last: Optional[MobilityModel] = None

    def start_region(self, tiling, rng):
        start = self.parts[0].start_region(tiling, rng)
        for part in self.parts[1:]:
            part.start_region(tiling, rng)
        return start

    def next_region(self, current, tiling, rng):
        index = len(self.boundaries)
        for i, bound in enumerate(self.boundaries):
            if self._steps < bound:
                index = i
                break
        self._steps += 1
        self._last = self.parts[index]
        return self._last.next_region(current, tiling, rng)

    def dwell_factor(self, current, target):
        factor = getattr(self._last, "dwell_factor", None)
        return 1.0 if factor is None else factor(current, target)
