"""Generator workloads, the regime runner and the sweep job set.

:class:`GeneratedWalk` adapts a generator spec (or preset name) to the
unified workload protocol (DESIGN.md §9): ``events(seed)`` generates
§VI-legal traces and exports them as the frozen action script both
engines consume, so any mobility regime runs bit-identically on the
plain reference engine and the K-sharded PDES engine.

:func:`run_mobility_regime` is the one-call E-series entry point behind
the ``repro mobility`` CLI subcommand and the ``"mobility_regime"``
sweep runner: reference-run one regime, cross-check the sharded engine
when asked, and report trace statistics alongside the §VI verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .limits import SpeedLimits, check_trace, touched_level
from .presets import preset, preset_names
from .spec import GeneratorSpec
from .trace import generate, trace_workload


def resolve_spec(mobility: Union[str, GeneratorSpec]) -> GeneratorSpec:
    """Accept a preset name or an explicit spec tree."""
    if isinstance(mobility, str):
        return preset(mobility)
    if isinstance(mobility, GeneratorSpec):
        return mobility
    raise TypeError(
        f"mobility must be a preset name or GeneratorSpec, got {type(mobility).__name__}"
    )


@dataclass(frozen=True)
class GeneratedWalk:
    """A generator regime as a protocol workload (pure function of seed)."""

    r: int = 2
    max_level: int = 2
    mobility: Union[str, GeneratorSpec] = "uniform-walk"
    n_moves: int = 8
    n_finds: int = 4
    n_objects: int = 1
    find_clients: int = 4
    delta: float = 1.0
    e: float = 0.5
    mode: str = "concurrent"
    base_dwell: Optional[float] = None
    deadline: Optional[float] = None

    def traces(self, seed: int = 0):
        from ...topo.cache import shared_grid_hierarchy

        hierarchy = shared_grid_hierarchy(self.r, self.max_level)
        spec = resolve_spec(self.mobility)
        return generate(
            spec,
            hierarchy,
            self.n_moves,
            seed=seed,
            n_objects=self.n_objects,
            base_dwell=self.base_dwell,
            delta=self.delta,
            e=self.e,
            mode=self.mode,
        )

    def events(self, seed: int = 0):
        from ...topo.cache import shared_grid_hierarchy

        hierarchy = shared_grid_hierarchy(self.r, self.max_level)
        traces = self.traces(seed)
        # Leave one worst-case settle window after the last move so
        # trailing finds complete before the horizon.
        limits = SpeedLimits.for_hierarchy(
            hierarchy, delta=self.delta, e=self.e, mode=self.mode
        )
        script = trace_workload(
            traces,
            n_finds=self.n_finds,
            find_clients=self.find_clients,
            hierarchy=hierarchy,
            seed=seed,
            deadline=self.deadline,
            settle=2.0 * limits.enter_floor,
        )
        return script.actions


@dataclass(frozen=True)
class MobilityRegimeResult:
    """Picklable result of one regime run (E-series row)."""

    regime: str
    r: int
    max_level: int
    seed: int
    n_objects: int
    n_moves: int
    steps_scripted: int
    finds_issued: int
    finds_completed: int
    events: int
    messages_sent: int
    moves_observed: int
    move_work: float
    find_work: float
    now: float
    wall_s: float
    canonical_fingerprint: str
    exact_fingerprint: str
    min_dwell: float
    mean_dwell: float
    speed_ok: bool
    speed_violation: Optional[str]
    touched_levels: Dict[int, int]
    shards: int = 1
    sharded_fingerprint: Optional[str] = None
    fingerprint_match: Optional[bool] = None


def run_mobility_regime(
    regime: Union[str, GeneratorSpec] = "uniform-walk",
    r: int = 2,
    max_level: int = 2,
    seed: int = 11,
    n_moves: int = 8,
    n_finds: int = 4,
    n_objects: int = 1,
    shards: int = 0,
    delta: float = 1.0,
    e: float = 0.5,
    mode: str = "concurrent",
    base_dwell: Optional[float] = None,
) -> MobilityRegimeResult:
    """Run one mobility regime end to end on the reference engine.

    ``shards >= 1`` additionally runs the same frozen script on the
    K-sharded engine and records the cross-engine fingerprint verdict.
    """
    from ...sim.sharded.context import ShardContext
    from ...sim.sharded.core import (
        ShardedSimulator,
        _tiling_for,
        canonical_fingerprint,
        exact_fingerprint,
    )
    from ...sim.sharded.plan import strip_plan
    from ...scenario import ScenarioConfig
    from ...topo.cache import shared_grid_hierarchy
    from ...workload import materialize

    spec = resolve_spec(regime)
    name = regime if isinstance(regime, str) else type(regime).__name__
    walk = GeneratedWalk(
        r=r,
        max_level=max_level,
        mobility=spec,
        n_moves=n_moves,
        n_finds=n_finds,
        n_objects=n_objects,
        delta=delta,
        e=e,
        mode=mode,
        base_dwell=base_dwell,
    )
    workload = materialize(walk, seed)
    config = ScenarioConfig(
        r=r, max_level=max_level, delta=delta, e=e, seed=seed, shards=1
    )

    wall0 = perf_counter()
    context = ShardContext(config, strip_plan(_tiling_for(config), 1), 0, workload)
    context.sim.run()
    wall = perf_counter() - wall0
    report = context.report()

    hierarchy = shared_grid_hierarchy(r, max_level)
    limits = SpeedLimits.for_hierarchy(hierarchy, delta=delta, e=e, mode=mode)
    traces = walk.traces(seed)
    dwells = [d for tr in traces for d in tr.dwells()]
    violation = None
    for tr in traces:
        violation = check_trace(tr, hierarchy, limits)
        if violation is not None:
            break
    levels: Dict[int, int] = {}
    for tr in traces:
        path = tr.regions
        for u, v in zip(path, path[1:]):
            level = touched_level(hierarchy, u, v)
            levels[level] = levels.get(level, 0) + 1

    sharded_fp = None
    match = None
    if shards >= 1:
        sharded = ShardedSimulator(
            config.with_(shards=shards), workload, backend="serial"
        ).run()
        sharded_fp = sharded.canonical_fingerprint
        match = sharded_fp == canonical_fingerprint(report["send_lines"])

    return MobilityRegimeResult(
        regime=name,
        r=r,
        max_level=max_level,
        seed=seed,
        n_objects=len(traces),
        n_moves=n_moves,
        steps_scripted=sum(len(tr.steps) for tr in traces),
        finds_issued=len(report["finds"]),
        finds_completed=sum(1 for f in report["finds"].values() if f["completed"]),
        events=report["events"],
        messages_sent=report["messages_sent"],
        moves_observed=report["moves_observed"],
        move_work=report["move_work"],
        find_work=report["find_work"],
        now=report["now"],
        wall_s=wall,
        canonical_fingerprint=canonical_fingerprint(report["send_lines"]),
        exact_fingerprint=exact_fingerprint(report["send_lines"]),
        min_dwell=min(dwells) if dwells else 0.0,
        mean_dwell=sum(dwells) / len(dwells) if dwells else 0.0,
        speed_ok=violation is None,
        speed_violation=violation,
        touched_levels=levels,
        shards=max(shards, 1) if shards >= 1 else 1,
        sharded_fingerprint=sharded_fp,
        fingerprint_match=match,
    )


def mobility_jobs(
    regimes: Optional[Iterable[str]] = None,
    r: int = 2,
    max_level: int = 2,
    seed: int = 11,
    n_moves: int = 8,
    n_finds: int = 4,
    shards: int = 0,
):
    """The canonical regime sweep: one job per registered preset."""
    from ...analysis.parallel import job

    names = tuple(regimes) if regimes is not None else preset_names()
    return [
        job(
            "mobility_regime",
            regime=name,
            r=r,
            max_level=max_level,
            seed=seed,
            n_moves=n_moves,
            n_finds=n_finds,
            shards=shards,
        )
        for name in names
    ]
