"""High-level sharded runs: reference path, sweep runner, fault plans.

:func:`run_sharded_walk` is the one-call entry point used by the CLI,
the benchmarks, the CI smoke job and the SweepRunner registry
(``job("sharded_walk", ...)``): build a scripted walk workload, run it
at K shards, return a picklable result carrying the trace
fingerprints.

:func:`run_reference_walk` runs the *same* workload on the plain
single-loop :class:`~repro.sim.engine.Simulator` (no windows, no
barrier logic) and fingerprints it identically — the K=1 bit-identity
golden compares its exact fingerprint against the sharded K=1 run.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Optional, Tuple

from ...faults.plan import (
    CHANNEL_BOTH,
    FaultPlan,
    MessageDuplication,
    MessageJitter,
    MessageLoss,
)
from .context import ShardContext
from .core import (
    ShardedSimulator,
    _tiling_for,
    canonical_fingerprint,
    exact_fingerprint,
)
from .plan import strip_plan
from .workload import make_walk_workload


@dataclass(frozen=True)
class ShardedWalkResult:
    """Picklable result of one (reference or sharded) walk run."""

    shards: int
    backend: str
    events: int
    windows: int
    messages_sent: int
    moves_observed: int
    finds_issued: int
    finds_completed: int
    cross_shard_messages: int
    canonical_fingerprint: str
    exact_fingerprint: Optional[str]
    move_work: float
    find_work: float
    now: float
    wall_s: float
    barrier_wait_s: float
    fault_events: Optional[Dict[str, int]]


def walk_fault_plan(
    loss_rate: float = 0.0,
    duplication_rate: float = 0.0,
    jitter_rate: float = 0.0,
    jitter_max: float = 0.5,
    horizon: Optional[float] = None,
) -> Optional[FaultPlan]:
    """A message-perturbation plan, or ``None`` when all rates are 0."""
    rules: Tuple = ()
    if loss_rate > 0.0:
        rules += (MessageLoss(rate=loss_rate, channel=CHANNEL_BOTH),)
    if duplication_rate > 0.0:
        rules += (MessageDuplication(rate=duplication_rate, channel=CHANNEL_BOTH),)
    if jitter_rate > 0.0:
        rules += (
            MessageJitter(
                rate=jitter_rate, channel=CHANNEL_BOTH, max_extra=jitter_max
            ),
        )
    if not rules:
        return None
    return FaultPlan(rules=rules, horizon=horizon)


def _walk_config(
    r: int,
    max_level: int,
    seed: int,
    shards: int,
    delta: float,
    e: float,
    fault_plan: Optional[FaultPlan],
):
    from ...scenario import ScenarioConfig

    return ScenarioConfig(
        r=r,
        max_level=max_level,
        delta=delta,
        e=e,
        seed=seed,
        shards=shards,
        fault_plan=fault_plan,
        # Message-fault draws must not depend on global dispatch order
        # for cross-K fingerprints to agree; K=1 uses the same mode so
        # comparisons stay apples-to-apples.
        stable_fault_draws=fault_plan is not None,
    )


def run_sharded_walk(
    r: int = 2,
    max_level: int = 3,
    shards: int = 2,
    n_moves: int = 8,
    n_finds: int = 4,
    seed: int = 11,
    delta: float = 1.0,
    e: float = 0.5,
    dwell: float = 40.0,
    backend: str = "serial",
    loss_rate: float = 0.0,
    duplication_rate: float = 0.0,
    jitter_rate: float = 0.0,
) -> ShardedWalkResult:
    """Run the scripted walk workload at ``shards`` shards."""
    fault_plan = walk_fault_plan(loss_rate, duplication_rate, jitter_rate)
    config = _walk_config(r, max_level, seed, shards, delta, e, fault_plan)
    workload = make_walk_workload(
        _tiling_for(config), n_moves, n_finds, seed, dwell=dwell
    )
    result = ShardedSimulator(config, workload, backend=backend).run()
    return ShardedWalkResult(
        shards=result.shards,
        backend=result.backend,
        events=result.events,
        windows=result.windows,
        messages_sent=result.messages_sent,
        moves_observed=result.moves_observed,
        finds_issued=result.finds_issued,
        finds_completed=result.finds_completed,
        cross_shard_messages=result.cross_shard_messages,
        canonical_fingerprint=result.canonical_fingerprint,
        exact_fingerprint=result.exact_fingerprint,
        move_work=result.move_work,
        find_work=result.find_work,
        now=result.now,
        wall_s=result.wall_s,
        barrier_wait_s=result.barrier_wait_s,
        fault_events=result.fault_events,
    )


def run_reference_walk(
    r: int = 2,
    max_level: int = 3,
    n_moves: int = 8,
    n_finds: int = 4,
    seed: int = 11,
    delta: float = 1.0,
    e: float = 0.5,
    dwell: float = 40.0,
    loss_rate: float = 0.0,
    duplication_rate: float = 0.0,
    jitter_rate: float = 0.0,
) -> ShardedWalkResult:
    """The same workload on the plain single-loop engine (no windows)."""
    fault_plan = walk_fault_plan(loss_rate, duplication_rate, jitter_rate)
    config = _walk_config(r, max_level, seed, 1, delta, e, fault_plan)
    workload = make_walk_workload(
        _tiling_for(config), n_moves, n_finds, seed, dwell=dwell
    )
    plan = strip_plan(_tiling_for(config), 1)
    wall0 = perf_counter()
    # A K=1 context installs no hooks; driving it with a plain
    # ``sim.run()`` is exactly the pre-sharding engine path.
    context = ShardContext(config, plan, 0, workload)
    context.sim.run()
    wall = perf_counter() - wall0
    report = context.report()
    return ShardedWalkResult(
        shards=1,
        backend="reference",
        events=report["events"],
        windows=0,
        messages_sent=report["messages_sent"],
        moves_observed=report["moves_observed"],
        finds_issued=len(report["finds"]),
        finds_completed=sum(
            1 for f in report["finds"].values() if f["completed"]
        ),
        cross_shard_messages=0,
        canonical_fingerprint=canonical_fingerprint(report["send_lines"]),
        exact_fingerprint=exact_fingerprint(report["send_lines"]),
        move_work=report["move_work"],
        find_work=report["find_work"],
        now=report["now"],
        wall_s=wall,
        barrier_wait_s=0.0,
        fault_events=report["fault_stats"],
    )
