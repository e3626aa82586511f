"""The tracking-service front-end (DESIGN.md §9).

:class:`TrackingService` admits one workload — anything satisfying the
:class:`~repro.workload.Workload` protocol — against a chosen engine:

* ``engine="plain"`` — the single-loop reference engine.  Runs a K=1
  :class:`~repro.sim.sharded.context.ShardContext` with a plain
  ``sim.run()``: no ownership hooks are installed at K=1, so this is
  exactly the pre-sharding engine path (the same construction the K=1
  bit-identity golden pins);
* ``engine="sharded"`` — the conservative PDES driver at
  ``config.shards`` shards (serial or processes backend).

Both engines execute the *same* materialized script, so a service run
is seed-deterministic and its canonical trace fingerprint K-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Optional

from ..workload import Workload, materialize
from .metrics import service_metrics

ENGINES = ("plain", "sharded")


@dataclass(frozen=True)
class ServiceRunResult:
    """Outcome of one service run (picklable).

    ``finds`` maps find id to the merged per-find record (origin repr,
    ``object_id``, ``issued_at``, ``deadline``, ``completed``,
    ``latency``, ``work``, ``deadline_missed``); ``handovers`` maps
    object id to its cluster-originated Grow dispatch count; ``metrics``
    is the :func:`~repro.service.metrics.service_metrics` block.

    ``work`` breaks total message work into the accountant's
    move/find/other buckets; ``energy`` is the merged ``energy/1``
    ledger payload when the config carries an
    :class:`~repro.energy.EnergyModel` (None otherwise); ``preconfig``
    carries the predictive baseline's pre-configuration counters.
    """

    engine: str
    shards: int
    backend: str
    seed: int
    objects: int
    events: int
    messages_sent: int
    windows: int
    cross_shard_messages: int
    canonical_fingerprint: str
    exact_fingerprint: Optional[str]
    now: float
    wall_s: float
    finds: Dict[int, dict] = field(default_factory=dict)
    handovers: Dict[int, int] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    work: Dict[str, float] = field(default_factory=dict)
    energy: Optional[Dict[str, Any]] = None
    preconfig: Optional[Dict[str, int]] = None

    @property
    def finds_issued(self) -> int:
        return len(self.finds)

    @property
    def finds_completed(self) -> int:
        return sum(1 for f in self.finds.values() if f["completed"])


class TrackingService:
    """Admit workloads against one scenario config and engine.

    Args:
        config: The :class:`~repro.scenario.ScenarioConfig`; its
            ``shards`` field fixes K for the sharded engine (the plain
            engine always runs the single world).
        engine: ``"plain"`` or ``"sharded"``.
        backend: Sharded engine only — ``"serial"`` or ``"processes"``.
    """

    def __init__(
        self, config, engine: str = "plain", backend: str = "serial"
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")
        self.config = config
        self.engine = engine
        self.backend = backend

    def run(self, workload: Workload, seed: Optional[int] = None) -> ServiceRunResult:
        """Materialize ``workload`` at ``seed`` and run it to quiescence.

        ``seed`` defaults to ``config.seed``.
        """
        if seed is None:
            seed = self.config.seed
        script = materialize(workload, seed)
        objects = len(script.object_ids())
        if self.engine == "plain":
            return self._run_plain(script, seed, objects)
        return self._run_sharded(script, seed, objects)

    def _run_plain(self, script, seed: int, objects: int) -> ServiceRunResult:
        from ..sim.sharded.context import ShardContext
        from ..sim.sharded.core import (
            _tiling_for,
            canonical_fingerprint,
            exact_fingerprint,
        )
        from ..sim.sharded.plan import strip_plan

        config = self.config.with_(shards=1)
        plan = strip_plan(_tiling_for(config), 1)
        wall0 = perf_counter()
        context = ShardContext(config, plan, 0, script)
        context.sim.run()
        wall = perf_counter() - wall0
        report = context.report()
        finds = {fid: dict(info) for fid, info in report["finds"].items()}
        for info in finds.values():
            deadline = info.get("deadline")
            info["deadline_missed"] = deadline is not None and (
                not info["completed"] or info["latency"] > deadline
            )
        handovers = dict(report["handovers"])
        return ServiceRunResult(
            engine="plain",
            shards=1,
            backend="reference",
            seed=seed,
            objects=objects,
            events=report["events"],
            messages_sent=report["messages_sent"],
            windows=0,
            cross_shard_messages=0,
            canonical_fingerprint=canonical_fingerprint(report["send_lines"]),
            exact_fingerprint=exact_fingerprint(report["send_lines"]),
            now=report["now"],
            wall_s=wall,
            finds=finds,
            handovers=handovers,
            metrics=service_metrics(finds, handovers),
            work={
                "move": report["move_work"],
                "find": report["find_work"],
                "other": report["other_work"],
                "total": report["total_cost"],
            },
            energy=report.get("energy"),
            preconfig=report.get("preconfig"),
        )

    def _run_sharded(self, script, seed: int, objects: int) -> ServiceRunResult:
        from ..sim.sharded.core import ShardedSimulator

        result = ShardedSimulator(
            self.config, script, backend=self.backend
        ).run()
        finds = dict(result.finds or {})
        handovers = dict(result.handovers or {})
        return ServiceRunResult(
            engine="sharded",
            shards=result.shards,
            backend=result.backend,
            seed=seed,
            objects=objects,
            events=result.events,
            messages_sent=result.messages_sent,
            windows=result.windows,
            cross_shard_messages=result.cross_shard_messages,
            canonical_fingerprint=result.canonical_fingerprint,
            exact_fingerprint=result.exact_fingerprint,
            now=result.now,
            wall_s=result.wall_s,
            finds=finds,
            handovers=handovers,
            metrics=service_metrics(finds, handovers),
            work={
                "move": result.move_work,
                "find": result.find_work,
                "other": result.other_work,
                "total": result.total_cost,
            },
            energy=result.energy,
            preconfig=result.preconfig,
        )
