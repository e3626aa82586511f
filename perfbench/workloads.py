"""The three benchmark workloads and one measured repetition of each.

Every workload is a pre-materialized script simulated to quiescence.
Finds arrive open-loop in simulated time: each is issued at its
scheduled time whatever the backlog, and its latency runs from that
time.  On the host the run is a batch job, so host cost is the time to
finish the stated input.

One repetition (:func:`run_once`) splits host time from outside:

* set-up — cold topology cache, ``materialize`` and world construction
  (for the sharded engine, every replica's ``ShardContext``);
* run — first event to quiescence plus the engine's own result
  assembly (report, merge and canonical fingerprint).

Neither ``ServiceRunResult.wall_s`` nor the sharded result's ``wall_s``
is read: both fold world construction into the run.
"""

from __future__ import annotations

import gc
import math
import random
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

import repro.workload
from repro.core.consistency import check_consistent
from repro.core.messages import TrackerMessage
from repro.core.state import capture_snapshot
from repro.energy import EnergyModel
from repro.mobility.gen.workload import GeneratedWalk
from repro.scenario import ScenarioConfig
from repro.service.load import LoadGenerator
from repro.sim.sharded.context import ShardContext
from repro.sim.sharded.core import SerialTransport, ShardedSimulator, canonical_fingerprint
from repro.sim.sharded.plan import strip_plan
from repro.sim.sharded.runner import walk_fault_plan
from repro.sim.sharded.workload import IssueFind
from repro.topo import reset_topology_cache, shared_grid_hierarchy

#: Tracker message kinds, in protocol order (the ``core.tracker.msgs.*`` set).
MESSAGE_KINDS = (
    "grow", "grownbr", "growpar", "shrink", "shrinkupd",
    "find", "findquery", "findack", "found",
)

#: Lanes whose §IV-C consistency is checked at quiescence, per repetition.
LANE_SAMPLE = 48

#: The grid every workload runs on, and its region count.
GRID = dict(r=3, max_level=2)
REGIONS = 81

#: Objects per ``gauntlet`` convoy: the leader and its two followers.
CONVOY = 3


@dataclass(frozen=True)
class Workload:
    """One named workload: how to build its script and its world."""

    name: str
    engine: str  # "plain" or "sharded" (serial backend)
    check_lanes: bool  # §IV-C consistency holds at quiescence
    make: Callable[[int, str], Tuple[ScenarioConfig, Any]]


# Sizes: "full" is the benchmark; "tiny" runs the same shapes in about
# a second each, for the warm-up and the self-tests.
_LANES = {
    "full": dict(m=1000, finds=1000, rate=40.0),
    "tiny": dict(m=100, finds=300, rate=1.0),
}
_CHAOS = {
    "full": dict(objects=48, finds=900, moves=25),
    "tiny": dict(objects=8, finds=300, moves=4),
}
_GAUNTLET = {
    "full": dict(convoys=64, moves=25, finds=5),
    "tiny": dict(convoys=44, moves=10, finds=5),
}


def _tiling():
    return shared_grid_hierarchy(**GRID).tiling


@dataclass(frozen=True)
class RoundRobinFinds:
    """A :class:`LoadGenerator` whose finds take the objects in turn.

    Find ``j`` (in arrival order) targets object ``order[j % M]`` for a
    seeded permutation ``order``, so an object's next find is issued
    ``M`` finds after its last one, long after that one has completed.
    A tracker lane keeps a single ``find_id`` slot: two finds for one
    object in flight at once can overwrite each other (the earlier one
    never completes) and, under sharding, break K-invariance (see
    perfbench/SCOPE.md).  Every workload here keeps one find per object
    in flight, so that no operation fails on a correct program.
    """

    load: LoadGenerator

    def events(self, seed: int = 0):
        order = list(range(self.load.n_objects))
        random.Random(seed).shuffle(order)
        return [
            replace(a, object_id=order[(a.find_id - 1) % len(order)])
            if isinstance(a, IssueFind) else a
            for a in self.load.events(seed)
        ]


def _make_lanes(seed: int, size: str):
    p = _LANES[size]
    config = ScenarioConfig(**GRID, seed=seed)
    # One Poisson find per object and two steps per object: many lanes,
    # each lightly loaded.  Finds come from every region, so find work
    # does not hinge on which few regions a seed picks.
    load = LoadGenerator(
        _tiling(), n_objects=p["m"], n_finds=p["finds"], find_clients=REGIONS,
        arrival="poisson", rate=p["rate"], moves_per_object=2, dwell=40.0,
    )
    return config, RoundRobinFinds(load)


def _make_chaos(seed: int, size: str):
    p = _CHAOS[size]
    # No message loss: combined with duplication it can leave finds
    # cycling without quiescence (see perfbench/SCOPE.md).
    plan = walk_fault_plan(
        duplication_rate=0.05, jitter_rate=0.2, jitter_max=0.5
    )
    config = ScenarioConfig(
        **GRID, seed=seed, shards=2, fault_plan=plan, stable_fault_draws=True,
    )
    # Each burst has one find for each object of one half of the
    # round-robin order, so an object's finds are two bursts apart.
    load = LoadGenerator(
        _tiling(), n_objects=p["objects"], n_finds=p["finds"],
        find_clients=REGIONS, arrival="burst", burst_size=p["objects"] // 2,
        burst_gap=80.0, moves_per_object=p["moves"], dwell=40.0, warmup=60.0,
    )
    return config, RoundRobinFinds(load)


@dataclass(frozen=True)
class ConvoyFleet:
    """Independent ``gauntlet`` convoys in one world, as one workload.

    One ``gauntlet`` trace is a single convoy: its followers repeat the
    leader's path, and where its hotspots fall fixes its move cost (the
    per-convoy move work per step varies by about 22 % across seeds).
    Many short convoys, each from its own sub-seed, keep the per-seed
    statistics steady.  Object and find ids are offset per convoy.
    """

    convoys: int
    moves: int
    finds: int

    def events(self, seed: int = 0):
        walk = GeneratedWalk(
            **GRID, mobility="gauntlet", n_moves=self.moves,
            n_finds=self.finds, n_objects=CONVOY, find_clients=REGIONS,
        )
        actions = []
        for c in range(self.convoys):
            for action in walk.events(seed * self.convoys + c):
                if isinstance(action, IssueFind):
                    action = replace(action, find_id=action.find_id + c * self.finds)
                actions.append(
                    replace(action, object_id=action.object_id + c * CONVOY)
                )
        return actions


def _make_gauntlet(seed: int, size: str):
    config = ScenarioConfig(**GRID, seed=seed, energy=EnergyModel())
    return config, ConvoyFleet(**_GAUNTLET[size])


# Why each workload exists is recorded in BENCHMARK.json; the layers
# each one loads and leaves idle are mapped in perfbench/SCOPE.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("lanes", "plain", True, _make_lanes),
        Workload("chaos", "sharded", False, _make_chaos),
        Workload("gauntlet", "plain", True, _make_gauntlet),
    )
}


class SendTally:
    """The benchmark's own C-gcast observer: cost sum and per-kind counts."""

    def __init__(self) -> None:
        self.cost = 0.0
        self.sends = 0
        self.kinds: Dict[str, int] = {}

    def __call__(self, record) -> None:
        self.cost += record.cost
        self.sends += 1
        payload = record.payload
        kind = payload.kind if isinstance(payload, TrackerMessage) else "other"
        self.kinds[kind] = self.kinds.get(kind, 0) + 1


class _PrebuiltSharded(ShardedSimulator):
    """The serial sharded driver with its replicas built ahead of ``run``.

    ``ShardedSimulator.run`` builds its transport (and so every replica)
    inside its own loop; building them here charges that to set-up.
    """

    def __init__(self, config, script) -> None:
        super().__init__(config, script, backend="serial")
        self.transport = SerialTransport(config, self.plan, script)

    def _make_transport(self):
        return self.transport


@dataclass
class Rep:
    """One repetition: host times, the simulated outcome and the gate."""

    setup_s: float
    run_s: float
    script: Any
    contexts: List[ShardContext]
    tallies: List[SendTally]
    finds: Dict[int, dict]
    move_work: float
    find_work: float
    total_cost: float
    messages_sent: int
    events: int
    fingerprint: str
    windows: int = 0
    cross_shard: int = 0


def build(workload: Workload, seed: int, size: str):
    """Set-up: materialize the script and construct every world."""
    config, source = workload.make(seed, size)
    script = repro.workload.materialize(source, seed)
    if workload.engine == "sharded":
        driver = _PrebuiltSharded(config, script)
        return script, driver, driver.transport.contexts
    context = ShardContext(config, strip_plan(_tiling(), 1), 0, script)
    return script, None, [context]


def time_setup(workload: Workload, seed: int, size: str) -> float:
    """Host time of one cold set-up alone, as :func:`run_once` times it."""
    reset_topology_cache()
    gc.collect()
    t0 = perf_counter()
    built = build(workload, seed, size)
    setup_s = perf_counter() - t0
    del built  # freed outside the timing, as in a repetition
    return setup_s


def run_once(workload: Workload, seed: int, size: str = "full") -> Rep:
    """One cold repetition of ``workload`` at ``seed``, timed from outside."""
    reset_topology_cache()
    gc.collect()
    t0 = perf_counter()
    script, driver, contexts = build(workload, seed, size)
    setup_s = perf_counter() - t0
    tallies = []
    for context in contexts:
        tally = SendTally()
        context.system.cgcast.observe(tally)
        tallies.append(tally)
    t1 = perf_counter()
    if driver is not None:
        result = driver.run()
        run_s = perf_counter() - t1
        return Rep(
            setup_s, run_s, script, contexts, tallies,
            finds=result.finds, move_work=result.move_work,
            find_work=result.find_work,
            total_cost=result.total_cost, messages_sent=result.messages_sent,
            events=result.events, fingerprint=result.canonical_fingerprint,
            windows=result.windows, cross_shard=result.cross_shard_messages,
        )
    context = contexts[0]
    context.sim.run()
    report = context.report()
    fingerprint = canonical_fingerprint(report["send_lines"])
    run_s = perf_counter() - t1
    return Rep(
        setup_s, run_s, script, contexts, tallies,
        finds=report["finds"], move_work=report["move_work"],
        find_work=report["find_work"],
        total_cost=report["total_cost"], messages_sent=report["messages_sent"],
        events=report["events"], fingerprint=fingerprint,
    )


def plain_fingerprint(workload: Workload, seed: int, size: str, script) -> str:
    """Canonical fingerprint of ``script`` on the plain engine (K=1)."""
    config, _ = workload.make(seed, size)
    config = config.with_(shards=1)
    context = ShardContext(config, strip_plan(_tiling(), 1), 0, script)
    context.sim.run()
    return canonical_fingerprint(context.send_lines)


# ----------------------------------------------------------------------
# Simulated metrics
# ----------------------------------------------------------------------
def nearest_rank(sorted_values: List[float], q: float) -> Tuple[float, int]:
    """The ``q`` nearest-rank percentile and how many samples lie beyond it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def simulated(rep: Rep) -> Dict[str, Any]:
    """The paper-level statistics of one repetition (exactly repeatable)."""
    issued = len(rep.finds)
    latencies = sorted(
        f["latency"] for f in rep.finds.values() if f["completed"]
    )
    # With no completed find the gate fails; 0 keeps the JSON valid.
    p50, _ = nearest_rank(latencies, 0.50) if latencies else (0.0, 0)
    p95, beyond = nearest_rank(latencies, 0.95) if latencies else (0.0, 0)
    steps = rep.script.move_count()
    kinds: Dict[str, int] = {}
    for tally in rep.tallies:
        for kind, count in tally.kinds.items():
            kinds[kind] = kinds.get(kind, 0) + count
    return {
        "finds_issued": issued,
        "finds_completed": len(latencies),
        "p95_beyond": beyond,
        "steps": steps,
        "events": rep.events,
        "fingerprint": rep.fingerprint,
        "kinds": {k: kinds.get(k, 0) for k in MESSAGE_KINDS},
        "find_success_rate": len(latencies) / issued if issued else 0.0,
        "find_latency_p50": p50,
        "find_latency_p95": p95,
        "move_work_per_move": rep.move_work / steps if steps else 0.0,
        "find_work_per_find": rep.find_work / issued if issued else 0.0,
    }


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def work_balance(contexts, tallies) -> List[str]:
    """Benchmark tally == ``cgcast.total_cost`` == accountant buckets.

    Costs are whole distance units, so the float sums are exact.
    """
    problems = []
    for context, tally in zip(contexts, tallies):
        cgcast = context.system.cgcast
        accountant = context.scenario.accountant
        buckets = accountant.move_work + accountant.find_work + accountant.other_work
        if not tally.cost == cgcast.total_cost == buckets:
            problems.append(
                f"shard {context.shard_id}: tally {tally.cost} vs "
                f"cgcast {cgcast.total_cost} vs accountant {buckets}"
            )
        if tally.sends != cgcast.messages_sent:
            problems.append(
                f"shard {context.shard_id}: tally saw {tally.sends} sends, "
                f"cgcast counted {cgcast.messages_sent}"
            )
    return problems


def lane_consistency(context: ShardContext, object_ids, seed: int) -> List[str]:
    """§IV-C consistency of a seeded sample of lanes at quiescence."""
    system = context.system
    sample = random.Random(seed).sample(
        list(object_ids), min(LANE_SAMPLE, len(object_ids))
    )
    problems = []
    for oid in sorted(sample):
        region = system.object_evader(oid).region
        for problem in check_consistent(
            capture_snapshot(system, oid), system.hierarchy, region
        ):
            problems.append(f"lane {oid}: {problem}")
    return problems


def gate(workload: Workload, rep: Rep, seed: int) -> List[str]:
    """The per-repetition correctness checks; empty means passed."""
    problems = work_balance(rep.contexts, rep.tallies)
    if workload.check_lanes:
        problems += lane_consistency(
            rep.contexts[0], rep.script.object_ids(), seed
        )
    stats = simulated(rep)
    if stats["p95_beyond"] < 10:
        problems.append(
            f"find_latency_p95 unsupported: {stats['p95_beyond']} finds beyond it"
        )
    return problems
