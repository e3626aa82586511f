"""Region-sharded conservative PDES core (`repro.sim.sharded`).

Partitions the grid hierarchy into K region shards, runs each shard's
event loop independently (in-process or in forked workers), and
exchanges boundary-crossing cgcast/vbcast traffic at conservative
δ-width time barriers in a canonical order — seed-deterministic
regardless of worker scheduling, with a bit-identical K=1 mode.

See DESIGN.md §8 for the barrier protocol and determinism argument.
"""

from .context import RemoteMessage, SendDigest, ShardContext
from .core import (
    ShardedRunError,
    ShardedRunResult,
    ShardedSimulator,
    canonical_fingerprint,
    exact_fingerprint,
)
from .plan import ShardPlan, strip_plan
from .runner import (
    ShardedWalkResult,
    run_reference_walk,
    run_sharded_walk,
    walk_fault_plan,
)
from .workload import (
    EvaderEnter,
    EvaderStep,
    IssueFind,
    ScriptedWorkload,
    make_walk_workload,
    schedule_workload,
)

__all__ = [
    "EvaderEnter",
    "EvaderStep",
    "IssueFind",
    "RemoteMessage",
    "SendDigest",
    "ScriptedWorkload",
    "ShardContext",
    "ShardPlan",
    "ShardedRunError",
    "ShardedRunResult",
    "ShardedSimulator",
    "ShardedWalkResult",
    "canonical_fingerprint",
    "exact_fingerprint",
    "make_walk_workload",
    "run_reference_walk",
    "run_sharded_walk",
    "schedule_workload",
    "strip_plan",
    "walk_fault_plan",
]
