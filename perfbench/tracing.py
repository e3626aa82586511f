"""Span tracing from outside the program, for the traced run only.

:class:`Tracer` wraps public functions of the ``repro`` modules with
timing shims, records one span per call (name, start, end, parent) in
flat in-memory arrays, and removes every shim on :meth:`Tracer.remove`.
Self time is a span's duration minus the part of it that its child
spans cover.  No source under ``src/`` is changed: the shims replace
class and module attributes and put the originals back afterwards.
"""

from __future__ import annotations

import json
import os
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Tuple

import repro.scenario
import repro.workload
from repro.analysis.accounting import WorkAccountant
from repro.core.finds import FindCoordinator
from repro.core.tracker import Tracker
from repro.energy.ledger import EnergyLedger
from repro.geocast.cgcast import CGcast
from repro.sim.engine import Simulator
from repro.sim.event_queue import EventQueue
from repro.sim.sharded.context import ShardContext
from repro.sim.sharded.core import SerialTransport, ShardedSimulator
from repro.tioa.automaton import TimedAutomaton
from repro.tioa.executor import Executor

from perfbench.workloads import SendTally

#: Per-send observer owner class → span name.
OBSERVER_SPANS = {
    WorkAccountant: "observers.accounting",
    FindCoordinator: "observers.finds",
    EnergyLedger: "observers.energy",
    ShardContext: "observers.fingerprint",
    SendTally: "bench.tally",
}

#: (owner, attribute, span name) of every wrapped method.
METHOD_SPANS = (
    (Simulator, "run", "sim.engine"),
    (Simulator, "run_window", "sim.engine"),
    (EventQueue, "push", "sim.event_queue.push"),
    (EventQueue, "pop_next_before", "sim.event_queue.pop"),
    (EventQueue, "cancel", "sim.event_queue.cancel"),
    (Executor, "kick", "tioa.executor.kick"),
    (Executor, "deliver", "tioa.executor.deliver"),
    (Executor, "wake_at", "tioa.executor.wake_at"),
    (TimedAutomaton, "handle_input", "tioa.automaton.input"),
    (TimedAutomaton, "perform", "tioa.automaton.perform"),
    (Tracker, "enabled_outputs", "core.tracker.enabled_outputs"),
    (CGcast, "send_vsa", "geocast.cgcast.send"),
    (CGcast, "send_to_clients", "geocast.cgcast.send"),
    (CGcast, "send_from_client", "geocast.cgcast.send"),
    (CGcast, "apply_remote", "geocast.cgcast.send"),
    (ShardContext, "run_window", "sim.sharded.window"),
    (ShardContext, "inject", "sim.sharded.inject"),
    (ShardedSimulator, "run", "sim.sharded.run"),
    # Builds every shard replica's ShardContext (sharded engine only).
    (SerialTransport, "__init__", "sim.sharded.replica_build"),
)


class Tracer:
    """In-memory span recorder plus the shims that feed it."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording a span named ``name`` per call."""
        nid = self._intern(name)
        names, parents = self.name, self.parent
        starts, ends, stack = self.start, self.end, self._stack

        def shim(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        return shim

    # ------------------------------------------------------------------
    # Installing and removing the shims
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced entry point (before any world is built)."""
        handle_input, perform = TimedAutomaton.handle_input, TimedAutomaton.perform
        for owner, attr, name in METHOD_SPANS:
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))
        # Tracker inherits these; a Tracker-level shim gives the tracker
        # its own layer name while other automata keep the TIOA one.
        self._patch(Tracker, "handle_input", self.wrap("core.tracker.input", handle_input))
        self._patch(Tracker, "perform", self.wrap("core.tracker.perform", perform))
        self._patch(repro.workload, "materialize", self.wrap(
            "workload.materialize", repro.workload.materialize))
        self._patch(repro.scenario, "build", self._build_shim(repro.scenario.build))
        observe = CGcast.observe

        def observe_shim(cgcast, observer):
            owner = type(getattr(observer, "__self__", observer))
            label = OBSERVER_SPANS.get(owner, "observers.other")
            return observe(cgcast, self.wrap(label, observer))

        self._patch(CGcast, "observe", observe_shim)

    def _build_shim(self, build: Callable) -> Callable:
        timed = self.wrap("scenario.build", build)

        def build_shim(config):
            scenario = timed(config)
            cgcast = scenario.system.cgcast
            if cgcast.fault_filter is not None:
                cgcast.fault_filter = self.wrap("faults.filter", cgcast.fault_filter)
            return scenario

        return build_shim

    def remove(self) -> None:
        """Put every original attribute back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        name = self.name
        for i in range(n):
            k = name[i]
            d = end[i] - start[i]
            calls[k] += 1
            incl[k] += d
            self_s[k] += d - child[i]
        return {
            label: (calls[k], incl[k], self_s[k])
            for k, label in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """Write the spans: one JSON header line, then the raw arrays."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        header = {
            "run_id": self.run_id,
            "spans": len(self.start),
            "names": self.names,
            "arrays": [
                ["name", self.name.typecode], ["parent", self.parent.typecode],
                ["start", self.start.typecode], ["end", self.end.typecode],
            ],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(out)
