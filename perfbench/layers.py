"""Per-layer metrics of the traced run, named after the ``repro`` modules.

Counts are exact and repeat at one seed; ``*_s`` values are host
seconds from the traced run: ``self_s`` is a layer's span time minus its
child spans, the other seconds are inclusive span time.
"""

from __future__ import annotations

from typing import Dict, Tuple

from perfbench.workloads import MESSAGE_KINDS

_OBSERVERS = ("accounting", "finds", "energy", "fingerprint")


def layer_metrics(totals: Dict[str, Tuple[int, float, float]], rep, stats,
                  timed_run_s: float) -> Dict[str, Tuple[float, str]]:
    """``name -> (value, unit)`` for every per-layer metric."""

    def calls(*names: str) -> int:
        return sum(totals.get(n, (0, 0.0, 0.0))[0] for n in names)

    def incl(*names: str) -> float:
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(*names: str) -> float:
        return sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    faults = {"messages_dropped": 0, "messages_duplicated": 0, "messages_delayed": 0}
    for context in rep.contexts:
        fault_stats = context.scenario.fault_stats
        if fault_stats is not None:
            for key in faults:
                faults[key] += getattr(fault_stats, key)
    fingerprint_bytes = sum(
        len(line) for context in rep.contexts for line in context.send_lines
    )
    enabled = calls("core.tracker.enabled_outputs")
    m: Dict[str, Tuple[float, str]] = {
        "scenario.build_s": (incl("scenario.build"), "s"),
        "workload.materialize_s": (incl("workload.materialize"), "s"),
        "sim.engine.events": (rep.events, "count"),
        "sim.engine.self_s": (own("sim.engine"), "s"),
        "sim.engine.events_per_s": (rep.events / timed_run_s, "1/s"),
        "sim.event_queue.pushes": (calls("sim.event_queue.push"), "count"),
        "sim.event_queue.pops": (calls("sim.event_queue.pop"), "count"),
        "sim.event_queue.cancels": (calls("sim.event_queue.cancel"), "count"),
        "sim.event_queue.self_s": (own(
            "sim.event_queue.push", "sim.event_queue.pop", "sim.event_queue.cancel"
        ), "s"),
        "tioa.executor.kicks": (calls("tioa.executor.kick"), "count"),
        "tioa.executor.self_s": (own(
            "tioa.executor.kick", "tioa.executor.deliver", "tioa.executor.wake_at"
        ), "s"),
        "tioa.automaton.inputs": (
            calls("tioa.automaton.input", "core.tracker.input"), "count"),
        "tioa.automaton.performs": (
            calls("tioa.automaton.perform", "core.tracker.perform"), "count"),
        "core.tracker.enabled_outputs_calls": (enabled, "count"),
        "core.tracker.enabled_outputs_s": (own("core.tracker.enabled_outputs"), "s"),
        "core.tracker.useful_scan_ratio": (
            calls("core.tracker.perform") / enabled if enabled else 0.0, "ratio"),
        "core.tracker.input_s": (own("core.tracker.input"), "s"),
        "core.tracker.perform_s": (own("core.tracker.perform"), "s"),
    }
    for kind in MESSAGE_KINDS:
        m[f"core.tracker.msgs.{kind}"] = (stats["kinds"][kind], "count")
    m.update({
        "geocast.cgcast.sends": (rep.messages_sent, "count"),
        "geocast.cgcast.cost": (rep.total_cost, "work"),
        "geocast.cgcast.self_s": (own("geocast.cgcast.send"), "s"),
        "observers.calls": (
            calls(*(f"observers.{o}" for o in _OBSERVERS)), "count"),
    })
    for observer in _OBSERVERS:
        m[f"observers.{observer}_s"] = (own(f"observers.{observer}"), "s")
    m.update({
        "observers.fingerprint_bytes": (fingerprint_bytes, "B"),
        "faults.filter_calls": (calls("faults.filter"), "count"),
        "faults.filter_s": (own("faults.filter"), "s"),
        "faults.dropped": (faults["messages_dropped"], "count"),
        "faults.duplicated": (faults["messages_duplicated"], "count"),
        "faults.jittered": (faults["messages_delayed"], "count"),
        "sim.sharded.windows": (rep.windows, "count"),
        "sim.sharded.window_s": (incl("sim.sharded.window"), "s"),
        "sim.sharded.barrier_s": (
            incl("sim.sharded.run") - incl("sim.sharded.window"), "s"),
        "sim.sharded.xshard_msgs": (rep.cross_shard, "count"),
        "sim.sharded.inject_s": (incl("sim.sharded.inject"), "s"),
        "sim.sharded.replica_build_s": (incl("sim.sharded.replica_build"), "s"),
        "trace.overhead_s": (stats["run_s"] - timed_run_s, "s"),
    })
    return m
