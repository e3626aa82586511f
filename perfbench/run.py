"""VINESTALK benchmark: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root; no install needed)::

    python3 perfbench/run.py --workload lanes --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` repeats the workload, each time from a cold topology
cache, as often as fits in ``--seconds`` (at least three times), sets
the world up again after each repetition for a tenth of its run time
(at least once), times a fixed calibration loop after each
repetition, and prints the end-to-end metrics: host set-up and run
time as medians over those samples, scaled to a reference host speed
by the calibration loop's median (set-up) or mean (run), peak RSS,
and the simulated §IV-D/§V statistics, which must repeat exactly.
``--trace 1`` does the same and then one traced repetition, and prints
the per-layer metrics.  ``--workload all`` runs every workload, each
in its own process, with ``--trace 1``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  One operation
is one issued find; a find fails when it has not completed at
quiescence, and every find of a run fails when the run fails the
correctness gate.  Spans of the traced run are written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Timed repetitions per run, whatever ``--seconds`` allows.
MIN_REPS = 3

#: After each repetition, set-up-only builds take at least this share
#: of its run time (and there is at least one).
SETUP_SHARE = 0.1

#: Calibration-loop samples after each repetition.
CALIBRATIONS_PER_REP = 12

#: The calibration loop's usual time on the reference host (a 2-vCPU
#: Xeon VM); host times are reported scaled to that speed.
CALIBRATION_REF_S = 0.015

#: Units of the end-to-end metrics, in report order.
E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "find_success_rate": "ratio",
    "find_latency_p50": "sim_time",
    "find_latency_p95": "sim_time",
    "move_work_per_move": "work/move",
    "find_work_per_find": "work/find",
}

#: The simulated end-to-end metrics: identical on every run at one seed.
SIMULATED = (
    "find_success_rate", "find_latency_p50", "find_latency_p95",
    "move_work_per_move", "find_work_per_find",
)


def _load_repro() -> None:
    """Import the package from this checkout's ``src`` or stop."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    sys.path[:0] = [SRC, ROOT]


def _deterministic(stats: Dict[str, Any]) -> Dict[str, Any]:
    """The parts of a repetition's outcome that must repeat exactly."""
    keys = ("finds_issued", "finds_completed", "steps", "events",
            "fingerprint", "kinds") + SIMULATED
    return {k: stats[k] for k in keys}


class _Event:
    __slots__ = ("time", "key", "value")

    def __init__(self, time: float, key: int, value: int) -> None:
        self.time, self.key, self.value = time, key, value


def calibrate() -> float:
    """Host time of a fixed pure-Python event loop: the host's speed now.

    On a shared host the speed of the whole machine drifts by up to
    about 2x over minutes.  Set-up and run time are divided by this
    loop's times, taken through the same run, so that such drift
    cancels.  The loop does what the simulator's inner loop
    does (objects, a heap, a dict, method calls) but calls nothing from
    the program, so a change to the program leaves it alone.
    """
    t0 = perf_counter()
    heap: List[Any] = []
    totals: Dict[int, int] = {}
    for i in range(12_000):
        event = _Event(float(i * 7919 % 1000), i % 97, i)
        heapq.heappush(heap, (event.time, i, event))
        totals[event.key] = totals.get(event.key, 0) + event.value
        if len(heap) > 64:
            done = heapq.heappop(heap)[2]
            totals[done.key] -= 1
    return perf_counter() - t0


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> Dict[str, Any]:
    """Run one workload and return its metrics, counts and gate verdict."""
    from perfbench import workloads

    workload = workloads.WORKLOADS[name]
    # Imports and first-call set-up are paid once per process, not per
    # repetition: a small warm-up repetition absorbs them.
    workloads.run_once(workload, seed, "tiny")
    gc.collect()

    problems: List[str] = []
    setups: List[float] = []
    runs: List[float] = []
    calibrations: List[float] = []
    first = script = None
    began = perf_counter()
    while True:
        rep = workloads.run_once(workload, seed, size)
        setups.append(rep.setup_s)
        runs.append(rep.run_s)
        stats = workloads.simulated(rep)
        problems += workloads.gate(workload, rep, seed)
        if first is None:
            first, script = stats, rep.script
        elif _deterministic(stats) != _deterministic(first):
            problems.append(f"repetition {len(runs)} diverged from repetition 1")
        del rep
        gc.collect()
        # Set-up is short next to the run, so it is sampled more often,
        # spread over the whole measurement like the runs.
        spent = 0.0
        while spent < SETUP_SHARE * runs[-1]:
            setups.append(workloads.time_setup(workload, seed, size))
            spent += setups[-1]
        calibrations += [calibrate() for _ in range(CALIBRATIONS_PER_REP)]
        elapsed = perf_counter() - began
        if len(runs) >= MIN_REPS and elapsed * (len(runs) + 1) / len(runs) > seconds:
            break
    if workload.engine == "sharded":
        plain = workloads.plain_fingerprint(workload, seed, size, script)
        if plain != first["fingerprint"]:
            problems.append(
                f"K-invariance: sharded fingerprint {first['fingerprint']} "
                f"!= plain {plain}"
            )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The host alternates between fast and slow spells lasting about a
    # second.  A median of short samples (set-ups, calibrations) falls
    # in whichever spell dominates, while one repetition averages over
    # them; each host time is scaled by the matching statistic.
    calibration_s = statistics.median(calibrations)
    calibration_mean_s = statistics.fmean(calibrations)

    result: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "reps": len(runs),
        "setups": len(setups),
        "stats": first,
        "calibration_s": calibration_s,
        "calibration_mean_s": calibration_mean_s,
        "unscaled": {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(runs),
        },
        "e2e": {
            "setup_s": statistics.median(setups)
            * CALIBRATION_REF_S / calibration_s,
            "run_s": statistics.median(runs)
            * CALIBRATION_REF_S / calibration_mean_s,
            "peak_rss_mb": peak_rss_mb,
            **{k: first[k] for k in SIMULATED},
        },
    }
    if trace:
        traced, layers = _traced(
            workload, seed, size, result["unscaled"]["run_s"]
        )
        if _deterministic(traced) != _deterministic(first):
            problems.append("traced run diverged from the timed runs")
        result["traced_run_s"] = traced["run_s"]
        result["layers"] = layers
    issued = first["finds_issued"] * len(runs)
    completed = first["finds_completed"] * len(runs)
    result["problems"] = problems
    result["correct"] = not problems
    result["attempted"] = issued
    result["failed"] = issued if problems else issued - completed
    return result


def _traced(workload, seed: int, size: str, timed_run_s: float):
    """One traced repetition and the per-layer metrics it yields."""
    from perfbench import workloads
    from perfbench.layers import layer_metrics
    from perfbench.tracing import Tracer

    tracer = Tracer(f"{workload.name}-seed{seed}-pid{os.getpid()}")
    tracer.install()
    try:
        rep = workloads.run_once(workload, seed, size)
    finally:
        tracer.remove()
    stats = workloads.simulated(rep)
    stats["run_s"] = rep.run_s
    layers = layer_metrics(tracer.totals(), rep, stats, timed_run_s)
    tracer.write(os.path.join(ROOT, "perfbench", "out", f"spans-{workload.name}.bin"))
    return stats, layers


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def _e2e_samples(result: Dict[str, Any]) -> Dict[str, str]:
    s = result["stats"]
    reps = f"median of {result['reps']} reps"
    done = f"{s['finds_completed']} completed finds"
    return {
        "setup_s": f"median of {result['setups']} set-ups",
        "run_s": reps,
        "peak_rss_mb": "process peak",
        "find_success_rate": f"{s['finds_completed']}/{s['finds_issued']} finds",
        "find_latency_p50": done,
        "find_latency_p95": f"{done}, {s['p95_beyond']} beyond",
        "move_work_per_move": f"{s['steps']} evader steps",
        "find_work_per_find": f"{s['finds_issued']} issued finds",
    }


def report(result: Dict[str, Any]) -> None:
    """Print the human-readable report (everything but the last line)."""
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"reps {result['reps']}")
    samples = _e2e_samples(result)
    for key, unit in E2E_UNITS.items():
        print(f"  {key:<22} {result['e2e'][key]:>14.6g} {unit:<10} ({samples[key]})")
    print(f"  host speed: calibration loop median {result['calibration_s']:.6g} s, "
          f"mean {result['calibration_mean_s']:.6g} s "
          f"(reference {CALIBRATION_REF_S} s); unscaled setup_s "
          f"{result['unscaled']['setup_s']:.6g} s, run_s "
          f"{result['unscaled']['run_s']:.6g} s")
    print(f"  finds failed/attempted: {result['failed']}/{result['attempted']}")
    if "layers" in result:
        print(f"  traced run_s {result['traced_run_s']:.6g} s; per-layer metrics:")
        for key, (value, unit) in result["layers"].items():
            print(f"    {key:<40} {value:>14.6g} {unit}")
    verdict = "passed" if result["correct"] else "FAILED"
    print(f"  correctness gate: {verdict}")
    for problem in result["problems"][:20]:
        print(f"    - {problem}")


def summary_line(result: Dict[str, Any], trace: bool) -> str:
    """The final JSON line: end-to-end or per-layer metrics by name."""
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["layers"].items()}
    else:
        metrics = {k: {"value": result["e2e"][k], "unit": u}
                   for k, u in E2E_UNITS.items()}
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def _run_all(args) -> int:
    """Every workload in its own process, so each has its own peak RSS."""
    from perfbench.workloads import WORKLOADS

    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "1"],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            totals["correct"] = False
            continue
        last = json.loads(lines[-1])
        totals["correct"] &= last["correct"]
        totals["attempted"] += last["attempted"]
        totals["failed"] += last["failed"]
        for key, value in last["metrics"].items():
            totals["metrics"][f"{name}.{key}"] = value
    print(json.dumps(totals))
    return 0 if totals["correct"] else 1


def main(argv=None) -> int:
    _load_repro()
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result)
    print(summary_line(result, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
