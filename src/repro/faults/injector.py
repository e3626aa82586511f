"""The fault injector (the *how* of fault injection).

:class:`FaultInjector` wires a :class:`~repro.faults.plan.FaultPlan`
into a built system through the explicit hooks each layer exposes — no
monkey-patching:

* :attr:`CGcast.fault_filter <repro.geocast.cgcast.CGcast.fault_filter>`
  and :attr:`VBcast.fault_filter <repro.vsa.vbcast.VBcast.fault_filter>`
  for message loss / duplication / jitter / lag spikes;
* :attr:`VineStalk.gps_fault_delay
  <repro.core.vinestalk.VineStalk.gps_fault_delay>` and
  :attr:`GpsOracle.fault_delay <repro.physical.gps.GpsOracle.fault_delay>`
  for GPS staleness;
* :meth:`VsaEmulation.blackout <repro.vsa.emulation.VsaEmulation.blackout>`
  (emulated regime) or direct :class:`~repro.vsa.vsa.VsaHost`
  fail/restart (abstract regime) for crashes and blackouts.

Determinism: every random draw comes from a per-rule stream
(``fault.<index>.<RuleType>``) of a :class:`~repro.sim.rng.RngRegistry`
seeded by the injector, and draws happen in simulation-event order —
so the same seed and the same plan reproduce the same execution
bit for bit, which the golden tests enforce.
"""

from __future__ import annotations

import random
import zlib
from _random import Random as _CRandom
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..obs._state import OBS as _OBS
from ..obs.events import FaultCrash, FaultRestore, MessagesPerturbed
from ..sim.rng import RngRegistry
from .plan import (
    CHANNEL_CGCAST,
    CHANNEL_VBCAST,
    FaultPlan,
    GpsStaleness,
    LagSpike,
    MessageDuplication,
    MessageJitter,
    MessageLoss,
    RegionBlackout,
    VsaCrashes,
)


@dataclass
class FaultStats:
    """What the injector actually did, for reporting and assertions."""

    messages_dropped: int = 0
    messages_duplicated: int = 0
    messages_delayed: int = 0
    crashes: int = 0
    blackouts: int = 0
    restores: int = 0
    gps_delayed: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "messages_dropped": self.messages_dropped,
            "messages_duplicated": self.messages_duplicated,
            "messages_delayed": self.messages_delayed,
            "crashes": self.crashes,
            "blackouts": self.blackouts,
            "restores": self.restores,
            "gps_delayed": self.gps_delayed,
        }

    def total_events(self) -> int:
        return sum(self.as_dict().values())


@dataclass
class _ArmedRule:
    """A rule paired with its dedicated RNG stream.

    ``crc_prefix`` is the CRC32 of ``"{seed}|{index}|"``, the fixed head
    of this rule's stable-draw key material.
    """

    rule: object
    rng: object = field(repr=False, default=None)
    index: int = 0
    crc_prefix: int = 0


class FaultInjector:
    """Arms a :class:`FaultPlan` against one built system.

    Args:
        system: A :class:`~repro.core.vinestalk.VineStalk` (or variant).
        plan: The fault plan to realise.
        seed: Root seed of the injector's RNG streams.  Pass the
            scenario seed so "same seed + same plan" pins the whole run.
        stable_draws: Message-rule perturbations (loss / duplication /
            jitter) draw from a per-message stream keyed on ``(seed,
            rule, channel, time, src, dest, payload type, occurrence)``
            instead of the rule's sequential stream.  The draw for a
            given message then no longer depends on how many other
            messages the filter saw first — which is what the sharded
            PDES core needs, since each shard's filter sees only its
            own dispatches.  Crash / blackout / GPS rules keep their
            sequential streams: their draws happen on events that fire
            identically in every shard replica.
    """

    def __init__(
        self,
        system,
        plan: FaultPlan,
        seed: int = 0,
        stable_draws: bool = False,
    ) -> None:
        self.system = system
        self.plan = plan
        self.sim = system.sim
        self.streams = RngRegistry(seed)
        self.stats = FaultStats()
        self.stable_draws = stable_draws
        self._root_seed = seed
        # Per-message-key occurrence counters (stable-draws mode), so
        # identical back-to-back messages still get independent draws.
        # Every key embeds its dispatch instant, so the counters are
        # cleared whenever the clock moves on (``_edge_time``).
        self._edge_counts: Dict[str, int] = {}
        self._edge_time: Optional[float] = None
        # One generator, reseeded for each (rule, message) stable draw.
        self._draw_rng = random.Random()
        self._armed = False
        # Regions currently held down by this injector (so overlapping
        # crash/blackout rules never double-fail or double-restore).
        self._forced_down: set = set()
        self._armed_rules: List[_ArmedRule] = []
        for index, rule in enumerate(plan.rules):
            name = f"fault.{index}.{type(rule).__name__}"
            prefix = zlib.crc32(f"{seed}|{index}|".encode())
            self._armed_rules.append(
                _ArmedRule(rule, self.streams.stream(name), index, prefix)
            )

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(self) -> "FaultInjector":
        """Install the hooks and schedule the plan's timeline rules."""
        if self._armed:
            raise RuntimeError("injector already armed")
        self._armed = True
        if any(not a.rule.is_null() and a.rule.applies_to(CHANNEL_CGCAST)
               for a in self._armed_rules):
            self.system.cgcast.fault_filter = self._cgcast_filter
        if any(not a.rule.is_null() and a.rule.applies_to(CHANNEL_VBCAST)
               for a in self._armed_rules):
            vbcast = getattr(self.system.network, "vbcast", None)
            if vbcast is not None:
                vbcast.fault_filter = self._vbcast_filter
        if any(isinstance(a.rule, GpsStaleness) and not a.rule.is_null()
               for a in self._armed_rules):
            self.system.gps_fault_delay = self._gps_delay
            self.system.network.gps.fault_delay = self._gps_delay
        for armed in self._armed_rules:
            rule = armed.rule
            if rule.is_null():
                continue
            if isinstance(rule, VsaCrashes):
                self.sim.call_at(
                    max(self.sim.now, rule.start),
                    lambda a=armed: self._crash_tick(a),
                    tag="fault-crash-tick",
                )
            elif isinstance(rule, RegionBlackout):
                self.sim.call_at(
                    max(self.sim.now, rule.at),
                    lambda a=armed: self._blackout(a),
                    tag="fault-blackout",
                )
        return self

    # ------------------------------------------------------------------
    # Message interposition (loss / duplication / jitter / lag spikes)
    # ------------------------------------------------------------------
    def _within_horizon(self) -> bool:
        horizon = self.plan.horizon
        return horizon is None or self.sim.now < horizon

    def _stable_rng(self, armed: _ArmedRule, key_tail: bytes) -> random.Random:
        """The RNG of one (rule, message) pair in stable-draws mode.

        ``key_tail`` is ``"{message_key}|{occurrence}"`` encoded.  The
        draws equal those of ``random.Random(crc ^ (seed << 32))`` with
        ``crc`` the CRC32 of ``"{seed}|{index}|{message_key}|{occurrence}"``:
        the shared generator is reseeded through the C-level seed, which
        is all ``random.Random(int)`` does that ``random``/``uniform``
        depend on.
        """
        rng = self._draw_rng
        _CRandom.seed(
            rng, zlib.crc32(key_tail, armed.crc_prefix) ^ (self._root_seed << 32)
        )
        return rng

    def _perturb(
        self, channel: str, delay: float, message_key: Optional[str] = None
    ) -> Optional[List[float]]:
        """Apply the channel rules in plan order to one message.

        Returns the per-copy delivery delays (empty = dropped), or
        ``None`` when untouched so callers keep the exact original path.
        """
        if not self._within_horizon():
            return None
        stable = self.stable_draws and message_key is not None
        if stable:
            if self.sim.now != self._edge_time:
                self._edge_counts.clear()
                self._edge_time = self.sim.now
            occurrence = self._edge_counts.get(message_key, 0)
            self._edge_counts[message_key] = occurrence + 1
            key_tail = f"{message_key}|{occurrence}".encode()
        delays = [delay]
        touched = False
        stats0 = (self.stats.messages_dropped, self.stats.messages_duplicated,
                  self.stats.messages_delayed)
        for armed in self._armed_rules:
            rule = armed.rule
            if rule.is_null() or not rule.applies_to(channel):
                continue
            if stable:
                rng = self._stable_rng(armed, key_tail)
            else:
                rng = armed.rng
            if isinstance(rule, MessageLoss):
                kept = [d for d in delays if rng.random() >= rule.rate]
                if len(kept) != len(delays):
                    touched = True
                    self.stats.messages_dropped += len(delays) - len(kept)
                delays = kept
            elif isinstance(rule, MessageDuplication):
                extra: List[float] = []
                for d in delays:
                    if rng.random() < rule.rate:
                        extra.extend([d] * rule.copies)
                if extra:
                    touched = True
                    self.stats.messages_duplicated += len(extra)
                delays = delays + extra
            elif isinstance(rule, MessageJitter):
                new = []
                for d in delays:
                    if rng.random() < rule.rate:
                        touched = True
                        self.stats.messages_delayed += 1
                        new.append(d + rng.uniform(0.0, rule.max_extra))
                    else:
                        new.append(d)
                delays = new
            elif isinstance(rule, LagSpike):
                if rule.active_at(self.sim.now) and delays:
                    # extra_e per §II-C.3 distance unit the message covers.
                    units = delay / (self.system.delta + self.system.e)
                    touched = True
                    self.stats.messages_delayed += len(delays)
                    delays = [d + rule.extra_e * units for d in delays]
        if touched and _OBS.events_enabled:
            _OBS.emit(MessagesPerturbed(
                time=self.sim.now,
                channel=channel,
                dropped=self.stats.messages_dropped - stats0[0],
                duplicated=self.stats.messages_duplicated - stats0[1],
                delayed=self.stats.messages_delayed - stats0[2],
            ))
        return delays if touched else None

    def _cgcast_filter(self, src, dest, payload, delay) -> Optional[List[float]]:
        key = None
        if self.stable_draws:
            key = (
                f"cg|{self.sim.now!r}|{src!r}|{dest!r}|{type(payload).__name__}"
            )
        return self._perturb(CHANNEL_CGCAST, delay, key)

    def _vbcast_filter(self, source_region, message, delay, from_vsa):
        key = None
        if self.stable_draws:
            key = (
                f"vb|{self.sim.now!r}|{source_region!r}|"
                f"{type(message).__name__}|{from_vsa}"
            )
        return self._perturb(CHANNEL_VBCAST, delay, key)

    # ------------------------------------------------------------------
    # GPS staleness
    # ------------------------------------------------------------------
    def _gps_delay(self, kind: str, region) -> float:
        if not self._within_horizon():
            return 0.0
        for armed in self._armed_rules:
            rule = armed.rule
            if isinstance(rule, GpsStaleness) and not rule.is_null():
                if armed.rng.random() < rule.rate:
                    self.stats.gps_delayed += 1
                    return rule.delay
        return 0.0

    # ------------------------------------------------------------------
    # VSA crashes and blackouts
    # ------------------------------------------------------------------
    def _take_down(self, region) -> bool:
        """Force-fail ``region``'s VSA.  Returns False when already down."""
        if region in self._forced_down:
            return False
        host = self.system.network.hosts.get(region)
        if host is None or host.failed:
            return False
        self._forced_down.add(region)
        emulation = self.system.network.emulation
        if emulation is not None:
            emulation.blackout(region)
        else:
            host.fail()
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, f"fault:{region}", "fault-crash", None)
        if _OBS.events_enabled:
            _OBS.emit(FaultCrash(self.sim.now, region))
        return True

    def _bring_up(self, region) -> None:
        if region not in self._forced_down:
            return
        self._forced_down.discard(region)
        emulation = self.system.network.emulation
        if emulation is not None:
            emulation.lift_blackout(region)
        else:
            self.system.network.hosts[region].restart()
        self.stats.restores += 1
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, f"fault:{region}", "fault-restore", None)
        if _OBS.events_enabled:
            _OBS.emit(FaultRestore(self.sim.now, region))

    def _crash_tick(self, armed: _ArmedRule) -> None:
        rule, rng = armed.rule, armed.rng
        if not self._within_horizon():
            return
        for region in self.system.hierarchy.tiling.regions():
            if rng.random() < rule.rate and self._take_down(region):
                self.stats.crashes += 1
                self.sim.call_after(
                    rule.downtime,
                    lambda r=region: self._bring_up(r),
                    tag="fault-crash-restore",
                )
        next_tick = self.sim.now + rule.period
        if self.plan.horizon is None or next_tick < self.plan.horizon:
            self.sim.call_at(
                next_tick, lambda: self._crash_tick(armed), tag="fault-crash-tick"
            )

    def _blackout(self, armed: _ArmedRule) -> None:
        rule, rng = armed.rule, armed.rng
        regions = list(rule.regions)
        if not regions and rule.count:
            pool = list(self.system.hierarchy.tiling.regions())
            regions = rng.sample(pool, min(rule.count, len(pool)))
        for region in regions:
            if self._take_down(region):
                self.stats.blackouts += 1
                self.sim.call_after(
                    rule.duration,
                    lambda r=region: self._bring_up(r),
                    tag="fault-blackout-restore",
                )


def inject(system, plan: FaultPlan, seed: int = 0) -> FaultInjector:
    """Build and arm a :class:`FaultInjector` in one call."""
    return FaultInjector(system, plan, seed=seed).arm()
