"""The stable-draws fault filter: same draws, bounded bookkeeping.

In stable-draws mode each (rule, message) pair draws from a generator
seeded by ``crc32("{seed}|{index}|{key}|{occurrence}") ^ (seed << 32)``.
The injector reseeds one shared generator instead of building a fresh
``random.Random`` per draw; the draws must be the same.  Its per-key
occurrence counters only need the current instant, since every key
embeds its dispatch time.
"""

import random
import zlib
from types import SimpleNamespace

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.faults import FaultPlan, MessageDuplication, MessageJitter  # noqa: E402
from repro.faults.injector import FaultInjector  # noqa: E402
from repro.sim.sharded import run_reference_walk  # noqa: E402

PLAN = FaultPlan.of(
    MessageDuplication(rate=0.1),
    MessageJitter(rate=0.3, max_extra=0.5),
)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    key=st.text(max_size=40),
    occurrence=st.integers(0, 50),
    index=st.integers(0, 1),
)
def test_reseeded_draws_equal_a_fresh_generator(seed, key, occurrence, index):
    injector = FaultInjector(SimpleNamespace(sim=None), PLAN, seed=seed)
    armed = injector._armed_rules[index]
    rng = injector._stable_rng(armed, f"{key}|{occurrence}".encode())
    material = f"{seed}|{index}|{key}|{occurrence}"
    fresh = random.Random(zlib.crc32(material.encode()) ^ (seed << 32))
    assert [rng.random() for _ in range(3)] == [fresh.random() for _ in range(3)]
    assert rng.uniform(0.0, 0.5) == fresh.uniform(0.0, 0.5)


def test_edge_counts_hold_only_current_instant_keys(monkeypatch):
    seen = []
    perturb = FaultInjector._perturb

    def checked(self, channel, delay, message_key=None):
        out = perturb(self, channel, delay, message_key)
        instant = f"|{self.sim.now!r}|"
        assert all(instant in key for key in self._edge_counts)
        seen.append(len(self._edge_counts))
        return out

    monkeypatch.setattr(FaultInjector, "_perturb", checked)
    result = run_reference_walk(
        r=2, max_level=2, n_moves=6, n_finds=4, seed=3,
        duplication_rate=0.1, jitter_rate=0.3,
    )
    assert result.fault_events["messages_delayed"] > 0
    # Many sends were filtered, but the counters never held more than
    # one instant's worth of keys.
    assert len(seen) > 50
    assert max(seen) < len(seen) // 5

