"""Golden determinism tests for the sharded PDES core.

Two gates from the sharded contract:

* **K=1 bit-identity** — a single-shard :class:`ShardedSimulator` run
  (windowed loop, no hooks) must reproduce the plain single-loop
  engine's dispatch stream *exactly*: same sends in the same order
  (exact fingerprint), same event count.
* **K-invariance** — K ∈ {1, 2, 4} must produce the same canonical
  trace fingerprint (order-independent), the same message/find/work
  totals, on both a fault-free and a fault-armed scenario.

The fingerprint constants are pinned: they changed only if the
simulation semantics changed, which is exactly what this file exists
to catch.
"""

import pytest

from repro.sim.sharded import run_reference_walk, run_sharded_walk

# The canonical walk scenario: r=2, MAX=3 (8x8), 8 moves, 4 finds.
WALK = dict(r=2, max_level=3, n_moves=8, n_finds=4, seed=11)
WALK_EXACT = "3c9316de"
WALK_CANONICAL = "e74c6d3cee976f80"

# The fault-armed variant (loss + jitter, stable per-message draws).
FAULTY = dict(WALK, loss_rate=0.1, jitter_rate=0.3)
FAULTY_CANONICAL = "c4f6bca085aaf53e"

# A second shape: r=2, MAX=2 (4x4), different seed, more finds.
SMALL = dict(r=2, max_level=2, n_moves=6, n_finds=6, seed=29)


class TestK1BitIdentity:
    def test_exact_fingerprint_matches_reference_engine(self):
        reference = run_reference_walk(**WALK)
        sharded = run_sharded_walk(shards=1, **WALK)
        assert reference.exact_fingerprint == WALK_EXACT
        assert sharded.exact_fingerprint == WALK_EXACT
        assert sharded.events == reference.events
        assert sharded.messages_sent == reference.messages_sent

    def test_windowed_loop_adds_no_cross_shard_traffic(self):
        sharded = run_sharded_walk(shards=1, **WALK)
        assert sharded.shards == 1
        assert sharded.cross_shard_messages == 0


class TestKInvariance:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_canonical_fingerprint_pinned(self, shards):
        result = run_sharded_walk(shards=shards, **WALK)
        assert result.canonical_fingerprint == WALK_CANONICAL

    def test_totals_match_reference_across_k(self):
        reference = run_reference_walk(**WALK)
        for shards in (2, 4):
            result = run_sharded_walk(shards=shards, **WALK)
            assert result.messages_sent == reference.messages_sent
            assert result.moves_observed == reference.moves_observed
            assert result.finds_issued == reference.finds_issued
            assert result.finds_completed == reference.finds_completed
            assert result.move_work == pytest.approx(reference.move_work)
            assert result.find_work == pytest.approx(reference.find_work)
            assert result.cross_shard_messages > 0  # actually sharded

    def test_second_scenario_invariant(self):
        reference = run_reference_walk(**SMALL)
        fingerprints = {
            run_sharded_walk(shards=k, **SMALL).canonical_fingerprint
            for k in (1, 2, 4)
        }
        assert fingerprints == {reference.canonical_fingerprint}


class TestFaultArmedInvariance:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_canonical_fingerprint_pinned(self, shards):
        result = run_sharded_walk(shards=shards, **FAULTY)
        assert result.canonical_fingerprint == FAULTY_CANONICAL

    def test_fault_event_counters_invariant(self):
        reference = run_reference_walk(**FAULTY)
        assert reference.fault_events is not None
        for shards in (2, 4):
            result = run_sharded_walk(shards=shards, **FAULTY)
            assert result.fault_events == reference.fault_events
        assert reference.fault_events["messages_dropped"] > 0
        assert reference.fault_events["messages_delayed"] > 0
