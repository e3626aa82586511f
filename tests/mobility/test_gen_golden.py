"""Golden determinism pins for the composed "gauntlet" scenario.

The gauntlet preset is the ISSUE's committed composed generator —
``Convoy(leader=Obstacles(inner=Hotspots(...), density=0.12))`` — a
convoy threading hotspot churn through an obstacle field.  These
constants pin, forever:

* the byte-exact trace content (per-object CRCs) for ``seed=11`` on the
  r=2 / M=2 world, and
* the dispatch fingerprint of the resulting script on the plain
  reference engine and on the sharded engine at K ∈ {1, 2}.

If an intentional change to the generator, the rng discipline, or the
engines shifts these values, regenerate them with::

    PYTHONPATH=src python - <<'EOF'
    from repro.mobility.gen import generate, preset, run_mobility_regime
    from repro.topo.cache import shared_grid_hierarchy
    traces = generate(preset("gauntlet"), shared_grid_hierarchy(2, 2), 8, seed=11)
    print([f"0x{t.crc():08x}" for t in traces])
    print(run_mobility_regime("gauntlet", seed=11, n_moves=8, n_finds=4, shards=2))
    EOF

and say why in CHANGES.md — a silent drift here is a determinism bug.
"""

import pytest

from repro.mobility.gen import generate, preset, run_mobility_regime
from repro.topo.cache import shared_grid_hierarchy

GOLDEN_SEED = 11
GOLDEN_MOVES = 8
GOLDEN_FINDS = 4

#: Per-object trace CRCs: leader + 2 convoy followers.
GOLDEN_TRACE_CRCS = (0x6F6C839C, 0x1C3873CE, 0xC5E17780)

#: Reference-engine dispatch fingerprints for the frozen script.
GOLDEN_CANONICAL = "9985422ac3506fd1"
GOLDEN_EXACT = "30671185"


#: Per-object trace CRCs on the 81-region benchmark world
#: (``shared_grid_hierarchy(3, 2)``, 25 moves), where obstacle fields
#: are dense enough that the connectivity-preserving mask selection
#: rejects candidates.  Recorded before the obstacle resolve stopped
#: building one tiling per candidate; the rewrite must not move them.
BENCH_GRID_MOVES = 25
BENCH_GRID_TRACE_CRCS = {
    ("gauntlet", 64): (0x1DFAB262, 0x5F25BCFD, 0xA63A4DA1),
    ("gauntlet", 65): (0xD01DF8FC, 0x18F637E6, 0x6228C04D),
    ("gauntlet", 66): (0x9922BACB, 0xD8CEEFF3, 0x7D133F80),
    ("gauntlet", 67): (0x94A5E621, 0x057455B4, 0x785B4D72),
    ("obstacle-walk", 64): (0x600B9531,),
    ("obstacle-walk", 65): (0x21007D7E,),
    ("obstacle-walk", 66): (0xD21F3B17,),
    ("obstacle-walk", 67): (0xAD1A4D43,),
}


@pytest.fixture(scope="module")
def gauntlet_traces():
    hierarchy = shared_grid_hierarchy(2, 2)
    return generate(preset("gauntlet"), hierarchy, GOLDEN_MOVES, seed=GOLDEN_SEED)


def test_gauntlet_trace_crcs_are_pinned(gauntlet_traces):
    assert tuple(t.crc() for t in gauntlet_traces) == GOLDEN_TRACE_CRCS


def test_gauntlet_is_a_convoy_of_three(gauntlet_traces):
    leader, *followers = gauntlet_traces
    assert len(followers) == 2
    for follower in followers:
        assert follower.regions == leader.regions[: len(follower.regions)]


def test_gauntlet_plain_engine_fingerprint_is_pinned():
    result = run_mobility_regime(
        "gauntlet", seed=GOLDEN_SEED, n_moves=GOLDEN_MOVES, n_finds=GOLDEN_FINDS
    )
    assert result.canonical_fingerprint == GOLDEN_CANONICAL
    assert result.exact_fingerprint == GOLDEN_EXACT
    assert result.speed_ok, result.speed_violation
    assert result.finds_completed == result.finds_issued == GOLDEN_FINDS


@pytest.mark.parametrize("shards", [1, 2])
def test_gauntlet_sharded_engines_match_the_pin(shards):
    result = run_mobility_regime(
        "gauntlet",
        seed=GOLDEN_SEED,
        n_moves=GOLDEN_MOVES,
        n_finds=GOLDEN_FINDS,
        shards=shards,
    )
    assert result.fingerprint_match is True
    assert result.sharded_fingerprint == GOLDEN_CANONICAL
    assert result.canonical_fingerprint == GOLDEN_CANONICAL


@pytest.mark.parametrize("name, seed", sorted(BENCH_GRID_TRACE_CRCS))
def test_benchmark_grid_trace_crcs_are_pinned(name, seed):
    hierarchy = shared_grid_hierarchy(3, 2)
    traces = generate(preset(name), hierarchy, BENCH_GRID_MOVES, seed=seed)
    assert tuple(t.crc() for t in traces) == BENCH_GRID_TRACE_CRCS[(name, seed)]
