"""Property suite pinning the generator framework's §VI contract.

Random combinator trees over random grid worlds must emit traces that
(a) only ever take neighbor hops inside the (obstacle-masked) tiling,
(b) respect the §VI speed-restriction floors at every touched level in
both ``concurrent`` and ``atomic`` modes, and (c) obey the RngRegistry
determinism discipline — same seed byte-identical, forked registry
divergent.  (d) pins the obstacle-mask connectivity check and the
greedy step against the tiling-building reference they replaced.

CI's smoke-mobility job runs this module under
``HYPOTHESIS_PROFILE=fast``.
"""

import os

import pytest

hypothesis = pytest.importorskip("hypothesis")

from collections import deque  # noqa: E402

from hypothesis import (  # noqa: E402
    HealthCheck,
    example,
    given,
    reject,
    settings,
    strategies as st,
)

from repro.mobility.gen import (  # noqa: E402
    Compose,
    Convoy,
    Dither,
    GeneratorSpec,
    Hotspots,
    Obstacles,
    SpeedLimits,
    Switch,
    TimeSlice,
    Walk,
    WaypointGraph,
    check_trace,
    generate,
    preset,
    preset_names,
    touched_level,
)
from repro.geometry.tiling import GraphTiling, line_tiling  # noqa: E402
from repro.mobility.gen.models import (  # noqa: E402
    MaskedModel,
    _greedy_step,
    _region_graph,
    _walkable_error,
    masked_tiling,
)
from repro.sim.rng import RngRegistry  # noqa: E402
from repro.topo.cache import shared_grid_hierarchy  # noqa: E402

settings.register_profile(
    "fast", max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.register_profile(
    "default",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


# ----------------------------------------------------------------------
# Strategies: random worlds, random combinator trees
# ----------------------------------------------------------------------
worlds = st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2)])

leaves = st.one_of(
    st.just(Walk()),
    st.just(Dither()),
    st.builds(
        Hotspots,
        k=st.integers(min_value=1, max_value=3),
        period=st.integers(min_value=1, max_value=5),
    ),
    st.builds(WaypointGraph, k=st.integers(min_value=2, max_value=4)),
)


def _wrap(children: st.SearchStrategy) -> st.SearchStrategy:
    pair = st.tuples(children, children)
    return st.one_of(
        st.builds(
            Obstacles,
            inner=children,
            density=st.floats(min_value=0.05, max_value=0.25),
        ),
        st.builds(
            Compose,
            parts=pair,
            weights=st.just((1.0, 2.0)),
        ),
        st.builds(
            Switch,
            parts=pair,
            every=st.integers(min_value=1, max_value=4),
        ),
        st.builds(
            TimeSlice,
            parts=pair,
            boundaries=st.integers(min_value=1, max_value=5).map(lambda b: (b,)),
        ),
        st.builds(
            Convoy,
            leader=children,
            followers=st.integers(min_value=1, max_value=2),
            offset=st.integers(min_value=1, max_value=2),
        ),
    )


spec_trees = st.recursive(leaves, _wrap, max_leaves=4)


def _traces(spec, world, seed, mode="concurrent", fork=None, n_moves=7):
    hierarchy = shared_grid_hierarchy(*world)
    try:
        traces = generate(spec, hierarchy, n_moves, seed=seed, mode=mode, fork=fork)
    except ValueError as exc:
        if not _waypoints_exceed_masked_space(exc):
            raise
        reject()
    return hierarchy, traces


def _waypoints_exceed_masked_space(exc: ValueError) -> bool:
    """Whether ``exc`` is ``WaypointGraph.resolve``'s documented
    rejection of an obstacle-masked space with fewer than ``k`` regions.

    A dense obstacle field on a tiny world can leave fewer regions than
    a nested ``WaypointGraph(k=...)`` samples (``density=0.25`` on the
    4-region ``(2, 1)`` world leaves 3); that spec cannot be resolved
    there, by design.  The check reads the raising frame, so it holds
    only when the space really was masked and really is too small.
    """
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    frame = tb.tb_frame
    if frame.f_code is not WaypointGraph.resolve.__code__:
        return False
    waypoints, masked = frame.f_locals["self"], frame.f_locals["tiling"]
    return masked is not None and len(masked.regions()) < waypoints.k


# ----------------------------------------------------------------------
# (a) Every relocation is a neighbor move inside the (masked) tiling
# ----------------------------------------------------------------------
@given(spec=spec_trees, world=worlds, seed=st.integers(0, 2**16))
def test_every_relocation_is_a_neighbor_move(spec, world, seed):
    hierarchy, traces = _traces(spec, world, seed)
    regions = set(hierarchy.tiling.regions())
    for trace in traces:
        path = trace.regions
        assert set(path) <= regions
        for u, v in zip(path, path[1:]):
            assert u != v
            assert hierarchy.tiling.are_neighbors(u, v), (u, v)


@given(
    inner=leaves,
    world=worlds,
    seed=st.integers(0, 2**16),
    density=st.floats(min_value=0.05, max_value=0.25),
)
def test_obstacle_masked_traces_avoid_the_mask(inner, world, seed, density):
    spec = Obstacles(inner=inner, density=density)
    hierarchy, traces = _traces(spec, world, seed)
    # Re-resolving from the same registry stream replays the exact
    # obstacle draw the generator made (the determinism discipline).
    model = spec.resolve(hierarchy, RngRegistry(seed).stream("mobility.gen:0"))
    assert isinstance(model, MaskedModel)
    blocked = set(model.obstacles)
    for trace in traces:
        assert not (set(trace.regions) & blocked)


# ----------------------------------------------------------------------
# (b) Dwells satisfy the §VI floors at every touched level
# ----------------------------------------------------------------------
@given(
    spec=spec_trees,
    world=worlds,
    seed=st.integers(0, 2**16),
    mode=st.sampled_from(["concurrent", "atomic"]),
)
@example(
    spec=Obstacles(inner=WaypointGraph(k=4), density=0.25),
    world=(2, 1),
    seed=0,
    mode="concurrent",
)
def test_dwells_satisfy_the_speed_restriction(spec, world, seed, mode):
    hierarchy, traces = _traces(spec, world, seed, mode=mode)
    limits = SpeedLimits.for_hierarchy(hierarchy, mode=mode)
    for trace in traces:
        violation = check_trace(trace, hierarchy, limits)
        assert violation is None, violation
        if mode == "atomic":
            # Atomic mode: every dwell settles the worst-case move.
            assert all(d >= limits.enter_floor - 1e-9 for d in trace.dwells())


@given(spec=spec_trees, world=worlds, seed=st.integers(0, 2**16))
def test_concurrent_floor_is_the_touched_level_floor(spec, world, seed):
    """The hand-rolled per-move bound, independent of check_trace."""
    hierarchy, traces = _traces(spec, world, seed)
    limits = SpeedLimits.for_hierarchy(hierarchy)
    for trace in traces:
        path, times = trace.regions, trace.times
        for i in range(1, len(path) - 1):
            level = touched_level(hierarchy, path[i - 1], path[i])
            floor = limits.per_level[min(level, limits.max_level)]
            assert times[i + 1] - times[i] >= floor - 1e-9


# ----------------------------------------------------------------------
# (c) RngRegistry discipline: seed-identical, fork-divergent
# ----------------------------------------------------------------------
@given(spec=spec_trees, world=worlds, seed=st.integers(0, 2**16))
def test_same_seed_is_byte_identical(spec, world, seed):
    _, first = _traces(spec, world, seed)
    _, second = _traces(spec, world, seed)
    assert first == second
    assert [t.crc() for t in first] == [t.crc() for t in second]


@pytest.mark.parametrize(
    "name", ["uniform-walk", "hotspot-churn", "waypoint-patrol", "obstacle-walk"]
)
def test_fork_index_diverges_stochastic_regimes(name):
    """Forked registries re-derive every stream: stochastic regimes take
    different paths (deterministic regimes like dither legitimately
    coincide, so divergence is pinned on the stochastic presets)."""
    hierarchy = shared_grid_hierarchy(2, 2)
    base = generate(preset(name), hierarchy, 8, seed=3)
    forked = generate(preset(name), hierarchy, 8, seed=3, fork=1)
    fork2 = generate(preset(name), hierarchy, 8, seed=3, fork=1)
    assert base != forked
    assert forked == fork2  # a fork is itself deterministic


def test_all_presets_generate_legal_traces():
    """Every registered regime satisfies (a) + (b) on the default world."""
    hierarchy = shared_grid_hierarchy(2, 2)
    limits = SpeedLimits.for_hierarchy(hierarchy)
    assert len(preset_names()) >= 10
    for name in preset_names():
        for trace in generate(preset(name), hierarchy, 6, seed=11):
            assert check_trace(trace, hierarchy, limits) is None
            for u, v in zip(trace.regions, trace.regions[1:]):
                assert hierarchy.tiling.are_neighbors(u, v)


@given(world=worlds, seed=st.integers(0, 2**16))
def test_convoy_followers_lag_the_leader(world, seed):
    spec = Convoy(leader=Walk(), followers=2, offset=1)
    hierarchy, traces = _traces(spec, world, seed)
    leader, *followers = traces
    for k, follower in enumerate(followers, start=1):
        lag = k * spec.offset
        # Follower k's path is the leader's path delayed by lag steps.
        expected = leader.regions[: len(follower.regions)]
        assert follower.regions[0] == leader.regions[0]
        assert follower.regions[1:] == leader.regions[1 : len(follower.regions)]
        assert len(follower.regions) == max(1, len(leader.regions) - lag)


# ----------------------------------------------------------------------
# (d) Obstacle masking: the shared check matches the tiling-building
#     reference, and target-rooted greedy steps match neighbor-rooted
# ----------------------------------------------------------------------
def _reference_masked_tiling(tiling, obstacles):
    """Masking as done by building the sub-tiling first (the oracle)."""
    blocked = set(obstacles)
    allowed = [r for r in tiling.regions() if r not in blocked]
    if len(allowed) < 2:
        raise ValueError("obstacle field leaves fewer than two regions")
    adjacency = {
        r: [n for n in tiling.neighbors(r) if n not in blocked] for r in allowed
    }
    seen = {allowed[0]}
    frontier = deque([allowed[0]])
    while frontier:
        for nxt in adjacency[frontier.popleft()]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    if len(seen) != len(allowed):
        raise ValueError("obstacle field disconnects the tiling")
    return GraphTiling(adjacency, {r: tiling.region(r).center for r in allowed})


@st.composite
def masked_spaces(draw, max_share=1.0):
    """A grid world or a line tiling, plus a random obstacle mask
    covering at most ``max_share`` of its regions."""
    if draw(st.booleans()):
        tiling = shared_grid_hierarchy(*draw(worlds)).tiling
    else:
        tiling = line_tiling(draw(st.integers(min_value=1, max_value=12)))
    regions = tiling.regions()
    mask = draw(
        st.lists(
            st.sampled_from(regions),
            unique=True,
            max_size=int(max_share * len(regions)),
        )
    )
    return tiling, mask


@given(space=masked_spaces())
def test_walkable_check_matches_the_reference(space):
    tiling, mask = space
    try:
        expected = _reference_masked_tiling(tiling, mask)
    except ValueError as exc:
        assert _walkable_error(_region_graph(tiling), set(mask)) == str(exc)
        with pytest.raises(ValueError) as raised:
            masked_tiling(tiling, mask)
        assert str(raised.value) == str(exc)
        return
    assert _walkable_error(_region_graph(tiling), set(mask)) is None
    masked = masked_tiling(tiling, mask)
    assert masked.regions() == expected.regions()
    for r in masked.regions():
        assert masked.neighbors(r) == expected.neighbors(r)
        assert masked.region(r).center == expected.region(r).center


@given(space=masked_spaces(max_share=0.25), data=st.data())
def test_greedy_step_matches_the_neighbor_rooted_minimum(space, data):
    tiling, mask = space
    try:
        masked = masked_tiling(tiling, mask)
    except ValueError:
        reject()
    regions = masked.regions()
    current = data.draw(st.sampled_from(regions))
    target = data.draw(st.sampled_from(regions))
    # A fresh tiling for the oracle, so no BFS cached by one side
    # feeds the other.
    oracle = masked_tiling(tiling, mask)
    expected = min(
        oracle.neighbors(current), key=lambda nb: (oracle.distance(nb, target), nb)
    )
    assert _greedy_step(masked, current, target) == expected
