"""Properties of the streaming send digest (:class:`SendDigest`).

The canonical value is a multiset fingerprint: any order and any
K-way split of one set of sends merge to the same value, and a
duplicated send counts twice.  The exact value is the dispatch-order
check.  Both values change when any single field of a send changes.
"""

import pickle
import struct
from dataclasses import replace

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.messages import (  # noqa: E402
    Find,
    FindAck,
    FindQuery,
    Found,
    Grow,
    GrowNbr,
    GrowPar,
    Prewarm,
    Shrink,
    ShrinkUpd,
)
from repro.geocast.cgcast import SendRecord  # noqa: E402
from repro.hierarchy.cluster import ClusterId  # noqa: E402
from repro.sim.sharded import (  # noqa: E402
    SendDigest,
    canonical_fingerprint,
    exact_fingerprint,
)

coords = st.tuples(st.integers(0, 7), st.integers(0, 7))
clusters = st.builds(ClusterId, st.integers(0, 3), coords)
times = st.floats(0.0, 1e4, allow_nan=False)
ids = st.integers(0, 2**20)

path_messages = st.sampled_from([Grow, GrowNbr, GrowPar, Shrink, ShrinkUpd]).flatmap(
    lambda cls: st.builds(cls, clusters, ids)
)
find_messages = st.one_of(
    st.builds(Find, st.one_of(st.none(), clusters), ids, ids),
    st.builds(FindQuery, clusters, ids, ids),
    st.builds(FindAck, clusters, ids, ids),
    st.builds(Found, ids, ids),
)
prewarms = st.builds(Prewarm, clusters, times, ids)

records = st.builds(
    SendRecord,
    time=times,
    src=st.one_of(clusters, coords),
    dest=st.one_of(clusters, st.tuples(st.just("clients"), coords)),
    payload=st.one_of(path_messages, find_messages, prewarms),
    cost=st.integers(1, 16).map(float),
    delay=st.floats(0.5, 50.0, allow_nan=False),
)


def digest_of(sends):
    digest = SendDigest()
    for record in sends:
        digest.add(record)
    return digest


def values(sends):
    digest = digest_of(sends)
    return canonical_fingerprint(digest), exact_fingerprint(digest)


BASE = SendRecord(
    time=12.5,
    src=ClusterId(1, (0, 1)),
    dest=ClusterId(2, (0, 0)),
    payload=Find(ClusterId(1, (0, 1)), find_id=3, object_id=4),
    cost=2.0,
    delay=3.0,
)


@settings(max_examples=60, deadline=None)
@given(
    sends=st.lists(records, max_size=30),
    seed=st.randoms(use_true_random=False),
    k=st.integers(1, 5),
)
def test_any_permutation_and_partition_merge_to_one_canonical_value(sends, seed, k):
    whole = canonical_fingerprint(digest_of(sends))
    shuffled = list(sends)
    seed.shuffle(shuffled)
    parts = [[] for _ in range(k)]
    for record in shuffled:
        parts[seed.randrange(k)].append(record)
    assert canonical_fingerprint(digest_of(shuffled)) == whole
    assert canonical_fingerprint(digest_of(part) for part in parts) == whole


@settings(max_examples=60, deadline=None)
@given(a=records, b=records)
def test_exact_value_is_order_sensitive(a, b):
    hypothesis.assume(a != b)
    ab, ba = digest_of([a, b]), digest_of([b, a])
    assert ab.canonical == ba.canonical
    assert ab.exact != ba.exact


@pytest.mark.parametrize(
    "changed",
    [
        replace(BASE, time=12.75),
        replace(BASE, src=ClusterId(1, (1, 1))),
        replace(BASE, src=(0, 1)),
        replace(BASE, dest=ClusterId(2, (1, 0))),
        replace(BASE, dest=("clients", (0, 1))),
        replace(BASE, cost=3.0),
        replace(BASE, delay=3.5),
        replace(BASE, payload=Find(
            ClusterId(1, (0, 1)), find_id=3, object_id=5)),
        replace(BASE, payload=Find(
            ClusterId(1, (0, 1)), find_id=2, object_id=4)),
        replace(BASE, payload=Find(
            None, find_id=3, object_id=4)),
        # Another payload class with equal field values.
        replace(BASE, payload=FindQuery(
            ClusterId(1, (0, 1)), find_id=3, object_id=4)),
        replace(BASE, payload=FindAck(
            ClusterId(1, (0, 1)), find_id=3, object_id=4)),
    ],
    ids=[
        "time", "src", "src-region", "dest", "dest-clients", "cost", "delay",
        "object_id", "find_id", "cid-none", "class-findquery", "class-findack",
    ],
)
def test_changing_any_single_field_changes_both_values(changed):
    base = values([BASE])
    new = values([changed])
    assert new[0] != base[0]
    assert new[1] != base[1]


def test_path_message_classes_with_equal_fields_differ():
    cid = ClusterId(0, (2, 2))
    sends = [
        SendRecord(5.0, cid, ClusterId(1, (1, 1)), cls(cid, 7), 1.0, 1.5)
        for cls in (Grow, GrowNbr, GrowPar, Shrink, ShrinkUpd)
    ]
    assert len({values([record]) for record in sends}) == len(sends)


@settings(max_examples=40, deadline=None)
@given(sends=st.lists(records, min_size=1, max_size=10), index=st.integers(0, 9))
def test_a_duplicated_send_changes_the_canonical_value(sends, index):
    # A MessageDuplication copy is one more dispatch of an equal record:
    # the multiset grows, so the canonical value must move.
    copy = sends[index % len(sends)]
    original = canonical_fingerprint(digest_of(sends))
    assert canonical_fingerprint(digest_of(sends + [copy])) != original
    # Copies never cancel out, whatever their number.
    assert canonical_fingerprint(digest_of(sends + [copy, copy])) != original


def test_a_mistyped_field_raises():
    cid = ClusterId(0, (1, 1))
    with pytest.raises(struct.error):
        SendDigest().add(SendRecord(1.0, cid, cid, Grow(cid, 2.5), 1.0, 1.5))


def test_digest_is_constant_size_and_round_trips_through_pickle():
    digest = digest_of([BASE] * 50)
    assert list(digest) == []  # no retained lines
    copy = pickle.loads(pickle.dumps(digest))
    assert (copy.canonical, copy.exact) == (digest.canonical, digest.exact)
    assert len(canonical_fingerprint(digest)) == 16
    assert len(exact_fingerprint(digest)) == 8
