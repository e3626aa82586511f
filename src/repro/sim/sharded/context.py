"""One shard's world: a full replica executing only owned events.

Design: rather than splitting the object graph, every shard builds the
*complete* deterministic world from ``config`` (cheap — construction is
pure and topo-cached) and then executes only the events its regions
own.  All inter-automaton interaction in this codebase flows through
messages (the TIOA model), so non-owned replica state simply never
advances — it exists only so object references resolve.  Three hooks
enforce ownership:

* :attr:`CGcast.shard_router` — a dispatch whose destination region is
  foreign is outboxed instead of scheduled locally;
* :attr:`VBcast.owned_filter` / :attr:`VBcast.shard_router` — broadcast
  copies split into locally delivered and outboxed target regions;
* :attr:`VineStalk.client_filter` — augmented-GPS move/left inputs
  reach only owned regions' clients (the evader itself is replicated
  state: every shard applies every scripted evader action).

Cross-shard messages travel as :class:`RemoteMessage` — plain picklable
data with the sender's dispatch sequence number, which gives the driver
a canonical ``(deliver_time, src_shard, seq)`` injection order
independent of worker scheduling.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, fields
from hashlib import blake2b
from operator import attrgetter
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ...core.messages import Grow
from ...geometry.regions import RegionId
from ...hierarchy.cluster import ClusterId
from .plan import ShardPlan
from .workload import ScriptedWorkload, schedule_workload


@dataclass(frozen=True)
class RemoteMessage:
    """One boundary-crossing message copy, as exchanged at barriers.

    Attributes:
        kind: ``"cgcast"`` (point delivery) or ``"vbcast"`` (broadcast
            copy into ``regions``).
        send_time: Dispatch time in the sending shard.
        deliver_time: Scheduled delivery time (>= send_time + δ by the
            conservative lookahead).
        src: Sender id (cluster / region, per channel semantics).
        dest: C-gcast destination (cluster or ``("clients", region)``);
            ``None`` for vbcast copies.
        payload: The message object (picklable).
        dest_shard: Shard owning the destination region(s).
        src_shard: Sending shard.
        seq: Sender-shard dispatch sequence — the canonical tiebreak.
        regions: vbcast only — foreign target regions of this copy
            owned by ``dest_shard``.
    """

    kind: str
    send_time: float
    deliver_time: float
    src: Any
    dest: Any
    payload: Any
    dest_shard: int
    src_shard: int
    seq: int
    regions: Tuple[RegionId, ...] = ()

    def sort_key(self) -> Tuple[float, int, int]:
        return (self.deliver_time, self.src_shard, self.seq)


_MASK64 = (1 << 64) - 1
_LABEL_LEN = struct.Struct("<H")
_U64 = struct.Struct("<Q").unpack_from
#: Payload class -> its record packer (see :func:`_packer_for`).
_PACKERS: Dict[type, Callable[[Any, Dict[Any, bytes]], bytes]] = {}
#: Field annotation -> struct code of the numeric payload fields.
_NUMERIC = {"int": "q", "float": "d"}


def _label(value: Any) -> bytes:
    """``repr(value)`` as length-prefixed UTF-8: self-delimiting bytes."""
    text = repr(value).encode()
    return _LABEL_LEN.pack(len(text)) + text


class _Labels(dict):
    """Endpoint (ClusterId, region, ``("clients", region)``, ``None``)
    -> its packed label, filled on first use."""

    def __missing__(self, value: Any) -> bytes:
        packed = self[value] = _label(value)
        return packed


def _packer_for(cls: type) -> Callable[[Any, Dict[Any, bytes]], bytes]:
    """The record packer for payloads of dataclass ``cls``.

    A record packs as: the payload's class name, one struct of the
    record's ``time, cost, delay`` and the payload's ``int``/``float``
    fields, then the source, destination and each other payload field
    as endpoint labels.  Every C-gcast payload is a
    :class:`~repro.core.messages.TrackerMessage` dataclass; any other
    payload, or a field value its annotation does not allow, raises.
    """
    numeric = ["time", "cost", "delay"]
    labelled = ["src", "dest"]
    fmt = "<ddd"
    for f in fields(cls):
        kind = f.type if isinstance(f.type, str) else getattr(f.type, "__name__", "")
        if kind in _NUMERIC:
            numeric.append(f"payload.{f.name}")
            fmt += _NUMERIC[kind]
        else:
            labelled.append(f"payload.{f.name}")
    head = _label(cls.__qualname__)
    pack_numbers = struct.Struct(fmt).pack
    numbers = attrgetter(*numeric)
    endpoints = attrgetter(*labelled)

    def pack(record, labels):
        parts = [head, pack_numbers(*numbers(record))]
        for value in endpoints(record):
            parts.append(labels[value])
        return b"".join(parts)

    return pack


class SendDigest:
    """Streaming fingerprint of a run's C-gcast sends, in O(1) memory.

    Two values over the packed send records (:meth:`pack`):

    * ``canonical`` — the sum mod 2^64 of each record's hash (BLAKE2b,
      first 8 bytes): order-independent, so the values of K shards add
      up to the value of the same sends on one shard
      (:func:`~repro.sim.sharded.core.canonical_fingerprint`);
    * ``exact`` — CRC32 streamed over the records in dispatch order:
      the plain ≡ K=1 bit-identity check.

    Only the two values are pickled.  The digest iterates as no lines:
    ``ShardContext.send_lines`` used to be a list of retained lines, and
    code that sums their lengths now sees 0.
    """

    __slots__ = ("canonical", "exact", "_labels")

    def __init__(self, canonical: int = 0, exact: int = 0) -> None:
        self.canonical = canonical
        self.exact = exact
        # Per digest, so it holds only one world's endpoints, which that
        # world interns: lookups hit on identity.
        self._labels = _Labels()

    def pack(self, record) -> bytes:
        """One C-gcast send record as self-delimiting bytes.

        Equal records pack equal, and records that differ in any field
        (time, source, destination, payload class or field, cost, delay)
        pack differently.
        """
        cls = type(record.payload)
        packer = _PACKERS.get(cls)
        if packer is None:
            packer = _PACKERS[cls] = _packer_for(cls)
        return packer(record, self._labels)

    def add(self, record) -> None:
        """Fold one send record into both values."""
        data = self.pack(record)
        self.canonical = (
            self.canonical + _U64(blake2b(data).digest())[0]
        ) & _MASK64
        self.exact = zlib.crc32(data, self.exact)

    def __iter__(self) -> Iterator[str]:
        return iter(())

    def __reduce__(self):
        return (SendDigest, (self.canonical, self.exact))


class ShardContext:
    """A buildable, steppable shard replica.

    Args:
        config: The scenario config (its ``shards`` field is ignored
            here — the replica itself is always built single-shard).
        plan: The region → shard assignment.
        shard_id: This shard's id in ``plan``.
        workload: The scripted drive; evader actions are scheduled
            fully, finds only when owned.

    With ``plan.k == 1`` no hooks are installed and the full workload
    is scheduled — the replica is then *bit-identical* to the plain
    serial engine path, which the K=1 golden test pins.
    """

    def __init__(
        self,
        config,
        plan: ShardPlan,
        shard_id: int,
        workload: ScriptedWorkload,
    ) -> None:
        from ...scenario import build

        self.plan = plan
        self.shard_id = shard_id
        self.owned = plan.owned_set(shard_id)
        self.scenario = build(config.with_(shards=1))
        self.system = self.scenario.system
        self.sim = self.system.sim
        self.outbox: List[RemoteMessage] = []
        self._seq = 0
        self.windows = 0
        self.busy_s = 0.0
        # The send digest keeps the name of the line list it replaced
        # because the benchmark (perfbench/) reads ``send_lines``;
        # renaming it belongs with a change to the benchmark.
        self.send_lines = SendDigest()
        # object_id -> cluster-originated Grow dispatches (handovers).
        # Each dispatch is observed in exactly one shard, so per-object
        # sums across shards are exact and K-invariant.
        self.handovers: Dict[int, int] = {}
        self.system.cgcast.observe(self._observe_send)
        sharded = plan.k > 1
        if sharded:
            self.system.cgcast.shard_router = self._route_cgcast
            vbcast = getattr(self.system.network, "vbcast", None)
            if vbcast is not None:
                vbcast.owned_filter = self.owned.__contains__
                vbcast.shard_router = self._route_vbcast
            if hasattr(self.system, "client_filter"):
                self.system.client_filter = self.owned.__contains__
        owns = self.owned.__contains__ if sharded else None
        schedule_workload(self.system, workload, owns=owns)

    # ------------------------------------------------------------------
    # Routing hooks
    # ------------------------------------------------------------------
    def _observe_send(self, record) -> None:
        self.send_lines.add(record)
        payload = record.payload
        if isinstance(payload, Grow) and isinstance(record.src, ClusterId):
            oid = getattr(payload, "object_id", 0)
            self.handovers[oid] = self.handovers.get(oid, 0) + 1

    def _route_cgcast(self, src, dest, dest_region, payload, deliver_time) -> bool:
        shard = self.plan.shard_of(dest_region)
        if shard == self.shard_id:
            return False
        self._seq += 1
        self.outbox.append(RemoteMessage(
            kind="cgcast",
            send_time=self.sim.now,
            deliver_time=deliver_time,
            src=src,
            dest=dest,
            payload=payload,
            dest_shard=shard,
            src_shard=self.shard_id,
            seq=self._seq,
        ))
        return True

    def _route_vbcast(self, source_region, message, remote_regions, deliver_time) -> None:
        groups: Dict[int, List[RegionId]] = {}
        for region in remote_regions:
            groups.setdefault(self.plan.shard_of(region), []).append(region)
        for shard in sorted(groups):
            self._seq += 1
            self.outbox.append(RemoteMessage(
                kind="vbcast",
                send_time=self.sim.now,
                deliver_time=deliver_time,
                src=source_region,
                dest=None,
                payload=message,
                dest_shard=shard,
                src_shard=self.shard_id,
                seq=self._seq,
                regions=tuple(groups[shard]),
            ))

    # ------------------------------------------------------------------
    # Stepping (driver interface)
    # ------------------------------------------------------------------
    def next_event_time(self) -> Optional[float]:
        return self.sim.next_event_time()

    def inject(self, message: RemoteMessage) -> None:
        """Schedule an incoming cross-shard message for local delivery."""
        if message.kind == "cgcast":
            self.sim.call_at(
                message.deliver_time,
                lambda m=message: self.system.cgcast.apply_remote(
                    m.src, m.dest, m.payload
                ),
                tag="xshard:cgcast",
            )
        elif message.kind == "vbcast":
            vbcast = self.system.network.vbcast
            self.sim.call_at(
                message.deliver_time,
                lambda m=message: vbcast.apply_remote(m.src, m.payload, m.regions),
                tag="xshard:vbcast",
            )
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown remote message kind {message.kind!r}")

    def run_window(self, barrier: float) -> int:
        """Run all local events strictly before ``barrier``."""
        t0 = perf_counter()
        fired = self.sim.run_window(barrier)
        self.busy_s += perf_counter() - t0
        self.windows += 1
        return fired

    def drain_outbox(self) -> List[RemoteMessage]:
        out, self.outbox = self.outbox, []
        return out

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def report(self) -> dict:
        """Picklable end-of-run summary for the driver to merge."""
        accountant = self.scenario.accountant
        finds = {}
        for record in self.system.finds.records.values():
            finds[record.find_id] = {
                "origin": repr(record.origin),
                "object_id": record.object_id,
                "issued_at": record.issued_at,
                "deadline": record.deadline,
                "completed": record.completed,
                "latency": record.latency,
                "work": record.work,
            }
        stats = self.scenario.fault_stats
        ledger = self.scenario.energy_ledger
        preconfig = None
        summarize = getattr(self.system, "preconfig_summary", None)
        if summarize is not None:
            preconfig = summarize()
        return {
            "shard_id": self.shard_id,
            "owned_regions": len(self.owned),
            "events": self.sim.events_fired,
            "windows": self.windows,
            "busy_s": self.busy_s,
            "now": self.sim.now,
            "messages_sent": self.system.cgcast.messages_sent,
            "total_cost": self.system.cgcast.total_cost,
            "move_work": accountant.move_work if accountant else 0.0,
            "find_work": accountant.find_work if accountant else 0.0,
            "other_work": accountant.other_work if accountant else 0.0,
            "moves_observed": getattr(self.system, "moves_observed", 0),
            # The SendDigest, under the old name (see ``__init__``).
            "send_lines": self.send_lines,
            "finds": finds,
            "handovers": dict(self.handovers),
            "fault_stats": stats.as_dict() if stats is not None else None,
            "energy": ledger.as_dict() if ledger is not None else None,
            "preconfig": preconfig,
        }
