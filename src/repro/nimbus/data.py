"""Nimbus data model: mutable data objects with versions.

Nimbus tasks operate on *mutable* data objects (§3.3). Each logical object is
one partition of an application variable (e.g. partition 17 of ``tdata`` or
the singleton ``coeff``). Because objects are mutable, their identifiers are
stable across loop iterations and can be cached inside execution templates;
only *versions* advance.

Two structures implement the model:

* :class:`ObjectDirectory` — the controller's authoritative map from object
  id to latest version and to the set of workers holding each version. All
  copy insertion, template validation, and patching decisions read it.
* :class:`ObjectStore` — a worker's local store of object payloads. Payloads
  are real Python values (numpy arrays in the bundled applications), so
  integration tests can check end-to-end dataflow correctness, not just
  timing.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

ObjectId = int
WorkerId = int


class LogicalObject:
    """Driver-level handle to one partition of an application variable."""

    __slots__ = ("oid", "variable", "partition", "size_bytes")

    def __init__(self, oid: ObjectId, variable: str, partition: int, size_bytes: int = 0):
        self.oid = oid
        self.variable = variable
        self.partition = partition
        self.size_bytes = size_bytes

    def __repr__(self) -> str:
        return f"<{self.variable}[{self.partition}] oid={self.oid}>"


class ObjectDirectory:
    """Controller-side map of object versions and their holders.

    The directory tracks, per object id, the latest version number and which
    workers hold which version. Scheduling a write bumps the version and
    narrows the holder set to the writer; scheduling a copy widens it.

    The directory reflects *planned* state: the controller updates it as it
    schedules commands, before they execute, exactly as a real controller
    reasons about the future state its command stream will produce.

    Template deltas are recorded, not applied (:meth:`apply_block_deltas`):
    an auto-validated instance follows one of its own, and nothing reads
    the directory in between. Every read or other mutation folds the
    recorded deltas in first (:meth:`fold`), so no caller can tell.
    """

    #: process-wide id source distinguishing directory instances, so a
    #: validation cache built against one directory is never trusted
    #: against another (see :mod:`repro.core.validation`)
    _next_token = 0

    def __init__(self) -> None:
        self._latest: Dict[ObjectId, int] = {}
        self._holders: Dict[ObjectId, Dict[WorkerId, int]] = {}
        self._objects: Dict[ObjectId, LogicalObject] = {}
        # dirty tracking for incremental template validation: a global
        # monotone stamp, advanced on every mutation, and the stamp at
        # which each object last changed (latest version or holder set)
        self._stamp: int = 0
        self._stamps: Dict[ObjectId, int] = {}
        #: recorded template deltas, in order of last application:
        #: id(final_holders) -> [write_counts, final_holders, times]
        self._deferred: Dict[int, list] = {}
        ObjectDirectory._next_token += 1
        self.token: int = ObjectDirectory._next_token

    # -- dirty tracking ---------------------------------------------------
    @property
    def stamp(self) -> int:
        """Monotone mutation counter; advances on every state change."""
        if self._deferred:
            self.fold()
        return self._stamp

    def stamp_of(self, oid: ObjectId) -> int:
        """Stamp at which ``oid`` last changed (0 = never touched)."""
        if self._deferred:
            self.fold()
        return self._stamps.get(oid, 0)

    def _touch(self, oid: ObjectId) -> None:
        self._stamp += 1
        self._stamps[oid] = self._stamp

    # -- registration ---------------------------------------------------
    def register(self, obj: LogicalObject, home: WorkerId) -> None:
        """Register a newly created object resident on ``home`` at version 0."""
        if self._deferred:
            self.fold()
        self._objects[obj.oid] = obj
        self._latest[obj.oid] = 0
        self._holders[obj.oid] = {home: 0}
        self._touch(obj.oid)

    def unregister(self, oid: ObjectId) -> None:
        if self._deferred:
            self.fold()
        self._objects.pop(oid, None)
        self._latest.pop(oid, None)
        self._holders.pop(oid, None)
        self._touch(oid)  # stamp survives so cached validations re-check

    def object(self, oid: ObjectId) -> LogicalObject:
        return self._objects[oid]

    def objects(self) -> Iterable[LogicalObject]:
        return self._objects.values()

    def __contains__(self, oid: ObjectId) -> bool:
        return oid in self._objects

    # -- queries ----------------------------------------------------------
    def latest_version(self, oid: ObjectId) -> int:
        if self._deferred:
            self.fold()
        return self._latest[oid]

    def holders(self, oid: ObjectId) -> List[WorkerId]:
        """Every worker holding any version of ``oid`` (none if unknown)."""
        if self._deferred:
            self.fold()
        return list(self._holders.get(oid, ()))

    def holders_of_latest(self, oid: ObjectId) -> List[WorkerId]:
        if self._deferred:
            self.fold()
        latest = self._latest[oid]
        return [w for w, v in self._holders[oid].items() if v == latest]

    def is_fresh(self, oid: ObjectId, worker: WorkerId) -> bool:
        """True when ``worker`` holds the latest version of ``oid``."""
        if self._deferred:
            self.fold()
        return self._holders[oid].get(worker, -1) == self._latest[oid]

    def freshness_maps(self) -> Tuple[Dict[ObjectId, Dict[WorkerId, int]],
                                      Dict[ObjectId, int]]:
        """The raw ``(holders, latest)`` maps behind :meth:`is_fresh`.

        Read-only view for the central scheduler's per-read freshness walk,
        which at paper scale checks hundreds of thousands of (oid, worker)
        pairs per warm-up and cannot afford a method call per check. Callers
        must treat both maps as immutable and route every mutation through
        :meth:`record_write` / :meth:`record_copy`, which keep the
        validation stamps coherent.
        """
        if self._deferred:
            self.fold()
        return self._holders, self._latest

    def holds_any(self, oid: ObjectId, worker: WorkerId) -> bool:
        if self._deferred:
            self.fold()
        return worker in self._holders[oid]

    # -- planned mutations ------------------------------------------------
    def record_write(self, oid: ObjectId, worker: WorkerId) -> int:
        """A write on ``worker`` produces the next version; returns it.

        Other workers keep their (now stale) replicas — mutable objects are
        overwritten in place, not invalidated remotely."""
        if self._deferred:
            self.fold()
        version = self._latest[oid] + 1
        self._latest[oid] = version
        self._holders[oid][worker] = version
        self._stamp = stamp = self._stamp + 1
        self._stamps[oid] = stamp
        return version

    def record_copy(self, oid: ObjectId, dst: WorkerId) -> None:
        """A copy delivers the latest version of ``oid`` to ``dst``."""
        if self._deferred:
            self.fold()
        self._holders[oid][dst] = self._latest[oid]
        self._stamp = stamp = self._stamp + 1
        self._stamps[oid] = stamp

    def apply_block_delta(self, oid: ObjectId, bumps: int,
                          final_holders: Iterable[WorkerId]) -> None:
        """Apply a cached template directory delta for one object:
        advance the version by ``bumps`` writes and set the holder set."""
        if self._deferred:
            self.fold()
        latest = self._latest[oid] + bumps
        self._latest[oid] = latest
        self._holders[oid] = {w: latest for w in final_holders}
        self._touch(oid)

    def apply_block_deltas(self, write_counts: Dict[ObjectId, int],
                           final_holders: Dict[ObjectId, Iterable[WorkerId]],
                           ) -> None:
        """:meth:`apply_block_delta` over a whole template delta, recorded
        for :meth:`fold`: a delta applied again is one more count. The
        delta's two maps must never change afterwards."""
        deferred = self._deferred
        record = deferred.pop(id(final_holders), None)
        if record is None:
            record = [write_counts, final_holders, 0]
        record[2] += 1
        deferred[id(final_holders)] = record

    def fold(self) -> None:
        """Apply the recorded deltas. Version bumps add up, so ``times``
        applications of one delta advance an object by ``bumps × times``;
        an object's holders are those of the last delta that wrote it
        (records are in order of last application), at its final version.
        Each object gets a fresh stamp, later than any read before."""
        deferred, self._deferred = self._deferred, {}
        latest_d = self._latest
        holders_d = self._holders
        stamps = self._stamps
        stamp = self._stamp
        fromkeys = dict.fromkeys
        for write_counts, final_holders, times in deferred.values():
            for oid, bumps in write_counts.items():
                latest = latest_d[oid] + bumps * times
                latest_d[oid] = latest
                holders_d[oid] = fromkeys(final_holders[oid], latest)
                stamp += 1
                stamps[oid] = stamp
        self._stamp = stamp

    def evict_worker(self, worker: WorkerId) -> None:
        """Forget all replicas held by ``worker`` (worker failure/eviction)."""
        if self._deferred:
            self.fold()
        for oid, holders in self._holders.items():
            if holders.pop(worker, None) is not None:
                self._touch(oid)

    # -- snapshot / restore (checkpointing) -------------------------------
    def snapshot(self) -> Tuple[Dict[ObjectId, int], Dict[ObjectId, Dict[WorkerId, int]]]:
        if self._deferred:
            self.fold()
        return (
            dict(self._latest),
            {oid: dict(h) for oid, h in self._holders.items()},
        )

    def restore(
        self,
        snap: Tuple[Dict[ObjectId, int], Dict[ObjectId, Dict[WorkerId, int]]],
    ) -> None:
        if self._deferred:
            self.fold()
        latest, holders = snap
        stale = set(self._holders) | set(holders)
        self._latest = dict(latest)
        self._holders = {oid: dict(h) for oid, h in holders.items()}
        for oid in stale:
            self._touch(oid)


class ObjectStore:
    """A worker's local payload store.

    Maps object id → payload. Version numbers are a controller concept; the
    store also remembers an opaque ``stamp`` per object (set by copies and
    task writes) that tests use to verify read-latest-value semantics.
    """

    def __init__(self) -> None:
        self._payloads: Dict[ObjectId, Any] = {}

    def create(self, oid: ObjectId, payload: Any = None) -> None:
        self._payloads[oid] = payload

    def destroy(self, oid: ObjectId) -> None:
        self._payloads.pop(oid, None)

    def put(self, oid: ObjectId, payload: Any) -> None:
        self._payloads[oid] = payload

    def get(self, oid: ObjectId) -> Any:
        return self._payloads.get(oid)

    def __contains__(self, oid: ObjectId) -> bool:
        return oid in self._payloads

    def live_objects(self) -> List[ObjectId]:
        return list(self._payloads.keys())


class PartitionPlacement:
    """Assignment of logical objects to home workers.

    The paper explicitly leaves scheduling *policy* out of scope (§6); the
    reproduction places partitions round-robin and exposes :meth:`migrate`
    for the dynamic-scheduling experiments, where the policy decisions come
    from the experiment script (evict 50 workers, migrate 5 % of tasks, ...).
    """

    def __init__(self, workers: Iterable[WorkerId]):
        self._workers: List[WorkerId] = list(workers)
        self._home: Dict[ObjectId, WorkerId] = {}
        self._rr = 0

    @property
    def workers(self) -> List[WorkerId]:
        return list(self._workers)

    def set_workers(self, workers: Iterable[WorkerId]) -> None:
        self._workers = list(workers)
        self._rr = 0

    def place(self, oid: ObjectId, worker: Optional[WorkerId] = None) -> WorkerId:
        """Assign a home worker (round-robin when not given). Returns it."""
        if worker is None:
            worker = self._workers[self._rr % len(self._workers)]
            self._rr += 1
        self._home[oid] = worker
        return worker

    def home(self, oid: ObjectId) -> WorkerId:
        return self._home[oid]

    def migrate(self, oid: ObjectId, dst: WorkerId) -> None:
        self._home[oid] = dst

    def objects_on(self, worker: WorkerId) -> List[ObjectId]:
        return [oid for oid, w in self._home.items() if w == worker]
