"""Nimbus data model: mutable data objects with versions.

Nimbus tasks operate on *mutable* data objects (§3.3). Each logical object is
one partition of an application variable (e.g. partition 17 of ``tdata`` or
the singleton ``coeff``). Because objects are mutable, their identifiers are
stable across loop iterations and can be cached inside execution templates;
only *versions* advance.

Two structures implement the model:

* :class:`ObjectDirectory` — the controller's authoritative map from object
  id to latest version and to the set of workers holding each version. All
  copy insertion, template validation, and patching decisions read it. It
  keeps one record per object, the registered :class:`LogicalObject`, and
  stores the common case — one worker holding the latest version — as that
  worker's id rather than a ``{worker: version}`` map.
* :class:`ObjectStore` — a worker's local store of object payloads. Payloads
  are real Python values (numpy arrays in the bundled applications), so
  integration tests can check end-to-end dataflow correctness, not just
  timing.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

ObjectId = int
WorkerId = int
#: a record's holders: the sole holder of the latest version, or
#: ``{worker: version}``
Holders = Union[WorkerId, Dict[WorkerId, int]]
#: a checkpoint of the directory: ``({oid: latest}, {oid: {worker: version}})``
Snapshot = Tuple[Dict[ObjectId, int], Dict[ObjectId, Dict[WorkerId, int]]]


class LogicalObject:
    """The directory's record of one data object: one partition of an
    application variable, by id and size.

    Once registered with an :class:`ObjectDirectory`, it also holds
    ``home``, ``latest`` (its latest version), ``holders`` (who holds
    which version) and ``stamp`` (that of the last change to either).
    Only the directory writes them. Which variable and partition the
    object is stays with the driver (``DefineObjects``,
    ``Variables.definitions``): no reader of the record asks.
    """

    __slots__ = ("oid", "size_bytes", "home", "latest", "holders", "stamp")

    def __init__(self, oid: ObjectId, size_bytes: int = 0):
        self.oid = oid
        self.size_bytes = size_bytes

    def __repr__(self) -> str:
        return f"<object {self.oid}>"


def _holding(holders: Dict[WorkerId, int], latest: int) -> Holders:
    """The record form of a ``{worker: version}`` holder map: the worker
    id itself when it is the one holder and holds ``latest``."""
    if len(holders) == 1:
        for worker, version in holders.items():
            if version == latest:
                return worker
    return holders


class ObjectDirectory:
    """Controller-side map of object versions and their holders.

    The directory tracks, per object id, the latest version number and which
    workers hold which version. Scheduling a write bumps the version and
    narrows the holder set to the writer; scheduling a copy widens it.

    One record per object: the registered :class:`LogicalObject` carries
    its size, ``home``, ``latest``, ``holders`` and ``stamp``, and
    ``_objects`` is the only per-object map. ``holders`` has two forms. It
    is the worker id itself (an ``int``) when exactly one worker holds the
    object and holds its latest version — nearly every object, since a
    write leaves its result on the writer alone — and the ``{worker:
    version}`` dict in every other case. Every mutator keeps that rule, so
    a dict never has a single entry at the latest version, and every query
    answers as if every record held the dict. An unregistered object's
    record survives in a small side map: its stamp, so a cached validation
    still sees it change, and its handle, so a checkpoint that names it
    can restore it (at the home it had).

    The directory reflects *planned* state: the controller updates it as it
    schedules commands, before they execute, exactly as a real controller
    reasons about the future state its command stream will produce.

    Stamps move on when read, not when changed: a change copies the
    counter into its record (every change between two reads shares one
    int), and :attr:`stamp` and :meth:`stamp_of` move it past what they
    return. So a read stamp is never given to a later change: an object
    changed since a mark read from :attr:`stamp` has a larger stamp.

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
        self._objects: Dict[ObjectId, LogicalObject] = {}
        # dirty tracking for incremental validation: the stamp the next
        # change takes (a record's is that of its last change; 0 = never)
        self._stamp: int = 1
        #: the records of unregistered objects
        self._gone: Dict[ObjectId, LogicalObject] = {}
        #: recorded template deltas, in order of last application:
        #: id(final_holders) -> [write_counts, final_holders, times]
        self._deferred: Dict[int, list] = {}
        ObjectDirectory._next_token += 1
        self.token: int = ObjectDirectory._next_token

    # -- dirty tracking ---------------------------------------------------
    @property
    def stamp(self) -> int:
        """A mark: every change from now on has a larger stamp."""
        if self._deferred:
            self.fold()
        stamp = self._stamp
        self._stamp = stamp + 1
        return stamp

    def stamp_of(self, oid: ObjectId) -> int:
        """Stamp of ``oid``'s last change (0 = never touched); a later
        change has a larger one."""
        if self._deferred:
            self.fold()
        rec = self._objects.get(oid) or self._gone.get(oid)
        stamp = 0 if rec is None else rec.stamp
        if stamp == self._stamp:
            self._stamp = stamp + 1
        return stamp

    def _touch(self, oid: ObjectId) -> None:
        (self._objects.get(oid) or self._gone[oid]).stamp = self._stamp

    # -- registration ---------------------------------------------------
    def register(self, obj: LogicalObject, home: WorkerId) -> None:
        """Register a newly created object resident on ``home`` at version
        0; ``obj`` becomes its record."""
        if self._deferred:
            self.fold()
        self._objects[obj.oid] = obj
        self._gone.pop(obj.oid, None)
        obj.home = obj.holders = home
        obj.latest = 0
        self._touch(obj.oid)

    def unregister(self, oid: ObjectId) -> None:
        if self._deferred:
            self.fold()
        rec = self._objects.pop(oid, None)
        if rec is not None:
            self._gone[oid] = rec
        if oid in self._gone:
            self._touch(oid)  # stamp survives so cached validations re-check

    def home(self, oid: ObjectId) -> WorkerId:
        """The worker a registered object lives on (KeyError otherwise)."""
        return self._objects[oid].home

    def rehome(self, oid: ObjectId, worker: WorkerId) -> None:
        """Move ``oid``'s home; its data moves by copy, not here."""
        (self._objects.get(oid) or self._gone[oid]).home = worker

    @property
    def sizes(self) -> "Sizes":
        """Each registered object's size, read from its record."""
        return Sizes(self._objects)

    def objects(self) -> Iterable[LogicalObject]:
        return self._objects.values()

    def records(self) -> Dict[ObjectId, LogicalObject]:
        """The records by object id, for a caller that checks freshness
        inline: the central scheduler's per-read walk checks hundreds of
        thousands of (oid, worker) pairs per paper-scale warm-up and cannot
        afford a method call per check. Read-only: every change goes
        through a mutator, which keeps the stamps and the holder rule."""
        if self._deferred:
            self.fold()
        return self._objects

    def __contains__(self, oid: ObjectId) -> bool:
        return oid in self._objects

    # -- queries ----------------------------------------------------------
    def latest_version(self, oid: ObjectId) -> int:
        if self._deferred:
            self.fold()
        return self._objects[oid].latest

    def holders(self, oid: ObjectId) -> List[WorkerId]:
        """Every worker holding any version of ``oid`` (none if unknown)."""
        if self._deferred:
            self.fold()
        rec = self._objects.get(oid)
        if rec is None:
            return []
        held = rec.holders
        return [held] if held.__class__ is int else list(held)

    def holders_of_latest(self, oid: ObjectId) -> List[WorkerId]:
        if self._deferred:
            self.fold()
        rec = self._objects[oid]
        held = rec.holders
        if held.__class__ is int:
            return [held]
        latest = rec.latest
        return [w for w, v in held.items() if v == latest]

    def is_fresh(self, oid: ObjectId, worker: WorkerId) -> bool:
        """True when ``worker`` holds the latest version of ``oid``."""
        if self._deferred:
            self.fold()
        rec = self._objects[oid]
        held = rec.holders
        if held.__class__ is int:
            return held == worker
        return held.get(worker, -1) == rec.latest

    # -- planned mutations ------------------------------------------------
    def record_write(self, oid: ObjectId, worker: WorkerId) -> int:
        """A write on ``worker`` produces the next version; returns it.

        Other workers keep their (now stale) replicas — mutable objects are
        overwritten in place, not invalidated remotely."""
        if self._deferred:
            self.fold()
        rec = self._objects[oid]
        rec.latest = version = rec.latest + 1
        held = rec.holders
        if held.__class__ is int:
            if held != worker:
                rec.holders = {held: version - 1, worker: version}
        elif len(held) > 1 or (held and worker not in held):
            held[worker] = version
        else:
            rec.holders = worker  # the writer is (now) the one holder
        rec.stamp = self._stamp
        return version

    def record_copy(self, oid: ObjectId, dst: WorkerId) -> None:
        """A copy delivers the latest version of ``oid`` to ``dst``."""
        if self._deferred:
            self.fold()
        rec = self._objects[oid]
        held = rec.holders
        if held.__class__ is int:
            if held != dst:
                rec.holders = {held: rec.latest, dst: rec.latest}
        else:
            held[dst] = rec.latest
            if len(held) == 1:
                rec.holders = dst
        rec.stamp = self._stamp

    def apply_block_delta(self, oid: ObjectId, bumps: int,
                          final_holders: Iterable[WorkerId]) -> None:
        """Apply a cached template directory delta for one object:
        advance the version by ``bumps`` writes and set the holder set."""
        if self._deferred:
            self.fold()
        rec = self._objects[oid]
        rec.latest = latest = rec.latest + bumps
        rec.holders = _holding(dict.fromkeys(final_holders, latest), latest)
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
        Each object takes the current stamp, later than any read before."""
        deferred, self._deferred = self._deferred, {}
        objects = self._objects
        stamp = self._stamp
        fromkeys = dict.fromkeys
        for write_counts, final_holders, times in deferred.values():
            for oid, bumps in write_counts.items():
                rec = objects[oid]
                rec.latest = latest = rec.latest + bumps * times
                held = final_holders[oid]
                if len(held) == 1:
                    rec.holders, = held
                else:
                    rec.holders = fromkeys(held, latest)
                rec.stamp = stamp

    def evict_worker(self, worker: WorkerId) -> None:
        """Forget all replicas held by ``worker`` (worker failure/eviction)."""
        if self._deferred:
            self.fold()
        stamp = self._stamp
        for rec in self._objects.values():
            held = rec.holders
            if held.__class__ is int:
                if held != worker:
                    continue
                rec.holders = {}
            elif held.pop(worker, None) is None:
                continue
            else:
                rec.holders = _holding(held, rec.latest)
            rec.stamp = stamp

    # -- snapshot / restore (checkpointing) -------------------------------
    def snapshot(self) -> Snapshot:
        if self._deferred:
            self.fold()
        records = self._objects.values()
        return (
            {rec.oid: rec.latest for rec in records},
            {rec.oid: ({rec.holders: rec.latest}
                       if rec.holders.__class__ is int else dict(rec.holders))
             for rec in records},
        )

    def restore(self, snap: Snapshot) -> None:
        """Put every object the snapshot names back at its snapshotted
        version and holders, registering again one unregistered since. An
        object registered since keeps its state; it takes a new stamp, like
        every restored object."""
        if self._deferred:
            self.fold()
        latest, holders = snap
        objects = self._objects
        for oid in set(objects) | set(holders):
            if oid in holders:
                rec = objects.get(oid) or self._gone.pop(oid)
                objects[oid] = rec
                rec.latest = latest[oid]
                rec.holders = _holding(dict(holders[oid]), rec.latest)
            self._touch(oid)


class ObjectStore:
    """A worker's local payload store: object id → payload (version
    numbers are a controller concept)."""

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


class Sizes:
    """Object sizes by id from the directory's records: the ``.get``
    mapping template generation, patching and migration planning take."""

    __slots__ = ("_objects",)

    def __init__(self, objects: Dict[ObjectId, LogicalObject]):
        self._objects = objects

    def get(self, oid: ObjectId, default: int = 0) -> int:
        rec = self._objects.get(oid)
        return default if rec is None else rec.size_bytes


class PartitionPlacement:
    """Picks a new object's home worker: the driver's pin, else the next
    worker of the job's order, round-robin (scheduling *policy* is out of
    the paper's scope, §6). The home is then a fact on the object's
    directory record (:meth:`ObjectDirectory.home`, ``rehome``)."""

    def __init__(self, workers: Iterable[WorkerId]):
        self.set_workers(workers)

    def set_workers(self, workers: Iterable[WorkerId]) -> None:
        """A new worker order; the round-robin starts over at its head."""
        self.workers: List[WorkerId] = list(workers)
        self._rr = 0

    def place(self, worker: Optional[WorkerId] = None) -> WorkerId:
        """A new object's home: ``worker`` if given, else round-robin."""
        if worker is None:
            worker = self.workers[self._rr % len(self.workers)]
            self._rr += 1
        return worker
