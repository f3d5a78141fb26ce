"""Patching: fixing system state to meet template preconditions (§2.4, §4.2).

When full validation finds violations — a worker about to instantiate a
template does not hold the latest version of some required object — the
controller *patches* system state by issuing copies that move data to where
the template expects it (Figure 4b).

A patch is itself a small template: a set of SEND/RECV entries per worker,
instantiated with fresh command ids. Workers cache patches by id, and the
controller keeps a **patch cache** indexed by what executed before the
failing template (§4.2 optimization 2). On a hit, invoking the patch is a
single message per involved worker; only on a miss does the controller
compute a new patch and ship its full command list. A worker keeps a patch
only while the controller can still invoke it: a patch that leaves the
cache (evicted, replaced, invalidated), or was never cached (a one-shot
relocation), is retired on its workers (:meth:`Patch.retire`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

from ..nimbus.data import ObjectDirectory
from .worker_template import RecvEntry, SendEntry, TemplateEntry

CopySpec = Tuple[int, int, int]  # (oid, src_worker, dst_worker)


class Patch:
    """A cached set of precondition-restoring copies.

    ``entries`` holds per-worker SEND/RECV template entries (the same
    structure worker templates use, so workers instantiate patches through
    the identical fast path). ``copies`` is the logical copy list used for
    cache-validity checks and directory updates. ``holders`` are the
    worker actors it was installed on and ``last_instance`` the id of the
    last instance sent to them.
    """

    def __init__(self, copies: List[CopySpec],
                 entries: Dict[int, List[TemplateEntry]],
                 patch_id: int = 0, instance_id: int = 0):
        # ids are allocated by the owning controller so independent
        # controllers (and test fixtures) never share a process-global
        # sequence
        self.patch_id = patch_id
        self.copies = list(copies)
        self.entries = entries
        self.holders: list = []
        self.last_instance = instance_id

    def retire(self) -> None:
        """No instance follows ``last_instance``: each holder frees the
        patch once that one has drained. A host-side call, like a
        finished job's; nothing modelled moves."""
        for worker in self.holders:
            worker.retire_patch(self.patch_id, self.last_instance)

    @property
    def violation_set(self) -> FrozenSet[Tuple[int, int]]:
        """The (worker, oid) violations this patch repairs."""
        return frozenset((dst, oid) for oid, _src, dst in self.copies)

    def workers(self) -> List[int]:
        return sorted(self.entries.keys())

    def entry_count(self, worker: int) -> int:
        return len(self.entries.get(worker, ()))

    def num_copies(self) -> int:
        return len(self.copies)

    def apply_to_directory(self, directory: ObjectDirectory) -> None:
        for oid, _src, dst in self.copies:
            directory.record_copy(oid, dst)

    def sources_still_valid(self, directory: ObjectDirectory) -> bool:
        """True if each cached source still holds the latest version."""
        return all(directory.is_fresh(oid, src) for oid, src, _dst in self.copies)


def build_patch(
    violations: List[Tuple[int, int]],
    directory: ObjectDirectory,
    object_sizes: Dict[int, int],
    patch_id: int = 0,
    instance_id: int = 0,
) -> Patch:
    """Compute a patch that repairs ``violations``.

    For each violated (worker, oid) pair, pick a holder of the latest
    version as the source and emit a SEND/RECV pair. Sources are chosen
    deterministically (lowest worker id) so patches are reproducible and
    cache-comparable.
    """
    copies: List[CopySpec] = []
    entries: Dict[int, List[TemplateEntry]] = {}

    def wlist(w: int) -> List[TemplateEntry]:
        return entries.setdefault(w, [])

    for worker, oid in sorted(violations):
        holders = directory.holders_of_latest(oid)
        if not holders:
            raise RuntimeError(
                f"object {oid} has no holder of its latest version; "
                f"cannot patch (lost data?)"
            )
        src = min(holders)
        copies.append((oid, src, worker))
        size = object_sizes.get(oid, 0)
        dst_list = wlist(worker)
        recv_index = len(dst_list)
        src_list = wlist(src)
        src_list.append(SendEntry(len(src_list), (oid,), (), worker,
                                  recv_index, size))
        dst_list.append(RecvEntry(recv_index, (oid,), (), src, size))
    return Patch(copies, entries, patch_id, instance_id)


class PatchCache:
    """Controller-side patch cache (§4.2 optimization 2).

    Indexed by (what executed before, target template key). "We have found
    that the patch cache has a very high hit rate in practice because
    control flow, while dynamic, is typically quite narrow."

    The cache is bounded: entries evict least-recently-used once
    ``capacity`` is exceeded (a hit refreshes recency), and evictions are
    reported to ``metrics`` under ``patch_cache.evictions``. Every patch
    that leaves the cache is retired on its workers.
    """

    def __init__(self, capacity: int = 256, metrics=None) -> None:
        self._cache: "OrderedDict[Tuple[Hashable, Tuple[str, int]], Patch]" = (
            OrderedDict())
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._metrics = metrics

    def lookup(
        self,
        prev_key: Hashable,
        target_key: Tuple[str, int],
        violations: List[Tuple[int, int]],
        directory: ObjectDirectory,
    ) -> Optional[Patch]:
        """Return the cached patch if it exactly repairs ``violations``."""
        key = (prev_key, target_key)
        patch = self._cache.get(key)
        if (
            patch is not None
            and patch.violation_set == frozenset(violations)
            and patch.sources_still_valid(directory)
        ):
            self._cache.move_to_end(key)
            self.hits += 1
            return patch
        self.misses += 1
        return None

    def store(self, prev_key: Hashable, target_key: Tuple[str, int],
              patch: Patch) -> None:
        key = (prev_key, target_key)
        replaced = self._cache.get(key)
        if replaced is not None and replaced is not patch:
            replaced.retire()
        self._cache[key] = patch
        self._cache.move_to_end(key)
        while len(self._cache) > self.capacity:
            self._cache.popitem(last=False)[1].retire()
            self.evictions += 1
            if self._metrics is not None:
                self._metrics.incr("patch_cache.evictions")

    def invalidate_all(self) -> None:
        """Drop (and retire) every cached patch; the id sequence keeps
        advancing."""
        for patch in self._cache.values():
            patch.retire()
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)
