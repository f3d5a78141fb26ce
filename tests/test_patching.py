"""Unit tests for patches and the patch cache (§2.4, §4.2)."""

import pytest

from repro.core.patching import Patch, PatchCache, build_patch
from repro.nimbus.commands import CommandKind
from repro.nimbus.data import LogicalObject, ObjectDirectory

SIZES = {10: 128, 11: 64}


def make_directory():
    directory = ObjectDirectory()
    directory.register(LogicalObject(10, 128), home=0)
    directory.register(LogicalObject(11, 64), home=2)
    return directory


def test_build_patch_produces_matched_copy_pairs():
    directory = make_directory()
    patch = build_patch([(1, 10), (3, 10)], directory, SIZES)
    assert patch.num_copies() == 2
    assert patch.violation_set == {(1, 10), (3, 10)}
    # sender side: worker 0 holds the latest version
    sends = patch.entries[0]
    assert all(e.kind == CommandKind.SEND for e in sends)
    assert sorted(e.dst_worker for e in sends) == [1, 3]
    for send in sends:
        recv = patch.entries[send.dst_worker][send.dst_index]
        assert recv.kind == CommandKind.RECV
        assert recv.src_worker == 0
        assert recv.write == (10,)
        assert recv.size_bytes == 128


def test_build_patch_picks_deterministic_source():
    directory = make_directory()
    directory.record_copy(10, 5)
    patch_a = build_patch([(1, 10)], directory, SIZES)
    patch_b = build_patch([(1, 10)], directory, SIZES)
    assert patch_a.copies == patch_b.copies
    assert patch_a.copies[0][1] == 0  # lowest holder id wins


def test_build_patch_without_holder_raises():
    directory = make_directory()
    directory.evict_worker(0)
    with pytest.raises(RuntimeError):
        build_patch([(1, 10)], directory, SIZES)


def test_patch_apply_to_directory():
    directory = make_directory()
    patch = build_patch([(1, 10)], directory, SIZES)
    patch.apply_to_directory(directory)
    assert directory.is_fresh(10, 1)


def test_sources_still_valid_tracks_writes():
    directory = make_directory()
    patch = build_patch([(1, 10)], directory, SIZES)
    assert patch.sources_still_valid(directory)
    directory.record_write(10, 4)  # worker 0's copy is now stale
    assert not patch.sources_still_valid(directory)


class TestPatchCache:
    def test_miss_then_hit(self):
        directory = make_directory()
        cache = PatchCache()
        violations = [(1, 10)]
        assert cache.lookup("prev", ("b", 0), violations, directory) is None
        patch = build_patch(violations, directory, SIZES)
        cache.store("prev", ("b", 0), patch)
        assert cache.lookup("prev", ("b", 0), violations, directory) is patch
        assert cache.hits == 1 and cache.misses == 1

    def test_different_prev_key_misses(self):
        directory = make_directory()
        cache = PatchCache()
        violations = [(1, 10)]
        patch = build_patch(violations, directory, SIZES)
        cache.store("prev-a", ("b", 0), patch)
        assert cache.lookup("prev-b", ("b", 0), violations, directory) is None

    def test_changed_violations_miss(self):
        directory = make_directory()
        cache = PatchCache()
        patch = build_patch([(1, 10)], directory, SIZES)
        cache.store("prev", ("b", 0), patch)
        assert cache.lookup("prev", ("b", 0), [(2, 10)], directory) is None

    def test_stale_source_misses(self):
        directory = make_directory()
        cache = PatchCache()
        violations = [(1, 10)]
        patch = build_patch(violations, directory, SIZES)
        cache.store("prev", ("b", 0), patch)
        directory.record_write(10, 4)
        # worker 1 still violates, but the cached source is stale
        assert cache.lookup("prev", ("b", 0), violations, directory) is None

    def test_lru_eviction_at_capacity(self):
        directory = make_directory()
        cache = PatchCache(capacity=2)
        violations = [(1, 10)]
        for prev in ("a", "b", "c"):
            cache.store(prev, ("b", 0), build_patch(violations, directory, SIZES))
        assert len(cache) == 2
        assert cache.evictions == 1
        # "a" was least recently used and is gone; "b" and "c" survive
        assert cache.lookup("a", ("b", 0), violations, directory) is None
        assert cache.lookup("b", ("b", 0), violations, directory) is not None
        assert cache.lookup("c", ("b", 0), violations, directory) is not None

    def test_lru_hit_refreshes_recency(self):
        directory = make_directory()
        cache = PatchCache(capacity=2)
        violations = [(1, 10)]
        cache.store("a", ("b", 0), build_patch(violations, directory, SIZES))
        cache.store("b", ("b", 0), build_patch(violations, directory, SIZES))
        cache.lookup("a", ("b", 0), violations, directory)  # refresh "a"
        cache.store("c", ("b", 0), build_patch(violations, directory, SIZES))
        assert cache.lookup("a", ("b", 0), violations, directory) is not None
        assert cache.lookup("b", ("b", 0), violations, directory) is None

    def test_eviction_reported_to_metrics(self):
        from repro.sim.metrics import Metrics

        metrics = Metrics()
        directory = make_directory()
        cache = PatchCache(capacity=1, metrics=metrics)
        cache.store("a", ("b", 0), build_patch([(1, 10)], directory, SIZES))
        cache.store("b", ("b", 0), build_patch([(1, 10)], directory, SIZES))
        assert metrics.count("patch_cache.evictions") == 1

    def test_invalidate_all(self):
        directory = make_directory()
        cache = PatchCache()
        patch = build_patch([(1, 10)], directory, SIZES)
        cache.store("prev", ("b", 0), patch)
        cache.invalidate_all()
        assert len(cache) == 0
        assert cache.lookup("prev", ("b", 0), [(1, 10)], directory) is None
