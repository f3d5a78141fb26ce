"""Unit tests for the mutable-object data model."""

import pytest

from repro.nimbus.data import (
    LogicalObject,
    ObjectDirectory,
    ObjectStore,
    PartitionPlacement,
)

pytestmark = pytest.mark.guard


def make_directory():
    directory = ObjectDirectory()
    directory.register(LogicalObject(1, 100), home=0)
    directory.register(LogicalObject(2, 100), home=1)
    return directory


class TestObjectDirectory:
    def test_registration_initial_state(self):
        directory = make_directory()
        assert directory.latest_version(1) == 0
        assert directory.holders_of_latest(1) == [0]
        assert directory.is_fresh(1, 0)
        assert not directory.is_fresh(1, 1)
        assert 1 in directory and 99 not in directory

    def test_write_bumps_version_and_narrows_holders(self):
        directory = make_directory()
        directory.record_copy(1, 1)
        assert sorted(directory.holders_of_latest(1)) == [0, 1]
        version = directory.record_write(1, 1)
        assert version == 1
        assert directory.latest_version(1) == 1
        assert directory.holders_of_latest(1) == [1]
        assert not directory.is_fresh(1, 0)

    def test_copy_spreads_latest(self):
        directory = make_directory()
        directory.record_write(1, 0)
        directory.record_copy(1, 1)
        assert directory.is_fresh(1, 1)

    def test_stale_copy_not_latest(self):
        directory = make_directory()
        directory.record_copy(1, 1)  # version 0 copy
        directory.record_write(1, 0)  # version 1 at worker 0
        assert directory.holders_of_latest(1) == [0]
        assert 1 in directory.holders(1)

    def test_snapshot_restore_roundtrip(self):
        directory = make_directory()
        directory.record_write(1, 0)
        snap = directory.snapshot()
        directory.record_write(1, 1)
        directory.record_copy(2, 0)
        directory.restore(snap)
        assert directory.latest_version(1) == 1
        assert directory.holders_of_latest(1) == [0]
        assert directory.holders_of_latest(2) == [1]

    def test_snapshot_is_deep(self):
        directory = make_directory()
        snap = directory.snapshot()
        directory.record_write(1, 1)
        latest, holders = snap
        assert latest[1] == 0
        assert holders[1] == {0: 0}

    def test_evict_worker(self):
        directory = make_directory()
        directory.record_copy(1, 1)
        directory.evict_worker(0)
        assert directory.holders_of_latest(1) == [1]

    def test_apply_block_delta(self):
        directory = make_directory()
        directory.apply_block_delta(1, 3, [0, 1])
        assert directory.latest_version(1) == 3
        assert sorted(directory.holders_of_latest(1)) == [0, 1]

    def test_unregister(self):
        directory = make_directory()
        directory.unregister(1)
        assert 1 not in directory

    def test_sole_holder_of_the_latest_version_is_its_id(self):
        """The record's holder encoding at each transition: the worker id
        while one worker holds the latest version, else the map."""
        directory = make_directory()
        record = directory.records()[1]
        assert record.holders == 0  # registered on its home
        directory.record_write(1, 0)
        assert record.holders == 0  # a write at the sole holder
        directory.record_write(1, 1)
        assert record.holders == {0: 1, 1: 2}
        directory.evict_worker(1)
        assert record.holders == {0: 1}  # alone, but stale
        directory.record_write(1, 0)
        assert record.holders == 0
        directory.evict_worker(0)
        assert record.holders == {}
        directory.record_copy(1, 1)
        assert record.holders == 1
        directory.record_copy(1, 0)
        directory.evict_worker(1)
        assert record.holders == 0  # the other holder was current
        directory.apply_block_delta(1, 2, [1, 1])
        assert record.holders == 1
        assert directory.holders(1) == [1]
        assert directory.latest_version(1) == 5

    def test_restore_brings_back_an_object_unregistered_since(self):
        directory = make_directory()
        snap = directory.snapshot()
        directory.unregister(1)
        stamp = directory.stamp_of(1)
        assert stamp > 0 and 1 not in directory
        directory.restore(snap)
        assert 1 in directory and directory.stamp_of(1) > stamp
        assert directory.holders_of_latest(1) == [0]


class TestObjectStore:
    def test_put_get(self):
        store = ObjectStore()
        store.create(1)
        assert store.get(1) is None
        store.put(1, "payload")
        assert store.get(1) == "payload"
        assert 1 in store

    def test_destroy(self):
        store = ObjectStore()
        store.put(1, "x")
        store.destroy(1)
        assert 1 not in store
        assert store.get(1) is None

    def test_live_objects(self):
        store = ObjectStore()
        store.create(1)
        store.create(5)
        assert sorted(store.live_objects()) == [1, 5]


class TestPartitionPlacement:
    """The placement only picks a new object's home; the home itself is
    a fact on the object's directory record."""

    def test_round_robin_default(self):
        placement = PartitionPlacement([0, 1, 2])
        homes = [placement.place() for _ in range(6)]
        assert homes == [0, 1, 2, 0, 1, 2]

    def test_explicit_placement(self):
        placement = PartitionPlacement([0, 1])
        assert placement.place(worker=1) == 1
        assert placement.place() == 0  # a pin takes no round-robin turn
        placement.set_workers([1, 0])
        assert placement.place() == 1  # a new order starts at its head

    def test_migrate(self):
        directory = ObjectDirectory()
        directory.register(LogicalObject(1, 8),
                           PartitionPlacement([0, 1]).place())
        stamp = directory.stamp_of(1)
        directory.rehome(1, 1)
        assert directory.home(1) == 1
        # moving the home moves no data and is no change of state
        assert directory.holders(1) == [0]
        assert directory.stamp_of(1) == stamp

    def test_objects_on(self):
        directory, placement = ObjectDirectory(), PartitionPlacement([0, 1])
        for oid, pin in ((1, 0), (2, 1), (3, None)):
            directory.register(LogicalObject(oid, 8),
                               placement.place(pin))
        assert [rec.oid for rec in directory.objects()
                if rec.home == 0] == [1, 3]
