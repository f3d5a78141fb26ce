"""Unit tests for the worker: local readiness, copies, slots, halt."""

import collections

import pytest

from repro.apps import LRApp, LRSpec
from repro.nimbus import NimbusCluster
from repro.nimbus import protocol as P
from repro.nimbus.commands import Command, CommandKind, make_copy_pair, make_task
from repro.nimbus.costs import CostModel
from repro.nimbus.data import ObjectStore
from repro.nimbus.runtime import FunctionRegistry
from repro.nimbus.worker import DurableStorage, Worker
from repro.sim.actor import Actor, Message
from repro.sim.engine import Simulator
from repro.sim.metrics import Metrics
from repro.sim.network import Network


class FakeController(Actor):
    def __init__(self, sim):
        super().__init__(sim, "controller")
        self.completions = []
        self.instances = []

    def handle(self, msg):
        if isinstance(msg, P.CommandCompleteBatch):
            # (cid, block_seq, duration, value), four slots each on the wire
            it = iter(msg.flat)
            self.completions.extend(zip(it, it, it, it))
        elif isinstance(msg, P.InstanceComplete):
            self.instances.append(msg)


def build(num_workers=2, registry=None):
    sim = Simulator()
    net = Network(sim, latency=1e-5, bandwidth=1e9)
    metrics = Metrics()
    controller = net.attach(FakeController(sim))
    registry = registry or FunctionRegistry()
    workers = {}
    storage = DurableStorage()
    for wid in range(num_workers):
        worker = Worker(sim, wid, controller, registry, CostModel(), metrics,
                        storage, slots=2)
        net.attach(worker)
        workers[wid] = worker
    for worker in workers.values():
        worker.peers = workers
    return sim, controller, workers


def dispatch(worker, cmd, seq=1, report=False):
    reports = {cmd.cid} if report else ()
    worker.deliver(P.DispatchCommandBatch([cmd], seq, reports))


def stamp_registry():
    registry = FunctionRegistry()

    def stamp(ctx):
        ctx.write(ctx.write_set[0], ("stamp", ctx.params))

    registry.register("stamp", fn=stamp, duration=0.01)
    registry.register("slow", fn=stamp, duration=0.1)
    return registry


def test_task_executes_and_acks():
    sim, controller, workers = build(registry=stamp_registry())
    worker = workers[0]
    worker.store.create(1)
    dispatch(worker, make_task(1, 0, "stamp", read=(), write=(1,), params=7))
    sim.run()
    assert worker.store.get(1) == ("stamp", 7)
    assert len(controller.completions) == 1
    cid, _seq, duration, _value = controller.completions[0]
    assert cid == 1 and duration == pytest.approx(0.01)


def test_before_set_ordering():
    """The before set alone orders two commands that share no object:
    the predecessor takes ten times as long, and the worker has a free
    slot for the dependent, so without the before set it would finish
    first."""
    registry = FunctionRegistry()
    log = []
    registry.register("log", fn=lambda ctx: log.append(ctx.params),
                      duration=0.01)
    registry.register("slow_log", fn=lambda ctx: log.append(ctx.params),
                      duration=0.1)
    sim, _controller, workers = build(registry=registry)
    worker = workers[0]
    first = make_task(1, 0, "slow_log", read=(), write=(), params="first")
    second = Command(2, CommandKind.TASK, 0, params="second",
                     before=[1], function="log")
    # deliver in reverse dependency order is impossible over FIFO, but the
    # dependent can sit queued while its predecessor runs
    dispatch(worker, first)
    dispatch(worker, second)
    sim.run()
    assert log == ["first", "second"]


def test_object_conflict_ordering_without_before_sets():
    """Cross-command conflicts are resolved locally even with empty before
    sets (requirement 1 of §3.1 plus the conflict tracker)."""
    registry = FunctionRegistry()
    log = []

    def reader(ctx):
        log.append(("read", ctx.read(1)))

    def writer(ctx):
        ctx.write(1, "v2")
        log.append(("write",))

    registry.register("reader", fn=reader, duration=0.05)
    registry.register("writer", fn=writer, duration=0.001)
    sim, _c, workers = build(registry=registry)
    worker = workers[0]
    worker.store.put(1, "v1")
    dispatch(worker, make_task(1, 0, "reader", read=(1,), write=()))
    # writer is much faster but must wait for the reader (anti-dependency)
    dispatch(worker, make_task(2, 0, "writer", read=(), write=(1,)))
    dispatch(worker, make_task(3, 0, "reader", read=(1,), write=()))
    sim.run()
    assert log == [("read", "v1"), ("write",), ("read", "v2")]


def test_copy_pair_moves_payload():
    sim, _c, workers = build(registry=stamp_registry())
    src, dst = workers[0], workers[1]
    src.store.put(5, "payload")
    send, recv = make_copy_pair(10, 11, 5, src=0, dst=1, size_bytes=100)
    dispatch(src, send)
    dispatch(dst, recv)
    sim.run()
    assert dst.store.get(5) == "payload"


def test_early_data_buffered_until_recv_arrives():
    sim, _c, workers = build()
    dst = workers[1]
    # data arrives before the recv command is enqueued
    dst.deliver(P.DataMessage(("cid", 11), 5, "early", 10))
    sim.run()
    recv = Command(11, CommandKind.RECV, 1, write=(5,), tag=("cid", 11))
    dispatch(dst, recv)
    sim.run()
    assert dst.store.get(5) == "early"
    assert dst.queued_commands == 0


def test_slots_limit_concurrency():
    registry = stamp_registry()
    sim, controller, workers = build(registry=registry)
    worker = workers[0]  # 2 slots
    for i in range(4):
        worker.store.create(100 + i)
        dispatch(worker, make_task(
            20 + i, 0, "slow", read=(), write=(100 + i,), params=i))
    sim.run()
    ends = sorted(round(duration, 6)
                  for _cid, _seq, duration, _value in controller.completions)
    assert len(controller.completions) == 4
    # 4 tasks x 0.1s on 2 slots: finish in two waves, so the simulation
    # takes ~0.2s, not ~0.1s or ~0.4s
    assert 0.19 < sim.now < 0.25


def test_instance_completion_aggregates(monkeypatch):
    """Template instantiation acks once per instance, not per command."""
    from repro.core.worker_template import TaskEntry

    sim, controller, workers = build(registry=stamp_registry())
    worker = workers[0]
    entries = [
        TaskEntry(0, write=(1,), function="stamp", param_slot="p"),
        TaskEntry(1, write=(2,), before=(0,), function="stamp",
                  param_slot="p"),
    ]
    worker.store.create(1)
    worker.store.create(2)
    worker.deliver(P.InstallWorkerTemplate("blk", 0, entries, reports=[1]))
    worker.deliver(P.InstantiateWorkerTemplate(
        "blk", 0, instance_id=9, cid_base=100, params={"p": 3}, block_seq=4))
    sim.run()
    assert len(controller.instances) == 1
    inst = controller.instances[0]
    assert inst.instance_id == 9 and inst.block_seq == 4
    assert inst.values == {2: ("stamp", 3)}
    assert inst.compute_time == pytest.approx(0.02)
    assert controller.completions == []


def test_halt_flushes_everything():
    sim, controller, workers = build(registry=stamp_registry())
    worker = workers[0]
    worker.store.create(1)
    dispatch(worker, make_task(1, 0, "slow", read=(), write=(1,), params=1))
    dispatch(worker, make_task(2, 0, "slow", read=(), write=(1,), params=2))
    sim.run(until=0.01)  # first task started, nothing finished
    worker.deliver(P.Halt())
    sim.run()
    halt_acks = [m for m in controller.completions]
    assert worker.queued_commands == 0
    # no task completions leaked after the halt
    assert halt_acks == []
    assert worker.tasks_executed == 0


def test_failed_worker_goes_silent():
    sim, controller, workers = build(registry=stamp_registry())
    worker = workers[0]
    worker.store.create(1)
    worker.fail()
    dispatch(worker, make_task(1, 0, "stamp", read=(), write=(1,)))
    sim.run()
    assert controller.completions == []


def test_checkpoint_save_and_load_roundtrip():
    sim, controller, workers = build()
    worker = workers[0]
    worker.store.put(1, {"value": 42})
    worker.deliver(P.SaveCheckpoint(1))
    sim.run()
    worker.store.put(1, {"value": 99})  # diverge after the checkpoint
    worker.deliver(P.LoadCheckpoint(1, [1]))
    sim.run()
    assert worker.store.get(1) == {"value": 42}


def test_checkpoint_is_deep_copy():
    sim, _c, workers = build()
    worker = workers[0]
    payload = {"value": [1, 2]}
    worker.store.put(1, payload)
    worker.deliver(P.SaveCheckpoint(1))
    sim.run()
    payload["value"].append(3)  # in-place mutation after the save
    worker.deliver(P.LoadCheckpoint(1, [1]))
    sim.run()
    assert worker.store.get(1) == {"value": [1, 2]}


@pytest.mark.parametrize("mode", ["centralized", "decentralized", "sharded"])
def test_queued_commands_is_exact_mid_run(monkeypatch, mode):
    """The autoscaler's drain check reads ``queued_commands``. At every
    event of a pipelined run, including those with frames and central
    commands in flight on one worker, it is the commands enqueued there
    minus those completed."""
    live = collections.Counter()
    enqueue = Worker._enqueue
    run_plan = Worker._run_compiled_plan
    complete = Worker._complete

    def counted_enqueue(self, cmd, meta):
        live[self.worker_id] += 1
        enqueue(self, cmd, meta)

    def counted_run_plan(self, plan, *args):
        live[self.worker_id] += plan.m
        return run_plan(self, plan, *args)

    def counted_complete(self, cmd, duration):
        live[self.worker_id] -= 1
        complete(self, cmd, duration)

    monkeypatch.setattr(Worker, "_enqueue", counted_enqueue)
    monkeypatch.setattr(Worker, "_run_compiled_plan", counted_run_plan)
    monkeypatch.setattr(Worker, "_complete", counted_complete)
    app = LRApp(LRSpec(num_workers=4, iterations=10, partitions_per_worker=4))
    cluster = NimbusCluster(4, app.program(), registry=app.registry,
                            mode=mode)
    cluster.driver.start()
    mixed = 0
    while not cluster.job.finished:
        assert cluster.sim.step()
        for wid, worker in cluster.workers.items():
            assert worker.queued_commands == live[wid], wid
            central = len(worker._pending.central)
            mixed += 0 < central < worker.queued_commands
    assert mixed
    assert not any(live.values())
