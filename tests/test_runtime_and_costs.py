"""Unit tests for the task runtime, cost model, commands, and protocol."""

import pytest

from repro.nimbus.commands import (
    CentralRecv,
    CentralSend,
    CentralTask,
    Command,
    CommandKind,
    make_copy_pair,
    make_task,
)
from repro.nimbus.costs import CostModel, PAPER_COSTS
from repro.nimbus.data import ObjectStore
from repro.nimbus.runtime import FunctionRegistry, TaskContext
from repro.nimbus import protocol as P


class TestFunctionRegistry:
    def test_register_and_get(self):
        registry = FunctionRegistry()
        fn = registry.register("f", duration=1.5)
        assert registry.get("f") is fn
        assert "f" in registry

    def test_duplicate_rejected(self):
        registry = FunctionRegistry()
        registry.register("f")
        with pytest.raises(ValueError):
            registry.register("f")

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            FunctionRegistry().get("nope")

    def test_constant_duration(self):
        registry = FunctionRegistry()
        registry.register("f", duration=0.25)
        assert registry.get("f").duration_of(None, 3) == 0.25

    def test_callable_duration_receives_params_and_worker(self):
        registry = FunctionRegistry()
        registry.register("f", duration=lambda params, wid: params * wid)
        assert registry.get("f").duration_of(2.0, 3) == 6.0

    def test_task_context_reads_in_order(self):
        store = ObjectStore()
        store.put(1, "a")
        store.put(2, "b")
        ctx = TaskContext(store, None, 0, (2, 1), ())
        assert ctx.reads() == ["b", "a"]


class TestCostModel:
    def test_paper_defaults(self):
        costs = PAPER_COSTS
        # Table 1: receive + schedule = the paper's 134 µs central cost
        assert (costs.central_schedule_per_task
                + costs.central_receive_per_task) == pytest.approx(134e-6)
        assert costs.spark_schedule_per_task == pytest.approx(166e-6)
        assert costs.install_controller_template_per_task == pytest.approx(25e-6)
        # Table 2
        assert costs.instantiate_worker_template_auto_per_task == pytest.approx(1.7e-6)
        assert costs.instantiate_worker_template_validate_per_task == pytest.approx(7.3e-6)
        # Table 3
        assert costs.edit_per_task == pytest.approx(41e-6)
        # Naiad install: 230 ms / 8000 tasks
        assert costs.naiad_install_per_task * 8000 == pytest.approx(0.23)

    def test_scaled(self):
        slow = PAPER_COSTS.scaled(2.0)
        assert slow.central_schedule_per_task == pytest.approx(
            2 * PAPER_COSTS.central_schedule_per_task)
        assert slow.edit_per_task == pytest.approx(82e-6)
        # non-control characteristics are untouched
        assert slow.storage_bandwidth == PAPER_COSTS.storage_bandwidth

    def test_scaled_is_a_copy(self):
        slow = PAPER_COSTS.scaled(2.0)
        assert slow is not PAPER_COSTS
        assert PAPER_COSTS.central_schedule_per_task == pytest.approx(104e-6)


class TestCommands:
    def test_make_task(self):
        cmd = make_task(7, 2, "fn", read=(1,), write=(2,), before=[3],
                        params="p")
        assert cmd.kind == CommandKind.TASK
        assert cmd.cid == 7 and cmd.worker == 2
        assert cmd.function == "fn" and cmd.params == "p"
        assert cmd.before == (3,)

    def test_copy_pair_tags_match(self):
        send, recv = make_copy_pair(1, 2, oid=9, src=0, dst=1,
                                    size_bytes=128)
        assert send.tag == recv.tag == ("cid", 2)
        assert send.kind == CommandKind.SEND and recv.kind == CommandKind.RECV
        assert send.read == (9,) and recv.write == (9,)
        assert (send.worker, send.dst_worker, recv.worker) == (0, 1, 1)
        assert send.size_bytes == recv.size_bytes == 128

    def test_central_commands_carry_their_kind_only(self):
        tag = ("cid", 2)
        task = CentralTask(3, 1, "fn", (9,), (4,), "p")
        send = CentralSend(1, 0, 9, 1, tag, 128)
        recv = CentralRecv(2, 1, 9, tag)
        assert (task.kind, send.kind, recv.kind) == (
            CommandKind.TASK, CommandKind.SEND, CommandKind.RECV)
        assert (task.function, task.read, task.write, task.params) == (
            "fn", (9,), (4,), "p")
        assert send.read == (9,) and recv.write == (9,)
        assert (send.worker, send.dst_worker, recv.worker) == (0, 1, 1)
        assert send.tag == recv.tag == tag and send.size_bytes == 128
        for cmd in (task, send, recv):
            assert cmd.before == () and cmd._carena is None
            assert not hasattr(cmd, "__dict__")
        assert send.write == recv.read == () and send.function is None


class TestProtocolSizes:
    def test_submit_block_scales_with_tasks(self):
        from repro.core.spec import BlockSpec, LogicalTask, StageSpec
        small = BlockSpec("s", [StageSpec("s", [
            LogicalTask("f", read=(), write=(1,))])])
        big = BlockSpec("b", [StageSpec("s", [
            LogicalTask("f", read=(), write=(i,)) for i in range(100)])])
        assert (P.SubmitBlock(big, {}).size_bytes
                > 50 * P.SubmitBlock(small, {}).size_bytes)

    def test_instantiate_block_is_compact(self):
        from repro.core.spec import BlockSpec, LogicalTask, StageSpec
        big = BlockSpec("b", [StageSpec("s", [
            LogicalTask("f", read=(), write=(i,)) for i in range(100)])])
        submit = P.SubmitBlock(big, {}).size_bytes
        instantiate = P.InstantiateBlock("b", 100, 0, {}).size_bytes
        # the whole point: instantiation is ~50x smaller on the wire
        assert instantiate * 10 < submit

    def test_data_message_carries_payload_size(self):
        msg = P.DataMessage(("t",), 1, b"x", size_bytes=4096)
        assert msg.size_bytes == 4096
        tiny = P.DataMessage(("t",), 1, None, size_bytes=1)
        assert tiny.size_bytes >= 64  # floor: headers dominate tiny payloads
