"""The cross-channel causal barrier, message by message (DESIGN.md §7, §16).

Reliable channels are in order one (sender, receiver) pair at a time. A
message relayed through a controller shard carries its origin's stamp —
the origin's name and its last sequence number to the final receiver —
and the receiver's transport holds it until the origin's own channel has
delivered through that number. Each test here stamps a relayed message
one message ahead of the origin's direct stream (what a lost and
retransmitted direct message looks like from the receiver) and records,
in order, what the receiver's control thread handles.
"""

from repro.nimbus import protocol as P

from .helpers import handled_by, run_lr, stamped_ahead


def settle(cluster):
    cluster.sim.run(until=cluster.sim.now + 1.0)


def relay_summary(cluster, worker_id, window_id):
    """A summary of ``worker_id``'s, stamped one ahead of its direct
    stream and relayed to the coordinator by its shard."""
    ctrl, worker = cluster.controller, cluster.workers[worker_id]
    shard = cluster.shards[ctrl.shard_of(worker_id)]
    summary = stamped_ahead(worker, P.WindowSummary(worker_id, window_id,
                                                    []), ctrl)
    shard.send_reliable(ctrl, P.ShardWindowSummary(shard.shard_id,
                                                   window_id, [summary]))


def test_relayed_summary_waits_for_the_workers_direct_stream():
    """The reverse barrier: a shard-relayed summary is not folded before
    the message its worker sent the coordinator directly before it."""
    cluster = run_lr(iterations=8, mode="sharded")
    ctrl, m = cluster.controller, cluster.metrics
    holds = m.count("protocol.causal_holds")
    orphans = m.count("self_schedule.orphan_summaries")
    handled = handled_by(ctrl, P.CheckpointAck, P.ShardWindowSummary)

    relay_summary(cluster, 1, 99)
    settle(cluster)
    assert handled == []
    assert m.count("protocol.causal_holds") == holds + 1

    # the direct message the stamp names
    cluster.workers[1].send_reliable(ctrl, P.CheckpointAck(1, -1))
    settle(cluster)
    assert handled == ["CheckpointAck", "ShardWindowSummary"]
    # folded by the policy, which has no window 99 open
    assert m.count("self_schedule.orphan_summaries") == orphans + 1


def test_relayed_summary_is_released_when_its_worker_dies():
    """A dead worker's direct stream never catches up: the membership
    releases what waits on it, and the policy's guards judge it."""
    cluster = run_lr(iterations=8, mode="sharded")
    ctrl = cluster.controller
    handled = handled_by(ctrl, P.ShardWindowSummary)

    relay_summary(cluster, 2, 99)
    settle(cluster)
    assert handled == []

    cluster.workers[2].fail()
    ctrl.membership.on_worker_dead(2)
    settle(cluster)
    assert handled == ["ShardWindowSummary"]
    # nor is a later summary stamped against the dead stream held
    relay_summary(cluster, 2, 98)
    settle(cluster)
    assert handled == ["ShardWindowSummary"] * 2


def test_window_held_across_a_halt_is_dropped():
    """The forward barrier across a recovery halt: a relayed window held
    when the worker handles ``Halt`` never starts, even once the direct
    message it was stamped against arrives."""
    cluster = run_lr(iterations=8, mode="sharded")
    ctrl, worker = cluster.controller, cluster.workers[1]
    shard = cluster.shards[ctrl.shard_of(1)]
    handled = handled_by(worker, P.Halt, P.CreateObjects,
                         P.SelfScheduleWindow)

    window = P.SelfScheduleWindow(99, "lr.iter", 0, ctrl.pm_epoch,
                                  [(10 ** 6, 10 ** 7, 10 ** 6, {})],
                                  reply_to=shard.name)
    # stamped behind the Halt and the message after it
    shard.send_reliable(worker, stamped_ahead(ctrl, window, worker, 2))
    settle(cluster)
    assert handled == []

    ctrl.send_reliable(worker, P.Halt())
    ctrl.send_reliable(worker, P.CreateObjects([]))  # meets the stamp
    settle(cluster)
    assert handled == ["Halt", "CreateObjects"]
