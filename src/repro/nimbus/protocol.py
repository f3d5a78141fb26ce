"""Messages of the Nimbus control plane.

Three interfaces, as in Figure 2 of the paper:

* driver ↔ controller — block submission, template installation markers,
  template instantiation, block completion with returned driver values;
* controller ↔ worker — command dispatch (central path), worker-template
  install/instantiate, patches, checkpoint/recovery control;
* worker ↔ worker — direct data exchange (the push-model copies of §3.4).

Message ``size_bytes`` approximate the paper's wire sizes so the network
model charges realistic serialization time (task descriptions are a few
hundred bytes; instantiation messages are ~4 bytes per task id plus the
parameter block).
"""

from __future__ import annotations

import heapq
from typing import Any, Collection, Dict, Hashable, List, Optional, Set, Tuple

from ..sim.actor import Message
from .commands import Command

TASK_DESC_BYTES = 200  # serialized size of one task description
TASK_ID_BYTES = 4  # one entry of the instantiation id array
PARAM_BLOCK_BYTES = 64  # typical parameter blob


# ---------------------------------------------------------------------------
# driver → controller
# ---------------------------------------------------------------------------
class DefineObjects(Message):
    """Declare logical objects (partitions) and optional placement hints."""

    def __init__(self, objects: List[Tuple[int, str, int, int, Optional[int]]],
                 job_id: int = 0):
        # entries: (oid, variable, partition, size_bytes, home_worker or None)
        self.objects = objects
        self.job_id = job_id
        self.size_bytes = 64 * len(objects)


class SubmitBlock(Message):
    """Submit a basic block as an explicit task stream (non-template path).

    When ``template_start`` is set this stream doubles as the template
    installation capture (the driver marked the basic block, §4.1).
    """

    def __init__(self, block, params: Dict[str, Any], template_start: bool = False,
                 request_id: int = 0, job_id: int = 0):
        self.block = block  # BlockSpec
        self.params = params
        self.template_start = template_start
        self.request_id = request_id
        self.job_id = job_id
        self.size_bytes = TASK_DESC_BYTES * block.num_tasks + PARAM_BLOCK_BYTES


class InstantiateBlock(Message):
    """Execute an installed controller template (§2.2).

    Carries the new task identifiers (modeled as ``task_id_base`` plus the
    count — the array contents are consecutive) and the parameter block.
    """

    def __init__(self, block_id: str, num_tasks: int, task_id_base: int,
                 params: Dict[str, Any], request_id: int = 0, job_id: int = 0):
        self.block_id = block_id
        self.num_tasks = num_tasks
        self.task_id_base = task_id_base
        self.params = params
        self.request_id = request_id
        self.job_id = job_id
        self.size_bytes = TASK_ID_BYTES * num_tasks + PARAM_BLOCK_BYTES


class InstantiateWindow(Message):
    """A batch of successive instantiations of one installed block.

    Decentralized mode (DESIGN.md §14): the driver submits a *window* of
    iterations in one message instead of one ``InstantiateBlock`` per
    iteration. Each entry carries the same payload an ``InstantiateBlock``
    would — request id, task-id base, parameter block — so the wire size
    is honest: the savings are in message count, not bytes.
    """

    def __init__(self, block_id: str, num_tasks: int,
                 entries: List[Tuple[int, int, Dict[str, Any]]],
                 job_id: int = 0):
        # entries: (request_id, task_id_base, params)
        self.block_id = block_id
        self.num_tasks = num_tasks
        self.entries = entries
        self.job_id = job_id
        self.size_bytes = ((TASK_ID_BYTES * num_tasks + PARAM_BLOCK_BYTES)
                           * len(entries))


# ---------------------------------------------------------------------------
# controller → driver
# ---------------------------------------------------------------------------
class ObjectsReady(Message):
    """All requested objects were created and registered."""


class BlockCompleteBatch(Message):
    """Block instances finished; each item carries returned driver values.

    A per-instance run closes as a batch of one; a self-schedule window
    (decentralized mode) closes all its runs in one message, at the bytes
    its runs would have cost one by one.
    """

    def __init__(self, items: List[Tuple[str, int, Dict[str, Any], int,
                                         Optional[float]]]):
        # items: (block_id, seq, results, request_id, finished_at) in seq
        # order. A window sets finished_at to the last worker's local
        # completion time, so driver-side iteration statistics keep per-run
        # resolution even though the batch lands as one message; a
        # per-instance completion sets None: "when this message arrives"
        self.items = items
        self.size_bytes = sum(64 + 32 * len(results)
                              for _b, _s, results, _r, _f in items)


class JobRestored(Message):
    """Recovery completed; driver must replay from the checkpoint."""

    def __init__(self, next_seq: int, results_history: List[Tuple[str, Dict[str, Any]]]):
        self.next_seq = next_seq
        self.results_history = results_history
        # block id + per-block result digest; previously fell back to the
        # generic Message default, undercounting replay traffic
        self.size_bytes = 64 + sum(32 + 32 * len(results)
                                   for _block_id, results in results_history)


# ---------------------------------------------------------------------------
# controller → worker
# ---------------------------------------------------------------------------
class CreateObjects(Message):
    """Create (empty) objects in the worker's local store."""

    def __init__(self, oids: List[int]):
        self.oids = oids
        self.size_bytes = 16 * len(oids)


class DestroyObjects(Message):
    """Destroy objects in the worker's local store (data commands, §3.4)."""

    def __init__(self, oids: List[int]):
        self.oids = oids
        self.size_bytes = 16 * len(oids)


class ReleaseJob(Message):
    """Tear a released job out of a worker (multi-tenant lifecycle).

    Destroys the job's objects, uninstalls its template halves, and marks
    the job id dead so the worker drains the job's in-flight commands
    without executing their bodies — a cancelled or crashed tenant must
    never run a task against destroyed data or stall a neighbor.
    """

    def __init__(self, job_id: int, oids: List[int]):
        self.job_id = job_id
        self.oids = oids
        self.size_bytes = 16 + 16 * len(oids)


class UndefineObjects(Message):
    """Driver → controller: drop logical objects from the system."""

    def __init__(self, oids: List[int], job_id: int = 0):
        self.oids = oids
        self.job_id = job_id
        self.size_bytes = 16 * len(oids)


class DispatchCommandBatch(Message):
    """Centrally dispatch a command list to one worker, plus the cids
    (``reports``) whose written value goes back with their completion.

    One message carries every command a block run schedules on that
    worker, in dispatch order (worker-side conflict tracking sees the
    sequence of individual dispatches); the Spark baseline's one message
    per task is a batch of one. Wire size and the worker's enqueue cost
    are charged per command: batching saves messages, not modeled work.
    """

    def __init__(self, commands: List[Command], block_seq: int,
                 reports: Collection[int] = ()):
        self.commands = commands
        self.block_seq = block_seq
        self.reports = reports
        self.size_bytes = TASK_DESC_BYTES * len(commands)


class InstallWorkerTemplate(Message):
    """Install the worker half of a worker template (§4.1)."""

    def __init__(self, block_id: str, version: int, entries, reports: List[int],
                 job_id: int = 0):
        self.block_id = block_id
        self.version = version
        self.entries = entries  # list[TemplateEntry]
        self.reports = reports  # entry indices whose written value is reported
        self.job_id = job_id
        self.size_bytes = TASK_DESC_BYTES * len(entries)


class InstantiateWorkerTemplate(Message):
    """Instantiate a cached worker template: ids + params (+ edits) (§2.2/4.3)."""

    def __init__(
        self,
        block_id: str,
        version: int,
        instance_id: int,
        cid_base: int,
        params: Dict[str, Any],
        block_seq: int,
        edits=None,
        job_id: int = 0,
    ):
        self.block_id = block_id
        self.version = version
        self.instance_id = instance_id
        self.cid_base = cid_base
        self.params = params
        self.block_seq = block_seq
        self.edits = edits or []
        self.job_id = job_id
        num = 0  # sized below by the controller, which knows the entry count
        self.size_bytes = TASK_ID_BYTES * num + PARAM_BLOCK_BYTES


class SelfScheduleWindow(Message):
    """Grant a worker a window of template instances to self-schedule.

    Decentralized mode (DESIGN.md §14): the controller validates the
    window once, allocates every instance's ids up front, and hands the
    worker the full schedule. The worker then advances instance to
    instance locally — no per-instance controller round-trip — but must
    observe the partition-map ``epoch`` before crossing each block
    boundary. Wire size equals the sum of the per-instance
    ``InstantiateWorkerTemplate`` messages it replaces (set by the
    controller, which knows the entry count).
    """

    def __init__(self, window_id: int, block_id: str, version: int,
                 epoch: int, instances, job_id: int = 0, edits=None,
                 reply_to=None):
        # instances: [(instance_id, cid_base, block_seq, params)]
        self.window_id = window_id
        self.block_id = block_id
        self.version = version
        self.epoch = epoch
        self.instances = instances
        self.job_id = job_id
        self.edits = edits or []
        # sharded mode: actor name the WindowSummary goes back to (the
        # owning shard); None sends it to the coordinator as before
        self.reply_to = reply_to
        self.size_bytes = PARAM_BLOCK_BYTES * max(1, len(instances))


class EpochUpdate(Message):
    """Broadcast a new partition-map epoch (decentralized mode).

    Any outstanding grant issued under an older epoch stalls at its next
    block boundary until the controller re-grants the remainder.
    """

    def __init__(self, epoch: int):
        self.epoch = epoch
        self.size_bytes = 16


class InstallPatch(Message):
    """Send a patch's full command list and cache it under ``patch_id`` (§4.2)."""

    def __init__(self, patch_id: int, entries, cid_base: int, instance_id: int):
        self.patch_id = patch_id
        self.entries = entries  # list[TemplateEntry] (SEND/RECV only)
        self.cid_base = cid_base
        self.instance_id = instance_id
        self.size_bytes = TASK_DESC_BYTES * len(entries)


class InstantiatePatch(Message):
    """Invoke a patch already cached at the worker (single command, §4.2)."""

    def __init__(self, patch_id: int, cid_base: int, instance_id: int):
        self.patch_id = patch_id
        self.cid_base = cid_base
        self.instance_id = instance_id
        self.size_bytes = 32


class Halt(Message):
    """Terminate ongoing tasks and flush queues (recovery, §4.4)."""


class SaveCheckpoint(Message):
    """Write all live objects to durable storage."""

    def __init__(self, checkpoint_id: int):
        self.checkpoint_id = checkpoint_id


class LoadCheckpoint(Message):
    """Load the given objects from durable storage into local memory."""

    def __init__(self, checkpoint_id: int, oids: List[int]):
        self.checkpoint_id = checkpoint_id
        self.oids = oids
        self.size_bytes = 16 * len(oids)


class ManagerDirective(Message):
    """A cluster-manager action executed in controller context.

    Experiments (and the dynamic-scheduling benchmarks) deliver these to
    drive migrations, evictions, and restorations — the "cluster manager"
    role of Figure 2. ``action`` receives the controller instance.
    """

    def __init__(self, action):
        self.action = action
        self.size_bytes = 64


# ---------------------------------------------------------------------------
# worker → controller
# ---------------------------------------------------------------------------
class CommandCompleteBatch(Message):
    """Per-command completion acks (central path).

    A worker's completions within one flush window ride in a single
    message (a lone completion is a batch of one); the controller charges
    its per-completion cost for each item, so only message and event
    overhead is saved — never modeled work.
    """

    def __init__(self, worker_id: int, flat: List[Any]):
        self.worker_id = worker_id
        self.flat = flat  # cid, block_seq, duration, value; 4 per completion
        self.size_bytes = 16 * len(flat)


class InstanceComplete(Message):
    """Per-block-instance completion (template path): one message per worker.

    ``task_times`` optionally piggybacks per-task execution timings for the
    adaptive rebalancer: {local entry index -> duration}. Timings ride in
    the fixed 64-byte completion header (the worker already owes the
    controller one completion per instance), so attaching them never
    changes ``size_bytes`` — a rebalancer-enabled run that takes no action
    stays bit-identical to a rebalancer-off run.
    """

    def __init__(self, worker_id: int, block_id: str, instance_id: int,
                 block_seq: int, compute_time: float,
                 values: Dict[int, Any], version: int = 0,
                 task_times: Optional[Dict[int, float]] = None):
        self.worker_id = worker_id
        self.block_id = block_id
        self.instance_id = instance_id
        self.block_seq = block_seq
        self.compute_time = compute_time  # sum of task durations this instance
        self.values = values  # oid -> reported value
        self.version = version  # worker-template version this instance ran
        self.task_times = task_times  # local entry index -> duration
        self.size_bytes = 64 + 32 * len(values)


class WindowSummary(Message):
    """Coarse per-window progress report (decentralized mode).

    One message replaces the per-instance ``InstanceComplete`` stream for
    a whole self-schedule window. ``rows`` carry the same per-instance
    facts (and bytes) the individual completions would have; ``stalled``
    marks a window interrupted by a partition-map epoch change, in which
    case ``next_index`` tells the controller where to re-grant from.
    """

    def __init__(self, worker_id: int, window_id: int, rows,
                 job_id: int = 0, stalled: bool = False, next_index: int = 0):
        # rows: [(instance_id, block_seq, compute_time, values, task_times,
        #         finished_at)] — finished_at is the worker-local completion
        # time, so block-end statistics stay honest even though the
        # controller only folds them at the window boundary
        self.worker_id = worker_id
        self.window_id = window_id
        self.rows = rows
        self.job_id = job_id
        self.stalled = stalled
        self.next_index = next_index
        self.size_bytes = 64 + sum(32 * len(values)
                                   for _i, _s, _c, values, _t, _f in rows)


# ---------------------------------------------------------------------------
# coordinator ↔ controller shard (sharded mode, DESIGN.md §16)
# ---------------------------------------------------------------------------
class ShardWindow(Message):
    """One shard's slice of a self-schedule window (coordinator → shard).

    ``grants`` is ``[(worker_id, SelfScheduleWindow)]`` for exactly the
    workers this shard owns. The shard relays each inner window to its
    worker on its own control thread — the coordinator pays one message
    per *shard* instead of one per worker, which is the entire point of
    the mode.
    """

    def __init__(self, window_id: int, grants, job_id: int = 0):
        self.window_id = window_id
        self.grants = grants
        self.job_id = job_id
        self.size_bytes = 32 + sum(win.size_bytes for _w, win in grants)


class ShardWindowSummary(Message):
    """Aggregated window progress for one shard (shard → coordinator).

    ``summaries`` carries the raw per-worker :class:`WindowSummary`
    messages the shard collected; the coordinator folds them exactly as
    it would have folded the direct stream. A stalled summary is
    forwarded immediately (alone) so the re-grant is not delayed behind
    the shard's other workers.
    """

    def __init__(self, shard_id: int, window_id: int, summaries,
                 job_id: int = 0):
        self.shard_id = shard_id
        self.window_id = window_id
        self.summaries = summaries
        self.job_id = job_id
        self.rel_after = tuple(  # every bundled summary's stamp
            stamp for s in summaries for stamp in s.rel_after)
        self.size_bytes = 32 + sum(s.size_bytes for s in summaries)


class ShardAbort(Message):
    """Drop a shard's window state for ``job_id`` (worker death or job
    release); a job has at most one window at a shard at a time."""

    def __init__(self, job_id: int):
        self.job_id = job_id
        self.size_bytes = 16


class Heartbeat(Message):
    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.size_bytes = 16


class HaltAck(Message):
    def __init__(self, worker_id: int):
        self.worker_id = worker_id


class CheckpointAck(Message):
    def __init__(self, worker_id: int, checkpoint_id: int):
        self.worker_id = worker_id
        self.checkpoint_id = checkpoint_id


class LoadAck(Message):
    def __init__(self, worker_id: int, checkpoint_id: int):
        self.worker_id = worker_id
        self.checkpoint_id = checkpoint_id


# ---------------------------------------------------------------------------
# worker ↔ worker
# ---------------------------------------------------------------------------
class DataMessage(Message):
    """Pushed copy payload, tagged for RECV matching (§3.4)."""

    def __init__(self, tag: Hashable, oid: int, payload: Any, size_bytes: int):
        self.tag = tag
        self.oid = oid
        self.payload = payload
        self.size_bytes = max(size_bytes, 64)


# ---------------------------------------------------------------------------
# Reliable channels (chaos hardening)
# ---------------------------------------------------------------------------
# The paper's implementation rides on TCP, so every control message enjoys
# exactly-once, in-order delivery even though the physical network drops,
# delays, duplicates, and reorders packets. The simulation reproduces that
# transport guarantee here: every directed (sender, receiver) pair of
# reliable endpoints forms a *channel* with per-message sequence numbers,
# receiver-side acks, sender-side retransmission with exponential backoff,
# and receiver-side dedup + in-order release. On top of a faulty
# :class:`~repro.chaos.ChaosNetwork` this yields at-least-once delivery on
# the wire and effectively-once, in-order delivery to the application.

class Ack(Message):
    """Channel-level acknowledgement of one sequence number.

    Acks are transport control traffic: they carry no application payload,
    are never themselves sequenced or retransmitted (a lost ack simply
    triggers a retransmission, which is re-acked), and are consumed at
    delivery time without occupying the receiver's control thread.
    """

    size_bytes = 16

    def __init__(self, acker: str, seq: int):
        self.acker = acker  # name of the actor that received the message
        self.seq = seq


#: initial retransmission timeout — generous next to the 100 µs link
#: latency so fault-free runs never retransmit spuriously
RELIABLE_RTO = 0.25
RELIABLE_RTO_BACKOFF = 2.0
RELIABLE_RTO_MAX = 2.0
#: give up after this many retransmissions (a destination unreachable for
#: this long is dead; failure recovery, not the transport, takes over)
RELIABLE_MAX_RETRIES = 30


class ReliableEndpoint:
    """Mixin over :class:`~repro.sim.actor.Actor` adding reliable channels.

    Subclasses call :meth:`_init_reliable` during construction and use
    :meth:`send_reliable` instead of ``send`` for messages that must
    survive drops, duplication, and reordering. Messages sent to peers
    that are not reliable endpoints (e.g. bare test doubles) fall back to
    plain unreliable sends, so unit fixtures keep working unchanged.

    The receive half lives in :meth:`deliver` — acks are emitted the
    moment a message *arrives* (like kernel TCP acks), independent of how
    backed up the receiving control thread is, which keeps a saturated
    controller from triggering spurious retransmissions.
    """

    def _init_reliable(self, metrics=None) -> None:
        self._rel_metrics = metrics
        self._rel_send_seq: Dict[str, int] = {}  # dst name -> last seq used
        # (dst name, seq) -> [dst actor, msg, attempts, deadline, rto]
        self._rel_unacked: Dict[Tuple[str, int], list] = {}
        self._rel_recv_next: Dict[str, int] = {}  # src name -> next expected
        self._rel_held: Dict[str, Dict[int, Message]] = {}  # out-of-order
        # retransmission timer wheel: a min-heap of (deadline, dst name,
        # seq) with lazy deletion — an entry is stale when the message was
        # acked (key gone) or rescheduled (deadline mismatch). One engine
        # timer is armed at the earliest live deadline; a full ack cancels
        # it, so fault-free steady state runs zero retransmission events.
        self._rel_wheel: List[Tuple[float, str, int]] = []
        self._rel_wake = None  # pending engine Event, if armed
        self._rel_wake_time = float("inf")
        self._rel_waiting: List[Message] = []  # relayed, behind a stamp
        self._rel_gone: Set[str] = set()  # dead origins: stamps count as met

    # -- cross-channel order (DESIGN.md §7) -----------------------------
    def stamp(self, msg: Message, dst) -> Message:
        """Stamp ``msg``, bound for ``dst`` by way of a relay: ``dst`` holds
        it until this endpoint's channel to ``dst`` has delivered (hence
        handled) everything sent on it before now."""
        msg.rel_after = ((self.name, self._rel_send_seq.get(dst.name, 0)),)
        return msg

    def _rel_unmet(self, msg: Message) -> bool:
        # not checked on the origin's own hop to the relay, where the
        # stamp names another channel
        return any(origin != msg.rel_src and origin not in self._rel_gone
                   and self._rel_recv_next.get(origin, 1) <= seq
                   for origin, seq in msg.rel_after)

    def _rel_release(self) -> None:
        held, self._rel_waiting = self._rel_waiting, []
        for msg in held:  # in arrival order
            if self._rel_unmet(msg):
                self._rel_waiting.append(msg)
            else:
                super().deliver(msg)

    def release_holds(self, origin: str) -> None:
        """``origin`` died: its stamps count as met from now on."""
        self._rel_gone.add(origin)
        if self._rel_waiting:  # delivered after the running handler
            self.sim.schedule_fast(self.sim._now, self._rel_release, ())

    def drop_holds(self) -> None:
        """Forget every held message (a halt abandons their work)."""
        self._rel_waiting = []

    # -- sender side ---------------------------------------------------
    def send_reliable(self, dst, msg: Message) -> None:
        """Send ``msg`` over the reliable channel to ``dst``.

        Self-sends on a lossless network skip the reliable framing
        entirely: loopback delivery is FIFO with no link contention, the
        ack would ride the same loopback (round trip ``2 x
        loopback_latency``, six orders of magnitude under the RTO), so
        neither a drop nor a spurious retransmission is possible and the
        bookkeeping is provably unobservable. ``Network.partition`` flips
        ``lossless`` off permanently, so this can never race a heal.

        Remote sends always take the fully-tracked path, even on a
        lossless network. Retransmissions there are *not* loss-driven
        only: an ack serialized behind a long data transfer can overrun
        the RTO and trigger a spurious retransmission (TCP under
        congestion does the same), whose duplicate occupies real link
        time — modeled behavior that eliding the tracking would erase.
        """
        if not isinstance(dst, ReliableEndpoint):
            self.send(dst, msg)  # peer speaks only the raw protocol
            return
        if (dst is self and self._trace is None
                and self.network is not None and self.network.lossless):
            # the receiver treats an unframed message as a direct delivery
            self.send(dst, msg)
            return
        seq = self._rel_send_seq.get(dst.name, 0) + 1
        self._rel_send_seq[dst.name] = seq
        msg.rel_seq = seq
        msg.rel_src = self.name
        if self._trace is not None:
            self._trace.flow_send(self.name, dst.name, seq,
                                  type(msg).__name__)
        # The RTO clock starts at *transmission*, not at this call: a
        # message sent from inside a long handler does not depart until
        # the handler's charged time has elapsed (see ``Actor.send``), and
        # a real transport never times out bytes still sitting in its own
        # egress buffer. Arming from the call time instead made every
        # message queued behind a multi-second handler retransmit
        # spuriously, up to the retry cap.
        depart = max(self.sim._now, self._handler_start + self._charged)
        deadline = depart + RELIABLE_RTO
        self._rel_unacked[(dst.name, seq)] = [
            dst, msg, 0, deadline, RELIABLE_RTO,
        ]
        self.send(dst, msg)
        heapq.heappush(self._rel_wheel, (deadline, dst.name, seq))
        self._rel_arm(deadline)

    def _rel_arm(self, deadline: float) -> None:
        """Make sure the wake timer fires no later than ``deadline``."""
        if deadline >= self._rel_wake_time:
            return
        if self._rel_wake is not None:
            self._rel_wake.cancel()
        # scheduled directly on the engine: retransmission is transport
        # work and must not queue behind the application control thread
        self._rel_wake = self.sim.schedule_at(deadline, self._rel_on_wake)
        self._rel_wake_time = deadline

    def _rel_disarm(self) -> None:
        if self._rel_wake is not None:
            self._rel_wake.cancel()
            self._rel_wake = None
        self._rel_wake_time = float("inf")
        self._rel_wheel.clear()

    def _rel_on_wake(self) -> None:
        self._rel_wake = None
        self._rel_wake_time = float("inf")
        if not self._rel_alive():
            self._rel_unacked.clear()  # a crashed endpoint retransmits nothing
            self._rel_wheel.clear()
            return
        now = self.sim._now
        wheel = self._rel_wheel
        unacked = self._rel_unacked
        while wheel and wheel[0][0] <= now + 1e-12:
            deadline, dst_name, seq = heapq.heappop(wheel)
            entry = unacked.get((dst_name, seq))
            if entry is None or entry[3] != deadline:
                continue  # stale: acked, abandoned, or already rescheduled
            dst, msg, attempts, _deadline, rto = entry
            if attempts >= RELIABLE_MAX_RETRIES or not self._rel_should_retry(dst):
                del unacked[(dst_name, seq)]
                self._rel_incr("protocol.abandoned")
                continue
            entry[2] = attempts + 1
            entry[4] = min(rto * RELIABLE_RTO_BACKOFF, RELIABLE_RTO_MAX)
            entry[3] = now + entry[4]
            self.send(dst, msg)
            self._rel_incr("protocol.retries")
            heapq.heappush(wheel, (entry[3], dst_name, seq))
        if not unacked:
            wheel.clear()
            return
        # drop acked/rescheduled heads so the next wake is armed at a
        # *live* deadline — otherwise each stale entry costs one wake
        while wheel:
            deadline, dst_name, seq = wheel[0]
            entry = unacked.get((dst_name, seq))
            if entry is not None and entry[3] == deadline:
                self._rel_arm(deadline)
                return
            heapq.heappop(wheel)

    def _rel_should_retry(self, dst) -> bool:
        """Whether retransmitting to ``dst`` is still worthwhile."""
        return not getattr(dst, "_dead", False)

    # -- receiver side -------------------------------------------------
    def deliver(self, msg: Message) -> None:
        if not self._rel_alive():
            return  # crashed endpoints neither ack nor process anything
        if isinstance(msg, Ack):
            self._rel_unacked.pop((msg.acker, msg.seq), None)
            if not self._rel_unacked:
                self._rel_disarm()  # nothing pending: no wake, empty wheel
            return
        seq = msg.rel_seq
        if seq is None:
            super().deliver(msg)
            return
        src = msg.rel_src
        # ack unconditionally: a lost ack means the sender retransmits a
        # message we already have, and the retransmission must re-ack
        peer = self.network.actors.get(src) if self.network else None
        if peer is not None:
            self.send(peer, Ack(self.name, seq))
        expected = self._rel_recv_next.get(src, 1)
        held = self._rel_held.setdefault(src, {})
        if seq < expected or seq in held:
            self._rel_incr("protocol.dup_discards")
            return
        if seq > expected:
            held[seq] = msg  # out of order: hold until the gap fills
            self._rel_incr("protocol.reorder_holds")
            return
        while True:
            self._rel_recv_next[src] = seq + 1
            if self._trace is not None:
                self._trace.flow_recv(src, self.name, seq)
            if msg.rel_after and self._rel_unmet(msg):
                self._rel_waiting.append(msg)
                self._rel_incr("protocol.causal_holds")
            else:
                super().deliver(msg)
                if self._rel_waiting:
                    self._rel_release()
            seq += 1
            msg = held.pop(seq, None)
            if msg is None:
                return

    def _rel_alive(self) -> bool:
        return True

    def _timer_alive(self) -> bool:
        # timer callbacks on a crashed endpoint are dropped, exactly as
        # their _Callback delivery would have been
        return self._rel_alive()

    def _rel_incr(self, name: str) -> None:
        if self._rel_metrics is not None:
            self._rel_metrics.incr(name)
