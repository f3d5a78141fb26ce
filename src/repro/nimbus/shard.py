"""Controller shards: the sharded control plane's fan-out tier (§16).

A :class:`ControllerShard` owns a fixed slice of the worker set
(``worker_id % num_shards``) and, with it, the steady-state dispatch
traffic for those workers: the coordinator ships one
:class:`~repro.nimbus.protocol.ShardWindow` per shard per self-schedule
window, the shard relays the per-worker grants on its own control
thread, collects the workers' ``WindowSummary`` replies, and returns one
aggregated :class:`~repro.nimbus.protocol.ShardWindowSummary`. The
coordinator's message count per window collapses from O(workers) to
O(shards) while every byte that reaches a worker — and therefore every
computed value — is identical to decentralized mode.

Shards are deliberately dumb: no id allocation, no directory writes, no
epoch ownership. All of that stays on the coordinator (DESIGN.md §16
explains why bit-identity forces this split), which is also what lets a
shard vanish from the protocol entirely when no sharded job is running —
shards with no traffic schedule no events.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..sim.actor import Actor
from ..sim.metrics import Metrics
from .costs import CostModel
from . import protocol as P


class _ShardWindowState:
    """One window's fan-in bookkeeping on one shard."""

    __slots__ = ("expected", "summaries")

    def __init__(self) -> None:
        self.expected: Set[int] = set()
        self.summaries: List[P.WindowSummary] = []


class ControllerShard(P.ReliableEndpoint, Actor):
    """One shard of the sharded control plane.

    Holds a reference to the coordinator (for the worker directory and
    the summary return path) but never mutates coordinator state — all
    communication is by message, over the same reliable channels the
    rest of the control plane uses.
    """

    def __init__(self, sim, shard_id: int, controller, costs: CostModel,
                 metrics: Metrics):
        super().__init__(sim, f"shard-{shard_id}")
        self._init_reliable(metrics)
        self.shard_id = shard_id
        self.controller = controller
        self.costs = costs
        self.metrics = metrics
        #: (job_id, window_id) -> fan-in state for windows in flight
        self._windows: Dict[Tuple[int, int], _ShardWindowState] = {}
        self.windows_relayed = 0
        self.summaries_folded = 0

    # ------------------------------------------------------------------
    def handle(self, msg) -> None:
        if isinstance(msg, P.WindowSummary):
            self._on_summary(msg)
        elif isinstance(msg, P.ShardWindow):
            self._on_window(msg)
        elif isinstance(msg, P.ShardAbort):
            self._on_abort(msg)
        else:
            raise TypeError(f"shard-{self.shard_id}: unexpected {msg!r}")

    # ------------------------------------------------------------------
    def _on_window(self, msg: P.ShardWindow) -> None:
        """Relay one window slice to this shard's workers.

        The per-worker dispatch work is charged on *this* shard's control
        thread — N shards fan out in parallel where the decentralized
        coordinator serialized the whole loop. A stalled worker's re-grant
        is a one-grant slice of a window tracked here (the worker stayed
        expected when its stalled summary was forwarded): the coordinator
        re-grants only a window it still holds open, and its abort comes
        down this same channel, so a re-grant never finds its window gone.
        """
        state = self._windows.setdefault((msg.job_id, msg.window_id),
                                         _ShardWindowState())
        workers = self.controller.workers
        for worker_id, window in msg.grants:
            self.charge(self.costs.self_schedule_grant_per_task
                        * len(window.instances))
            state.expected.add(worker_id)
            self.send_reliable(workers[worker_id], window)
        self.windows_relayed += 1

    def _on_summary(self, msg: P.WindowSummary) -> None:
        """Fold one worker's summary into the window's fan-in.

        Stalled summaries are forwarded to the coordinator immediately
        (the re-grant must not wait for the shard's other workers) and
        the worker stays expected. Completed summaries buffer until the
        shard's whole slice has reported, then travel as one message.
        """
        key = (msg.job_id, msg.window_id)
        state = self._windows.get(key)
        if state is None or msg.worker_id not in state.expected:
            self.metrics.incr("shard.orphan_summaries")
            return
        # intra-shard completion handling: the per-row fold work lands
        # here, never on the coordinator
        self.charge(self.costs.controller_completion_per_task
                    * max(1, len(msg.rows)))
        self.summaries_folded += 1
        if msg.stalled:
            self.send_reliable(self.controller, P.ShardWindowSummary(
                self.shard_id, msg.window_id, [msg], job_id=msg.job_id))
            return
        state.expected.discard(msg.worker_id)
        state.summaries.append(msg)
        if not state.expected:
            del self._windows[key]
            self.send_reliable(self.controller, P.ShardWindowSummary(
                self.shard_id, msg.window_id, state.summaries,
                job_id=msg.job_id))

    def _on_abort(self, msg: P.ShardAbort) -> None:
        for key in [k for k in self._windows if k[0] == msg.job_id]:
            del self._windows[key]
            self.metrics.incr("shard.aborted_windows")

    def outstanding_windows(self) -> int:
        return len(self._windows)


def default_shard_count(num_workers: int) -> int:
    """sqrt scaling, clamped to [2, 16]: 4 workers → 2 shards, 100 → 10,
    1000 → 16. Square root balances coordinator fan-out (S messages)
    against per-shard fan-out (W/S messages)."""
    import math

    return min(16, max(2, math.isqrt(max(1, num_workers))))
