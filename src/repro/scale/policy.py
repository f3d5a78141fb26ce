"""Scaling policies: how load observations become a desired worker count.

The reconciliation loop (:class:`~repro.scale.controller.
ResourceController`) asks its policy for a worker-count *delta* on every
tick. Policies read the controller's cross-job
:class:`~repro.sched.rebalance.LoadTracker` — the same always-on EWMA of
per-instance compute per worker that seeds multi-tenant placements — and
must honor the autoscaler's determinism contract: a ``decide`` call that
returns 0 performs pure observation (no RNG, no charges, no messages),
so an autoscaler-on run whose policy never trips is bit-identical to an
autoscaler-off run.
"""

from __future__ import annotations

from typing import Optional


class ScalePolicy:
    """Interface: map the load EWMA to a worker-count delta."""

    #: the autoscaler never drains below / provisions above these
    min_workers: int = 1
    max_workers: int = 1024

    def decide(self, tracker, live) -> int:
        """Workers to add (>0) or drain (<0); 0 leaves the cluster alone.

        ``tracker`` is the controller's :class:`LoadTracker`; ``live`` is
        the sorted live worker list. Called only while no provisioning or
        drain is already in flight, so a policy reasons about a settled
        cluster.
        """
        raise NotImplementedError

    def calibrate(self, tracker, live) -> Optional[float]:
        """Take in one round of new samples without deciding: a closing
        self-schedule window folds its runs one at a time through here.
        Pure bookkeeping, like a ``decide`` that returns 0."""
        return None


class TargetUtilizationPolicy(ScalePolicy):
    """Target-utilization band with hysteresis and cooldown.

    Utilization is the mean per-worker load EWMA over ``target_load``,
    the per-instance compute each worker *should* carry. With
    ``target_load=None`` (the default) the policy self-calibrates: the
    first settled observation — every live worker past ``warmup``
    instances — pins the then-current mean as 100%. A scripted 2× demand
    step then reads as utilization 2.0, and the desired count is simply
    ``total_load / target_load``: enough workers to bring each back to
    its calibrated share.

    Hysteresis (act only outside ``[low, high]``) plus a ``cooldown`` of
    ticks after every action keep the loop from flapping while the load
    EWMA and the warmup gate catch up with the last change.

    Calibration waits for the EWMA to *settle*, not for a fixed sample
    count: the tracker's first observations (init blocks, ramp-up
    iterations) drag the EWMA far below steady state, and a target
    pinned there misreads the steady state itself as over-utilization.
    The target is pinned at the first new-sample round whose mean moved
    less than ``calib_tolerance`` relative to the previous round.
    """

    def __init__(self, target_load: Optional[float] = None,
                 low: float = 0.7, high: float = 1.3,
                 min_workers: int = 1, max_workers: int = 1024,
                 warmup: int = 3, cooldown: int = 3,
                 calib_tolerance: float = 0.05):
        if not 0.0 < low < 1.0 < high:
            raise ValueError(
                f"utilization band must satisfy 0 < low < 1 < high, "
                f"got [{low}, {high}]")
        if min_workers < 1 or max_workers < min_workers:
            raise ValueError(
                f"need 1 <= min_workers <= max_workers, got "
                f"[{min_workers}, {max_workers}]")
        self.target_load = target_load
        self.low = low
        self.high = high
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.warmup = warmup
        self.cooldown = cooldown
        self.calib_tolerance = calib_tolerance
        self._cooldown_left = 0
        #: (min_samples seen, mean) at the last calibration round — means
        #: are only compared across rounds that brought new observations
        self._calib: Optional[tuple] = None

    def calibrate(self, tracker, live) -> Optional[float]:
        """The summed load of ``live`` once every worker is past warmup
        (None before), pinning the self-calibrated target on the way."""
        if not live:
            return None
        # warmup-gates arrivals: an unseen (just-provisioned) worker pins
        # min_samples at 0, so decisions wait for real post-change data
        samples = tracker.min_samples(live)
        if samples < self.warmup:
            return None
        total = sum(tracker.load.get(w, 0.0) for w in live)
        mean = total / len(live)
        if mean <= 0.0:
            return None
        if self.target_load is None:
            # self-calibration is pure bookkeeping on the policy object —
            # the simulation cannot observe it (determinism contract).
            # Pin the target only once the EWMA has settled: compare means
            # across rounds that actually brought new samples and wait for
            # the relative drift to fall inside calib_tolerance.
            if self._calib is not None and samples > self._calib[0]:
                prev = self._calib[1]
                if abs(mean - prev) <= self.calib_tolerance * mean:
                    self.target_load = mean
            if self._calib is None or samples > self._calib[0]:
                self._calib = (samples, mean)
        return total

    def decide(self, tracker, live) -> int:
        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            return 0
        total = self.calibrate(tracker, live)
        if total is None or self.target_load is None:
            return 0
        util = total / len(live) / self.target_load
        if self.low <= util <= self.high:
            return 0
        desired = round(total / self.target_load)
        desired = max(self.min_workers, min(self.max_workers, desired))
        delta = desired - len(live)
        if delta:
            self._cooldown_left = self.cooldown
        return delta
