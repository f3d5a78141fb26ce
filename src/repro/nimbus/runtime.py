"""Task runtime: the registry of application functions workers execute.

A :class:`TaskFunction` bundles two things:

* ``fn`` — an optional real Python implementation. When present, workers
  execute it against their local :class:`~repro.nimbus.data.ObjectStore`,
  so small-scale runs compute *real results* (the bundled logistic
  regression genuinely converges). When absent the task is a pure
  spin-wait, matching the paper's Spark-opt / Naiad-opt methodology for
  large-scale timing runs.
* ``duration`` — a model of the task's virtual execution time, a callable
  ``(params, ctx) -> seconds`` or a constant. This is what the simulator
  charges against a worker execution slot.

Functions are looked up by name so that template entries can cache the
function identifier, exactly as the paper's task commands do.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Union

DurationModel = Union[float, Callable[..., float]]


class TaskContext:
    """What a task function sees when it runs on a worker.

    ``read(oid)`` / ``write(oid, value)`` access the worker's local store.
    ``params`` is the task's parameter blob; ``worker_id`` identifies the
    executing worker (useful for injecting stragglers in tests).
    """

    __slots__ = ("store", "params", "worker_id", "read_set", "write_set")

    def __init__(self, store, params, worker_id, read_set, write_set):
        self.store = store
        self.params = params
        self.worker_id = worker_id
        self.read_set = read_set
        self.write_set = write_set

    def read(self, oid: int) -> Any:
        return self.store.get(oid)

    def write(self, oid: int, value: Any) -> None:
        self.store.put(oid, value)

    def reads(self):
        """Payloads of the task's whole read set, in read-set order."""
        return [self.store.get(oid) for oid in self.read_set]


class TaskFunction:
    """A named application function plus its duration model."""

    __slots__ = ("name", "fn", "_duration", "_const_dur")

    def __init__(
        self,
        name: str,
        fn: Optional[Callable[[TaskContext], None]] = None,
        duration: DurationModel = 0.0,
    ):
        self.name = name
        self.fn = fn
        self._duration = duration
        #: constant durations resolved once; None means "call the model"
        self._const_dur = None if callable(duration) else float(duration)

    def duration_of(self, params: Any, worker_id: int) -> float:
        if callable(self._duration):
            return float(self._duration(params, worker_id))
        return float(self._duration)


class FunctionRegistry:
    """Name → :class:`TaskFunction` registry shared by all workers of a job."""

    def __init__(self) -> None:
        self._functions: Dict[str, TaskFunction] = {}
        self.register("__noop__", fn=None, duration=0.0)

    def register(
        self,
        name: str,
        fn: Optional[Callable[[TaskContext], None]] = None,
        duration: DurationModel = 0.0,
    ) -> TaskFunction:
        if name in self._functions:
            raise ValueError(f"function {name!r} already registered")
        task_fn = TaskFunction(name, fn, duration)
        self._functions[name] = task_fn
        return task_fn

    def get(self, name: str) -> TaskFunction:
        try:
            return self._functions[name]
        except KeyError:
            raise KeyError(f"unknown task function {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._functions

