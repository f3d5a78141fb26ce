"""Template validation (§4.2).

Before instantiating a worker template the controller must check that every
precondition holds: each worker listed in the template's precondition map
must hold the *latest* version of each required object.

Two paths exist, mirroring Table 2 of the paper:

* **auto-validation** — when a template is instantiated immediately after a
  completed (or issued) instance of *itself* and no external state change
  (migration, eviction, central execution, recovery) happened in between,
  the postcondition-closure property guarantees the preconditions hold and
  the check is skipped entirely (1.7 µs/task in the paper).
* **full validation** — otherwise every (worker, object) precondition pair
  is checked against the object directory (7.3 µs/task). Violations are
  handed to the patching machinery.

Full validation is itself incremental in wall-clock terms: the directory
stamps every object whose latest version or holder set changes, and each
template set caches the outcome of its previous full validation together
with the directory stamp it was computed at. A revalidation then re-checks
only the *dirty intersection* — precondition objects touched since the
cached pass — and merges with the cached violations. The first validation
of a template (or a validation against a different directory, or the first
after an edit relocated a precondition) falls back to the brute-force scan
of the precondition map. Under ``REPRO_CROSS_CHECK=1`` the controller
passes ``cross_check=True`` and every incremental result is compared
against brute force, raising on divergence.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..nimbus.data import ObjectDirectory
from .worker_template import WorkerTemplateSet

Violation = Tuple[int, int]  # (worker, oid)


class ValidationResult:
    """Outcome of validating one worker-template set."""

    __slots__ = ("auto", "violations")

    def __init__(self, auto: bool, violations: List[Violation]):
        self.auto = auto
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "auto" if self.auto else "full"
        return f"<ValidationResult {mode} violations={self.violations}>"


class ValidationState:
    """Tracks whether auto-validation applies (controller-side).

    ``last_key`` is the (block_id, version) whose directory delta was most
    recently applied; ``clean`` is cleared by anything that mutates system
    state outside the template contract.
    """

    def __init__(self) -> None:
        self.last_key: Optional[Tuple[str, int]] = None
        self.clean: bool = False

    def note_instantiation(self, key: Tuple[str, int]) -> None:
        self.last_key = key
        self.clean = True

    def invalidate(self) -> None:
        """External state change: next instantiation must fully validate."""
        self.last_key = None
        self.clean = False

    def auto_validates(self, key: Tuple[str, int]) -> bool:
        return self.clean and self.last_key == key


def brute_force_validate(template_set: WorkerTemplateSet,
                         directory: ObjectDirectory) -> List[Violation]:
    """Check every precondition pair, in (worker, oid) order; return the
    violations."""
    is_fresh = directory.is_fresh
    preconditions = template_set.preconditions
    return [(worker, oid)
            for worker in sorted(preconditions)
            for oid in sorted(preconditions[worker])
            if not is_fresh(oid, worker)]


def full_validate(template_set: WorkerTemplateSet,
                  directory: ObjectDirectory,
                  cross_check: bool = False) -> List[Violation]:
    """Check the template set's preconditions; return the violations.

    Semantically identical to :func:`brute_force_validate`, but re-checks
    only precondition objects the directory has marked dirty since this
    template set's previous full validation (see module docstring).
    """
    cache = template_set.validation_cache
    stamp = directory.stamp
    if cache is None or cache[0] != directory.token:
        violations = brute_force_validate(template_set, directory)
        template_set.validation_cache = (
            directory.token, stamp, frozenset(violations))
        return violations

    _token, last_stamp, cached = cache
    stamp_of = directory.stamp_of
    by_oid = template_set.precondition_index()
    dirty = [oid for oid in by_oid if stamp_of(oid) > last_stamp]
    if not dirty:
        violations = sorted(cached)
    else:
        dirty_set = set(dirty)
        merged = {pair for pair in cached if pair[1] not in dirty_set}
        is_fresh = directory.is_fresh
        for oid in dirty:
            for worker in by_oid[oid]:
                if not is_fresh(oid, worker):
                    merged.add((worker, oid))
        violations = sorted(merged)
    template_set.validation_cache = (
        directory.token, stamp, frozenset(violations))
    if cross_check:
        reference = brute_force_validate(template_set, directory)
        if violations != reference:
            raise AssertionError(
                f"incremental validation diverged for template "
                f"{template_set.key}: incremental={violations} "
                f"brute-force={reference}")
    return violations


def validate(
    template_set: WorkerTemplateSet,
    directory: ObjectDirectory,
    state: ValidationState,
) -> ValidationResult:
    """Validate a template set, using auto-validation when it applies."""
    if state.auto_validates(template_set.key):
        return ValidationResult(auto=True, violations=[])
    return ValidationResult(auto=False,
                            violations=full_validate(template_set, directory))
