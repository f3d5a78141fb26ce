"""Unit tests for template validation (§4.2, Table 2)."""

from repro.core.controller_template import ControllerTemplate
from repro.core.spec import BlockSpec, LogicalTask, StageSpec
from repro.core.validation import (
    ValidationState,
    brute_force_validate,
    full_validate,
    validate,
)
from repro.core.worker_template import generate_worker_templates
from repro.nimbus.data import LogicalObject, ObjectDirectory


def make_setup():
    """Two workers; each reads its partition plus the shared object 10."""
    block = BlockSpec("b", [
        StageSpec("s", [LogicalTask("g", read=(1, 10), write=(2,)),
                        LogicalTask("g", read=(3, 10), write=(4,))]),
        StageSpec("u", [LogicalTask("u", read=(2, 4), write=(10,))]),
    ])
    template = ControllerTemplate.from_block(block, [0, 1, 0])
    wts = generate_worker_templates(template, {})
    directory = ObjectDirectory()
    for oid, home in ((1, 0), (2, 0), (3, 1), (4, 1), (10, 0)):
        directory.register(LogicalObject(oid, 8), home)
    return wts, directory


def test_full_validate_detects_missing_shared_object():
    wts, directory = make_setup()
    violations = full_validate(wts, directory)
    assert violations == [(1, 10)]  # worker 1 lacks the shared object


def test_full_validate_passes_after_copy():
    wts, directory = make_setup()
    directory.record_copy(10, 1)
    assert full_validate(wts, directory) == []


def test_full_validate_detects_stale_replica():
    wts, directory = make_setup()
    directory.record_copy(10, 1)
    directory.record_write(10, 0)  # new version only on worker 0
    assert full_validate(wts, directory) == [(1, 10)]


def test_incremental_matches_brute_force_across_20_random_seeds():
    """Property: the dirty-set incremental path in ``full_validate`` is
    semantically identical to the brute-force precondition scan, under
    random interleavings of writes, copies, evictions, and validations
    (which exercise cold cache, empty dirty set, and partial dirty set)."""
    import random

    workers = (0, 1)
    oids = (1, 2, 3, 4, 10)
    for seed in range(20):
        rng = random.Random(seed)
        wts, directory = make_setup()
        for _step in range(60):
            op = rng.randrange(3)
            if op == 0:
                directory.record_write(rng.choice(oids), rng.choice(workers))
            elif op == 1:
                directory.record_copy(rng.choice(oids), rng.choice(workers))
            else:
                directory.evict_worker(rng.choice(workers))
            # validate on a random cadence so the dirty set between
            # consecutive validations varies from empty to everything
            if rng.random() < 0.5:
                assert full_validate(wts, directory) == \
                    brute_force_validate(wts, directory), f"seed {seed}"
        assert full_validate(wts, directory) == \
            brute_force_validate(wts, directory), f"seed {seed}"


def test_violations_sorted_deterministically():
    wts, directory = make_setup()
    directory.record_write(1, 1)  # worker 0's partition moved away
    directory.evict_worker(0)
    violations = full_validate(wts, directory)
    assert violations == sorted(violations)


class TestValidationState:
    def test_initially_not_auto(self):
        state = ValidationState()
        assert not state.auto_validates(("b", 0))

    def test_auto_after_same_key(self):
        state = ValidationState()
        state.note_instantiation(("b", 0))
        assert state.auto_validates(("b", 0))

    def test_not_auto_after_different_key(self):
        state = ValidationState()
        state.note_instantiation(("b", 0))
        assert not state.auto_validates(("b", 1))
        assert not state.auto_validates(("other", 0))

    def test_invalidate_clears_auto(self):
        state = ValidationState()
        state.note_instantiation(("b", 0))
        state.invalidate()
        assert not state.auto_validates(("b", 0))

    def test_block_transition_then_return(self):
        state = ValidationState()
        state.note_instantiation(("inner", 0))
        state.note_instantiation(("outer", 0))
        # returning to the inner loop requires a full validation
        assert not state.auto_validates(("inner", 0))


def test_validate_uses_auto_path():
    wts, directory = make_setup()
    state = ValidationState()
    state.note_instantiation(wts.key)
    # even with a violation present, auto-validation skips the check —
    # the contract is that note_instantiation is only called when the
    # template's own delta was applied (closure guarantees preconditions)
    result = validate(wts, directory, state)
    assert result.auto and result.ok


def test_validate_full_path_reports_violations():
    wts, directory = make_setup()
    state = ValidationState()
    result = validate(wts, directory, state)
    assert not result.auto
    assert result.violations == [(1, 10)]
    assert not result.ok


def test_closure_makes_template_self_validating():
    """After applying a template's own delta, full validation passes —
    the §4.2 postcondition-closure property, checked explicitly."""
    wts, directory = make_setup()
    # bring the system to a state where the template can run
    directory.record_copy(10, 1)
    assert full_validate(wts, directory) == []
    # run the template: apply its cached directory delta
    wts.delta.apply(directory)
    # preconditions must hold again without any patch
    assert full_validate(wts, directory) == []
