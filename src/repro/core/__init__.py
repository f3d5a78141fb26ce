"""Execution templates: the paper's core control-plane abstraction.

Exports the template data structures and operations: controller templates
(§2.2/Fig. 5a), worker templates with generation and postcondition closure
(§2.2/§4.1/Fig. 5b), validation with the auto-validation fast path (§4.2),
patches and the patch cache (§2.4/§4.2), and in-place edits including
task-migration planning (§2.3/§4.3/Fig. 6).
"""

from .controller_template import (
    ControllerTemplate,
    ControllerTemplateInstance,
)
from .edits import (
    EditOp,
    MigrationBatch,
    MigrationError,
    apply_edits,
    plan_migration,
    plan_migrations,
)
from .patching import Patch, PatchCache, build_patch
from .spec import BlockSpec, LogicalTask, StageSpec
from .validation import (
    ValidationResult,
    ValidationState,
    full_validate,
    validate,
)
from .worker_template import (
    DirectoryDelta,
    TemplateEntry,
    WorkerHalf,
    WorkerTemplateSet,
    generate_worker_templates,
)

__all__ = [
    "BlockSpec",
    "ControllerTemplate",
    "ControllerTemplateInstance",
    "DirectoryDelta",
    "EditOp",
    "LogicalTask",
    "MigrationBatch",
    "MigrationError",
    "Patch",
    "PatchCache",
    "StageSpec",
    "TemplateEntry",
    "ValidationResult",
    "ValidationState",
    "WorkerHalf",
    "WorkerTemplateSet",
    "apply_edits",
    "build_patch",
    "full_validate",
    "generate_worker_templates",
    "plan_migration",
    "plan_migrations",
    "validate",
]
