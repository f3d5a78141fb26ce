"""Observability: command-lifecycle tracing and its exporter.

The package has two layers:

* :mod:`repro.obs.trace` — the :class:`Tracer` event recorder plus the
  module-level ``TRACE_ENABLED`` switch (env ``REPRO_TRACE=1`` or CLI
  ``--trace``). When disabled, the system allocates nothing: every hook
  site is a single ``is not None`` check on a cached attribute.
* :mod:`repro.obs.export` — the Chrome/Perfetto ``trace_event`` JSON
  exporter (load the file at https://ui.perfetto.dev).
"""

from .trace import TRACE_ENABLED, Tracer, trace_enabled_default
from .export import to_chrome_trace, write_chrome_trace

__all__ = [
    "TRACE_ENABLED",
    "Tracer",
    "trace_enabled_default",
    "to_chrome_trace",
    "write_chrome_trace",
]
