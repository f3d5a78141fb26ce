"""Scenario drivers behind ``repro serve``, ``repro autoscale`` and
``repro rebalance``.

Each module wires one end-to-end scenario and reports its virtual-time
results: :mod:`.serve_bench` (multi-tenant job arrivals),
:mod:`.scale_bench` (autoscaler demand step) and :mod:`.rebalance_bench`
(automated fig09 straggler recovery). These are scenarios, not a
benchmark: the one instrument that times this repository is
``bench/run.py`` at its root (``--trace 1`` for per-layer attribution,
``--compare`` for verdicts).
"""
