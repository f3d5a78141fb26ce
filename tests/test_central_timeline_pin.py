"""Pin the exact virtual timeline of the configurations whose control
traffic is per-command central dispatch (Spark, no templates) next to the
three template modes that only warm up on it and the Naiad baseline that
never uses it — and hold the three modes to one per-worker
instance/command id stream.

Messages are counted per *hop* (dispatch, completion, block-complete) by
class-name prefix, so the constants hold whether a hop has one message
class or a one-item/N-item pair.
"""

from collections import Counter

import pytest

from repro.apps import LRApp, LRSpec
from repro.baselines import NaiadCluster, SparkCluster
from repro.nimbus import NimbusCluster
from repro.nimbus.worker import Worker

pytestmark = pytest.mark.guard

HOPS = ("DispatchCommand", "CommandComplete", "BlockComplete")

CASES = {
    "centralized": (NimbusCluster, {},
                    6.4098138380065794, 11636, (32, 357, 13)),
    "decentralized": (NimbusCluster, {"mode": "decentralized"},
                      6.4099263756065765, 11334, (32, 357, 6)),
    "sharded": (NimbusCluster, {"mode": "sharded"},
                6.410110810806576, 11342, (32, 357, 6)),
    "no_templates": (NimbusCluster, {"use_templates": False},
                     6.378218438006575, 14473, (104, 1185, 13)),
    "spark": (SparkCluster, {},
              7.503403614006549, 34420, (8813, 2425, 13)),
    "naiad": (NaiadCluster, {},
              6.3994336396065705, 11064, (0, 0, 13)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_lr_virtual_timeline_and_per_hop_messages(case):
    cluster_cls, kwargs, now, events, per_hop = CASES[case]
    app = LRApp(LRSpec(num_workers=8, iterations=12, seed=0))
    cluster = cluster_cls(8, app.program(blocking=False),
                          registry=app.registry, **kwargs)
    counts = Counter()
    original = cluster.network.transmit

    def counting(src, dst, msg, depart):
        counts[type(msg).__name__] += 1
        original(src, dst, msg, depart)

    cluster.network.transmit = counting
    cluster.run_until_finished(max_seconds=1e5)
    assert cluster.sim.now == now
    assert cluster.sim.events_run == events
    assert tuple(sum(n for name, n in counts.items() if name.startswith(hop))
                 for hop in HOPS) == per_hop


def test_instance_id_streams_identical_across_modes(monkeypatch):
    """A window grant allocates instance ids, command-id bases and run
    seqs exactly as per-instance instantiation does: every worker starts
    the same ``(block_id, instance_id, cid_base, block_seq)`` sequence in
    all three scheduling modes."""
    started = {}
    original = Worker._start_instance

    def recording(self, half, block_id, version, instance_id, cid_base,
                  block_seq, *args, **kwargs):
        started.setdefault(self.worker_id, []).append(
            (block_id, instance_id, cid_base, block_seq))
        original(self, half, block_id, version, instance_id, cid_base,
                 block_seq, *args, **kwargs)

    monkeypatch.setattr(Worker, "_start_instance", recording)
    streams = {}
    for mode in ("centralized", "decentralized", "sharded"):
        started.clear()
        app = LRApp(LRSpec(num_workers=8, iterations=12, seed=0))
        cluster = NimbusCluster(8, app.program(blocking=False),
                                registry=app.registry, mode=mode)
        cluster.run_until_finished(max_seconds=1e5)
        streams[mode] = {w: list(rows) for w, rows in started.items()}
    assert len(streams["centralized"]) == 8
    assert all(streams["centralized"].values())
    assert streams["decentralized"] == streams["centralized"]
    assert streams["sharded"] == streams["centralized"]
