"""Related work: interleaved virtual stages (Megatron) vs AvgPipe.

Both attack pipeline bubbles; interleaving pays in communication (each
chunk boundary is a transfer), AvgPipe pays in weight memory (N model
replicas).  On the calibrated comm-heavy regime interleaving's extra
transfers eat its bubble savings, which is the context for the paper's
choice of parallel pipelines.
"""

from repro.graph import LayerCost
from repro.schedules import (
    AdvanceFPSchedule,
    PipelineSimRunner,
    StageCosts,
    simulate_interleaved,
)
from repro.graph.partitioner import partition_balanced
from repro.sim import ClusterSpec, Simulator, make_cluster
from repro.utils import format_table

from .conftest import run_once

GIB = 2**30


def _layers(act):
    return [
        LayerCost(f"l{i}", flops_per_sample=2.0e6, activation_bytes_per_sample=act,
                  param_bytes=500_000)
        for i in range(12)
    ]


def _cluster():
    sim = Simulator()
    return make_cluster(sim, 6, spec=ClusterSpec(nodes=3, gpus_per_node=2, memory_bytes=8 * GIB))


def _avgpipe(layers, num_micro, mb):
    cluster = _cluster()
    partition = partition_balanced(layers, 6, bandwidth_bytes_per_sec=cluster.spec.inter_node_bandwidth,
                                flops_per_sec=cluster.spec.peak_flops)
    costs = StageCosts.from_partition(layers, partition, mb)
    runner = PipelineSimRunner(cluster, AdvanceFPSchedule(2), costs, num_micro=num_micro,
                               mb_size=mb, num_pipelines=2, with_reference_model=True)
    return runner.run(iterations=2)


def run_comparison():
    out = {}
    for regime, act in (("cheap comm", 5.0e4), ("paper-regime comm", 1.5e6)):
        layers = _layers(act)
        plain = simulate_interleaved(_cluster(), layers, num_micro=12, mb_size=4.0,
                                     virtual_factor=1, iterations=2)
        inter = simulate_interleaved(_cluster(), layers, num_micro=12, mb_size=4.0,
                                     virtual_factor=2, iterations=2)
        avg = _avgpipe(layers, num_micro=12, mb=4.0)
        out[regime] = {"1F1B": plain, "interleaved(v=2)": inter, "AvgPipe(N=2)": avg}
    return out


def test_related_interleaved(benchmark, emit):
    data = run_once(benchmark, run_comparison)
    rows = []
    for regime, systems in data.items():
        for name, res in systems.items():
            rows.append([regime, name, round(res.time_per_batch * 1e3, 2),
                         round(sum(res.comm_sent_time) * 1e3, 1)])
    emit(
        "related_interleaved",
        format_table(["comm regime", "system", "ms/batch", "total comm (ms)"], rows,
                     title="Related work — interleaved virtual stages vs AvgPipe"),
    )

    cheap = data["cheap comm"]
    heavy = data["paper-regime comm"]
    # Interleaving wins when communication is cheap...
    assert cheap["interleaved(v=2)"].batch_time < cheap["1F1B"].batch_time
    # ...but its advantage shrinks or inverts when transfers are expensive.
    cheap_gain = cheap["1F1B"].batch_time / cheap["interleaved(v=2)"].batch_time
    heavy_gain = heavy["1F1B"].batch_time / heavy["interleaved(v=2)"].batch_time
    assert heavy_gain < cheap_gain
    # AvgPipe's parallel pipelines beat both per batch in both regimes.
    for systems in data.values():
        assert systems["AvgPipe(N=2)"].time_per_batch < systems["interleaved(v=2)"].time_per_batch
