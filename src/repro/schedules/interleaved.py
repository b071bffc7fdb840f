"""Interleaved virtual stages (Megatron-LM's interleaved 1F1B).

A further bubble-reduction technique from the ecosystem the paper
competes in: cut the model into v*K *virtual* stages and give device d
the non-contiguous chunks {d, d+K, d+2K, ...}.  The pipeline fill then
advances one *chunk* at a time instead of one device-sized stage, so
warmup bubbles shrink by ~v at the cost of v times more inter-stage
transfers (and messier communication).

Implemented on the generic executor via ``device_map``; the op stream is
plain 1F1B over the virtual stages.  Provided as an extension/related
comparison — the paper's AvgPipe attacks the same bubbles with parallel
pipelines instead.
"""

from __future__ import annotations

from repro.graph.cost_model import LayerCost
from repro.graph.partitioner import Partition, partition_balanced
from repro.schedules.base import OneFOneBSchedule
from repro.schedules.executor import PipelineSimRunner, SimIterationResult, StageCosts
from repro.sim.cluster import Cluster

__all__ = ["interleaved_device_map", "simulate_interleaved"]


def interleaved_device_map(num_devices: int, virtual_factor: int) -> list[int]:
    """Device of each of the ``virtual_factor * num_devices`` stages:
    stage s runs on device ``s % num_devices`` (round-robin chunks)."""
    if virtual_factor < 1:
        raise ValueError("virtual_factor must be >= 1")
    return [s % num_devices for s in range(virtual_factor * num_devices)]


def simulate_interleaved(
    cluster: Cluster,
    layer_costs: list[LayerCost],
    num_micro: int,
    mb_size: float,
    virtual_factor: int = 2,
    iterations: int = 1,
    activation_byte_scale: float = 1.0,
    param_byte_scale: float = 1.0,
    stash_multiplier: float = 6.0,
    optimizer_state_factor: float = 2.0,
) -> SimIterationResult:
    """1F1B over ``virtual_factor x devices`` interleaved virtual stages."""
    num_stages = virtual_factor * cluster.num_devices
    if len(layer_costs) < num_stages:
        raise ValueError(
            f"{len(layer_costs)} layers cannot form {num_stages} virtual stages"
        )
    partition = partition_balanced(
        layer_costs,
        num_stages,
        bandwidth_bytes_per_sec=cluster.spec.inter_node_bandwidth / activation_byte_scale,
        flops_per_sec=cluster.spec.peak_flops,
    )
    stage_costs = StageCosts.from_partition(
        layer_costs, partition, mb_size,
        activation_byte_scale=activation_byte_scale,
        param_byte_scale=param_byte_scale,
        stash_multiplier=stash_multiplier,
    )
    runner = PipelineSimRunner(
        cluster,
        OneFOneBSchedule(versions=1),
        stage_costs,
        num_micro=num_micro,
        mb_size=mb_size,
        num_pipelines=1,
        optimizer_state_factor=optimizer_state_factor,
        device_map=[interleaved_device_map(cluster.num_devices, virtual_factor)],
    )
    return runner.run(iterations=iterations)
