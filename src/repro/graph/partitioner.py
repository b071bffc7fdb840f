"""PipeDream-style pipeline partitioner.

Cuts an ordered layer chain into K contiguous stages.  The objective is
the steady-state pipeline bottleneck: with one micro-batch in flight per
stage slot, throughput is limited by the *slowest* stage, where a stage's
time is its compute plus the time to ship its output activation to the
next stage.  PipeDream solves this with a DP over (prefix, machines);
for a straight chain (no replication, as the paper uses it) the
recurrence is

    T(j, k) = min over i < j of max( T(i, k-1),
                                     comm(i),
                                     sum_{l in (i, j]} compute(l) )

where ``comm(i)`` is the activation traffic of the cut after layer i.
A brute-force enumerator in the tests certifies optimality on small
instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.graph.cost_model import LayerCost

__all__ = [
    "Partition",
    "partition_balanced",
    "partition_uniform",
    "stage_spans",
    "balanced_bottleneck",
    "stage_memory_bytes",
    "search_placement",
    "search_partition_placement",
]


@dataclass(frozen=True)
class Partition:
    """A K-stage cut of an L-layer chain.

    ``boundaries`` has K+1 entries; stage k owns layers
    ``[boundaries[k], boundaries[k+1])``.
    """

    boundaries: tuple[int, ...]

    def __post_init__(self) -> None:
        b = self.boundaries
        if len(b) < 2 or b[0] != 0:
            raise ValueError(f"malformed boundaries {b}")
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ValueError(f"boundaries must be strictly increasing: {b}")

    @property
    def num_stages(self) -> int:
        return len(self.boundaries) - 1

    def stage_of_layer(self, layer: int) -> int:
        for k in range(self.num_stages):
            if self.boundaries[k] <= layer < self.boundaries[k + 1]:
                return k
        raise IndexError(f"layer {layer} outside partition {self.boundaries}")

    def span(self, stage: int) -> tuple[int, int]:
        return self.boundaries[stage], self.boundaries[stage + 1]


def stage_spans(partition: Partition) -> list[tuple[int, int]]:
    """The [lo, hi) layer span of every stage of a partition."""
    return [partition.span(k) for k in range(partition.num_stages)]


def _layer_memory(
    costs: Sequence[LayerCost],
    layer_memory_bytes: Sequence[float] | None,
) -> list[float]:
    """Resident bytes per layer for the partitioner's memory caps.

    The default charges 3x the parameter bytes (weights + gradients +
    a momentum-style optimizer slot) — the dominant *static* term; the
    activation working set depends on the schedule and is checked by
    :func:`repro.verify.invariants.predict_peak_memory` downstream.
    """
    if layer_memory_bytes is not None:
        if len(layer_memory_bytes) != len(costs):
            raise ValueError(
                f"layer_memory_bytes has {len(layer_memory_bytes)} entries "
                f"for {len(costs)} layers"
            )
        return [float(m) for m in layer_memory_bytes]
    return [3.0 * c.param_bytes for c in costs]


def stage_memory_bytes(
    costs: Sequence[LayerCost],
    boundaries: Sequence[int],
    layer_memory_bytes: Sequence[float] | None = None,
) -> list[float]:
    """Resident bytes of every stage of a candidate partition."""
    mem = _layer_memory(costs, layer_memory_bytes)
    return [
        sum(mem[boundaries[k] : boundaries[k + 1]])
        for k in range(len(boundaries) - 1)
    ]


def _cut_bandwidth(
    bandwidth_bytes_per_sec: float | Sequence[float],
    stage: int,
    num_stages: int,
) -> float:
    """Bandwidth of the cut feeding ``stage`` (1-based over cuts)."""
    if isinstance(bandwidth_bytes_per_sec, (int, float)):
        return float(bandwidth_bytes_per_sec)
    if len(bandwidth_bytes_per_sec) != num_stages:
        raise ValueError(
            f"per-stage bandwidth needs {num_stages} entries "
            f"(entry k = link into stage k; entry 0 unused), "
            f"got {len(bandwidth_bytes_per_sec)}"
        )
    return float(bandwidth_bytes_per_sec[stage])


def partition_balanced(
    costs: Sequence[LayerCost],
    num_stages: int,
    *,
    device_speeds: Sequence[float] | None = None,
    bandwidth_bytes_per_sec: float | Sequence[float] = 1e9 / 8,
    flops_per_sec: float = 1.0,
    comm_weight: float = 0.5,
    memory_caps: Sequence[float] | None = None,
    layer_memory_bytes: Sequence[float] | None = None,
) -> Partition:
    """Optimal contiguous K-stage partition via the PipeDream DP,
    BaPipe-style balanced over (possibly) unequal devices.

    ``flops_per_sec`` converts the cost model's flops into time so compute
    and communication are in common units; the default treats flops as
    already-normalized time (useful with profiled costs).

    ``comm_weight`` discounts the input-cut communication added to a
    stage's service time: schedules overlap part of each transfer with
    compute, so pricing it fully makes the DP hoard layers on stage 0
    (which pays no input cut) and unbalances compute.  0.5 reflects the
    roughly-half-exposed transfers the simulator shows for 1F1B.

    On a uniform cluster leave the three heterogeneity inputs at their
    defaults; each generalizes the PipeDream DP one way:

    * ``device_speeds[k]`` scales stage k's compute time by 1/speed — a
      half-speed device makes its stage twice as expensive, so the DP
      gives it proportionally fewer layers (arXiv:2012.12544);
    * ``bandwidth_bytes_per_sec`` may be per-stage: entry k is the
      bandwidth of the link *into* stage k (entry 0 is unused since
      stage 0 pays no input cut);
    * ``memory_caps[k]`` bounds the resident bytes of stage k
      (:func:`stage_memory_bytes`); candidates that overflow a cap are
      infeasible rather than merely expensive.
    """
    n = len(costs)
    if num_stages <= 0:
        raise ValueError(f"num_stages must be positive, got {num_stages}")
    if num_stages > n:
        raise ValueError(f"cannot split {n} layers into {num_stages} stages")
    if device_speeds is not None:
        if len(device_speeds) != num_stages:
            raise ValueError(
                f"device_speeds has {len(device_speeds)} entries "
                f"for {num_stages} stages"
            )
        if any(s <= 0 for s in device_speeds):
            raise ValueError(f"device speeds must be positive: {device_speeds}")
    if memory_caps is not None and len(memory_caps) != num_stages:
        raise ValueError(
            f"memory_caps has {len(memory_caps)} entries for {num_stages} stages"
        )

    compute = np.array([c.flops_per_sample / flops_per_sec for c in costs])
    prefix = np.concatenate([[0.0], np.cumsum(compute)])
    uniform_bw = isinstance(bandwidth_bytes_per_sec, (int, float))
    if uniform_bw:
        comm_after = comm_weight * np.array(
            [c.activation_bytes_per_sample / bandwidth_bytes_per_sec for c in costs]
        )
    else:
        # validate the shape up front even though values are read per-k
        _cut_bandwidth(bandwidth_bytes_per_sec, num_stages - 1, num_stages)
    mem = None
    mem_prefix = None
    if memory_caps is not None:
        mem = _layer_memory(costs, layer_memory_bytes)
        mem_prefix = np.concatenate([[0.0], np.cumsum(mem)])

    # dp[k][j] = best bottleneck for first j layers in k stages.  A
    # stage's steady-state service time is its compute plus the (receive)
    # communication of its input cut — modelling them additively, as
    # PipeDream's planner does, also breaks ties toward balanced compute
    # when a slow interconnect would otherwise make every cut look equal.
    inf = float("inf")
    dp = np.full((num_stages + 1, n + 1), inf)
    choice = np.full((num_stages + 1, n + 1), -1, dtype=int)
    dp[0][0] = 0.0
    for k in range(1, num_stages + 1):
        speed = 1.0 if device_speeds is None else device_speeds[k - 1]
        for j in range(k, n + 1):
            for i in range(k - 1, j):
                if dp[k - 1][i] == inf:
                    continue
                if (
                    mem_prefix is not None
                    and mem_prefix[j] - mem_prefix[i] > memory_caps[k - 1]
                ):
                    continue
                stage_compute = prefix[j] - prefix[i]
                if device_speeds is not None:
                    stage_compute = stage_compute / speed
                if i > 0:
                    if uniform_bw:
                        cut_comm = comm_after[i - 1]
                    else:
                        cut_comm = comm_weight * (
                            costs[i - 1].activation_bytes_per_sample
                            / _cut_bandwidth(
                                bandwidth_bytes_per_sec, k - 1, num_stages
                            )
                        )
                else:
                    cut_comm = 0.0
                candidate = max(dp[k - 1][i], stage_compute + cut_comm)
                if candidate < dp[k][j]:
                    dp[k][j] = candidate
                    choice[k][j] = i
    if dp[num_stages][n] == inf:
        raise RuntimeError(
            "balanced partition DP found no feasible cut "
            "(memory caps too tight for a contiguous K-stage split)"
        )

    boundaries = [n]
    j = n
    for k in range(num_stages, 0, -1):
        j = int(choice[k][j])
        boundaries.append(j)
    boundaries.reverse()
    return Partition(boundaries=tuple(boundaries))


def balanced_bottleneck(
    costs: Sequence[LayerCost],
    boundaries: Sequence[int],
    *,
    device_speeds: Sequence[float] | None = None,
    bandwidth_bytes_per_sec: float | Sequence[float] = 1e9 / 8,
    flops_per_sec: float = 1.0,
    comm_weight: float = 0.5,
) -> float:
    """Max per-stage service time of a candidate partition under the
    same cost model :func:`partition_balanced` optimizes."""
    k_stages = len(boundaries) - 1
    worst = 0.0
    for k in range(k_stages):
        lo, hi = boundaries[k], boundaries[k + 1]
        stage_compute = sum(c.flops_per_sample / flops_per_sec for c in costs[lo:hi])
        if device_speeds is not None:
            stage_compute = stage_compute / device_speeds[k]
        cut_comm = 0.0
        if k > 0:
            cut_comm = comm_weight * (
                costs[lo - 1].activation_bytes_per_sample
                / _cut_bandwidth(bandwidth_bytes_per_sec, k, k_stages)
            )
        worst = max(worst, stage_compute + cut_comm)
    return worst


def _slot_views(
    placement: Sequence[int],
    device_speeds: Sequence[float],
    bandwidth_matrix: Sequence[Sequence[float]],
    memory_caps: Sequence[float] | None,
) -> tuple[list[float], list[float], list[float] | None]:
    """Per-stage-slot speed/bandwidth/cap vectors under a placement.

    ``placement[k]`` is the device hosting stage k; the link into stage k
    is the directed edge placement[k-1] -> placement[k].
    """
    k_stages = len(placement)
    slot_speeds = [device_speeds[p] for p in placement]
    slot_bw = [float("inf")] + [
        bandwidth_matrix[placement[k - 1]][placement[k]] for k in range(1, k_stages)
    ]
    slot_caps = None
    if memory_caps is not None:
        slot_caps = [memory_caps[p] for p in placement]
    return slot_speeds, slot_bw, slot_caps


def _candidate_placements(
    num_stages: int, max_exhaustive: int
) -> "itertools.chain | list":
    identity = tuple(range(num_stages))
    if num_stages <= max_exhaustive:
        # identity comes first for sorted input, so strict-< keeps it on ties
        return itertools.permutations(range(num_stages))
    return [identity]


def search_placement(
    costs: Sequence[LayerCost],
    boundaries: Sequence[int],
    *,
    device_speeds: Sequence[float],
    bandwidth_matrix: Sequence[Sequence[float]],
    flops_per_sec: float = 1.0,
    comm_weight: float = 0.5,
    max_exhaustive: int = 7,
) -> tuple[tuple[int, ...], float]:
    """Best stage->device permutation for a *fixed* partition.

    Returns ``(placement, bottleneck)`` where ``placement[k]`` is the
    device hosting stage k.  Ties keep the identity (straight chain).
    For K > ``max_exhaustive`` a greedy pairwise-swap descent from the
    identity replaces exhaustive enumeration.
    """
    k_stages = len(boundaries) - 1

    def evaluate(placement: Sequence[int]) -> float:
        slot_speeds, slot_bw, _ = _slot_views(
            placement, device_speeds, bandwidth_matrix, None
        )
        return balanced_bottleneck(
            costs,
            boundaries,
            device_speeds=slot_speeds,
            bandwidth_bytes_per_sec=slot_bw,
            flops_per_sec=flops_per_sec,
            comm_weight=comm_weight,
        )

    best = tuple(range(k_stages))
    best_time = evaluate(best)
    if k_stages <= max_exhaustive:
        for perm in itertools.permutations(range(k_stages)):
            t = evaluate(perm)
            if t < best_time:
                best, best_time = tuple(perm), t
    else:
        improved = True
        while improved:
            improved = False
            for a in range(k_stages):
                for b in range(a + 1, k_stages):
                    cand = list(best)
                    cand[a], cand[b] = cand[b], cand[a]
                    t = evaluate(cand)
                    if t < best_time:
                        best, best_time = tuple(cand), t
                        improved = True
    return best, best_time


def search_partition_placement(
    costs: Sequence[LayerCost],
    num_stages: int,
    *,
    device_speeds: Sequence[float],
    bandwidth_matrix: Sequence[Sequence[float]],
    memory_caps: Sequence[float] | None = None,
    flops_per_sec: float = 1.0,
    comm_weight: float = 0.5,
    layer_memory_bytes: Sequence[float] | None = None,
    max_exhaustive: int = 7,
) -> tuple[Partition, tuple[int, ...], float]:
    """Joint partition + placement search (Luo et al., arXiv:2204.10562).

    For every candidate stage->device permutation, re-runs the balanced
    DP against that placement's slot speeds, link bandwidths and memory
    caps, and keeps the placement whose *optimal* partition has the
    smallest bottleneck.  Ties keep the identity placement, so on a
    uniform cluster this degenerates to
    ``(partition_balanced(...), (0, 1, ..., K-1))``.

    Returns ``(partition, placement, bottleneck)``.
    """
    if len(device_speeds) != num_stages:
        raise ValueError(
            f"device_speeds has {len(device_speeds)} entries for {num_stages} stages"
        )
    best: tuple[Partition, tuple[int, ...], float] | None = None
    for perm in _candidate_placements(num_stages, max_exhaustive):
        slot_speeds, slot_bw, slot_caps = _slot_views(
            perm, device_speeds, bandwidth_matrix, memory_caps
        )
        try:
            part = partition_balanced(
                costs,
                num_stages,
                device_speeds=slot_speeds,
                bandwidth_bytes_per_sec=slot_bw,
                flops_per_sec=flops_per_sec,
                comm_weight=comm_weight,
                memory_caps=slot_caps,
                layer_memory_bytes=layer_memory_bytes,
            )
        except RuntimeError:
            continue  # this placement has no memory-feasible cut
        t = balanced_bottleneck(
            costs,
            part.boundaries,
            device_speeds=slot_speeds,
            bandwidth_bytes_per_sec=slot_bw,
            flops_per_sec=flops_per_sec,
            comm_weight=comm_weight,
        )
        if best is None or t < best[2]:
            best = (part, tuple(perm), t)
    if best is None:
        raise RuntimeError(
            "no placement admits a memory-feasible balanced partition"
        )
    return best


def partition_uniform(num_layers: int, num_stages: int) -> Partition:
    """Layer-count-balanced fallback (what naive users do by hand)."""
    if num_stages > num_layers:
        raise ValueError(f"cannot split {num_layers} layers into {num_stages} stages")
    base, extra = divmod(num_layers, num_stages)
    boundaries = [0]
    for k in range(num_stages):
        boundaries.append(boundaries[-1] + base + (1 if k < extra else 0))
    return Partition(boundaries=tuple(boundaries))
