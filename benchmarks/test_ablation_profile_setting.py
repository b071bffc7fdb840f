"""Ablation: the profiling setting's "phi < 100%" requirement (§5.2.1).

DESIGN.md ablation #4.  The paper insists the profile use a large M and a
small N so no GPU saturates — a clipped utilization curve cannot be
un-scaled by Equation 2.  This ablation profiles a controlled uniform
six-stage pipeline twice — once at the prescribed setting and once at a
saturated one (small M, several pipelines, phi pinned at 100%) — and
compares each predictor's setting-ranking against ground-truth
simulation.  The prescribed profile must rank at least as well.
"""

import numpy as np

from repro.core.predictor import Predictor
from repro.core.profiler import Profiler
from repro.graph import LayerCost, partition_balanced
from repro.schedules import AdvanceFPSchedule
from repro.sim import ClusterSpec
from repro.utils import format_table

from .conftest import run_once

GRID = [(4, 1), (8, 1), (16, 1), (8, 2), (16, 2), (32, 2), (16, 3)]
GIB = 2**30


def _profiler() -> Profiler:
    costs = [
        LayerCost(f"l{i}", flops_per_sample=2.5e5, activation_bytes_per_sample=2.5e4,
                  param_bytes=400_000)
        for i in range(12)
    ]
    spec = ClusterSpec(nodes=3, gpus_per_node=2, memory_bytes=16 * GIB)
    partition = partition_balanced(
        costs, 6, bandwidth_bytes_per_sec=spec.inter_node_bandwidth,
        flops_per_sec=spec.peak_flops,
    )
    return Profiler(
        layer_costs=costs,
        partition=partition,
        schedule=AdvanceFPSchedule(2),
        cluster_spec=spec,
        batch_size=64,
        with_reference_model=True,
    )


def _rank_quality(profile, profiler) -> float:
    predictor = Predictor(profile)
    predicted, measured = [], []
    for m, n in GRID:
        predicted.append(predictor.predict(m, n).batch_time)
        res = profiler.run_setting(m, n, iterations=2)
        measured.append(res.batch_time / n if res.oom is None else float("inf"))
    pr = np.argsort(np.argsort(predicted))
    mr = np.argsort(np.argsort(measured))
    return float(np.corrcoef(pr, mr)[0, 1])


def run_ablation():
    profiler = _profiler()
    prescribed = profiler.profile()  # large M, N=1: phi stays below 100%
    saturated = profiler.profile(m=2, n=4)  # huge micro-batches x 4 pipelines
    return {
        "prescribed": {"m": prescribed.m, "n": prescribed.n,
                       "rho": _rank_quality(prescribed, profiler)},
        "saturated": {"m": saturated.m, "n": saturated.n,
                      "rho": _rank_quality(saturated, profiler)},
    }


def test_ablation_profile_setting(benchmark, emit):
    data = run_once(benchmark, run_ablation)
    rows = [
        [name, f"M={d['m']} N={d['n']}", round(d["rho"], 3)]
        for name, d in data.items()
    ]
    emit(
        "ablation_profile_setting",
        format_table(["profile setting", "degrees", "rank correlation vs simulation"],
                     rows, title="Ablation — profiling at unsaturated vs saturated settings"),
    )
    assert data["prescribed"]["rho"] >= data["saturated"]["rho"] - 0.05
    assert data["prescribed"]["rho"] > 0.5
