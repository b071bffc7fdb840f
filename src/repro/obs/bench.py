"""Hot-path benchmark harness (``repro bench``).

The paper's contribution is a *performance* argument (Equations 1-8
predict throughput, Figures 11-19 measure it), so the reproduction needs
to observe its own speed the same way it observes its numerics: with a
tracked, regression-gated trajectory.  This module provides

* :class:`Benchmark` / :func:`run_benchmark` — one deterministic, seeded
  measurement: ``warmup`` untimed runs, ``repeats`` timed runs
  (median/IQR over ``time.perf_counter``), plus one profiled run under
  :mod:`tracemalloc` recording peak allocated bytes, net retained bytes
  and the net allocated-block delta;
* :func:`bench_catalog` — the curated suite over the Tier-1-critical hot
  paths: an autograd forward+backward step on each registered model
  (gnmt/bert/awd), the :mod:`repro.sim.events` loop at large K·M·N,
  executor schedule generation for every schedule in
  ``repro.verify.VERIFIED_SCHEDULES``, one elastic averaging round,
  a checkpoint-v2 save/load round-trip, and Chrome-trace export;
* :func:`write_payload` — results land as ``BENCH_<n>.json`` at the repo
  root (auto-numbered) with an environment fingerprint
  (python/platform/git sha/package version/calibration constants);
* :func:`compare_payloads` — per-benchmark delta verdicts against a
  baseline file; a run *regresses* when its median wall time or peak
  allocation exceeds the baseline by more than ``threshold`` (25 %
  default), which is what gives ``repro bench --compare`` its non-zero
  exit code.  Benchmarks whose ``check`` checksum differs are listed
  separately as "numerics changed" without affecting the exit code.

Every timed repeat is also mirrored into a ``bench.wall_seconds``
:class:`~repro.obs.registry.MetricRegistry` histogram and (optionally) a
:class:`~repro.sim.trace.TraceRecorder` span, so a bench run is
inspectable in Perfetto through the existing
:class:`~repro.obs.trace_export.TraceExporter` like any other run.

Instrumentation is observation-only: benchmark thunks run the exact same
code paths Tier-1 exercises, and a bitwise-identity test pins that the
harness changes nothing about what it measures.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.obs.registry import MetricRegistry
from repro.utils.tables import format_table

__all__ = [
    "Benchmark",
    "BenchResult",
    "CompareReport",
    "CompareRow",
    "SCHEMA",
    "bench_catalog",
    "compare_payloads",
    "fingerprint",
    "latest_bench_path",
    "next_bench_path",
    "render_compare",
    "render_results",
    "run_benchmark",
    "run_suite",
    "select_suite",
    "suite_names",
    "to_payload",
    "write_payload",
]

#: schema tag embedded in every BENCH_<n>.json
SCHEMA = "repro.obs.bench/v1"

#: default regression threshold: 25 % on median wall time or peak bytes
DEFAULT_THRESHOLD = 0.25

#: exponential wall-clock buckets: 10 µs .. ~80 s (real seconds, not the
#: simulated-time span of DEFAULT_TIME_BUCKETS)
BENCH_TIME_BUCKETS: tuple[float, ...] = tuple(1e-5 * (2.0**i) for i in range(24))

_BENCH_FILE = re.compile(r"^BENCH_(\d+)\.json$")


# --------------------------------------------------------------------- #
# benchmark definition + single-benchmark runner


@dataclass(frozen=True)
class Benchmark:
    """One named measurement.

    ``setup(seed)`` builds all fixtures and returns the zero-argument
    thunk the runner times; everything expensive that is *not* the hot
    path under measurement belongs in setup.  ``smoke`` marks benchmarks
    cheap enough for the CI smoke suite.
    """

    name: str
    group: str
    setup: Callable[[int], Callable[[], object]]
    params: dict = field(default_factory=dict)
    smoke: bool = True


@dataclass
class BenchResult:
    """Timing + allocation measurements for one benchmark."""

    name: str
    group: str
    params: dict
    repeats: int
    warmup: int
    times: list[float]
    alloc_peak_bytes: int
    alloc_net_bytes: int
    alloc_net_blocks: int
    #: the profiled run's return value when it is a plain scalar — a
    #: bitwise determinism checksum for the benchmarked computation
    #: (loss value, simulated batch time, op count, export length, ...).
    check: float | int | bool | None = None

    @property
    def median(self) -> float:
        return statistics.median(self.times)

    @property
    def iqr(self) -> float:
        if len(self.times) < 2:
            return 0.0
        q = statistics.quantiles(self.times, n=4, method="inclusive")
        return q[2] - q[0]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "group": self.group,
            "params": self.params,
            "check": self.check,
            "timing": {
                "repeats": self.repeats,
                "warmup": self.warmup,
                "median_s": self.median,
                "iqr_s": self.iqr,
                "mean_s": statistics.fmean(self.times),
                "min_s": min(self.times),
                "max_s": max(self.times),
                "samples_s": list(self.times),
            },
            "alloc": {
                "peak_bytes": self.alloc_peak_bytes,
                "net_bytes": self.alloc_net_bytes,
                "net_blocks": self.alloc_net_blocks,
            },
        }


def _seed_everything(seed: int) -> None:
    from repro.utils.seeding import set_global_seed

    np.random.seed(seed)
    set_global_seed(seed)


def run_benchmark(
    bench: Benchmark,
    repeats: int = 5,
    warmup: int = 1,
    seed: int = 0,
    registry: MetricRegistry | None = None,
    trace=None,
    trace_origin: float | None = None,
    clock: Callable[[], float] = time.perf_counter,
) -> BenchResult:
    """Measure one benchmark: warmup, timed repeats, one profiled run.

    The allocation profile runs *after* the timed repeats (tracemalloc
    slows allocation several-fold, so mixing the two would poison the
    wall-clock numbers).  ``trace``/``trace_origin`` let a suite record
    each timed repeat as a span on a shared recorder.
    """
    if repeats < 1:
        raise ValueError(f"need at least one timed repeat, got {repeats}")
    _seed_everything(seed)
    thunk = bench.setup(seed)

    for _ in range(warmup):
        thunk()

    times: list[float] = []
    hist = None
    if registry is not None:
        hist = registry.histogram(
            "bench.wall_seconds", buckets=BENCH_TIME_BUCKETS, benchmark=bench.name
        )
    for i in range(repeats):
        t0 = clock()
        thunk()
        t1 = clock()
        times.append(t1 - t0)
        if hist is not None:
            hist.observe(t1 - t0)
        if trace is not None:
            from repro.sim.trace import SpanKind

            origin = trace_origin if trace_origin is not None else 0.0
            trace.record(
                0, t0 - origin, t1 - origin, SpanKind.SYNC,
                label=bench.name, micro=i,
            )

    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    tracemalloc.reset_peak()
    base, _ = tracemalloc.get_traced_memory()
    value = thunk()
    current, peak = tracemalloc.get_traced_memory()
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    net_blocks = sum(
        stat.count_diff for stat in after.compare_to(before, "filename")
    )
    result = BenchResult(
        name=bench.name,
        group=bench.group,
        params=dict(bench.params),
        repeats=repeats,
        warmup=warmup,
        times=times,
        alloc_peak_bytes=max(peak - base, 0),
        alloc_net_bytes=current - base,
        alloc_net_blocks=net_blocks,
        check=value if isinstance(value, (bool, int, float)) else None,
    )
    if registry is not None:
        registry.gauge("bench.alloc_peak_bytes", benchmark=bench.name).set(
            result.alloc_peak_bytes
        )
        registry.gauge("bench.alloc_net_bytes", benchmark=bench.name).set(
            result.alloc_net_bytes
        )
        registry.counter("bench.runs").inc()
    return result


# --------------------------------------------------------------------- #
# curated suite: the Tier-1-critical hot paths


def _model_step_bench(workload: str, batch_cap: int, smoke: bool) -> Benchmark:
    def setup(seed: int) -> Callable[[], object]:
        from repro.models.registry import build_workload

        spec = build_workload(workload)
        model = spec.build_model()
        loader = spec.make_train_loader(spec.batch_size, seed)
        batch = next(iter(loader))
        batch = {k: v[:batch_cap] for k, v in batch.items()}

        def step() -> float:
            model.zero_grad()
            loss = model.loss(batch)
            loss.backward()
            return float(loss.item())

        return step

    return Benchmark(
        name=f"model.step.{workload}",
        group="models",
        setup=setup,
        params={"workload": workload, "batch": batch_cap},
        smoke=smoke,
    )


def _sim_events_bench(num_stages: int, num_micro: int, num_pipelines: int) -> Benchmark:
    def setup(seed: int) -> Callable[[], object]:
        from repro.schedules import AdvanceFPSchedule, PipelineSimRunner, StageCosts
        from repro.sim import Simulator
        from repro.sim.cluster import ClusterSpec, make_cluster

        del seed  # fully deterministic: fixed costs, no RNG
        costs = StageCosts(
            fwd_flops=tuple(1e9 for _ in range(num_stages)),
            act_out_bytes=tuple(1e6 for _ in range(num_stages)),
            stash_bytes=tuple(6e6 for _ in range(num_stages)),
            param_bytes=tuple(int(4e6) for _ in range(num_stages)),
        )

        def run() -> float:
            sim = Simulator()
            cluster = make_cluster(
                sim,
                num_stages,
                spec=ClusterSpec(
                    nodes=num_stages, gpus_per_node=1, memory_bytes=1 << 50
                ),
            )
            runner = PipelineSimRunner(
                cluster,
                AdvanceFPSchedule(advance=2),
                costs,
                num_micro=num_micro,
                mb_size=4.0,
                num_pipelines=num_pipelines,
            )
            return runner.run(iterations=1).batch_time

        return run

    return Benchmark(
        name="sim.events.large",
        group="sim",
        setup=setup,
        params={"K": num_stages, "M": num_micro, "N": num_pipelines},
    )


#: (K, M) grid every schedule-generation benchmark walks
_SCHED_GRID: tuple[tuple[int, int], ...] = ((4, 16), (8, 32), (8, 64))
_SCHED_INNER_LOOPS = 10


def _sched_gen_bench(schedule_name: str) -> Benchmark:
    def setup(seed: int) -> Callable[[], object]:
        from repro.verify import VERIFIED_SCHEDULES

        del seed
        factory = VERIFIED_SCHEDULES[schedule_name]

        def gen() -> int:
            total = 0
            for _ in range(_SCHED_INNER_LOOPS):
                schedule = factory()
                for num_stages, num_micro in _SCHED_GRID:
                    for stage in range(num_stages):
                        total += len(schedule.stage_ops(stage, num_stages, num_micro))
                        schedule.stash_bound(stage, num_stages, num_micro)
            return total

        return gen

    return Benchmark(
        name=f"sched.gen.{schedule_name}",
        group="sched",
        setup=setup,
        params={
            "schedule": schedule_name,
            "grid": [list(g) for g in _SCHED_GRID],
            "loops": _SCHED_INNER_LOOPS,
        },
    )


def _elastic_round_bench(num_pipelines: int = 3) -> Benchmark:
    def setup(seed: int) -> Callable[[], object]:
        from repro.core.elastic import ElasticAveragingFramework
        from repro.models.registry import build_workload

        spec = build_workload("awd")
        models = [spec.build_model() for _ in range(num_pipelines)]
        framework = ElasticAveragingFramework(models, queue_delay=1)
        rng = np.random.default_rng(seed)
        nudges = [
            {name: rng.standard_normal(p.data.shape).astype(np.float32) * 1e-3
             for name, p in model.named_parameters()}
            for model in models
        ]

        def round_() -> bool:
            # One full §3.2 iteration: each pipeline takes a (synthetic)
            # optimizer step, dilutes toward the reference and posts its
            # delta; the reference process then drains and applies.
            for i in range(framework.num_parallel):
                before = framework.capture(i)
                for name, param in framework.models[i].named_parameters():
                    param.data = param.data + nudges[i][name]
                framework.commit(i, before)
            return framework.end_iteration()

        return round_

    return Benchmark(
        name="elastic.round",
        group="core",
        setup=setup,
        params={"workload": "awd", "N": num_pipelines},
    )


def _checkpoint_bench() -> Benchmark:
    def setup(seed: int) -> Callable[[], object]:
        import tempfile

        from repro.core.checkpoint import load_trainer, save_trainer
        from repro.core.trainer import AvgPipeTrainer
        from repro.resilience.chaos import tiny_chaos_spec

        spec = tiny_chaos_spec()
        source = AvgPipeTrainer(spec, seed=seed, num_pipelines=2, max_epochs=1)
        target = AvgPipeTrainer(spec, seed=seed + 1, num_pipelines=2, max_epochs=1)
        # The TemporaryDirectory lives in this closure; when the suite
        # drops the thunk the finalizer removes it.
        tmp = tempfile.TemporaryDirectory(prefix="repro_bench_ckpt_")
        path = os.path.join(tmp.name, "ckpt.npz")

        def roundtrip() -> str:
            save_trainer(source, path)
            load_trainer(target, path)
            assert tmp  # keep the directory alive as long as the thunk
            return path

        return roundtrip

    return Benchmark(
        name="checkpoint.roundtrip",
        group="core",
        setup=setup,
        params={"workload": "tiny-awd-chaos", "N": 2, "format": 2},
    )


def _trace_export_bench(num_stages: int = 4, num_micro: int = 16, num_pipelines: int = 2) -> Benchmark:
    def setup(seed: int) -> Callable[[], object]:
        from repro.obs.trace_export import TraceExporter
        from repro.schedules import AdvanceFPSchedule, PipelineSimRunner, StageCosts
        from repro.sim import Simulator
        from repro.sim.cluster import ClusterSpec, make_cluster

        del seed
        sim = Simulator()
        cluster = make_cluster(
            sim,
            num_stages,
            spec=ClusterSpec(nodes=num_stages, gpus_per_node=1, memory_bytes=1 << 50),
        )
        costs = StageCosts(
            fwd_flops=tuple(1e9 for _ in range(num_stages)),
            act_out_bytes=tuple(1e6 for _ in range(num_stages)),
            stash_bytes=tuple(6e6 for _ in range(num_stages)),
            param_bytes=tuple(int(4e6) for _ in range(num_stages)),
        )
        runner = PipelineSimRunner(
            cluster,
            AdvanceFPSchedule(advance=2),
            costs,
            num_micro=num_micro,
            mb_size=4.0,
            num_pipelines=num_pipelines,
        )
        result = runner.run(iterations=2)
        exporter = TraceExporter(result.trace, num_devices=num_stages)

        def export() -> int:
            return len(exporter.to_json())

        return export

    return Benchmark(
        name="trace.export",
        group="obs",
        setup=setup,
        params={"K": num_stages, "M": num_micro, "N": num_pipelines, "iterations": 2},
    )


def _tensor_op_bench(op: str) -> Benchmark:
    """Micro-benchmark of one fused autograd kernel: forward + backward,
    isolated from model plumbing (the CI regression gate for the fused
    ops runs this group non-report-only)."""

    def setup(seed: int) -> Callable[[], object]:
        from repro.tensor import Tensor
        from repro.tensor import functional as F

        rng = np.random.default_rng(seed)

        def randt(*shape: int) -> Tensor:
            return Tensor(
                rng.standard_normal(shape).astype(np.float32), requires_grad=True
            )

        if op == "lstm_cell":
            T_steps, B, D, H = 16, 32, 64, 64
            x = [randt(B, D) for _ in range(T_steps)]
            wih, whh, bias = randt(4 * H, D), randt(4 * H, H), randt(4 * H)
            h0 = Tensor(np.zeros((B, H), np.float32))
            c0 = Tensor(np.zeros((B, H), np.float32))

            def run() -> float:
                for p in (wih, whh, bias, *x):
                    p.grad = None
                h, c = h0, c0
                for t in range(T_steps):
                    h, c = F.lstm_cell(x[t], h, c, wih, whh, bias, H)
                loss = h.sum() + c.sum()
                loss.backward()
                return float(loss.item())

        elif op == "lstm_sequence":
            T_steps, B, D, H = 16, 32, 64, 64
            x = randt(B, T_steps, D)
            wih, whh, bias = randt(4 * H, D), randt(4 * H, H), randt(4 * H)

            def run() -> float:
                for p in (wih, whh, bias, x):
                    p.grad = None
                loss = F.lstm_sequence(x, wih, whh, bias, H).sum()
                loss.backward()
                return float(loss.item())

        elif op == "attention":
            B, Hh, T_seq, dh = 8, 4, 64, 32
            q, k, v = (randt(B, Hh, T_seq, dh) for _ in range(3))
            scale = 1.0 / float(np.sqrt(dh))

            def run() -> float:
                for p in (q, k, v):
                    p.grad = None
                out = F.scaled_dot_attention(q, k, v, scale=scale)
                loss = out.sum()
                loss.backward()
                return float(loss.item())

        elif op == "linear":
            B, D, O = 256, 512, 512
            x, w, b = randt(B, D), randt(O, D), randt(O)

            def run() -> float:
                for p in (x, w, b):
                    p.grad = None
                loss = F.linear(x, w, b).sum()
                loss.backward()
                return float(loss.item())

        elif op == "gelu":
            x = randt(32, 64, 256)

            def run() -> float:
                x.grad = None
                loss = F.gelu(x).sum()
                loss.backward()
                return float(loss.item())

        elif op == "layer_norm":
            D = 256
            x, w, b = randt(32, 64, D), randt(D), randt(D)

            def run() -> float:
                for p in (x, w, b):
                    p.grad = None
                loss = F.layer_norm(x, w, b).sum()
                loss.backward()
                return float(loss.item())

        else:  # pragma: no cover - catalog is static
            raise KeyError(f"unknown tensor op benchmark {op!r}")

        return run

    return Benchmark(
        name=f"tensor.{op}",
        group="tensor",
        setup=setup,
        params={"op": op},
    )


def bench_catalog() -> list[Benchmark]:
    """The curated hot-path suite, in run order."""
    from repro.verify import VERIFIED_SCHEDULES

    benches: list[Benchmark] = [
        # gnmt/bert steps are the two expensive ones — full-suite only.
        _model_step_bench("gnmt", batch_cap=32, smoke=False),
        _model_step_bench("bert", batch_cap=32, smoke=False),
        _model_step_bench("awd", batch_cap=40, smoke=True),
        _sim_events_bench(num_stages=8, num_micro=64, num_pipelines=4),
    ]
    benches.extend(_sched_gen_bench(name) for name in VERIFIED_SCHEDULES)
    benches.extend([
        _tensor_op_bench("lstm_cell"),
        _tensor_op_bench("lstm_sequence"),
        _tensor_op_bench("attention"),
        _tensor_op_bench("linear"),
        _tensor_op_bench("gelu"),
        _tensor_op_bench("layer_norm"),
        _elastic_round_bench(),
        _checkpoint_bench(),
        _trace_export_bench(),
    ])
    return benches


def suite_names(catalog: Sequence[Benchmark] | None = None) -> list[str]:
    """Valid ``--suite`` values: full, smoke, and every group name."""
    catalog = bench_catalog() if catalog is None else catalog
    groups = sorted({b.group for b in catalog})
    return ["full", "smoke", *groups]


def select_suite(
    suite: str, catalog: Sequence[Benchmark] | None = None
) -> list[Benchmark]:
    """Subset of the catalog selected by a suite name."""
    catalog = bench_catalog() if catalog is None else catalog
    if suite == "full":
        return list(catalog)
    if suite == "smoke":
        return [b for b in catalog if b.smoke]
    chosen = [b for b in catalog if b.group == suite]
    if not chosen:
        raise KeyError(
            f"unknown suite {suite!r}; available: {', '.join(suite_names(catalog))}"
        )
    return chosen


# --------------------------------------------------------------------- #
# suite runner + payload


def run_suite(
    benches: Sequence[Benchmark],
    repeats: int = 5,
    warmup: int = 1,
    seed: int = 0,
    registry: MetricRegistry | None = None,
    record_trace: bool = False,
    progress: Callable[[BenchResult], None] | None = None,
):
    """Run ``benches`` in order; returns ``(results, registry, exporter)``.

    ``exporter`` is a :class:`TraceExporter` over one span per timed
    repeat (``None`` unless ``record_trace``), so a bench run can be
    opened in Perfetto next to any simulator trace.
    """
    registry = MetricRegistry() if registry is None else registry
    trace = None
    origin = time.perf_counter()
    if record_trace:
        from repro.sim.trace import TraceRecorder

        trace = TraceRecorder()
    results: list[BenchResult] = []
    for bench in benches:
        result = run_benchmark(
            bench,
            repeats=repeats,
            warmup=warmup,
            seed=seed,
            registry=registry,
            trace=trace,
            trace_origin=origin,
        )
        results.append(result)
        if progress is not None:
            progress(result)
    exporter = None
    if trace is not None:
        from repro.obs.trace_export import TraceExporter

        exporter = TraceExporter(trace, num_devices=1)
    return results, registry, exporter


def _git_sha() -> str | None:
    root = Path(__file__).resolve().parents[3]
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _package_version() -> str:
    try:
        import importlib.metadata

        return importlib.metadata.version("repro")
    except Exception:
        return "unknown"


def fingerprint(registry: MetricRegistry | None = None) -> dict:
    """Environment identity stamped into every BENCH_<n>.json.

    Includes the static simulator calibration constants, and — when a
    registry holding ``calibrate.*`` gauges is passed (``repro calibrate``
    publishes them) — the *measured* calibration numbers too, so a
    trajectory records what machine and what constants produced it.
    """
    from repro.core.simcfg import SIM_CALIBRATIONS

    MIB = 2**20
    fp = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "package_version": _package_version(),
        "git_sha": _git_sha(),
        "calibration": {
            name: {
                "batch_size": cal.batch_size,
                "activation_byte_scale": cal.activation_byte_scale,
                "param_byte_scale": cal.param_byte_scale,
                "memory_capacity_mib": cal.memory_capacity_bytes / MIB,
            }
            for name, cal in SIM_CALIBRATIONS.items()
        },
    }
    if registry is not None:
        gauges = {}
        for name, labels, inst in registry.series(prefix="calibrate."):
            key = name
            if labels:
                key += "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
            # OOM settings measure as inf; keep the JSON strictly valid.
            gauges[key] = inst.value if math.isfinite(inst.value) else None
        if gauges:
            fp["calibration_gauges"] = gauges
    return fp


def to_payload(
    results: Sequence[BenchResult],
    suite: str,
    repeats: int,
    warmup: int,
    seed: int,
    registry: MetricRegistry | None = None,
) -> dict:
    """The BENCH_<n>.json document for one suite run."""
    return {
        "schema": SCHEMA,
        "suite": suite,
        "repeats": repeats,
        "warmup": warmup,
        "seed": seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": fingerprint(registry),
        "benchmarks": [r.to_dict() for r in results],
    }


def next_bench_path(directory: str | Path = ".") -> Path:
    """``BENCH_<n>.json`` numbered one past the highest existing ``n``.

    Numbering after the max — not filling the first gap — keeps every new
    run sorting *after* all existing baselines even when an early file was
    deleted, so "highest n" always means "newest".  Both
    :func:`latest_bench_path` and the default ``--compare`` baseline rely
    on that ordering.
    """
    directory = Path(directory)
    taken = [
        int(m.group(1))
        for p in directory.glob("BENCH_*.json")
        if (m := _BENCH_FILE.match(p.name))
    ]
    return directory / f"BENCH_{max(taken, default=0) + 1}.json"


def latest_bench_path(directory: str | Path = ".") -> Path | None:
    """Highest-numbered ``BENCH_<n>.json`` under ``directory`` — the newest
    baseline under the numbering contract of :func:`next_bench_path` — or
    None when the directory holds no baselines at all."""
    directory = Path(directory)
    best: tuple[int, Path] | None = None
    for p in directory.glob("BENCH_*.json"):
        m = _BENCH_FILE.match(p.name)
        if m and (best is None or int(m.group(1)) > best[0]):
            best = (int(m.group(1)), p)
    return None if best is None else best[1]


def write_payload(payload: dict, out: str | Path | None = None) -> Path:
    """Write the payload; ``out`` may be a file, a directory, or None
    (auto-numbered in the current directory)."""
    if out is None:
        path = next_bench_path(".")
    else:
        out = Path(out)
        if out.suffix == ".json":
            path = out
            path.parent.mkdir(parents=True, exist_ok=True)
        else:
            out.mkdir(parents=True, exist_ok=True)
            path = next_bench_path(out)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


# --------------------------------------------------------------------- #
# comparison / regression verdicts


@dataclass
class CompareRow:
    """Delta verdict for one benchmark present in both runs."""

    name: str
    base_median: float
    new_median: float
    base_peak: int
    new_peak: int
    reasons: list[str] = field(default_factory=list)
    #: the two runs' bitwise determinism checksums (``BenchResult.check``)
    base_check: float | int | bool | None = None
    new_check: float | int | bool | None = None

    @property
    def time_ratio(self) -> float:
        return self.new_median / self.base_median if self.base_median > 0 else math.inf

    @property
    def alloc_ratio(self) -> float:
        if self.base_peak <= 0:
            return math.inf if self.new_peak > 0 else 1.0
        return self.new_peak / self.base_peak

    @property
    def regressed(self) -> bool:
        return bool(self.reasons)

    @property
    def numerics_changed(self) -> bool:
        """The checksum moved: the computation's result is not bitwise
        the baseline's.  Reported, never a regression by itself."""
        both_nan = all(
            isinstance(c, float) and math.isnan(c)
            for c in (self.base_check, self.new_check)
        )
        return self.base_check != self.new_check and not both_nan


@dataclass
class CompareReport:
    """Everything ``--compare`` decides and prints."""

    threshold: float
    rows: list[CompareRow]
    only_in_baseline: list[str]
    only_in_current: list[str]
    #: wall-time threshold when it differs from ``threshold`` (else None)
    time_threshold: float | None = None

    @property
    def regressions(self) -> list[CompareRow]:
        return [r for r in self.rows if r.regressed]

    @property
    def numerics_changed(self) -> list[CompareRow]:
        return [r for r in self.rows if r.numerics_changed]

    @property
    def ok(self) -> bool:
        return not self.regressions


def _index_benchmarks(payload: dict) -> dict[str, dict]:
    return {b["name"]: b for b in payload.get("benchmarks", [])}


def compare_payloads(
    baseline: dict,
    current: dict,
    threshold: float = DEFAULT_THRESHOLD,
    *,
    time_threshold: float | None = None,
) -> CompareReport:
    """Compare two BENCH payloads on the benchmarks they share.

    A benchmark regresses when its median wall time or its peak
    allocation exceeds the baseline's by more than ``threshold``
    (relative).  Benchmarks present in only one payload are reported but
    never count as regressions — a smoke run compared against a full
    baseline must not fail on coverage alone.  A shared benchmark whose
    ``check`` differs is listed in ``numerics_changed``; that is a
    verdict to read, not a regression.

    ``time_threshold`` overrides ``threshold`` for the wall-time check
    only.  Peak allocation is deterministic (array sizes, not clocks),
    so a cross-machine gate can hold allocation tight while leaving
    wall time room for the hardware mismatch — e.g. CI's fused-op gate
    compares a runner's timings against a baseline recorded elsewhere.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    if time_threshold is None:
        time_threshold = threshold
    elif time_threshold < 0:
        raise ValueError(f"time_threshold must be >= 0, got {time_threshold}")
    base_idx = _index_benchmarks(baseline)
    cur_idx = _index_benchmarks(current)
    rows: list[CompareRow] = []
    for name, cur in cur_idx.items():
        base = base_idx.get(name)
        if base is None:
            continue
        row = CompareRow(
            name=name,
            base_median=base["timing"]["median_s"],
            new_median=cur["timing"]["median_s"],
            base_peak=base["alloc"]["peak_bytes"],
            new_peak=cur["alloc"]["peak_bytes"],
            base_check=base.get("check"),
            new_check=cur.get("check"),
        )
        if row.new_median > row.base_median * (1.0 + time_threshold):
            row.reasons.append(
                f"median wall time {row.time_ratio:.2f}x baseline"
            )
        if row.new_peak > row.base_peak * (1.0 + threshold):
            row.reasons.append(
                f"peak allocation {row.alloc_ratio:.2f}x baseline"
            )
        rows.append(row)
    return CompareReport(
        threshold=threshold,
        rows=rows,
        only_in_baseline=sorted(set(base_idx) - set(cur_idx)),
        only_in_current=sorted(set(cur_idx) - set(base_idx)),
        time_threshold=None if time_threshold == threshold else time_threshold,
    )


def render_results(results: Sequence[BenchResult], title: str = "repro bench") -> str:
    """Plain-text table of one suite run."""
    rows = [
        [
            r.name,
            r.median * 1e3,
            r.iqr * 1e3,
            min(r.times) * 1e3,
            r.alloc_peak_bytes / 1024,
            r.alloc_net_bytes / 1024,
            r.alloc_net_blocks,
        ]
        for r in results
    ]
    return format_table(
        ["benchmark", "median ms", "iqr ms", "min ms", "peak KiB", "net KiB", "blocks"],
        rows,
        title=title,
    )


def render_compare(report: CompareReport) -> str:
    """Per-benchmark delta table plus coverage notes and the verdict."""
    rows = []
    for r in report.rows:
        rows.append([
            r.name,
            r.base_median * 1e3,
            r.new_median * 1e3,
            f"{(r.time_ratio - 1.0) * 100:+.1f}%",
            r.base_peak / 1024,
            r.new_peak / 1024,
            f"{(r.alloc_ratio - 1.0) * 100:+.1f}%" if math.isfinite(r.alloc_ratio) else "new",
            "REGRESSED" if r.regressed else "ok",
        ])
    lines = [
        format_table(
            ["benchmark", "base ms", "new ms", "Δ time", "base KiB", "new KiB", "Δ alloc", "verdict"],
            rows,
            title=(
                f"repro bench --compare (threshold {report.threshold:.0%}"
                + (
                    f", time {report.time_threshold:.0%}"
                    if report.time_threshold is not None
                    else ""
                )
                + ")"
            ),
        )
    ]
    if report.only_in_baseline:
        lines.append(
            f"not run here (baseline only): {', '.join(report.only_in_baseline)}"
        )
    if report.only_in_current:
        lines.append(f"new benchmarks (no baseline): {', '.join(report.only_in_current)}")
    changed = report.numerics_changed
    lines.append(
        "numerics: every shared check matches" if not changed
        else f"numerics changed ({len(changed)} benchmark(s); check differs):"
    )
    lines.extend(f"  {r.name}: {r.base_check!r} -> {r.new_check!r}" for r in changed)
    n = len(report.regressions)
    lines.append(
        "compare: no regressions" if n == 0
        else f"compare: {n} benchmark(s) regressed beyond the {report.threshold:.0%} threshold"
    )
    return "\n".join(lines)
