"""Per-layer spans: which public entry points are wrapped, and the
per-layer metrics the traced run reports.

Tensor-op spans also wrap the backward closure each op attaches to its
output, so forward and backward self time are attributed per op kind,
the way PipeDream's profiler splits them per layer.  Spans named
``bench.*`` are the benchmark's own operations; their self time is the
part of the run no layer accounts for.

``partition_model`` and ``SimCalibration.hetero_plan`` are deliberately
not wrapped: both are twins slated for deletion.  Their own time shows
in the caller's self time (``cli.main_s``, ``tuner.plan_for_spec_s``);
the ``partition_balanced`` and ``search_partition_placement`` calls they
make are still timed as ``graph.*``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TENSOR_KINDS", "PER_LAYER", "install", "per_layer_metrics"]

#: the functional ops whose forward and backward are timed separately
TENSOR_KINDS = (
    "linear",
    "lstm_cell",
    "scaled_dot_attention",
    "gelu",
    "layer_norm",
    "embedding_lookup",
    "cross_entropy",
    "dropout",
    "stack",
)

_POLICIES = ("FairSharePolicy", "PriorityPolicy", "FifoPolicy")
_OPTIMIZERS = (("repro.optim.adam", "Adam"), ("repro.optim.sgd", "SGD"))

#: (metric, unit) for every per-layer metric, in report order
PER_LAYER: list[tuple[str, str]] = (
    [(f"tensor.op_s.{k}", "s") for k in TENSOR_KINDS]
    + [(f"tensor.bwd_s.{k}", "s") for k in TENSOR_KINDS]
    + [(f"tensor.op_calls.{k}", "count") for k in TENSOR_KINDS]
    + [
        ("tensor.backward_s", "s"),
        ("tensor.backward_calls", "count"),
        ("tensor.nodes", "count"),
        ("models.forward_s", "s"),
        ("models.forward_calls", "count"),
        ("models.eval_s", "s"),
        ("models.eval_calls", "count"),
        ("data.wait_s", "s"),
        ("data.batches", "count"),
        ("optim.clip_s", "s"),
        ("optim.step_s", "s"),
        ("optim.steps", "count"),
        ("elastic.capture_s", "s"),
        ("elastic.commit_s", "s"),
        ("elastic.end_iteration_s", "s"),
        ("elastic.reference_s", "s"),
        ("elastic.rounds", "count"),
        ("pipeline.stage_forward_s", "s"),
        ("pipeline.stage_backward_s", "s"),
        ("pipeline.run_batch_s", "s"),
        ("pipeline.stage_ops", "count"),
        ("pipeline.shipped_bytes", "bytes"),
        ("cli.main_s", "s"),
        ("tuner.tune_s", "s"),
        ("tuner.plan_for_spec_s", "s"),
        ("profiler.run_setting_s", "s"),
        ("profiler.settings", "count"),
        ("profiler.oom_settings", "count"),
        ("predictor.predict_s", "s"),
        ("predictor.points", "count"),
        ("schedules.adaptive_s", "s"),
        ("schedules.adaptive_probes", "count"),
        ("sim.run_s", "s"),
        ("sim.runs", "count"),
        ("sim.spans", "count"),
        ("graph.partition_s", "s"),
        ("graph.partition_calls", "count"),
        ("graph.placements", "count"),
        ("sched.policy_s", "s"),
        ("sched.loop_s", "s"),
        ("sched.generate_s", "s"),
        ("sched.plan_chain_s", "s"),
        ("sched.plan_chain_calls", "count"),
        ("sched.plan_cache_hit_ratio", "ratio"),
        ("sched.admits", "count"),
        ("sched.preemptions", "count"),
        ("sched.resizes", "count"),
        ("sched.events", "count"),
        ("sched.util", "ratio"),
        ("trace.unattributed_s", "s"),
        ("trace.accounted_ratio", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    ]
)

#: span name -> the self-time metric it is summed into
_SELF_METRIC = {f"tensor.op.{k}": f"tensor.op_s.{k}" for k in TENSOR_KINDS}
_SELF_METRIC.update({f"tensor.bwd.{k}": f"tensor.bwd_s.{k}" for k in TENSOR_KINDS})
_SELF_METRIC.update({
    "tensor.backward": "tensor.backward_s",
    "models.forward": "models.forward_s",
    "models.eval": "models.eval_s",
    "data.wait": "data.wait_s",
    "optim.clip": "optim.clip_s",
    "optim.step": "optim.step_s",
    "elastic.capture": "elastic.capture_s",
    "elastic.commit": "elastic.commit_s",
    "elastic.end_iteration": "elastic.end_iteration_s",
    "elastic.reference": "elastic.reference_s",
    "pipeline.stage_forward": "pipeline.stage_forward_s",
    "pipeline.stage_backward": "pipeline.stage_backward_s",
    "pipeline.run_batch": "pipeline.run_batch_s",
    "cli.main": "cli.main_s",
    "tuner.tune": "tuner.tune_s",
    "tuner.plan_for_spec": "tuner.plan_for_spec_s",
    "profiler.run_setting": "profiler.run_setting_s",
    "predictor.predict": "predictor.predict_s",
    "schedules.adaptive": "schedules.adaptive_s",
    "sim.run": "sim.run_s",
    "graph.partition": "graph.partition_s",
    "graph.search": "graph.partition_s",
    "sched.policy": "sched.policy_s",
    "sched.run": "sched.loop_s",
    "sched.generate": "sched.generate_s",
    "sched.plan_chain": "sched.plan_chain_s",
})

#: count metric -> span name whose number of spans it reports
_CALL_METRIC = {f"tensor.op_calls.{k}": f"tensor.op.{k}" for k in TENSOR_KINDS}
_CALL_METRIC.update({
    "tensor.backward_calls": "tensor.backward",
    "models.forward_calls": "models.forward",
    "models.eval_calls": "models.eval",
    "optim.steps": "optim.step",
    "elastic.rounds": "elastic.end_iteration",
    "profiler.settings": "profiler.run_setting",
    "predictor.points": "predictor.predict",
    "sim.runs": "sim.run",
    "graph.partition_calls": "graph.partition",
    "sched.plan_chain_calls": "sched.plan_chain",
    "sched.events": "sched.policy",
})


def _nbytes(value) -> int:
    """Bytes of an ndarray or of a Tensor's payload."""
    if not isinstance(value, np.ndarray):
        value = getattr(value, "data", None)
    return int(value.nbytes) if isinstance(value, np.ndarray) else 0


def _wrap_backward(tracer, name):
    def after(_args, out):
        for t in out if isinstance(out, tuple) else (out,):
            fn = getattr(t, "_backward_fn", None)
            if fn is not None:
                t._backward_fn = tracer.timed(name, fn)

    return after


def install(tracer) -> None:
    """Wrap every layer entry point the per-layer table reads."""
    counts = tracer.counts

    def span(target, name, after=None):
        tracer.install(target, lambda fn: tracer.timed(name, fn, after))

    def count(target, name, amount=None):
        tracer.install(target, lambda fn: tracer.counted(name, fn, amount))

    for kind in TENSOR_KINDS:
        span(
            f"repro.tensor.functional:{kind}",
            f"tensor.op.{kind}",
            _wrap_backward(tracer, f"tensor.bwd.{kind}"),
        )
    span("repro.tensor.tensor:Tensor.backward", "tensor.backward")
    count(
        "repro.tensor.tensor:Tensor._make",
        "tensor.nodes",
        lambda _a, out: out._backward_fn is not None,
    )

    span("repro.models.pipeline_model:PipelineLayer.__call__", "models.forward")

    span("repro.optim.optimizer:Optimizer.clip_grad_norm", "optim.clip")
    for module, cls in _OPTIMIZERS:
        span(f"{module}:{cls}.step", "optim.step")

    elastic = "repro.core.elastic:ElasticAveragingFramework"
    span(f"{elastic}.capture", "elastic.capture")
    span(f"{elastic}.commit", "elastic.commit")
    span(f"{elastic}.end_iteration", "elastic.end_iteration")
    span(f"{elastic}.reference_model", "elastic.reference")

    def shipped_forward(args, out):
        stage = args[0]
        if stage.stage_index < stage.num_stages - 1:
            counts["pipeline.shipped_bytes"] += sum(_nbytes(v) for v in out.values())

    def shipped_backward(args, out):
        if args[0].stage_index > 0:
            counts["pipeline.shipped_bytes"] += sum(_nbytes(v) for v in out.values())

    span("repro.core.pipeline:StageRuntime.forward", "pipeline.stage_forward", shipped_forward)
    span("repro.core.pipeline:StageRuntime.backward", "pipeline.stage_backward", shipped_backward)
    span("repro.core.pipeline:PipelinedRunner.run_batch", "pipeline.run_batch")

    span("repro.cli:main", "cli.main")
    span("repro.core.tuner:ProfilingTuner.tune", "tuner.tune")
    span("repro.core.tuner:plan_for_spec", "tuner.plan_for_spec")

    def oom(_args, out):
        counts["profiler.oom_settings"] += out.oom is not None

    span("repro.core.profiler:Profiler.run_setting", "profiler.run_setting", oom)
    span("repro.core.predictor:Predictor.predict", "predictor.predict")

    span("repro.schedules.adaptive:AdaptiveAdvanceController.tune", "schedules.adaptive")
    count("repro.schedules.adaptive:AdaptiveAdvanceController.observe", "schedules.adaptive_probes")

    def sim_spans(_args, out):
        if out.trace is not None:
            counts["sim.spans"] += len(out.trace.spans)

    span("repro.schedules.executor:PipelineSimRunner.run", "sim.run", sim_spans)

    span("repro.graph.partitioner:partition_balanced", "graph.partition")
    span("repro.graph.partitioner:search_partition_placement", "graph.search")

    for cls in _POLICIES:
        span(f"repro.sched.policies:{cls}.on_event", "sched.policy")
    span("repro.sched.scheduler:ClusterScheduler.run", "sched.run")
    span("repro.sched.workload:generate_jobs", "sched.generate")
    span("repro.sched.service:JobPlanner.plan_chain", "sched.plan_chain")

    def granted(_args, ok):  # the admission primitives return whether they acted
        return bool(ok)

    count("repro.sched.scheduler:ClusterScheduler.admit", "sched.admits", granted)
    count("repro.sched.scheduler:ClusterScheduler.preempt", "sched.preemptions", granted)
    count("repro.sched.scheduler:ClusterScheduler.grow", "sched.resizes", granted)
    count("repro.sched.scheduler:ClusterScheduler.shrink", "sched.resizes", granted)


def _children_named(spans, parent_name: str, child_name: str) -> int:
    return sum(
        1
        for name, _, _, parent in spans
        if name == child_name and parent >= 0 and spans[parent][0] == parent_name
    )


def per_layer_metrics(tracer, phase_s: float, extra: dict) -> tuple[dict, dict]:
    """Return ``(metrics, unattributed)`` for one traced phase.

    ``unattributed`` maps each ``bench.*`` span, plus the time between
    the benchmark's operations, to its seconds.  ``extra`` supplies
    metrics measured outside the trace (``sched.util``);
    ``trace.overhead_ratio`` needs the untraced run and is filled in by
    ``run.py``.
    """
    seconds, calls = tracer.self_times()
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    unattributed: dict[str, float] = {}
    root_total = 0.0
    for name, value in seconds.items():
        if name.startswith("bench."):
            unattributed[name] = value
            continue
        metrics[_SELF_METRIC[name]] += value
    for metric, span_name in _CALL_METRIC.items():
        metrics[metric] = calls.get(span_name, 0)
    for name, value in tracer.counts.items():
        metrics[name] = value
    spans = tracer.spans
    for name, start, end, parent in spans:
        if parent < 0:
            root_total += (end - start) * 1e-9
    unattributed["between operations"] = max(phase_s - root_total, 0.0)
    metrics["pipeline.stage_ops"] = (
        calls.get("pipeline.stage_forward", 0) + calls.get("pipeline.stage_backward", 0)
    )
    metrics["graph.placements"] = _children_named(spans, "graph.search", "graph.partition")
    chain_calls = calls.get("sched.plan_chain", 0)
    if chain_calls:
        misses = _children_named(spans, "sched.plan_chain", "tuner.plan_for_spec")
        metrics["sched.plan_cache_hit_ratio"] = 1.0 - misses / chain_calls
    unattributed_s = sum(unattributed.values())
    metrics["trace.unattributed_s"] = unattributed_s
    metrics["trace.accounted_ratio"] = 1.0 - unattributed_s / phase_s if phase_s > 0 else 0.0
    metrics.update(extra)
    return metrics, unattributed
