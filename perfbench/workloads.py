"""The four closed-loop workloads: inputs from the seed, timed phase,
correctness checks and output digests.

Each workload runs as one client that sends its next operation only
after the previous one returned.  ``setup()`` covers everything before
the first timed operation (imports, model/data/calibration build,
``AvgPipe.plan`` for training, warm-up); ``run()`` is the timed phase.
The program is driven only through the entry points the roadmap keeps:
``repro.cli.main``, ``AvgPipe``, ``AvgPipeTrainer``, the
``ElasticAveragingFramework`` methods, ``SchedScenario``/
``generate_jobs``/``ClusterScheduler``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import random
import re
import sys
import time

import numpy as np

from perfbench.stats import geomean, median, nearest_rank
from perfbench.spans import patch

__all__ = ["END_TO_END", "WORKLOADS", "plan_requests", "sched_requests", "make_workload"]

#: (name, unit) of the end-to-end metrics, reported by every workload.
#: ``throughput_per_s`` is samples/s on the training workloads and
#: requests/s on plan and sched.  The quality figures (``ref_loss``,
#: ``plan_batch_ms``, ``sched_util``, ``sched_wait_p95_s``) are reported
#: beside them but not gated: BERT's loss after three epochs moves by
#: 15% from one seed to the next, so a bound on it could not hold, and the
#: output digests already flag every change in what the program computes.
END_TO_END = [
    ("throughput_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]

#: operations a run needs so that p90 has at least ten samples beyond it
MIN_OPS = 100


@dataclasses.dataclass
class RunResult:
    """What one timed phase produced."""

    latencies: list[float]  # seconds per completed operation
    attempted: int
    failed: int
    phase_start: float  # time.monotonic() when the first operation began
    phase_s: float
    throughput: float  # median over segments of samples/s (training) or requests/s
    digest: str
    problems: list[str]  # failed correctness checks
    info: dict


def median_rate(t0: float, ends: list[float], per_segment: int, work: float) -> float:
    """Median over consecutive segments of ``per_segment`` operations of
    ``work / seconds``; ``ends[i]`` is when operation ``i`` finished and
    every segment does ``work``.  A median over segments keeps a few
    seconds of machine contention from moving the figure."""
    edges = [t0] + ends[per_segment - 1::per_segment]
    return median([work / (b - a) for a, b in zip(edges, edges[1:])])


# ---------------------------------------------------------------------- #
# training


class StepProbe:
    """The untraced run's only hooks: one start and one end timestamp per
    training step, plus a finiteness check on the values the step
    already computes (its loss and pre-clip gradient norm)."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.failed = 0
        self._bad = False

    def install(self) -> None:
        elastic = "repro.core.elastic:ElasticAveragingFramework"
        patch(f"{elastic}.capture", self._on_start)
        patch(f"{elastic}.commit", self._on_end)
        for target in (
            "repro.optim.optimizer:Optimizer.clip_grad_norm",  # returns the pre-clip norm
            "repro.models.pipeline_model:PipelineModel.loss",  # whole-model loss
            "repro.core.pipeline:PipelinedRunner.run_batch",  # stage-sliced mean loss
        ):
            try:
                patch(target, self._on_value)
            except (ImportError, AttributeError) as exc:
                print(f"perfbench: step check target missing, dropped: {target} ({exc})",
                      file=sys.stderr)

    def _on_start(self, fn):
        def capture(*args, **kwargs):
            self._bad = False
            self.starts.append(time.perf_counter())
            return fn(*args, **kwargs)

        return capture

    def _on_end(self, fn):
        def commit(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.ends.append(time.perf_counter())
            self.failed += self._bad
            return out

        return commit

    def _on_value(self, fn):
        def checked(*args, **kwargs):
            out = fn(*args, **kwargs)
            value = getattr(out, "data", out)
            if not np.all(np.isfinite(value)):
                self._bad = True
            return out

        return checked


class _TimedBatches:
    """Iterates a training loader with each fetch in a ``data.wait`` span."""

    def __init__(self, loader, tracer) -> None:
        self.loader = loader
        self._next = tracer.timed("data.wait", next)
        self._counts = tracer.counts

    def __iter__(self):
        it = iter(self.loader)
        while True:
            try:
                batch = self._next(it)
            except StopIteration:
                return
            self._counts["data.batches"] += 1
            yield batch


class TrainWorkload:
    """Whole-model (``pipelined=False``) or stage-sliced AvgPipe training.

    Runs a fixed number of epochs with the target early-stop disabled,
    so every run of a given ``--seconds`` does the same work.
    ``epoch_s`` sizes the run: ``--seconds / epoch_s`` whole epochs, and
    at least enough for ``MIN_OPS`` steps.  It is the epoch time at one
    BLAS thread on a busy 2-vCPU x86 VM; the same VM ran up to twice as
    fast when its host was idle.
    """

    REF_BATCHES = 8

    def __init__(self, model: str, pipelined: bool, epoch_s: float, seed: int, seconds: float) -> None:
        self.model = model
        self.pipelined = pipelined
        self.epoch_s = epoch_s
        self.seed = seed
        self.seconds = seconds

    def setup(self) -> None:
        from repro.core import AvgPipe, AvgPipeTrainer
        from repro.data.dataset import split_microbatches
        from repro.schedules import AdvanceFPSchedule

        system = AvgPipe(self.model)
        plan = system.plan()
        never = float("inf") if system.spec.metric_mode == "max" else float("-inf")
        self.spec = dataclasses.replace(system.spec, target=never)
        kwargs = {"num_pipelines": plan.num_pipelines}
        if self.pipelined:
            kwargs.update(
                partition=plan.partition,
                num_micro=plan.num_micro,
                schedule=AdvanceFPSchedule(plan.advance),
            )
        trainer = AvgPipeTrainer(self.spec, seed=self.seed, **kwargs)
        self.trainer = trainer
        self.batches = _epoch_batches(trainer.loader)
        self.steps_per_epoch = len(self.batches)
        self.samples_per_epoch = sum(len(next(iter(b.values()))) for b in self.batches)
        self.epochs = max(
            math.ceil(MIN_OPS / self.steps_per_epoch), round(self.seconds / self.epoch_s)
        )
        trainer.max_epochs = self.epochs
        self.ref_set = self.batches[: self.REF_BATCHES]
        self.initial_loss = self._ref_loss()
        self.plan_info = {
            "stages": plan.partition.num_stages,
            "micro": plan.num_micro,
            "pipelines": plan.num_pipelines,
            "advance": plan.advance,
        }
        # warm-up on a throwaway model: lazy caches fill, trainer state stays untouched
        warm = self.spec.build_model().seed(self.seed)
        if self.pipelined:
            from repro.core.pipeline import PipelinedRunner

            PipelinedRunner(warm, plan.partition, AdvanceFPSchedule(plan.advance)).run_batch(
                split_microbatches(self.batches[0], plan.num_micro)
            )
        else:
            warm.loss(self.batches[0]).backward()
        self.probe = StepProbe()
        self.probe.install()

    def _ref_loss(self) -> float:
        from repro.tensor import no_grad

        model = self.trainer.framework.reference_model(self.trainer.eval_template)
        model.eval()
        with no_grad():
            losses = [float(model.loss(b).item()) for b in self.ref_set]
        model.train()
        return float(np.mean(losses))

    def run(self, tracer=None) -> RunResult:
        trainer = self.trainer
        train = trainer.train
        evaluate = self.spec.evaluate
        epoch_ends: list[float] = []

        def evaluate_and_mark(model):
            metric = evaluate(model)
            epoch_ends.append(time.perf_counter())
            return metric

        self.spec.evaluate = evaluate_and_mark
        if tracer is not None:
            self.spec.evaluate = tracer.timed("models.eval", self.spec.evaluate)
            trainer.loader = _TimedBatches(trainer.loader, tracer)
            train = tracer.timed("bench.train", train)
        phase_start = time.monotonic()
        t0 = time.perf_counter()
        result = train()
        phase_s = time.perf_counter() - t0

        probe = self.probe
        ref_loss = self._ref_loss()
        state = trainer.framework.reference_model(trainer.eval_template).state_dict()
        digest = hashlib.sha256()
        for name in sorted(state):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(state[name]).tobytes())
        digest.update(repr(ref_loss).encode())

        steps = self.epochs * self.steps_per_epoch
        problems = []
        if result.epochs_run != self.epochs or result.iterations != steps:
            problems.append(f"ran {result.epochs_run} epochs / {result.iterations} steps, want {self.epochs} / {steps}")
        if len(probe.ends) != steps or len(probe.starts) != steps:
            problems.append(f"probe saw {len(probe.starts)} starts / {len(probe.ends)} ends for {steps} steps")
        if len(epoch_ends) != self.epochs:
            problems.append(f"{len(epoch_ends)} evaluations for {self.epochs} epochs")
        if not all(np.all(np.isfinite(v)) for v in state.values()):
            problems.append("reference model has non-finite parameters")
        if not (math.isfinite(ref_loss) and ref_loss < self.initial_loss):
            problems.append(f"reference loss {ref_loss} did not fall below the initial {self.initial_loss}")
        return RunResult(
            latencies=[e - s for s, e in zip(probe.starts, probe.ends)],
            attempted=steps,
            failed=probe.failed,
            phase_start=phase_start,
            phase_s=phase_s,
            throughput=median_rate(t0, epoch_ends, 1, self.samples_per_epoch),
            digest=digest.hexdigest(),
            problems=problems,
            info={
                "epochs": self.epochs,
                "steps": steps,
                "samples": self.epochs * self.samples_per_epoch,
                "plan": self.plan_info,
                "initial_loss": self.initial_loss,
                "ref_loss": ref_loss,
                "metric_history": result.metric_history,
            },
        )


def _epoch_batches(loader) -> list[dict]:
    """One epoch's batches, without advancing the loader's shuffle epoch."""
    if isinstance(loader, list):
        return loader
    arrays = loader.dataset.arrays
    size = loader.batch_size
    count = len(loader)
    return [{k: v[i * size:(i + 1) * size] for k, v in arrays.items()} for i in range(count)]


# ---------------------------------------------------------------------- #
# plan requests

PLAN_BATCH = {"gnmt": 128, "bert": 32, "awd": 40}
HETERO_VARIANTS = ("straggler-node", "asym-links", "mixed-gen")
#: every (workload, budget, max-pipelines) cell of the uniform grid runs
#: once per block, so a block costs the same whatever the seed.  All
#: budgets are feasible and within device capacity: an infeasible one
#: raises an untyped RuntimeError, and bert above 99 MiB plans an
#: unsimulatable (infinite) batch time.
PLAN_GRID = {"gnmt": (128, 256, 512), "bert": (64, 80, 99), "awd": (32, 64, 128)}
#: budgets the seed draws from for the cheap awd filler requests
AWD_BUDGETS = (32, 48, 64, 96, 128, 192, 256)
#: a block is three segments of this many requests (102 per block)
PLAN_SEGMENT = 34


def plan_requests(seed: int, blocks: int) -> list[list[str]]:
    """The seeded request stream: ``blocks`` blocks of three segments.

    Segment ``i`` holds the hetero request for variant ``i`` of each
    workload and, for each workload and pipeline cap ``n``, the uniform
    request at grid budget ``(n + i) % 3``; across a block that covers
    every hetero pair and the whole uniform grid once, and the three
    segments cost about the same.  Awd filler requests, whose budget,
    cap and variant the seed draws, fill each segment, and the seed
    shuffles it.
    """
    rng = random.Random(f"plan:{seed}")
    requests: list[list[str]] = []
    for _ in range(blocks):
        for i, variant in enumerate(HETERO_VARIANTS):
            segment = [["plan", w, "--hetero", variant] for w in PLAN_GRID] + [
                ["plan", w, "--memory-mib", str(budgets[(n + i) % 3]), "--max-pipelines", str(n)]
                for w, budgets in PLAN_GRID.items()
                for n in range(1, 5)
            ]
            while len(segment) < PLAN_SEGMENT:
                if rng.random() < 0.5:
                    segment.append(["plan", "awd", "--hetero", rng.choice(HETERO_VARIANTS)])
                else:
                    segment.append([
                        "plan", "awd",
                        "--memory-mib", str(rng.choice(AWD_BUDGETS)),
                        "--max-pipelines", str(rng.randint(1, 4)),
                    ])
            rng.shuffle(segment)
            requests.extend(segment)
    return requests


_ROW = re.compile(r"^(.+?)\s{2,}(\S.*?)\s*$")


def _table(text: str) -> dict[str, str]:
    rows = {}
    for line in text.splitlines():
        m = _ROW.match(line)
        if m:
            rows[m.group(1).strip()] = m.group(2)
    return rows


def check_plan_output(argv: list[str], text: str) -> tuple[float | None, list[str]]:
    """Return the plan's time per batch (ms) and the checks it fails."""
    rows = _table(text)
    workload = argv[1]
    problems = []
    try:
        tpb = float(rows["time per batch (ms)"])
        m = int(rows["micro-batches (M)"])
        n = int(rows["parallel pipelines (N)"])
    except (KeyError, ValueError):
        return None, [f"{' '.join(argv)}: plan table incomplete"]
    cap = int(argv[argv.index("--max-pipelines") + 1]) if "--max-pipelines" in argv else 4
    if not (math.isfinite(tpb) and tpb > 0):
        problems.append(f"time per batch {tpb}")
    if PLAN_BATCH[workload] % m:
        problems.append(f"M={m} does not divide batch {PLAN_BATCH[workload]}")
    if not 1 <= n <= cap:
        problems.append(f"N={n} outside [1, {cap}]")
    if "--memory-mib" in argv:
        budget = float(argv[argv.index("--memory-mib") + 1])
        peak = float(rows.get("peak device memory (MiB)", "nan"))
        if not peak <= budget + 0.05:  # the table rounds to 0.1 MiB
            problems.append(f"peak {peak} MiB over the {budget} MiB budget")
    return tpb, [f"{' '.join(argv)}: {p}" for p in problems]


class PlanWorkload:
    """A seeded stream of ``repro plan`` requests sent in-process."""

    #: sizes the run: ``--seconds / BLOCK_S`` blocks, at least one (a block
    #: took 8-19 s on the VM of TrainWorkload.epoch_s)
    BLOCK_S = 16.0

    def __init__(self, seed: int, seconds: float) -> None:
        self.requests = plan_requests(seed, max(1, round(seconds / self.BLOCK_S)))

    def setup(self) -> None:
        from repro.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            main(["plan", "awd", "--max-pipelines", "1"])  # warm-up: lazy imports

    def run(self, tracer=None) -> RunResult:
        from repro import cli  # looked up now, so a traced run sees the wrapped main

        main = cli.main if tracer is None else tracer.timed("bench.op", cli.main)
        latencies, ends, outputs, problems, tpbs = [], [], [], [], []
        failed = 0
        phase_start = time.monotonic()
        t0 = time.perf_counter()
        for argv in self.requests:
            buf = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = main(list(argv))
            except (Exception, SystemExit) as exc:  # a failed request, counted below
                code = f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - start)
            text = buf.getvalue()
            outputs.append(text)
            if code != 0:
                failed += 1
                problems.append(f"{' '.join(argv)}: exit {code}")
            else:
                tpb, bad = check_plan_output(argv, text)
                problems.extend(bad)
                if tpb is not None:
                    tpbs.append(tpb)
            ends.append(time.perf_counter())
        phase_s = time.perf_counter() - t0
        digest = hashlib.sha256("\0".join(outputs).encode()).hexdigest()
        return RunResult(
            latencies=latencies,
            attempted=len(self.requests),
            failed=failed,
            phase_start=phase_start,
            phase_s=phase_s,
            throughput=median_rate(t0, ends, PLAN_SEGMENT, PLAN_SEGMENT),
            digest=digest,
            problems=problems,
            info={"requests": len(self.requests), "plan_batch_ms": geomean(tpbs) if tpbs else None},
        )


# ---------------------------------------------------------------------- #
# scheduling runs

SCHED_POLICIES = ("fair", "priority", "fifo")
SCHED_JOBS = (30, 60)
#: 12 devices; "half" makes the last node run at half speed
SCHED_CLUSTERS = {"uniform": None, "half": (1.0,) * 10 + (0.5, 0.5)}
SCHED_INTERARRIVAL = (0.8, 1.2)


def sched_requests(seed: int, blocks: int) -> list[dict]:
    """The seeded stream of scheduling runs: ``blocks`` shuffled blocks,
    each covering every (policy, cluster, job count) cell once; the seed
    draws each run's job-list seed and arrival rate."""
    rng = random.Random(f"sched:{seed}")
    requests = []
    for _ in range(blocks):
        block = [
            {
                "policy": policy,
                "cluster": cluster,
                "jobs": jobs,
                "interarrival": round(rng.uniform(*SCHED_INTERARRIVAL), 3),
                "job_seed": rng.randrange(2**31),
            }
            for policy in SCHED_POLICIES
            for cluster in SCHED_CLUSTERS
            for jobs in SCHED_JOBS
        ]
        rng.shuffle(block)
        requests.extend(block)
    return requests


class SchedWorkload:
    """A seeded stream of multi-tenant scheduling runs (``repro.sched``)."""

    BLOCK_S = 0.6  # sizes the run, as in PlanWorkload (a block of 12 runs took 0.3-0.6 s)

    def __init__(self, seed: int, seconds: float) -> None:
        cells = len(SCHED_POLICIES) * len(SCHED_CLUSTERS) * len(SCHED_JOBS)
        blocks = max(math.ceil(MIN_OPS / cells), round(seconds / self.BLOCK_S))
        self.requests = sched_requests(seed, blocks)

    def setup(self) -> None:
        self._run_one({"policy": "fair", "cluster": "half", "jobs": 8,
                       "interarrival": 1.0, "job_seed": 0})  # warm-up

    @staticmethod
    def _run_one(req: dict):
        from repro import sched  # looked up per call, so a traced run sees the wrappers

        scenario = sched.SchedScenario(
            name=f"bench-{req['cluster']}-{req['jobs']}",
            description="perfbench",
            nodes=6,
            gpus_per_node=2,
            num_jobs=req["jobs"],
            mean_interarrival=req["interarrival"],
            device_speed=SCHED_CLUSTERS[req["cluster"]],
        )
        jobs = sched.generate_jobs(scenario, req["job_seed"])
        scheduler = sched.ClusterScheduler(
            scenario.cluster_spec(), jobs, req["policy"],
            scenario=scenario.name, seed=req["job_seed"],
        )
        return scheduler.run()

    @staticmethod
    def _check(req, result, error, logs, problems, waits, utils) -> None:
        """Record one run's outputs; a run that raised or left a job neither
        done nor rejected is a failed operation (it adds no log)."""
        from repro.sched import JobState

        if result is None:
            problems.append(f"{req}: {error}")
            return
        stuck = [j.job_id for j in result.jobs if j.state not in (JobState.DONE, JobState.REJECTED)]
        if stuck:
            problems.append(f"{req}: jobs neither done nor rejected: {stuck}")
            return
        if len(result.jobs) != req["jobs"] or not 0.0 < result.utilization <= 1.0 + 1e-9:
            problems.append(f"{req}: {len(result.jobs)} jobs, utilization {result.utilization}")
        logs.append(result.log_text())
        utils.append(result.utilization)
        waits.extend(w for j in result.jobs for w in j.waits)

    def run(self, tracer=None) -> RunResult:
        run_one = self._run_one if tracer is None else tracer.timed("bench.op", self._run_one)
        latencies, ends, logs, problems, waits, utils = [], [], [], [], [], []
        phase_start = time.monotonic()
        t0 = time.perf_counter()
        for req in self.requests:
            start = time.perf_counter()
            error = None
            try:
                result = run_one(req)
            except Exception as exc:  # a failed run: _check counts it
                result = None
                error = f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - start)
            self._check(req, result, error, logs, problems, waits, utils)
            ends.append(time.perf_counter())
        phase_s = time.perf_counter() - t0
        failed = len(self.requests) - len(logs)
        cells = len(SCHED_POLICIES) * len(SCHED_CLUSTERS) * len(SCHED_JOBS)
        wait_p95 = nearest_rank(waits, 0.95) if waits else float("nan")
        return RunResult(
            latencies=latencies,
            attempted=len(self.requests),
            failed=failed,
            phase_start=phase_start,
            phase_s=phase_s,
            throughput=median_rate(t0, ends, cells, cells),
            digest=hashlib.sha256("".join(logs).encode()).hexdigest(),
            problems=problems,
            info={
                "runs": len(self.requests),
                "sched_util": float(np.mean(utils)) if utils else None,
                "sched_wait_p95_s": wait_p95,
            },
        )


WORKLOADS = {
    "train-bert": lambda seed, seconds: TrainWorkload("bert", False, 4.7, seed, seconds),
    "train-awd-pipelined": lambda seed, seconds: TrainWorkload("awd", True, 1.5, seed, seconds),
    "plan": PlanWorkload,
    "sched": SchedWorkload,
}


def make_workload(name: str, seed: int, seconds: float):
    return WORKLOADS[name](seed, seconds)
