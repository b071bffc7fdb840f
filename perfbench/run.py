"""End-to-end benchmark of the AvgPipe reproduction.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the repository root.  Workloads (closed loop, one client each,
every one in a fresh process with BLAS pinned to one thread):

* ``train-bert`` — whole-model AvgPipe training of BERT at the planned N
  (Adam).  Large dense kernels dominate; never enters ``core.pipeline``.
* ``train-awd-pipelined`` — stage-sliced AvgPipe training of AWD-LSTM at
  the planned K, M, N and advance (SGD).  Many tiny per-timestep
  ``lstm_cell`` nodes; the only workload that runs ``core.pipeline``.
* ``plan`` — a seeded stream of ``repro plan`` requests, uniform and
  heterogeneous clusters, through ``repro.cli.main`` in-process.
* ``sched`` — a seeded stream of multi-tenant scheduling runs through
  the public ``repro.sched`` API.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` runs the workload untraced and then traced, and prints the
per-layer self times and counts (see ``layers.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it carries the run's
details: output digest, machine speed score, BLAS thread count, and the
workload's own quality figures.
"""

from __future__ import annotations

import os

# Before NumPy loads here or in a child: one BLAS thread everywhere.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)  # import the benchmark as a package, not as sibling scripts

from perfbench import selftest  # noqa: E402
from perfbench.stats import median, nearest_rank, speed_score  # noqa: E402
from perfbench.workloads import END_TO_END, WORKLOADS  # noqa: E402

#: extra set-up-only processes; setup_s is the median over these and the measured run
SETUP_REPEATS = 2
#: every child must end before this many seconds after start
BUDGET_S = 170.0
#: the traced run's layer self times must cover this share of its wall time
ACCOUNTED_MIN = 0.95


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker(args, mode: str, deadline: float) -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    # cache bytecode as an installed package does, so set-up time does not
    # depend on whether the caller's environment disables it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--t0", repr(time.monotonic()),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} run")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} run of {args.workload} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} run of {args.workload} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} run of {args.workload} printed nothing")
    return json.loads(lines[-1])


def _end_to_end(run: dict, setups: list[float]) -> dict:
    ms = [x * 1e3 for x in run["latencies"]]
    values = {
        "throughput_per_s": run["throughput"],
        "op_ms_p50": nearest_rank(ms, 0.50),
        "op_ms_p90": nearest_rank(ms, 0.90),
        "setup_s": median(setups),
        "peak_rss_mib": run["peak_rss_mib"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _per_layer(base: dict, traced: dict) -> dict:
    from perfbench.layers import PER_LAYER

    values = dict(traced["per_layer"])
    values["trace.overhead_ratio"] = traced["phase_s"] / base["phase_s"]
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="AvgPipe end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    deadline = time.monotonic() + BUDGET_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    failures = selftest.run_all()
    if failures:
        for line in failures:
            print(f"perfbench self-test failed: {line}", file=sys.stderr)
        return 3

    speed = speed_score()
    try:
        base = _worker(args, "measure", deadline)
        if args.trace:
            traced = _worker(args, "trace", deadline)
            runs = [base, traced]
            metrics = _per_layer(base, traced)
        else:
            setups = [base["setup_s"]]
            setups += [_worker(args, "setup", deadline)["setup_s"] for _ in range(SETUP_REPEATS)]
            runs = [base]
            metrics = _end_to_end(base, setups)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    problems = [p for run in runs for p in run["problems"]]
    if any(run["digest"] != base["digest"] for run in runs):
        problems.append("traced run produced different outputs than the untraced run")
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "digest": base["digest"],
        "error_rate": base["failed"] / base["attempted"],
        "operations": len(base["latencies"]),
        "phase_s": base["phase_s"],
        "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"]),
        "cpus": os.cpu_count(),
        "speed_score": speed["score"],
        "speed_loop_s": speed["loop_s"],
        "workload_info": base["info"],
        "problems": problems[:20],
    }
    if args.trace:
        accounted = traced["per_layer"]["trace.accounted_ratio"]
        details.update(
            accounted_ok=accounted >= ACCOUNTED_MIN,
            unattributed_s=traced["unattributed"],
            missing_targets=traced["missing_targets"],
            chrome_trace=traced["chrome_trace"],
            spans=traced["spans"],
        )
        for target in traced["missing_targets"]:
            print(f"perfbench: wrap target missing, dropped: {target}", file=sys.stderr)
        if accounted < ACCOUNTED_MIN:
            print(
                f"perfbench: layer self times cover {accounted:.3f} of the traced run "
                f"(< {ACCOUNTED_MIN}); unattributed: {traced['unattributed']}",
                file=sys.stderr,
            )
    else:
        details["setup_samples_s"] = setups
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not problems and all(run["failed"] == 0 for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
