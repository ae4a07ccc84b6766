"""qccsim benchmark: one closed-loop client, one job in flight at a time.

    python3 perfbench/run.py --workload analytic|sample|search|rounds|all
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  With ``--trace 0`` the run measures the
end-to-end metrics for S seconds, untraced, checking every job's output.
With ``--trace 1`` it runs each of the workload's first jobs untraced and
traced, back to back, and reports the per-layer metrics; spans go to
``perfbench/out/``.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric definitions
and what each is expected to move are in METRICS.md.
"""

from __future__ import annotations

import argparse
import gzip
import json
import marshal
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads
from tracing import END, ERROR, JOB, NAME, PARENT, START
from workloads import WORKLOADS, Job, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"
SETUP_REPEATS = 5  # imports timed before the timed jobs, and as many again after them
JOB_TIMEOUT_S = 150
LAYERS = ("proc", *tracing.LAYERS)

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "call_p50_ms": "ms",
                    "call_tail_ms": "ms", "peak_rss_mb": "MB"}


@dataclass
class Result:
    job: Job
    latency_s: float
    failure: str | None
    out: bytes = b""  # stdout of a CLI job; the outcome bytes of a rounds session


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("QCCSIM_WORKERS", None)  # measure the default, single-process search
    return env


def run_cli(job: Job, spans_path: Path | None = None) -> Result:
    """Run one CLI job in a fresh interpreter, traced when ``spans_path`` is given."""
    env = child_env()
    if spans_path is None:
        cmd = [sys.executable, "-m", "qccsim", *job.argv]
    else:
        cmd = [sys.executable, str(TRACED_CLI), str(spans_path), *job.argv]
    spawn = time.perf_counter_ns()
    env["PERFBENCH_SPAWN_NS"] = str(spawn)
    try:
        proc = subprocess.run(cmd, capture_output=True, env=env, cwd=ROOT, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Result(job, (time.perf_counter_ns() - spawn) / 1e9, f"timed out after {JOB_TIMEOUT_S} s")
    latency = (time.perf_counter_ns() - spawn) / 1e9
    failure = workloads.check_cli(job, proc.returncode, proc.stdout.decode(errors="replace"),
                                  proc.stderr.decode(errors="replace"))
    return Result(job, latency, failure, proc.stdout)


def import_package() -> SimpleNamespace:
    """The package modules, imported into this process for in-process work."""
    sys.path.insert(0, str(SRC))
    import numpy as np
    import qccsim.cli  # noqa: F401  imports every module
    return SimpleNamespace(np=np, **{m: sys.modules[f"qccsim.{m}"] for m in tracing.LAYERS})


def timed_session(q: SimpleNamespace, job: Job) -> Result:
    start = time.perf_counter()
    outcomes = workloads.run_session(q, job)
    latency = time.perf_counter() - start
    return Result(job, latency, workloads.check_session(job, outcomes), bytes(outcomes))


def time_import() -> float:
    """Wall time of a fresh interpreter running ``import qccsim``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import qccsim"], env=child_env(), cwd=ROOT,
                   check=True, capture_output=True, timeout=JOB_TIMEOUT_S)
    return time.perf_counter() - start


def nearest_rank(values: list[float], pct: float) -> float:
    """The value with at least (100 - pct)% of the samples above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def context(seed: int, workload: Workload, results: list[Result]) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"commit": commit, "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "seed": seed, "workload": workload.name,
            "jobs_by_kind": dict(Counter(r.job.kind for r in results))}


def print_failures(results: list[Result]) -> None:
    for i, r in enumerate(results):
        if r.failure:
            where = " ".join(r.job.argv) or json.dumps(r.job.params)
            print(f"FAILED job {i} [{r.job.kind}] {where}: {r.failure}")


# ------------------------------------------------------------------ end to end


def measure(workload: Workload, seed: int, seconds: float) -> tuple[dict, int, int, bool]:
    """The untraced timed run; returns (metrics, attempted, failed, correct)."""
    time_import()  # warm the bytecode cache
    setup = [time_import() for _ in range(SETUP_REPEATS)]
    if workload.in_process:
        q = import_package()
        execute = lambda job: timed_session(q, job)  # noqa: E731
    else:
        execute = run_cli
    jobs = workload.jobs(seed)
    results: list[Result] = []
    generator_s = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(results) < workload.min_jobs:
        begin = time.perf_counter()
        results.append(execute(next(jobs)))
        generator_s += time.perf_counter() - begin - results[-1].latency_s
        if len(results) > 1:
            results[-1].out = b""  # only the first job's output is kept, for the repeat
    wall = time.perf_counter() - start
    setup += [time_import() for _ in range(SETUP_REPEATS)]

    # Determinism: the first job again, with identical flags and seed.
    again = execute(results[0].job)
    deterministic = again.out == results[0].out and not again.failure
    usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    latencies_ms = [1000 * r.latency_s for r in results]
    failed = sum(1 for r in results if r.failure) + (not deterministic)
    attempted = len(results) + 1
    metrics = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": len(results) / wall,
        "call_p50_ms": statistics.median(latencies_ms),
        "call_tail_ms": nearest_rank(latencies_ms, workload.tail_pct),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
    }
    correct = deterministic and not any(r.failure for r in results if not r.job.kind.startswith("invalid"))

    n = len(results)
    print(f"workload {workload.name}: {n} jobs in {wall:.2f} s, seed {seed}, one job in flight")
    for name, value in metrics.items():
        print(f"  {name:<13} {value:12.6g} {END_TO_END_UNITS[name]}")
    print(f"  call_tail_ms is p{workload.tail_pct:g} of {n} jobs, "
          f"{n - math.ceil(workload.tail_pct / 100 * n)} beyond it")
    print(f"  setup_s is the median of {len(setup)} fresh interpreters running `import qccsim`, "
          "half before the timed jobs and half after")
    print(f"  failed_ratio  {failed / attempted:12.6g} ratio  "
          f"({failed} of {attempted} jobs; the last is the determinism repeat)")
    print(f"  determinism: job 0 repeated, output {'identical' if deterministic else 'DIFFERENT'}")
    print_failures(results + [again])
    # The load generator's own time per job: making the job and checking its output.
    extra = {"generator_ms_per_job": 1000 * generator_s / n}
    if workload.name == "analytic":
        extra["nan_probe"] = nan_probe(seed)
    print("context " + json.dumps(context(seed, workload, results) | extra))
    return metrics, attempted, failed, correct


def nan_probe(seed: int) -> str | None:
    """Run ``exact --phi1 nan`` untimed and uncounted; None when it is refused as it must be."""
    probe = run_cli(workloads.nan_probe_job(seed))
    where = " ".join(probe.job.argv)
    print(f"  nan probe: {where}: " + (f"KNOWN DEFECT, {probe.failure}" if probe.failure else "refused, as it must be"))
    return probe.failure


# ------------------------------------------------------------------ traced run


def traced_cli_job(job: Job) -> tuple[Result, list, float, tuple[float, float]]:
    """Run one job under traced_cli.py: (result, its spans, unattributed ns, wrapper cost)."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"spans-{os.getpid()}.bin"
    result = run_cli(job, path)
    try:
        with open(path, "rb") as handle:
            spans = marshal.load(handle)
            flush_start, flush_end = marshal.load(handle)
            cost = marshal.load(handle)
    except (OSError, EOFError, ValueError) as exc:
        result.failure = result.failure or f"no spans written: {exc!r}"
        return result, [], 0.0, (0.0, 0.0)
    finally:
        path.unlink(missing_ok=True)
    covered = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    return result, spans, result.latency_s * 1e9 - covered - (flush_end - flush_start), cost


def traced_session(q: SimpleNamespace, job: Job) -> tuple[Result, list, float, tuple[float, float]]:
    """Run one session in process with the package wrapped: (result, its spans, unattributed ns, wrapper cost)."""
    cost = tracing.calibrate()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        result = timed_session(q, job)
    finally:
        uninstall()
    spans = tracer.spans
    covered = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    return result, spans, result.latency_s * 1e9 - covered, cost


def monte_carlo_bytes_per_trial(q: SimpleNamespace, job: Job) -> float:
    """tracemalloc peak of one monte_carlo call over its trials, in a pass of its own."""
    import tracemalloc

    argv = dict(zip(job.argv[1::2], job.argv[2::2]))
    pair = q.state.make_shared_state(math.radians(float(argv["--chi"])))
    sol = q.optimize.optimal_closed_form(pair)
    tracemalloc.start()
    try:
        q.protocol.monte_carlo(pair, q.protocol.AngleSet(sol.phi1, sol.phi2),
                               job.params["trials"], int(argv["--seed"]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / job.params["trials"]


def _protocols_examined(result: Result) -> int:
    if result.failure or not result.job.kind.startswith("classical"):
        return 0
    text = result.out.decode()
    if result.job.params["fmt"] == "json":
        return json.loads(text)["record"]["protocols_examined"]
    return int(workloads.parse_kv(text)["protocols_examined"])


def layer_metrics(jobs: list[Job], traced: list[Result], untraced: list[Result], spans: list[list],
                  duration: list[float], self_time: list[float], unattributed_ns: list[float],
                  span_cost_ns: float) -> dict[str, float]:
    n_jobs = len(jobs)

    def select(pred) -> list[int]:
        return [i for i, s in enumerate(spans) if pred(s)]

    def per_call(name: str, scale: float) -> float:
        idx = select(lambda s: s[NAME] == name)
        return sum(duration[i] for i in idx) / len(idx) / scale if idx else 0.0

    def per_unit(name: str, units: float, scale: float) -> float:
        return sum(duration[i] for i in select(lambda s: s[NAME] == name)) / units / scale if units else 0.0

    def by_kind(name: str, kind: str) -> float:
        idx = select(lambda s: s[NAME] == name and jobs[s[JOB]].kind == kind)
        return sum(duration[i] for i in idx) / len(idx) / 1e6 if idx else 0.0

    sweep_points = sum(j.params["steps"] for j in jobs if j.kind == "sweep")
    trials = sum(j.params["trials"] for j in jobs if j.kind == "simulate")
    metrics = {
        "proc.import_numpy_ms": per_call("proc.import_numpy", 1e6),
        "proc.import_qccsim_self_ms": sum(self_time[i] for i in select(
            lambda s: s[NAME] == "proc.import_qccsim")) / n_jobs / 1e6,
        "cli.main_self_ms": sum(self_time[i] for i in select(
            lambda s: s[NAME].startswith("cli.") and s[NAME] != "cli.sweep_records")) / n_jobs / 1e6,
        "cli.out_bytes": sum(len(r.out) for r in traced) if traced[0].job.argv else 0,
        "cli.sweep_records.us_per_point": per_unit("cli.sweep_records", sweep_points, 1e3),
        "protocol.exact_success_probability.us_per_call": per_call("protocol.exact_success_probability", 1e3),
        "state.apply_local_rotations.us_per_call": per_call("state.apply_local_rotations", 1e3),
        "state.apply_local_rotations.calls": len(select(lambda s: s[NAME] == "state.apply_local_rotations")),
        "optimize.optimal_numeric.ms_per_call": per_call("optimize.optimal_numeric", 1e6),
        "optimize.optimal_closed_form.us_per_call": per_call("optimize.optimal_closed_form", 1e3),
        "protocol.monte_carlo.ns_per_trial": per_unit("protocol.monte_carlo", trials, 1),
        "protocol.run_once.us_per_call": per_call("protocol.run_once", 1e3),
        "state.sample_outcome.us_per_call": per_call("state.sample_outcome", 1e3),
        "concentration.simulate_concentration_run.us_per_call":
            per_call("concentration.simulate_concentration_run", 1e3),
        "classical.enumerate_best.simultaneous_ms": by_kind("classical.enumerate_best", "classical-simultaneous"),
        "classical.enumerate_best.sequential_ms": by_kind("classical.enumerate_best", "classical-sequential"),
        "classical.protocols_examined": sum(_protocols_examined(r) for r in traced),
    }
    for layer in LAYERS:
        idx = select(lambda s: s[NAME].split(".", 1)[0] == layer)
        metrics[f"{layer}.self_ms_per_job"] = sum(self_time[i] for i in idx) / n_jobs / 1e6
        metrics[f"{layer}.calls"] = len(idx)
        metrics[f"{layer}.errors"] = sum(spans[i][ERROR] for i in idx)
    metrics["trace.overhead_ratio"] = (sum(r.latency_s for r in traced)
                                       / sum(r.latency_s for r in untraced))
    metrics["trace.unattributed_ms_per_job"] = sum(unattributed_ns) / n_jobs / 1e6
    metrics["trace.span_cost_ns"] = span_cost_ns
    return metrics


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("calls", "errors", "protocols_examined"):
        return "count"
    if "bytes" in last:
        return "bytes"
    if last.endswith("ratio"):
        return "ratio"
    return next(unit for unit in ("ms", "us", "ns")
                if last.startswith(unit + "_") or last.endswith("_" + unit) or f"_{unit}_" in last)


def trace(workload: Workload, seed: int) -> tuple[dict, int, int, bool]:
    """Each of the workload's first jobs untraced, then traced; the per-layer metrics."""
    source = workload.jobs(seed)
    jobs = [next(source) for _ in range(workload.trace_jobs)]
    time_import()  # warm the bytecode cache before either pass
    q = import_package() if workload.in_process or workload.name == "sample" else None
    untraced, traced, spans, unattributed, costs, duration, self_time = [], [], [], [], [], [], []
    plain, with_spans = ((lambda job: timed_session(q, job), lambda job: traced_session(q, job))
                         if workload.in_process else (run_cli, traced_cli_job))
    for i, job in enumerate(jobs):
        # Untraced and traced runs of each job back to back, alternating which goes first.
        if i % 2:
            result, job_spans, rest, cost = with_spans(job)
            untraced.append(plain(job))
        else:
            untraced.append(plain(job))
            result, job_spans, rest, cost = with_spans(job)
        traced.append(result)
        unattributed.append(rest)
        costs.append(cost[1])
        job_duration, job_self = tracing.analyse(job_spans, *cost)
        duration.extend(job_duration)
        self_time.extend(job_self)
        base = len(spans)
        spans.extend([name, start, end, parent + base if parent >= 0 else -1, i, error]
                     for name, start, end, parent, _, error in job_spans)
    metrics = layer_metrics(jobs, traced, untraced, spans, duration, self_time, unattributed,
                            statistics.median(costs))
    metrics["protocol.monte_carlo.bytes_per_trial"] = (
        monte_carlo_bytes_per_trial(q, min(jobs, key=lambda j: j.params["trials"]))
        if workload.name == "sample" else 0.0)

    # Tracing must not change a byte of output.
    for t, u in zip(traced, untraced):
        if t.out != u.out and not t.failure:
            t.failure = "output differs with tracing on"
    results = untraced + traced
    failed = sum(1 for r in results if r.failure)
    correct = not any(r.failure for r in results if not r.job.kind.startswith("invalid"))

    run_context = context(seed, workload, traced)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{workload.name}-seed{seed}.jsonl.gz"
    with gzip.open(path, "wt", compresslevel=1) as handle:
        header = {"context": run_context, "span_cost_ns": costs,
                  "jobs": [{"kind": j.kind, "argv": list(j.argv), "params": j.params} for j in jobs]}
        handle.write(json.dumps(header) + "\n")
        handle.writelines(json.dumps(s) + "\n" for s in spans)

    print(f"workload {workload.name}: traced run over {len(jobs)} jobs, seed {seed}; spans in {path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"  {name:<52} {value:14.6g} {layer_unit(name)}")
    absent = [layer for layer in LAYERS if not metrics[f"{layer}.calls"]]
    print(f"  layers with no spans: {', '.join(absent) or 'none'}")
    print_failures(results)
    print("context " + json.dumps(run_context))
    return metrics, len(results), failed, correct


# ------------------------------------------------------------------ entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qccsim" / "__init__.py").is_file():
        print(f"error: no qccsim source at {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        run = trace if args.trace else lambda w, s: measure(w, s, args.seconds)
        metrics, attempted, failed, correct = run(WORKLOADS[name], args.seed)
        units = END_TO_END_UNITS if not args.trace else {m: layer_unit(m) for m in metrics}
        prefix = f"{name}." if len(names) > 1 else ""
        summary["metrics"].update({prefix + m: {"value": v, "unit": units[m]} for m, v in metrics.items()})
        summary["attempted"] += attempted
        summary["failed"] += failed
        summary["correct"] = summary["correct"] and correct
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
