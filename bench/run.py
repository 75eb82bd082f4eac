"""Benchmark runner for tsalg.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py`` and ``README.md``) in this
process, with one caller and no threads: rounds of the workload's fixed
job list for S seconds, each on a fresh set-up, each job a
closed-loop call into tsalg's public API whose answer is checked outside
the timed region. It imports tsalg from the ``src/`` directory next to
this one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it is the run record (interpreter, commit, nproc, seed,
source line count, sample counts).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: Share of a traced run spent in untraced rounds, for trace.overhead_frac.
UNTRACED_SHARE = 1 / 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "assignments_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {"_s": "s", "_frac": "ratio", "_ratio": "ratio", "_per_assignment": "count"}


def layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


class SetupError(RuntimeError):
    """The checkout does not hold a tsalg this benchmark can run."""


def import_tsalg():
    """Import tsalg afresh from SRC, dropping any copy imported before."""
    for name in [m for m in sys.modules if m == "tsalg" or m.startswith("tsalg.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    tsalg = importlib.import_module("tsalg")
    if not Path(tsalg.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"imported tsalg from {tsalg.__file__}, not from {SRC}")
    return tsalg


def setup(workload: str, seed: int, workdir: Path):
    """Import tsalg and build the workload's inputs; returns (seconds, tsalg, jobs).

    Garbage left by earlier set-ups and rounds is collected before the
    clock starts, and the set-up's own garbage after it stops, so neither
    is billed to the set-up or to the round that follows.
    """
    gc.collect()
    start = perf_counter()
    tsalg = import_tsalg()
    jobs = workloads.WORKLOADS[workload](tsalg, random.Random(f"{workload}/{seed}"), workdir)
    took = perf_counter() - start
    gc.collect()
    return took, tsalg, jobs


@dataclass
class Round:
    job_s: list[float] = field(default_factory=list)
    #: Assignments each job tested; 0 for a job that failed or does not
    #: count towards assignments_per_s.
    job_tested: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    layers: dict | None = None

    @property
    def wall_s(self) -> float:
        return sum(self.job_s)


def run_round(jobs, tracer=None, report_failure=print) -> Round:
    r = Round()
    if tracer is not None:
        tracer.reset()
    for i, job in enumerate(jobs):
        error = result = None
        if tracer is not None:
            tracer.begin_job(i, job.label)
        start = perf_counter()
        try:
            result = job.call()
        except Exception:
            error = traceback.format_exc(limit=3)
        took = perf_counter() - start
        if tracer is not None:
            tracer.end_job()
        r.attempted += 1
        r.job_s.append(took)
        if error is None:
            try:
                tested = job.validate(job, result)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            r.failed += 1
            report_failure(f"FAILED {job.label}: {error}")
        r.job_tested.append(tested if error is None and job.counts_assignments else 0)
    if tracer is not None:
        r.layers = tracer.snapshot()
    return r


def run_rounds(jobs, seconds: float, tracer=None, report_failure=print,
               fresh=None) -> list[Round]:
    """Whole rounds within `seconds` (at least one).

    Successive rounds run on each CPU the process may use in turn, one
    CPU per round, so a slow phase of one CPU shows in some rounds only
    and the best-of timing in end_to_end picks the rounds that escaped it.
    With `fresh`, every round runs on the job list that `fresh()` sets up
    anew on that round's CPU, in place of `jobs`.
    """
    cpus = sorted(os.sched_getaffinity(0))
    deadline = perf_counter() + seconds
    rounds = []
    longest = 0.0
    try:
        # a round starts only if the longest so far would still end by the
        # deadline, so a run takes `seconds` and not up to a round more
        while not rounds or perf_counter() + longest < deadline:
            start = perf_counter()
            os.sched_setaffinity(0, {cpus[len(rounds) % len(cpus)]})
            if fresh is not None:
                jobs = None  # let the previous set-up go before the next one
                jobs = fresh()
            rounds.append(run_round(jobs, tracer, report_failure))
            longest = max(longest, perf_counter() - start)
    finally:
        os.sched_setaffinity(0, cpus)
    return rounds


def end_to_end(rounds: list[Round], setups: list[float]) -> tuple[dict, dict]:
    """Metric values and their sample counts.

    Rounds are timed best-of: a job's time to verdict is its fastest time
    over the rounds, wall_s is the sum of those fastest times over the job
    list, and assignments_per_s divides the assignments of the jobs that
    count them by the sum of their fastest times. Interference only ever
    slows a job down, and on a shared host the machine's speed drifts from
    one moment to the next, so each job's best time repeats from run to
    run far better than its median, and far better than the fastest whole
    round, which needs every job of it to escape the drift (see README.md).
    """
    job_ms = [min(times) * 1000 for times in zip(*(r.job_s for r in rounds))]
    deciles = statistics.quantiles(job_ms, n=10, method="inclusive")
    # a job that failed in any round does not count
    tested = [min(counts) for counts in zip(*(r.job_tested for r in rounds))]
    counted_ms = sum(ms for ms, n in zip(job_ms, tested) if n)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(job_ms) / 1000,
        "job_p50_ms": statistics.median(job_ms),
        "job_p90_ms": deciles[8],
        "assignments_per_s": sum(tested) / counted_ms * 1000 if counted_ms else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "setup_s": len(setups),
        "wall_s": len(rounds),
        "job_p50_ms": len(job_ms),
        "job_p90_ms": len(job_ms),
        "assignments_per_s": sum(1 for n in tested if n),
        "peak_rss_mb": 1,
    }
    return values, samples


def per_layer(traced: list[Round], untraced: list[Round]) -> tuple[dict, dict]:
    """Layer metrics of the fastest traced round, so they add up within
    one round; counts are the same in every round."""
    best = min(traced, key=lambda r: r.wall_s)
    values = dict(best.layers)
    values["trace.wall_s"] = best.wall_s
    values["trace.overhead_frac"] = best.wall_s / min(r.wall_s for r in untraced) - 1
    samples = dict.fromkeys(values, len(traced))
    samples["trace.overhead_frac"] = len(traced) + len(untraced)
    return values, samples


def source_lines() -> int:
    """What `wc -l src/tsalg/*.py` totals."""
    return sum(p.read_bytes().count(b"\n") for p in sorted((SRC / "tsalg").glob("*.py")))


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30, check=False)
    return done.stdout.strip() or None


def run(workload: str, seed: int, seconds: float, trace: bool, select=None,
        report_failure=print) -> dict:
    """One benchmark run; returns the run record. `select` narrows the job
    list (the benchmark's self-tests use it for tiny runs)."""
    if not (SRC / "tsalg" / "__init__.py").is_file():
        raise SetupError(f"no tsalg package under {SRC}")
    os.environ.pop("TRA_BUDGET", None)  # the budget is part of the workload
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    setups = []

    def fresh():
        took, tsalg, jobs = setup(workload, seed, workdir)
        setups.append(took)
        return tsalg, jobs if select is None else select(jobs)

    try:
        if not trace:
            # a set-up before every round spreads the set-ups over the
            # run and its CPUs, as the rounds are spread
            rounds = run_rounds(None, seconds, None, report_failure, lambda: fresh()[1])
            values, samples = end_to_end(rounds, setups)
            units = END_TO_END
            all_rounds = rounds
        else:
            tsalg, jobs = fresh()
            untraced = run_rounds(jobs, seconds * UNTRACED_SHARE, None, report_failure)
            from tracer import Tracer

            tracer = Tracer(tsalg)
            tracer.install()
            try:
                traced = run_rounds(jobs, seconds * (1 - UNTRACED_SHARE), tracer, report_failure)
            finally:
                tracer.uninstall()
            tracer.write_spans(OUT / f"trace-{workload}-seed{seed}.jsonl")
            values, samples = per_layer(traced, untraced)
            units = {name: layer_unit(name) for name in values}
            all_rounds = untraced + traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in all_rounds)
    failed = sum(r.failed for r in all_rounds)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "jobs_per_round": all_rounds[0].attempted,
        "rounds": len(all_rounds),
        "attempted": attempted,
        "failed": failed,
        "ops_failed_frac": failed / attempted,
        "metrics": {name: {"value": values[name], "unit": units[name], "samples": samples[name]}
                    for name in values},
        "python": platform.python_version(),
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "src_lines": source_lines(),
    }


def report(record: dict) -> None:
    """Print the metrics, the run record, and the result line last."""
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}  (n={m['samples']})")
    print(f"ops_failed_frac = {record['ops_failed_frac']:.6g} ratio  (n={record['attempted']})")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    }), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     report_failure=lambda msg: print(msg, file=sys.stderr))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
