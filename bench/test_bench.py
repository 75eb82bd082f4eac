"""Self-tests of the benchmark: python3 -m pytest bench

They run tiny selections of each workload in-process, so they take
seconds; they are not part of the package's own test suite.
"""

import dataclasses
import json
from pathlib import Path

import pytest

import oracle
import run
import workloads

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())

#: A few cheap jobs of each workload.
TINY = {
    "exhaustive-small": lambda job: " U3 " in job.label,
    "sampled-wide": lambda job: " F53 " in job.label,
    "verifiers-cli": lambda job: job.label.startswith(("closure", "decompose 2 2", "check")),
}


def tiny(workload, limit=8):
    return lambda jobs: [j for j in jobs if TINY[workload](j)][:limit]


def run_tiny(workload, trace, select=None):
    failures = []
    record = run.run(workload, seed=7, seconds=0, trace=trace,
                     select=select or tiny(workload), report_failure=failures.append)
    return record, failures


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_prints_every_metric_with_its_unit(workload, trace, capsys):
    record, failures = run_tiny(workload, trace)
    assert failures == [] and record["failed"] == 0 and record["attempted"] > 0
    run.report(record)
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']}  (n=" in line
                   for line in lines), m["name"]
    assert any(line.startswith("ops_failed_frac = ") for line in lines)


def _flip_first(jobs):
    job = jobs[0]
    if isinstance(job.expected, tuple):  # CLI job: (exit code, passed)
        code, passed = job.expected
        job.expected = (1 - code, not passed)
    else:
        wrong = "holds-exhaustive" if job.expected.outcome == "fails" else "fails"
        job.expected = dataclasses.replace(job.expected, outcome=wrong)
    return jobs


@pytest.mark.parametrize("workload", ["exhaustive-small", "verifiers-cli"])
def test_wrong_expected_verdict_counts_as_failed(workload):
    select = lambda jobs: _flip_first(tiny(workload, limit=4)(jobs))
    record, failures = run_tiny(workload, False, select)
    assert record["failed"] == 1 and len(failures) == 1
    assert record["ops_failed_frac"] == 1 / record["attempted"]


def test_seeds_give_the_same_shape():
    def shape(seed):
        _, _, jobs = run.setup("exhaustive-small", seed, Path("."))
        return sorted(" ".join(j.label.split()[:3]) for j in jobs), [j.label for j in jobs]

    (a, order_a), (b, order_b) = shape(1), shape(2)
    assert a == b and order_a != order_b


def test_oracle_reproduces_sigma_and_its_unit_counterexample():
    units = oracle.unit_members(4)
    odd = frozenset(u for u in units if u.index(1) % 2 == 1)
    assert oracle.violates(workloads._sigma_law(*workloads._cycles(4)), units, {"x": odd})
    full = oracle.full_members(3, 2)
    assert not any(
        oracle.violates(workloads._sigma_law(*workloads._cycles(3)), full, {"x": frozenset(s for p, s in enumerate(full) if b >> p & 1)})
        for b in range(1 << len(full))
    )
    assert len(oracle.permutable_subsets(2, 3)) == 64


def test_sigma_demo_escape_work_is_pinned(tmp_path):
    _, _, jobs = run.setup("verifiers-cli", 7, tmp_path)
    job = next(j for j in jobs if j.label == "sigma-demo 3")
    code, out, err = job.call()
    job.validate(job, (code, out, err))
    report = json.loads(out)
    report["details"]["escape"]["hom"]["elements_tested"] = 1000
    with pytest.raises(workloads.JobFailed, match="escape.hom.elements_tested"):
        job.validate(job, (code, json.dumps(report), err))
