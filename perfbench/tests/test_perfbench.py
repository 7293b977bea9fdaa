"""Tests of the benchmark itself, at minimal size.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from spinsq import cli, hypothesis, montecarlo  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", NAMES)
def test_each_workload_runs_at_minimal_size(name, tmp_path):
    workload = workloads.WORKLOADS[name](5, 1, True, tmp_path)
    workload.warmup()
    ops = workload.run_pass(0)
    assert [op.error for op in ops] == [None] * len(ops)
    assert {op.scheme for op in ops} == set(workloads.SCHEMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_benchmark_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    out = tmp_path / "spans.csv"
    proc = _run("--workload", name, "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
                "--minimal", "--spans", str(out))
    assert proc.returncode == 0, proc.stderr
    detail, summary = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 5
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in summary["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert detail["workload"] == name and detail["provenance"]["workload_seed"] == 3
    if trace:
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(row["name"].partition(".")[0] in spans.LAYERS for row in rows)
    else:
        assert not out.exists()


def _perturb(monkeypatch, module, attr, change):
    original = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *a, **k: change(original(*a, **k)))


@pytest.mark.parametrize("name, module, attr, change", [
    ("planner-fig9", hypothesis, "required_budget",
     lambda r: dataclasses.replace(r, budget=r.budget + 2)),
    ("mc-reference", montecarlo, "run_trials",
     lambda s: dataclasses.replace(s, mean=s.mean * 2)),
    ("cli-roundtrip", cli, "estimate_parameter",
     lambda r: dataclasses.replace(r, value=r.value + 1000.0)),
])
def test_an_injected_wrong_answer_counts_as_failed(name, module, attr, change,
                                                   monkeypatch, tmp_path):
    workload = workloads.WORKLOADS[name](5, 1, True, tmp_path)
    _perturb(monkeypatch, module, attr, change)
    record = worker.timed_run(workload, 0.01)
    assert record["attempted"] > 0
    assert record["failed"] == record["attempted"]
    assert record["failed_frac"] == 1.0 and record["failures"]


def test_the_pooled_check_fails_a_sampler_whose_variance_is_off(monkeypatch, tmp_path):
    # 30% too much variance passes each call's check at 200 trials (60%), but
    # not the check over the run's 2,000 trials per scheme (19%)
    workload = workloads.WORKLOADS["mc-reference"](5, 1, True, tmp_path)
    workload.trials = 200
    _perturb(monkeypatch, montecarlo, "run_trials",
             lambda s: dataclasses.replace(s, empirical_variance=s.empirical_variance * 1.3))
    ops = [op for i in range(10) for op in workload.run_pass(i)]
    assert sum(op.error is None for op in ops) > len(ops) / 2
    ops = workload.finish(ops)
    assert all(op.error for op in ops)
    assert any(op.error.startswith("over the run's 2000 trials") for op in ops)


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat_exactly(name, tmp_path):
    def counts():
        workload = workloads.WORKLOADS[name](5, 1, True, tmp_path)
        record = worker.traced_run(workload, 0.01, 1)
        return {n: m["value"] for n, m in record["metrics"].items() if m["unit"] == "count"}

    first = counts()
    assert first == counts()
    assert any(first.values())


def test_tracer_restores_the_program_and_attributes_worker_threads(tmp_path):
    before = montecarlo.run_trials
    workload = workloads.WORKLOADS["mc-reference"](5, 2, True, tmp_path)
    record = worker.traced_run(workload, 0.01, 2)
    assert montecarlo.run_trials is before
    metrics = record["metrics"]
    assert metrics["kernels.uniforms_per_trial.ts"]["value"] == 3 * 200
    assert metrics["montecarlo.run_trials.self_ms"]["value"] > 0


def test_sampler_calls_are_per_op_of_the_scheme(tmp_path):
    workload = workloads.WORKLOADS["cli-roundtrip"](5, 1, True, tmp_path)
    metrics = worker.traced_run(workload, 0.01, 1)["metrics"]
    # at the small budgets: rp1 draws l = 200 pairs per axis, ts one block per axis
    assert metrics["states.sample_pair.calls.rp1"]["value"] == 3 * 200
    assert metrics["states.sample_total_spin.calls.ts"]["value"] == 3


def test_self_time_counts_worker_threads_outside_their_children():
    # a client span 0..10 waits while a worker thread runs children 1..3 and 6..9
    assert spans._self_time(0, 10, 1, [(1, 3, 2), (6, 9, 2)]) == pytest.approx(2 + 3)
    assert spans._self_time(0, 10, 1, [(2, 5, 2)]) == pytest.approx(7)
    assert spans._self_time(0, 10, 1, [(2, 5, 1), (4, 6, 1)]) == pytest.approx(6)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert worker.tail(range(1, 101)) == (90, 90.0, 100)
    assert worker.tail(range(1, 31)) == (20, 100.0 * 20 / 30, 30)
    assert worker.tail(range(29, 0, -1)) == (29, 100.0, 29)
    assert worker.tail([3, 1, 2]) == (3, 100.0, 3)


def test_compare_verdicts():
    parent = [1.0 + 0.01 * i for i in range(10)]
    pairs = list(zip(parent, [p * 0.8 for p in parent]))
    assert compare.verdict(parent, [p * 0.8 for p in parent], "lower", 0.1, pairs)[0] == "improved"
    assert compare.verdict(parent, parent, "lower", 0.1, list(zip(parent, parent)))[0] == "no worse"
    worse = [p * 1.5 for p in parent]
    assert compare.verdict(parent, worse, "lower", 0.1, list(zip(parent, worse)))[0] == "worse"
    noisy = [1.0, 2.0] * 5
    assert compare.verdict(noisy, noisy, "lower", 0.1, list(zip(noisy, noisy)))[0] == "unresolved"


def _record(seed, value, count, failed=0):
    return {"perfbench": 1, "workload": "planner-fig9", "trace": 0, "seed": seed,
            "attempted": 45, "failed": failed,
            "metrics": {"pass_s": {"value": value, "unit": "s"},
                        "variance.block_variance.calls": {"value": count, "unit": "count"}}}


def _write(path, records):
    path.write_text("".join(json.dumps(r) + "\nsummary\n" for r in records))
    return path


def test_compare_command_pairs_runs_by_seed(tmp_path):
    a = _write(tmp_path / "a.jsonl", [_record(s, 5.0 + 0.01 * s, 9060) for s in range(10)])
    b = _write(tmp_path / "b.jsonl", [_record(s, 2.0 + 0.01 * s, 12) for s in range(10)])
    rows = {r[1]: r for r in compare.compare(compare.load(a), compare.load(b))}
    assert rows["pass_s"][7] == "improved" and rows["pass_s"][6] == "10/10"
    assert rows["variance.block_variance.calls"][7] == "changed"
    assert compare.main([str(a), str(b)]) == 0


def test_compare_refuses_a_gain_that_fails_more_ops(tmp_path):
    a = _write(tmp_path / "a.jsonl", [_record(s, 5.0 + 0.01 * s, 9060) for s in range(10)])
    b = _write(tmp_path / "b.jsonl", [_record(s, 2.0 + 0.01 * s, 12, failed=s == 3)
                                      for s in range(10)])
    rows = {r[1]: r for r in compare.compare(compare.load(a), compare.load(b))}
    assert rows["pass_s"][7] == "unresolved"
    assert compare.main([str(a), str(b)]) == 1


def test_compare_rejects_two_runs_of_one_seed(tmp_path):
    a = _write(tmp_path / "a.jsonl", [_record(1, 5.0, 9060), _record(1, 5.1, 9060)])
    with pytest.raises(SystemExit, match="more than one run"):
        compare.load(a)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
