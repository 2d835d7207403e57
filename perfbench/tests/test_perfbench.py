"""Small tests of the benchmark itself: its statistics, the span recorder,
a short pass of each workload, and the audit of its known answers.

    python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import make_data
import run
from harness import SpanRecorder, patched, percentile, tail_reportable
from workloads import (
    VERDICT_FUNCTIONS, BenchReplay, StepLimit, Verify, tiny_domain,
)

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent


def test_p95_needs_ten_samples_beyond_it():
    assert tail_reportable(200, 95)
    assert not tail_reportable(199, 95)
    assert not tail_reportable(8, 95)
    assert tail_reportable(20, 50)
    assert not tail_reportable(0, 50)


def test_percentile_is_nearest_rank():
    samples = list(range(1, 201))
    assert percentile(samples, 50) == 100
    assert percentile(samples, 95) == 190
    assert percentile([3.0], 95) == 3.0


def test_self_time_is_duration_minus_children():
    now = [0.0]
    spans = SpanRecorder(clock=lambda: now[0])

    def inner():
        now[0] += 2.0

    def outer():
        now[0] += 1.0
        inner()
        inner()
        now[0] += 3.0

    inner = spans.wrap("inner")(inner)
    outer = spans.wrap("outer")(outer)
    outer()
    outer()
    assert spans.calls("outer") == 2 and spans.calls("inner") == 4
    assert spans.self_s("outer") == pytest.approx(8.0)
    assert spans.self_s("inner") == pytest.approx(8.0)
    assert spans.child_calls("outer", "inner") == 4
    rows = {row["path"]: row for row in spans.table()}
    assert set(rows) == {"outer", "outer/inner"}
    assert rows["outer"]["total_s"] == pytest.approx(16.0)


def test_span_counters_and_failures():
    spans = SpanRecorder()

    def observe(counts, args, kwargs, result):
        harness.bump(counts, "failures" if isinstance(result, Exception)
                     else "ok")

    @spans.wrap("layer", observe)
    def layer(x):
        if x < 0:
            raise ValueError(x)
        return x

    layer(1)
    with pytest.raises(ValueError):
        layer(-1)
    assert spans.calls("layer") == 2
    assert spans.count("layer", "failures") == 1
    assert spans.count("layer", "ok") == 1


def test_patched_rebinds_every_caller_and_restores():
    import fuzzfeed.cli
    import fuzzfeed.fuzzing
    import fuzzfeed.orchestrator

    original = fuzzfeed.fuzzing.validity_fuzz
    marker = object()
    with patched([("fuzzfeed.fuzzing:validity_fuzz", lambda fn: marker)]):
        assert fuzzfeed.fuzzing.validity_fuzz is marker
        assert fuzzfeed.orchestrator.validity_fuzz is marker
        assert fuzzfeed.cli.validity_fuzz is marker
    assert fuzzfeed.orchestrator.validity_fuzz is original
    assert fuzzfeed.cli.validity_fuzz is original


def test_tiny_domain_matches_the_oracle_size():
    assert len(tiny_domain()) == 13 ** 3


def test_short_bench_replay_pass(tmp_path):
    workload = BenchReplay(ROOT, BenchReplay.RECORDED_SEED, tmp_path)
    workload.k = 1
    one = run.Pass(workload)
    assert one.result.wrong == []
    assert one.result.rows == 18 and len(workload.outcomes) == 18
    assert one.result.divergences == 0
    assert one.inputs() > 0 and one.attempted() == 18 + len(one.verdicts)


def test_short_verify_pass_traced_matches_untraced(tmp_path):
    workload = Verify(ROOT, 3, tmp_path)
    workload.candidates = workload.candidates[:5]
    workload.TRIALS = 200
    passes, metrics, spans = run.traced(workload)
    assert [p.result.wrong for p in passes] == [[], []]
    assert passes[0].result.outputs == passes[1].result.outputs
    # corpus-validate: 18 x (2 phases + 2 sweeps); check: 5 x 3 verdicts.
    assert metrics["verdicts.count"][0] == 18 * 4 + 5 * 3
    assert metrics["fuzzing.exhaustive.calls"][0] == 36
    assert metrics["evaluation.equivalence.calls"][0] == 5
    assert metrics["minilang.parse.calls"][0] > 0
    assert 0.0 <= metrics["fuzzing.phase.memo_hit_ratio"][0] < 1.0


def short_step_limit(tmp_path, trials):
    workload = StepLimit(ROOT, 11, tmp_path)
    workload.candidates = [dict(workload.candidates[0], trials=trials,
                                checks=1)]
    return workload


def test_short_step_limit_pass(tmp_path):
    workload = short_step_limit(tmp_path, 3)
    passes, metrics, spans = run.traced(workload)
    assert [p.result.wrong for p in passes] == [[], []]
    stalled = metrics["interp.precondition.step_limited"][0]
    assert stalled >= 1
    # A stalled precondition is a precondition fault; foo never stalls.
    assert metrics["interp.precondition.faults"][0] >= stalled
    assert metrics["interp.foo.step_limited"][0] == 0


def test_wrong_answer_is_reported(tmp_path):
    workload = short_step_limit(tmp_path, 1)
    workload.candidates = [dict(workload.candidates[0],
                                expected={"validity": "counterexample",
                                          "weakness": "likely-pass"})]
    one = run.Pass(workload)
    assert len(one.result.wrong) == 2   # the verdict and the exit code


def test_step_limit_candidates_stall_on_their_stated_property():
    assert make_data.audit_step_limit(size=300) == []


def test_verify_answers_agree_with_truth_and_oracle():
    assert make_data.audit_verify(size=1500) == []


def test_refuses_to_run_outside_a_full_checkout(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_wall_clock_budget_is_refused():
    import fuzzfeed.fuzzing as fuzzing
    from fuzzfeed.corpus import load_corpus
    from harness import VerdictLog
    from workloads import verdict_problems

    program = load_corpus(ROOT / "corpus" / "builtin").programs[0]
    original = fuzzing.validity_fuzz
    log = VerdictLog()
    with log.install(VERDICT_FUNCTIONS):
        fuzzing.validity_fuzz(program.with_truth(),
                              fuzzing.FuzzBudget(0.5, 10),
                              fuzzing.default_config(1))
    assert fuzzing.validity_fuzz is original
    assert [v.kind for v in log.verdicts] == ["validity"]
    assert "wall-clock fuzz budget refused" in verdict_problems(
        log.verdicts[0])[0]


def test_metric_names_match_benchmark_json(tmp_path):
    import json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = short_step_limit(tmp_path, 1)
    _, metrics, _ = run.traced(workload)
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])
    assert [m["unit"] for m in spec["per_layer"]] == [
        metrics[m["name"]][1] for m in spec["per_layer"]]
