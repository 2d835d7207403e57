"""Equivalence judging, benchmark aggregation, and report files."""
from __future__ import annotations

import csv
import json
from decimal import Decimal
from fractions import Fraction

import pytest

from fuzzfeed.evaluation import (
    DETAIL_COLUMNS, REPORT_COLUMNS, BenchmarkReport, EmptyReport,
    LikelyEquivalent, NotEquivalent, ProgramRow, check_equivalence,
    emit_report, format_avg, format_pct, run_benchmark,
)
from fuzzfeed.corpus import Category
from fuzzfeed.fuzzing import FuzzBudget, default_config
from fuzzfeed.minilang import eval_precondition
from fuzzfeed.llm import ScriptedProvider, candidate_from_program
from fuzzfeed.orchestrator import FgConfig

from conftest import (
    LENGTH_ONLY_WP, REGRESSED_WP, STRONG_WP, WEAKEST_WP, scripted_responses,
    table_style_report, with_precondition,
)

BUDGET = FuzzBudget.trials_only(4000)


def make_candidate(program_source: str, precondition_source: str):
    return candidate_from_program(
        with_precondition(program_source, precondition_source))


# --- equivalence ---

def test_textual_match_short_circuits(sorting_copy):
    candidate = candidate_from_program(sorting_copy.with_truth())
    verdict = check_equivalence(candidate, sorting_copy, BUDGET,
                                default_config(seed=1))
    assert verdict == LikelyEquivalent(0)


def test_semantically_equal_rewrite_is_equivalent(sorting_copy):
    # Same predicate, syntactically different (swapped guard order).
    rewrite = (
        "bool precondition(int[] a, int[] b, int[] c) {\n"
        "    if (len(b) != len(a) || len(a) == 0) {\n"
        "        return false;\n"
        "    }\n"
        "    for (int i = 0; i + 1 < len(a); i = i + 1) {\n"
        "        if (a[i + 1] < a[i]) {\n"
        "            return false;\n"
        "        }\n"
        "    }\n"
        "    return true;\n"
        "}\n")
    candidate = make_candidate(sorting_copy.program_source, rewrite)
    verdict = check_equivalence(candidate, sorting_copy, BUDGET,
                                default_config(seed=1))
    # The whole tiny domain (13**3 = 2197 inputs), then every fuzz trial.
    assert verdict == LikelyEquivalent(2197 + BUDGET.trial_limit)


def test_too_weak_candidate_disagrees_on_candidate_side(sorting_copy):
    candidate = make_candidate(sorting_copy.program_source, REGRESSED_WP)
    verdict = check_equivalence(candidate, sorting_copy, BUDGET,
                                default_config(seed=1))
    assert isinstance(verdict, NotEquivalent)
    assert verdict.disagreement == "candidate"
    # The witness satisfies the candidate but not the truth.
    assert eval_precondition(candidate.program, verdict.witness) is True
    assert eval_precondition(sorting_copy.with_truth(),
                             verdict.witness) is False


def test_too_strong_candidate_disagrees_on_truth_side(sorting_copy):
    candidate = make_candidate(sorting_copy.program_source, STRONG_WP)
    verdict = check_equivalence(candidate, sorting_copy, BUDGET,
                                default_config(seed=1))
    assert isinstance(verdict, NotEquivalent)
    assert verdict.disagreement == "truth"
    assert eval_precondition(sorting_copy.with_truth(),
                             verdict.witness) is True
    assert eval_precondition(candidate.program, verdict.witness) is False


def test_incomparable_candidate_reports_some_disagreement(sorting_copy):
    # The length-only guess is weaker on sortedness but stronger on c, so
    # either side may produce the first witness; it must be a real one.
    candidate = make_candidate(sorting_copy.program_source, LENGTH_ONLY_WP)
    verdict = check_equivalence(candidate, sorting_copy, BUDGET,
                                default_config(seed=1))
    assert isinstance(verdict, NotEquivalent)
    truth_says = eval_precondition(sorting_copy.with_truth(), verdict.witness)
    candidate_says = eval_precondition(candidate.program, verdict.witness)
    assert truth_says != candidate_says
    assert verdict.disagreement == ("truth" if truth_says else "candidate")


def test_correct_but_reformatted_weakest_form(sorting_copy):
    candidate = make_candidate(sorting_copy.program_source, WEAKEST_WP)
    verdict = check_equivalence(candidate, sorting_copy, BUDGET,
                                default_config(seed=1))
    assert isinstance(verdict, LikelyEquivalent)


def test_faulting_candidate_counts_as_false(sorting_copy):
    # a[0] faults on empty arrays; the truth also rejects empty arrays, so
    # the fault-as-false convention makes the divide visible only where
    # lengths differ.
    faulty = (
        "bool precondition(int[] a, int[] b, int[] c) {\n"
        "    if (a[0] < -2147483648) {\n"
        "        return false;\n"
        "    }\n"
        "    if (len(a) == 0 || len(a) != len(b)) {\n"
        "        return false;\n"
        "    }\n"
        "    for (int i = 0; i + 1 < len(a); i = i + 1) {\n"
        "        if (a[i] > a[i + 1]) {\n"
        "            return false;\n"
        "        }\n"
        "    }\n"
        "    return true;\n"
        "}\n")
    candidate = make_candidate(sorting_copy.program_source, faulty)
    verdict = check_equivalence(candidate, sorting_copy, BUDGET,
                                default_config(seed=1))
    # a[0] only faults when a is empty, and then both sides reject: the
    # reordering is harmless, so the predicates agree everywhere.
    assert isinstance(verdict, LikelyEquivalent)


# --- aggregation on the synthesized table ---

def test_table_percentages():
    report = table_style_report()
    by_cat = {s.benchmark: s for s in report.summaries()}
    assert by_cat["Existential"].correct_avg_pct == Decimal("83.00")
    assert by_cat["Universal"].correct_avg_pct == Decimal("91.67")
    assert by_cat["Sorting"].correct_avg_pct == Decimal("67.50")
    assert by_cat["Search"].correct_avg_pct == Decimal("96.67")


def test_table_csv_line_pinned(tmp_path):
    paths = emit_report(table_style_report(), tmp_path)
    lines = paths["report_csv"].read_text().splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert lines[1] == "GPT-4o-FG,Existential,20,16,17,16.6,83.00,5,7,6,5,6,5.6"


def test_summary_invariants():
    for s in table_style_report().summaries():
        assert s.fg_success_min <= s.fg_usage_min
        assert s.fg_success_max <= s.fg_usage_max
        assert s.fg_success_avg <= s.fg_usage_avg
        assert s.correct_min <= s.correct_avg <= s.correct_max
        assert s.fg_usage_min <= s.fg_usage_avg <= s.fg_usage_max
        assert 0 <= s.correct_avg_pct <= 100


def test_category_order_follows_report():
    benchmarks = [s.benchmark for s in table_style_report().summaries()]
    assert benchmarks == ["Existential", "Universal", "Sorting", "Search"]


def test_format_avg():
    assert format_avg(Fraction(6)) == "6"
    assert format_avg(Fraction(83, 5)) == "16.6"
    assert format_avg(Fraction(29, 5)) == "5.8"
    assert format_avg(Fraction(1, 3)) == f"{1/3:g}"


def test_format_pct_rounds_half_up():
    assert format_pct(Fraction(165, 5), 36) == Decimal("91.67")
    assert format_pct(Fraction(29, 5), 6) == Decimal("96.67")
    assert str(format_pct(Fraction(27, 5), 8)) == "67.50"
    assert format_pct(Fraction(1, 8), 10) == Decimal("1.25")
    # Exactly x.xx5 rounds away from zero, not to even.
    assert format_pct(Fraction(125, 1000), 100) == Decimal("0.13")
    assert format_pct(Fraction(0), 0) == Decimal("0.00")


def test_empty_report_raises():
    report = BenchmarkReport("c", "s", 1, rows=())
    with pytest.raises(EmptyReport):
        report.summaries()


# --- report files ---

def test_emit_and_load_json_round_trip(tmp_path):
    # json.loads of report.json gives back the report and every row.
    report = table_style_report()
    paths = emit_report(report, tmp_path)
    assert set(paths) == {"report_csv", "detail_csv", "report_json"}
    payload = json.loads(paths["report_json"].read_text())
    assert (payload["configuration"], payload["set_name"], payload["k"]) \
        == (report.configuration, report.set_name, report.k)
    rows = tuple(ProgramRow(
        r["iteration"], r["program"], Category(r["category"]), r["outcome"],
        r["fg_used"], r["correct"], r["cycles"], r["llm_calls"])
        for r in payload["rows"])
    assert rows == report.rows
    assert {s["benchmark"] for s in payload["summary"]} \
        == {"Existential", "Universal", "Sorting", "Search"}
    assert all("wall_time_s" in r for r in payload["rows"])


def test_detail_csv_round_trip_and_columns(tmp_path):
    report = table_style_report()
    paths = emit_report(report, tmp_path)
    header = paths["detail_csv"].read_text().splitlines()[0]
    assert header == ",".join(DETAIL_COLUMNS)
    # csv gives back every row (wall_time_s is not recorded there).
    with open(paths["detail_csv"], newline="", encoding="utf-8") as fh:
        rows = tuple(ProgramRow(
            int(r["iteration"]), r["program"], Category(r["category"]),
            r["outcome"], bool(int(r["fg_used"])), bool(int(r["correct"])),
            int(r["cycles"]), int(r["llm_calls"]))
            for r in csv.DictReader(fh))
    assert rows == report.rows


def test_detail_csv_is_deterministic_bytes(tmp_path):
    a = emit_report(table_style_report(), tmp_path / "a")
    b = emit_report(table_style_report(), tmp_path / "b")
    assert a["detail_csv"].read_bytes() == b["detail_csv"].read_bytes()
    assert a["report_csv"].read_bytes() == b["report_csv"].read_bytes()
    # report.json carries wall times, so only the summary must match.
    ja = json.loads(a["report_json"].read_text())
    jb = json.loads(b["report_json"].read_text())
    assert ja["summary"] == jb["summary"]


# --- live benchmark runs ---

def two_program_set(builtin_set):
    from fuzzfeed.corpus import BenchmarkSet
    return BenchmarkSet(name="mini", programs=(
        builtin_set.by_id("sorting_copy"),
        builtin_set.by_id("existential_find_100")))


def perfect_provider(benchmark_set, k=1):
    """Answers every program with its ground truth, k times over."""
    responses = []
    for _ in range(k):
        for program in benchmark_set:
            responses.extend(scripted_responses(
                program.program_source, program.truth_source, fence=()))
    return ScriptedProvider(responses)


def bench_config(seed=7):
    return FgConfig(fuzz_budget=FuzzBudget.trials_only(2000),
                    generator=default_config(seed=seed))


def test_run_benchmark_all_correct(builtin_set):
    mini = two_program_set(builtin_set)
    report = run_benchmark(mini, perfect_provider(mini), bench_config(), k=1,
                           configuration="truth")
    assert len(report.rows) == 2
    assert all(row.correct for row in report.rows)
    assert all(row.outcome == "accepted" for row in report.rows)
    # Rows are ordered by (iteration, program id).
    assert [r.program_id for r in report.rows] \
        == sorted(r.program_id for r in report.rows)
    summaries = report.summaries()
    assert {s.benchmark for s in summaries} == {"Sorting", "Existential"}
    assert all(s.correct_avg_pct == Decimal("100.00") for s in summaries)


def test_run_benchmark_counts_wrong_answers(builtin_set, sorting_copy):
    from fuzzfeed.corpus import BenchmarkSet
    mini = BenchmarkSet(name="mini", programs=(sorting_copy,))
    provider = ScriptedProvider(scripted_responses(
        sorting_copy.program_source, LENGTH_ONLY_WP, fence=()) * 6)
    report = run_benchmark(mini, provider,
                           FgConfig(fuzz_budget=FuzzBudget.trials_only(2000),
                                    generator=default_config(seed=7),
                                    fg_enabled=False), k=2)
    assert len(report.rows) == 2
    assert all(not row.correct for row in report.rows)
    assert all(row.outcome == "accepted" for row in report.rows)
    assert all(not row.fg_used for row in report.rows)
    summary = report.summaries()[0]
    assert summary.correct_avg_pct == Decimal("0.00")
    assert summary.fg_usage_avg == 0


def test_run_benchmark_k_validation(builtin_set):
    mini = two_program_set(builtin_set)
    with pytest.raises(ValueError, match="k must be"):
        run_benchmark(mini, perfect_provider(mini), bench_config(), k=0)


def test_run_benchmark_empty_set():
    from fuzzfeed.corpus import BenchmarkSet
    with pytest.raises(EmptyReport):
        run_benchmark(BenchmarkSet(name="e", programs=()),
                      ScriptedProvider([]), bench_config())


def test_run_benchmark_k_iterations_reseed(builtin_set, sorting_copy):
    from fuzzfeed.corpus import BenchmarkSet
    mini = BenchmarkSet(name="mini", programs=(sorting_copy,))
    report = run_benchmark(mini, perfect_provider(mini, k=3), bench_config(),
                           k=3, configuration="truth")
    assert [r.iteration for r in report.rows] == [1, 2, 3]
    assert all(row.correct for row in report.rows)
    assert report.k == 3
    assert report.summaries()[0].n_programs == 1
