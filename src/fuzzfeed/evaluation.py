"""Judging generated WPs against ground truth and reporting benchmark runs.

Equivalence of two preconditions is decided by exhaustive agreement on the
tiny domain plus differential fuzzing at the configured budget; a faulting
precondition counts as false on that input. Benchmark runs repeat WP
generation k times per program and aggregate per-category counts the way
Table-style summaries expect: min over iterations, max, arithmetic mean,
and the mean as a percentage of the category size.
"""
from __future__ import annotations

import csv
import itertools
import json
import time
from dataclasses import dataclass, field, replace
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .corpus import (
    BenchmarkProgram, BenchmarkSet, Category, TINY_MAX_LEN, TINY_VALUES,
)
from .fuzzing import (
    FuzzBudget, FuzzInput, GeneratorConfig, derive_seed, tiny_inputs,
)
from .llm import CandidateWp
from .minilang import ProgramAst, eval_precondition, parse
from .orchestrator import (
    FgConfig, fg_generate, outcome_candidate, outcome_name,
)

CATEGORY_ORDER = (Category.EXISTENTIAL, Category.UNIVERSAL,
                  Category.SORTING, Category.SEARCH)

REPORT_COLUMNS = (
    "configuration", "benchmark", "n_programs",
    "correct_min", "correct_max", "correct_avg", "correct_avg_pct",
    "fg_usage_min", "fg_usage_max", "fg_usage_avg",
    "fg_success_min", "fg_success_max", "fg_success_avg",
)

DETAIL_COLUMNS = ("iteration", "program", "category", "outcome",
                  "fg_used", "correct", "cycles", "llm_calls")


class EmptyReport(Exception):
    pass


# --- equivalence ---

@dataclass(frozen=True)
class LikelyEquivalent:
    trials: int


@dataclass(frozen=True)
class NotEquivalent:
    witness: FuzzInput
    disagreement: str  # which predicate said true: "truth" | "candidate"


EquivalenceVerdict = Union[LikelyEquivalent, NotEquivalent]


def _predicates_agree(truth_ast: ProgramAst, candidate_ast: ProgramAst,
                      inputs: FuzzInput) -> Optional[NotEquivalent]:
    tv = eval_precondition(truth_ast, inputs)
    cv = eval_precondition(candidate_ast, inputs)
    if tv == cv:
        return None
    return NotEquivalent(inputs, "truth" if tv else "candidate")


def check_equivalence(candidate: CandidateWp, truth: BenchmarkProgram,
                      budget: FuzzBudget | None = None,
                      config: GeneratorConfig | None = None,
                      tiny_max_len: int = TINY_MAX_LEN,
                      tiny_values: tuple[int, ...] = TINY_VALUES,
                      ) -> EquivalenceVerdict:
    """Differentially test the candidate precondition against the truth WP."""
    budget = budget or FuzzBudget()
    config = config or GeneratorConfig()
    truth_ast = truth.with_truth()
    candidate_ast = candidate.program
    if candidate.source == truth_ast.source_text:
        return LikelyEquivalent(0)

    # The fuzz budget's clock starts after the tiny sweep.
    trials = 0
    for inputs in itertools.chain(tiny_inputs(tiny_max_len, tiny_values),
                                  budget.inputs(config)):
        trials += 1
        bad = _predicates_agree(truth_ast, candidate_ast, inputs)
        if bad is not None:
            return bad
    return LikelyEquivalent(trials)


# --- benchmark runs ---

@dataclass(frozen=True)
class ProgramRow:
    iteration: int
    program_id: str
    category: Category
    outcome: str
    fg_used: bool
    correct: bool
    cycles: int
    llm_calls: int
    wall_time_s: float = field(compare=False, default=0.0)


@dataclass(frozen=True)
class CategorySummary:
    configuration: str
    benchmark: str
    n_programs: int
    correct_min: int
    correct_max: int
    correct_avg: Fraction
    fg_usage_min: int
    fg_usage_max: int
    fg_usage_avg: Fraction
    fg_success_min: int
    fg_success_max: int
    fg_success_avg: Fraction

    @property
    def correct_avg_pct(self) -> Decimal:
        return format_pct(self.correct_avg, self.n_programs)


@dataclass(frozen=True)
class BenchmarkReport:
    configuration: str
    set_name: str
    k: int
    rows: tuple[ProgramRow, ...]

    def iterations(self) -> tuple[int, ...]:
        return tuple(sorted({row.iteration for row in self.rows}))

    def summaries(self) -> tuple[CategorySummary, ...]:
        if not self.rows:
            raise EmptyReport("report has no rows")
        result = []
        for category in CATEGORY_ORDER:
            rows = [r for r in self.rows if r.category is category]
            if not rows:
                continue
            n_programs = len({r.program_id for r in rows})
            per_iter_correct = []
            per_iter_usage = []
            per_iter_success = []
            for iteration in self.iterations():
                it_rows = [r for r in rows if r.iteration == iteration]
                per_iter_correct.append(sum(r.correct for r in it_rows))
                per_iter_usage.append(sum(r.fg_used for r in it_rows))
                per_iter_success.append(
                    sum(r.fg_used and r.correct for r in it_rows))
            result.append(CategorySummary(
                configuration=self.configuration,
                benchmark=category.value,
                n_programs=n_programs,
                correct_min=min(per_iter_correct),
                correct_max=max(per_iter_correct),
                correct_avg=_mean(per_iter_correct),
                fg_usage_min=min(per_iter_usage),
                fg_usage_max=max(per_iter_usage),
                fg_usage_avg=_mean(per_iter_usage),
                fg_success_min=min(per_iter_success),
                fg_success_max=max(per_iter_success),
                fg_success_avg=_mean(per_iter_success)))
        return tuple(result)


def _mean(values: list[int]) -> Fraction:
    return Fraction(sum(values), len(values))


def format_pct(avg: Fraction, total: int) -> Decimal:
    """Two-decimal percentage, round half up."""
    if total == 0:
        return Decimal("0.00")
    pct = avg / total * 100
    return (Decimal(pct.numerator) / Decimal(pct.denominator)).quantize(
        Decimal("0.01"), rounding=ROUND_HALF_UP)


def format_avg(avg: Fraction) -> str:
    """Plain minimal formatting: 6 stays '6', 16.6 stays '16.6'."""
    if avg.denominator == 1:
        return str(avg.numerator)
    return f"{float(avg):g}"


def run_benchmark(benchmark_set: BenchmarkSet, provider,
                  config: FgConfig | None = None, k: int = 1,
                  configuration: str = "default") -> BenchmarkReport:
    """Repeat WP generation k times over the whole set and judge results."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(benchmark_set) == 0:
        raise EmptyReport("benchmark set is empty")
    config = config or FgConfig()

    def run_one(iteration: int, program: BenchmarkProgram) -> ProgramRow:
        seed = derive_seed(config.generator.seed, "bench", iteration,
                           program.id)
        run_config = replace(config,
                             generator=config.generator.with_seed(seed))
        start = time.perf_counter()
        outcome = fg_generate(parse(program.program_source), provider,
                              run_config, program_id=program.id)
        candidate = outcome_candidate(outcome)
        correct = False
        if candidate is not None:
            equiv_seed = derive_seed(config.generator.seed, "equiv",
                                     iteration, program.id)
            verdict = check_equivalence(
                candidate, program, budget=config.fuzz_budget,
                config=config.generator.with_seed(equiv_seed))
            correct = isinstance(verdict, LikelyEquivalent)
        return ProgramRow(
            iteration=iteration, program_id=program.id,
            category=program.category, outcome=outcome_name(outcome),
            fg_used=outcome.trace.fg_used, correct=correct,
            cycles=outcome.trace.cycles_used,
            llm_calls=outcome.trace.llm_calls,
            wall_time_s=time.perf_counter() - start)

    rows = [run_one(iteration, program)
            for iteration in range(1, k + 1)
            for program in benchmark_set]
    rows.sort(key=lambda r: (r.iteration, r.program_id))
    return BenchmarkReport(configuration=configuration,
                           set_name=benchmark_set.name, k=k,
                           rows=tuple(rows))


# --- report files ---

def _summary_record(summary: CategorySummary) -> dict:
    return {
        "configuration": summary.configuration,
        "benchmark": summary.benchmark,
        "n_programs": summary.n_programs,
        "correct_min": summary.correct_min,
        "correct_max": summary.correct_max,
        "correct_avg": format_avg(summary.correct_avg),
        "correct_avg_pct": str(summary.correct_avg_pct),
        "fg_usage_min": summary.fg_usage_min,
        "fg_usage_max": summary.fg_usage_max,
        "fg_usage_avg": format_avg(summary.fg_usage_avg),
        "fg_success_min": summary.fg_success_min,
        "fg_success_max": summary.fg_success_max,
        "fg_success_avg": format_avg(summary.fg_success_avg),
    }


def emit_report(report: BenchmarkReport, out_dir: str | Path) -> dict:
    """Write report.csv, detail.csv, and report.json; returns their paths."""
    summaries = report.summaries()  # raises EmptyReport when empty
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_csv = out_dir / "report.csv"
    detail_csv = out_dir / "detail.csv"
    report_json = out_dir / "report.json"

    with open(report_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        for summary in summaries:
            writer.writerow(_summary_record(summary))

    with open(detail_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(DETAIL_COLUMNS)
        for row in report.rows:
            writer.writerow([
                row.iteration, row.program_id, row.category.value,
                row.outcome, int(row.fg_used), int(row.correct),
                row.cycles, row.llm_calls])

    payload = {
        "configuration": report.configuration,
        "set_name": report.set_name,
        "k": report.k,
        "summary": [_summary_record(s) for s in summaries],
        "rows": [{
            "iteration": r.iteration, "program": r.program_id,
            "category": r.category.value, "outcome": r.outcome,
            "fg_used": r.fg_used, "correct": r.correct,
            "cycles": r.cycles, "llm_calls": r.llm_calls,
            "wall_time_s": round(r.wall_time_s, 6),
        } for r in report.rows],
    }
    report_json.write_text(json.dumps(payload, indent=2) + "\n",
                           encoding="utf-8")
    return {"report_csv": report_csv, "detail_csv": detail_csv,
            "report_json": report_json}
