"""End-to-end acceptance gates for the whole toolchain.

Each test exercises one release criterion and prints a single PASS/FAIL
line (written to the real stdout so it stays visible under capture).
"""
from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from fuzzfeed.cli import main as cli_main
from fuzzfeed.corpus import drop_first_conjunct, load_corpus
from fuzzfeed.evaluation import (
    LikelyEquivalent, check_equivalence, emit_report,
)
from fuzzfeed.fuzzing import (
    Counterexample, ExhaustiveCounterexample, FuzzBudget, Phase,
    default_config, derive_seed, exhaustive_check, replay_witness,
    tiny_domain_config, validity_fuzz, weakness_fuzz,
)
from fuzzfeed.llm import PromptKind, ReplayProvider, candidate_from_program
from fuzzfeed.minilang import parse, to_source
from fuzzfeed.orchestrator import (
    Accepted, CandidateReceived, FgConfig, PromptSent, RepairTriggered,
    TerminalOutcome, ValidityVerdict, WeaknessVerdict, fg_generate,
    read_trace_events, validate_trace,
)

from conftest import CORPUS_DIR, FIXTURES_DIR, table_style_report

WORKED_EXAMPLE_TRANSCRIPT = FIXTURES_DIR / "worked_example.jsonl"
ZERO_SHOT_TRANSCRIPT = FIXTURES_DIR / "zero_shot.jsonl"
BENCH_TRANSCRIPT = FIXTURES_DIR / "bench.jsonl"

TRIVIALLY_TRUE = ("bool precondition(int[] a, int[] b, int[] c) {\n"
                  "    return true;\n}\n")
TRIVIALLY_FALSE = ("bool precondition(int[] a, int[] b, int[] c) {\n"
                   "    return false;\n}\n")


@pytest.fixture()
def announce(capsys):
    """One visible PASS/FAIL line per criterion, bypassing output capture."""
    def _announce(number: int, name: str, problems: list[str],
                  detail: str = ""):
        status = "PASS" if not problems else "FAIL"
        suffix = f" ({detail})" if detail and not problems else ""
        if problems:
            suffix = f" ({problems[0]})"
        with capsys.disabled():
            print(f"\n[acceptance {number}/9] {name}: {status}{suffix}",
                  flush=True)
        assert not problems, "; ".join(problems)
    return _announce


def attach(program_source: str, precondition_source: str):
    return parse(program_source.rstrip() + "\n\n" + precondition_source)


def repair_kinds(events) -> list[PromptKind]:
    return [e.kind for e in events if isinstance(e, RepairTriggered)]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def corpus():
    return load_corpus(CORPUS_DIR)


@pytest.fixture(scope="module")
def worked_example_runs(workdir):
    """Replay the recorded worked-example transcript through the CLI twice:
    once at default budgets and once at the recorded trial-only budget."""
    program_file = CORPUS_DIR / "sorting_copy.mini"
    runs = {}
    for label, extra in (
            ("default", []),
            ("budgeted", ["--fuzz-seconds", "0", "--fuzz-trials", "20000"])):
        out_dir = workdir / f"worked_{label}"
        start = time.perf_counter()
        code = cli_main(["generate", str(program_file),
                         "--provider", f"replay:{WORKED_EXAMPLE_TRANSCRIPT}",
                         "--seed", "7", "--out", str(out_dir)] + extra)
        runs[label] = {
            "exit": code,
            "seconds": time.perf_counter() - start,
            "trace": out_dir / "sorting_copy.trace.jsonl",
            "candidate": out_dir / "sorting_copy.candidate.mini",
        }
    return runs


@pytest.fixture(scope="module")
def fuzz_blind_run(workdir, corpus):
    """Generate against the value-swap program whose truth WP is satisfied
    only by a needle-in-a-haystack input, with the unbiased generator."""
    program = corpus.by_id("existential_value_swap")
    program_file = workdir / "existential_value_swap.mini"
    program_file.write_text(program.program_source)
    script = workdir / "value_swap_responses.jsonl"
    response = (program.program_source.rstrip() + "\n\n"
                + program.truth_source)
    script.write_text(json.dumps({"response": response}) + "\n")
    out_dir = workdir / "fuzz_blind"
    code = cli_main(["generate", str(program_file),
                     "--provider", f"scripted:{script}",
                     "--seed", "7", "--paper-faithful",
                     "--fuzz-seconds", "0", "--fuzz-trials", "2000",
                     "--out", str(out_dir)])
    return {"exit": code,
            "trace": out_dir / "existential_value_swap.trace.jsonl"}


@pytest.fixture(scope="module")
def bench_runs(workdir):
    """Two identical benchmark replays of the recorded corpus transcript."""
    runs = []
    for label in ("first", "second"):
        out_dir = workdir / f"bench_{label}"
        code = cli_main(["bench", str(CORPUS_DIR), "-k", "5",
                         "--provider", f"replay:{BENCH_TRANSCRIPT}",
                         "--seed", "7",
                         "--fuzz-seconds", "0", "--fuzz-trials", "4000",
                         "--out", str(out_dir)])
        runs.append({"exit": code,
                     "report": out_dir / "report.csv",
                     "detail": out_dir / "detail.csv"})
    return runs


def test_worked_example_replay(worked_example_runs, corpus, announce):
    problems = []
    for label, bound in (("default", 60.0), ("budgeted", 5.0)):
        run = worked_example_runs[label]
        if run["exit"] != 0:
            problems.append(f"{label} run exited {run['exit']}")
            continue
        if run["seconds"] >= bound:
            problems.append(f"{label} run took {run['seconds']:.1f}s "
                            f"(bound {bound:g}s)")
        events = read_trace_events(run["trace"])
        terminal = events[-1]
        if not (isinstance(terminal, TerminalOutcome)
                and terminal.outcome == "accepted"):
            problems.append(f"{label} run did not end accepted")
        if terminal.cycles_used != 2:
            problems.append(f"{label} run used {terminal.cycles_used} cycles")
        kinds = repair_kinds(events)
        if kinds.count(PromptKind.REPAIR_VALIDITY) != 2 \
                or kinds.count(PromptKind.REPAIR_WEAKNESS) != 1:
            problems.append(f"{label} run repairs were "
                            f"{[k.value for k in kinds]}")

    candidate_source = worked_example_runs["budgeted"]["candidate"].read_text()
    candidate = candidate_from_program(parse(candidate_source))
    verdict = check_equivalence(candidate, corpus.by_id("sorting_copy"),
                                FuzzBudget.trials_only(20_000),
                                default_config(seed=3))
    if not isinstance(verdict, LikelyEquivalent):
        problems.append(f"final candidate not equivalent to truth: {verdict}")

    announce(1, "worked-example replay", problems,
             f"accepted twice, 2 cycles, 2+1 repairs, "
             f"default {worked_example_runs['default']['seconds']:.1f}s, "
             f"budgeted {worked_example_runs['budgeted']['seconds']:.1f}s, "
             f"equivalent to truth")


def test_witness_soundness(corpus, announce):
    budget = FuzzBudget.trials_only(400)
    pairs = 0
    counterexamples = 0
    problems = []
    for program in corpus:
        weakened = drop_first_conjunct(program.truth_function())
        mutants = {
            "always-true": TRIVIALLY_TRUE,
            "always-false": TRIVIALLY_FALSE,
            "dropped-conjunct": to_source(weakened),
        }
        for mutant_name, precondition in mutants.items():
            ast = attach(program.program_source, precondition)
            for phase, fuzz in ((Phase.VALIDITY, validity_fuzz),
                                (Phase.WEAKNESS, weakness_fuzz)):
                for round_ in range(10):
                    seed = derive_seed(42, program.id, mutant_name,
                                       phase.value, round_)
                    verdict = fuzz(ast, budget, default_config(seed=seed))
                    pairs += 1
                    if isinstance(verdict, Counterexample):
                        counterexamples += 1
                        if not replay_witness(ast, verdict.witness, phase):
                            problems.append(
                                f"{program.id}/{mutant_name}/{phase.value}"
                                f"@{round_}: witness does not replay")
    if pairs < 1000:
        problems.append(f"only {pairs} randomized pairs")
    if counterexamples < 200:
        problems.append(f"only {counterexamples} counterexamples exercised")
    announce(2, "witness soundness", problems,
             f"{counterexamples} counterexamples across {pairs} fuzz runs, "
             f"all replay")


def test_fuzz_agrees_with_exhaustive_oracle(corpus, announce):
    budget = FuzzBudget.trials_only(100_000)
    tiny_values = (-1, 0, 1)
    start = time.perf_counter()
    problems = []
    comparisons = 0
    for program in corpus:
        weakened = drop_first_conjunct(program.truth_function())
        candidates = {
            "truth": program.truth_source,
            "always-true": TRIVIALLY_TRUE,
            "always-false": TRIVIALLY_FALSE,
            "dropped-conjunct": to_source(weakened),
        }
        for name, precondition in candidates.items():
            ast = attach(program.program_source, precondition)
            for phase, fuzz in ((Phase.VALIDITY, validity_fuzz),
                                (Phase.WEAKNESS, weakness_fuzz)):
                comparisons += 1
                fuzzed = fuzz(ast, budget, tiny_domain_config(seed=3))
                exhausted = exhaustive_check(ast, 2, tiny_values, phase)
                fuzz_found = isinstance(fuzzed, Counterexample)
                oracle_found = isinstance(exhausted, ExhaustiveCounterexample)
                if fuzz_found != oracle_found:
                    problems.append(
                        f"{program.id}/{name}/{phase.value}: fuzz said "
                        f"{type(fuzzed).__name__}, oracle said "
                        f"{type(exhausted).__name__}")
    elapsed = time.perf_counter() - start
    if elapsed >= 600:
        problems.append(f"took {elapsed:.0f}s (bound 600s)")
    announce(3, "fuzz/exhaustive oracle agreement", problems,
             f"{comparisons} verdict pairs agree in {elapsed:.0f}s")


def test_overflow_is_caught(corpus, announce):
    program = corpus.by_id("universal_wrap_nonneg")
    budget = FuzzBudget.trials_only(100_000)
    config = default_config(seed=13)
    problems = []

    # Correct over the integers, wrong under 32-bit wrap-around: doubling
    # a large positive element flips the sign.
    unaware = ("bool precondition(int[] a, int[] b, int[] c) {\n"
               "    for (int i = 0; i < len(a); i = i + 1) {\n"
               "        if (a[i] < 0) {\n"
               "            return false;\n"
               "        }\n"
               "    }\n"
               "    return true;\n"
               "}\n")
    ast = attach(program.program_source, unaware)
    verdict = validity_fuzz(ast, budget, config)
    if not isinstance(verdict, Counterexample):
        problems.append("wrap-unaware candidate was not refuted")
    else:
        if not replay_witness(ast, verdict.witness, Phase.VALIDITY):
            problems.append("overflow witness does not replay")
        if not any(v >= 2**30 for v in verdict.witness.a):
            problems.append(f"witness {verdict.witness.a} does not force "
                            "wrap-around")

    truth_ast = program.with_truth()
    truth_verdict = validity_fuzz(truth_ast, budget, config)
    if isinstance(truth_verdict, Counterexample):
        problems.append("wrap-aware truth WP was falsely refuted")

    detail = ""
    if not problems:
        detail = (f"refuted in {verdict.trials} trials with "
                  f"a={list(verdict.witness.a)}; truth passes "
                  f"{truth_verdict.trials} trials")
    announce(4, "wrap-around overflow regression", problems, detail)


def test_sparse_precondition_is_flagged_vacuous(fuzz_blind_run, announce):
    problems = []
    if fuzz_blind_run["exit"] != 0:
        problems.append(f"run exited {fuzz_blind_run['exit']}")
    events = read_trace_events(fuzz_blind_run["trace"])
    validity = [e for e in events if isinstance(e, ValidityVerdict)]
    if not validity:
        problems.append("no validity phase recorded")
    else:
        first = validity[0]
        if first.trials < 1000:
            problems.append(f"only {first.trials} trials")
        if first.satisfied != 0:
            problems.append(f"{first.satisfied} inputs satisfied the "
                            "candidate; phase is not blind")
        if not first.vacuous:
            problems.append("phase not marked vacuous")
    detail = ""
    if not problems:
        detail = (f"{validity[0].trials} trials, 0 satisfying inputs, "
                  f"vacuous flag set")
    announce(5, "blind fuzzing detected as vacuous", problems, detail)


def test_benchmark_replay_is_deterministic(bench_runs, announce):
    problems = []
    for i, run in enumerate(bench_runs):
        if run["exit"] != 0:
            problems.append(f"run {i + 1} exited {run['exit']}")
    report_a = bench_runs[0]["report"].read_bytes()
    report_b = bench_runs[1]["report"].read_bytes()
    detail_a = bench_runs[0]["detail"].read_bytes()
    detail_b = bench_runs[1]["detail"].read_bytes()
    if report_a != report_b:
        problems.append("report.csv differs between identical runs")
    if detail_a != detail_b:
        problems.append("detail.csv differs between identical runs")
    announce(6, "benchmark determinism", problems,
             f"byte-identical: report.csv {len(report_a)} B, "
             f"detail.csv {len(detail_a)} B")


def test_summary_table_arithmetic(workdir, announce):
    problems = []
    paths = emit_report(table_style_report(), workdir / "table")
    lines = paths["report_csv"].read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    got = {row[1]: row[6] for row in rows}
    expected = {"Existential": "83.00", "Universal": "91.67",
                "Sorting": "67.50", "Search": "96.67"}
    for benchmark, pct in expected.items():
        if got.get(benchmark) != pct:
            problems.append(f"{benchmark}: expected {pct}, "
                            f"got {got.get(benchmark)}")
    announce(7, "summary-table arithmetic", problems,
             "avg% = 83.00 / 91.67 / 67.50 / 96.67")


def test_corpus_gate(capsys, announce):
    code = cli_main(["corpus-validate", str(CORPUS_DIR), "--seed", "11",
                     "--fuzz-seconds", "0", "--fuzz-trials", "5000"])
    out = capsys.readouterr().out
    problems = []
    if code != 0:
        problems.append(f"exit {code}: {out.strip().splitlines()[-1]}")
    announce(8, "ground-truth corpus gate", problems,
             "18 programs, no findings")


def test_trace_legality(worked_example_runs, fuzz_blind_run, bench_runs,
                        workdir, corpus, announce):
    problems = []
    validated = 0

    # Every trace produced by the earlier criteria must validate.
    trace_paths = [worked_example_runs["default"]["trace"],
                   worked_example_runs["budgeted"]["trace"],
                   fuzz_blind_run["trace"]]

    # The zero-shot transcript replayed through the CLI.
    out_dir = workdir / "zero_shot"
    code = cli_main(["generate", str(CORPUS_DIR / "sorting_copy.mini"),
                     "--provider", f"replay:{ZERO_SHOT_TRANSCRIPT}",
                     "--no-fg", "--seed", "7", "--fuzz-seconds", "0",
                     "--fuzz-trials", "2000", "--out", str(out_dir)])
    if code != 0:
        problems.append(f"zero-shot replay exited {code}")
    trace_paths.append(out_dir / "sorting_copy.trace.jsonl")

    for path in trace_paths:
        errors = validate_trace(read_trace_events(path))
        if errors:
            problems.append(f"{path.name}: {errors[0]}")
        validated += 1

    # Individual programs replayed from the recorded benchmark transcript,
    # including two whose first answer needed a validity repair.
    for program_id in ("sorting_copy", "universal_all_nonneg",
                       "search_key_present"):
        program = corpus.by_id(program_id)
        config = FgConfig(
            fuzz_budget=FuzzBudget.trials_only(4000),
            generator=default_config(
                seed=derive_seed(7, "bench", 1, program_id)))
        outcome = fg_generate(parse(program.program_source),
                              ReplayProvider(BENCH_TRANSCRIPT), config,
                              program_id=program_id)
        if not isinstance(outcome, Accepted):
            problems.append(f"bench replay of {program_id} not accepted")
        errors = validate_trace(outcome.trace.events)
        if errors:
            problems.append(f"bench {program_id}: {errors[0]}")
        validated += 1

    # Hand-constructed illegal traces must be rejected.
    def prompt(kind=PromptKind.INITIAL_WP, cycle=0):
        return PromptSent(kind, cycle, "0" * 64)

    def candidate(cycle=0):
        return CandidateReceived(cycle, "bool precondition...", "")

    from fuzzfeed.fuzzing import FuzzInput
    w = FuzzInput((1,), (), ())

    def verdict_v(iteration, kind="counterexample"):
        return ValidityVerdict(cycle=1, iteration=iteration, verdict=kind,
                               trials=5, satisfied=2, step_limited=0,
                               precond_faults=0, seed=1, vacuous=False,
                               witness=w if kind == "counterexample" else None)

    weakness_first = [
        prompt(), candidate(),
        WeaknessVerdict(cycle=1, verdict="likely-pass", trials=5, satisfied=2,
                        step_limited=0, precond_faults=0, seed=1,
                        witness=None),
        TerminalOutcome("accepted", 1, 1, False),
    ]
    if not validate_trace(weakness_first):
        problems.append("weakness-before-validity trace was accepted")

    too_many_repairs = [prompt(), candidate()]
    for i in range(1, 5):
        too_many_repairs.append(verdict_v(i))
        if i < 4:
            too_many_repairs.append(
                RepairTriggered(PromptKind.REPAIR_VALIDITY, 1, w))
            too_many_repairs.append(prompt(PromptKind.REPAIR_VALIDITY, 1))
            too_many_repairs.append(candidate(1))
    too_many_repairs.append(TerminalOutcome("exhausted-budget", 1, 4, True))
    if not validate_trace(too_many_repairs, max_validity_iterations=3):
        problems.append("over-budget validity repairs were accepted")

    announce(9, "trace legality", problems,
             f"{validated} produced traces valid; "
             f"2 illegal traces rejected")
