#!/usr/bin/env python3
"""Regenerate the recorded transcripts under fixtures/.

Each fixture is produced by running the real guidance loop against a
scripted provider and recording the exchanges, so the stored prompt hashes
stay consistent with the current prompt templates. Re-run after any prompt
or corpus change:

    python3 tools/build_fixtures.py
"""
from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from fuzzfeed.corpus import drop_first_conjunct, load_corpus  # noqa: E402
from fuzzfeed.fuzzing import FuzzBudget, default_config  # noqa: E402
from fuzzfeed.llm import (  # noqa: E402
    ChatExchange, ChatRequest, RecordingProvider, ScriptedProvider,
)
from fuzzfeed.minilang import parse, to_source  # noqa: E402
from fuzzfeed.orchestrator import Accepted, FgConfig, fg_generate, zero_shot  # noqa: E402
from fuzzfeed.evaluation import run_benchmark  # noqa: E402

FIXTURES = REPO / "fixtures"
CORPUS = REPO / "corpus" / "builtin"

SEED = 7
TRIALS = 20_000
BENCH_TRIALS = 4_000
BENCH_K = 5

# The four candidate preconditions of the worked sorting example, in the
# order the model produced them: a length-only guess, a valid but
# over-strong repair, a regression that drops the sortedness clause, and
# the accepted weakest form.
INITIAL_GUESS = """\
// Precondition: 'a' and 'b' must have the same
// non-zero length,
// and 'c' should be at least of length 'a'.
bool precondition(int[] a, int[] b, int[] c) {
    return len(a) > 0 && len(a) == len(b) && len(c) >= len(a);
}
"""

STRONG_REPAIR = """\
// Precondition: 'a' and 'b' must have the same
// non-zero length,
// 'c' should be at least of length 'a',
// and 'a' must be sorted in non-decreasing order
// to ensure 'b' remains sorted.
bool precondition(int[] a, int[] b, int[] c) {
    if (len(a) == 0 || len(a) != len(b) || len(c) < len(a)) {
        return false;
    }
    for (int i = 0; i < len(a) - 1; i = i + 1) {
        if (a[i] > a[i + 1]) {
            return false;
        }
    }
    return true;
}
"""

REGRESSION = """\
// Precondition: 'a' and 'b' must have the same
// non-zero length,
// and 'c' must have a length that is
// irrelevant to the execution success of 'foo'.
// Additionally, 'a' naturally
// becomes sorted when it has identical elements.
bool precondition(int[] a, int[] b, int[] c) {
    return len(a) > 0 && len(a) == len(b);
}
"""

ACCEPTED_WP = """\
// Precondition: 'a' and 'b' must have the same
// non-zero length,
// and 'a' must be sorted in non-decreasing order,
// since 'b' is a direct clone of 'a' before
// sorting the clone.
bool precondition(int[] a, int[] b, int[] c) {
    if (len(a) == 0 || len(a) != len(b)) {
        return false;
    }
    for (int i = 0; i < len(a) - 1; i = i + 1) {
        if (a[i] > a[i + 1]) {
            return false;
        }
    }
    return true;
}
"""

# Bench programs that answer wrong first and correct on repair, to give the
# recorded benchmark some FG activity in every category.
REPAIRED_IN_BENCH = ("existential_find_100", "universal_all_nonneg",
                     "sorting_copy", "search_key_absent")


def worked_example_responses(program_source: str) -> list[str]:
    full = lambda pre: program_source.rstrip() + "\n\n" + pre
    return [
        "```\n" + full(INITIAL_GUESS) + "```",
        full(STRONG_REPAIR),
        full(REGRESSION),
        "```\n" + full(ACCEPTED_WP) + "\n```",
    ]


class PerProgramScript:
    """Scripted provider keyed by program id, cycling its response list."""

    def __init__(self, scripts: dict[str, list[str]]):
        self._scripts = {k: list(v) for k, v in scripts.items()}
        self._cursor = {k: 0 for k in scripts}

    def complete(self, messages, program_id: str = "",
                 prompt_kind: str = "") -> ChatExchange:
        script = self._scripts[program_id]
        i = self._cursor[program_id]
        self._cursor[program_id] = (i + 1) % len(script)
        return ChatExchange(
            request=ChatRequest(tuple(dict(m) for m in messages)),
            response_text=script[i], timestamp=0.0)


def build_worked_example(corpus) -> None:
    program = corpus.by_id("sorting_copy")
    ast = parse(program.program_source)
    responses = worked_example_responses(program.program_source)

    path = FIXTURES / "worked_example.jsonl"
    path.unlink(missing_ok=True)
    provider = RecordingProvider(ScriptedProvider(responses), path)
    config = FgConfig(fuzz_budget=FuzzBudget.trials_only(TRIALS),
                      generator=default_config(seed=SEED))
    outcome = fg_generate(ast, provider, config, program_id="sorting_copy")
    assert isinstance(outcome, Accepted), type(outcome).__name__
    assert outcome.trace.llm_calls == 4
    assert outcome.trace.cycles_used == 2
    print(f"worked_example.jsonl: {outcome.trace.llm_calls} exchanges, "
          f"{outcome.trace.cycles_used} cycles")

    path = FIXTURES / "zero_shot.jsonl"
    path.unlink(missing_ok=True)
    provider = RecordingProvider(ScriptedProvider(responses[:1]), path)
    outcome = zero_shot(ast, provider, config, program_id="sorting_copy")
    assert isinstance(outcome, Accepted)
    print("zero_shot.jsonl: 1 exchange")


def build_bench(corpus) -> None:
    scripts = {}
    for program in corpus:
        truth = program.program_source.rstrip() + "\n\n" + program.truth_source
        if program.id in REPAIRED_IN_BENCH:
            weak = drop_first_conjunct(program.truth_function())
            wrong = (program.program_source.rstrip() + "\n\n"
                     + to_source(weak))
            scripts[program.id] = [wrong, truth]
        else:
            scripts[program.id] = [truth]

    path = FIXTURES / "bench.jsonl"
    path.unlink(missing_ok=True)
    provider = RecordingProvider(PerProgramScript(scripts), path)
    config = FgConfig(fuzz_budget=FuzzBudget.trials_only(BENCH_TRIALS),
                      generator=default_config(seed=SEED))
    report = run_benchmark(corpus, provider, config, k=BENCH_K,
                           configuration="replay-FG")
    assert all(row.outcome == "accepted" for row in report.rows)
    repaired = {r.program_id for r in report.rows if r.fg_used}
    assert repaired == set(REPAIRED_IN_BENCH), repaired
    assert all(row.correct for row in report.rows)
    exchanges = sum(row.llm_calls for row in report.rows)
    print(f"bench.jsonl: {exchanges} exchanges over "
          f"{len(report.rows)} program-iterations")


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    corpus = load_corpus(CORPUS)
    build_worked_example(corpus)
    build_bench(corpus)


if __name__ == "__main__":
    main()
