"""Golden step accounting: one step per executed statement and per
loop-condition check, pinned exactly.

tests/data/step_golden.json was recorded with the closure-tree interpreter
(tools/build_step_golden.py). For each program, function and input it holds
the smallest step limit at which the run does not end in StepLimitExceeded
and the outcome it has there; one step less must run out of steps. The table
is checked once as run_function runs it, and once with a probe of 0 steps,
so that every run goes through the cycle-checking variant."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from fuzzfeed.fuzzing import FuzzInput
from fuzzfeed.minilang import (
    DEFAULT_STEP_LIMIT, Failure, StepLimitExceeded, Success, parse,
    run_function, typecheck,
)
from fuzzfeed.minilang import interp

TABLE = json.loads((Path(__file__).parent / "data" / "step_golden.json")
                   .read_text(encoding="utf-8"))


def outcome_code(outcome) -> str:
    if type(outcome) is Success:
        assert type(outcome.value) is int, outcome
        return f"ok:{outcome.value}"
    if type(outcome) is Failure:
        return f"fail:{outcome.kind.value}"
    return f"steps:{outcome.steps_used}"


def test_table_covers_the_corpus_and_every_outcome():
    labels = {row["label"] for row in TABLE}
    assert sum(label.startswith("corpus/") for label in labels) == 18
    codes = {code for row in TABLE for runs in row["runs"].values()
             for _, code in runs}
    assert {"ok:0", "ok:1", "fail:explicit-throw", "fail:index-out-of-bounds",
            "fail:division-by-zero"} <= codes


def recorded_runs(row):
    """(program, function name, input, steps, outcome code) of each run."""
    program = parse(row["source"])
    typecheck(program)
    inputs = [FuzzInput(tuple(a), tuple(b), tuple(c))
              for a, b, c in row["inputs"]]
    for name, runs in row["runs"].items():
        for inp, (steps, code) in zip(inputs, runs):
            yield program, name, inp, steps, code


def check_step_accounting(row):
    for program, name, inp, steps, code in recorded_runs(row):
        assert outcome_code(run_function(program, name, inp, steps)) == code, \
            (name, inp, steps)
        short = run_function(program, name, inp, steps - 1)
        assert short == StepLimitExceeded(steps - 1), (name, inp, steps)


@pytest.mark.parametrize("row", TABLE, ids=[row["label"] for row in TABLE])
def test_step_accounting_matches_recorded_table(row):
    check_step_accounting(row)


@pytest.mark.parametrize("row", TABLE, ids=[row["label"] for row in TABLE])
def test_cycle_checked_step_accounting_matches_recorded_table(row,
                                                              monkeypatch):
    monkeypatch.setattr(interp, "_PROBE", 0)
    check_step_accounting(row)


@pytest.mark.parametrize("row", TABLE, ids=[row["label"] for row in TABLE])
def test_recorded_outcome_at_default_step_limit(row):
    for program, name, inp, steps, code in recorded_runs(row):
        outcome = run_function(program, name, inp, DEFAULT_STEP_LIMIT)
        assert outcome_code(outcome) == code, (name, inp)
