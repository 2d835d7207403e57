"""The guidance loop: outcome paths, trace recording, trace legality, and
transcript replay."""
from __future__ import annotations

import pytest

from fuzzfeed.fuzzing import (
    EMPTY_INPUT, FuzzBudget, FuzzInput, default_config, paper_faithful_config,
)
from fuzzfeed.llm import (
    PromptKind, RecordingProvider, ReplayProvider, ScriptedProvider,
)
from fuzzfeed.minilang import parse
from fuzzfeed.orchestrator import (
    Accepted, CandidateReceived, CycleCompleted, ExhaustedBudget, FgConfig,
    FuzzBlind, Malformed, PromptSent, RepairTriggered, TerminalOutcome,
    ValidityVerdict, WeaknessVerdict, fg_generate, outcome_candidate,
    outcome_name, read_trace_events, replay_run, trace_to_lines,
    validate_trace, write_trace, zero_shot,
)

from conftest import (
    LENGTH_ONLY_WP, REGRESSED_WP, STRONG_WP, WEAKEST_WP, scripted_responses,
)

BUDGET = FuzzBudget.trials_only(20_000)


def fg_config(seed=7, **kwargs) -> FgConfig:
    kwargs.setdefault("fuzz_budget", BUDGET)
    kwargs.setdefault("generator", default_config(seed=seed))
    return FgConfig(**kwargs)


@pytest.fixture()
def worked_example_provider(sorting_copy):
    return ScriptedProvider(scripted_responses(
        sorting_copy.program_source,
        LENGTH_ONLY_WP, STRONG_WP, REGRESSED_WP, WEAKEST_WP))


@pytest.mark.parametrize("caps", [{"max_cycles": 0},
                                  {"max_validity_iterations": 0},
                                  {"max_cycles": -1}])
def test_config_rejects_caps_below_one(caps):
    with pytest.raises(ValueError):
        FgConfig(**caps)


# --- the worked example ---

def test_guided_run_accepts_after_two_cycles(sorting_copy_ast,
                                             worked_example_provider):
    outcome = fg_generate(sorting_copy_ast, worked_example_provider, fg_config(),
                          program_id="sorting_copy")
    assert isinstance(outcome, Accepted)
    trace = outcome.trace
    assert trace.cycles_used == 2
    assert trace.llm_calls == 4
    repairs = [e.kind for e in trace.events if isinstance(e, RepairTriggered)]
    assert repairs.count(PromptKind.REPAIR_VALIDITY) == 2
    assert repairs.count(PromptKind.REPAIR_WEAKNESS) == 1
    assert len(repairs) == 3
    assert trace.fg_used
    # The accepted candidate dropped the spurious c clause.
    assert "len(c)" not in outcome.candidate.source
    assert "a[i] > a[i + 1]" in outcome.candidate.source


def test_trace_event_order_of_guided_run(sorting_copy_ast,
                                         worked_example_provider):
    outcome = fg_generate(sorting_copy_ast, worked_example_provider, fg_config(),
                          program_id="sorting_copy")
    kinds = [type(e).__name__ for e in outcome.trace.events]
    assert kinds == [
        "PromptSent", "CandidateReceived",            # initial guess
        "ValidityVerdict", "RepairTriggered",         # CE: b unsorted
        "PromptSent", "CandidateReceived",            # over-strong repair
        "ValidityVerdict", "WeaknessVerdict",         # pass, then CE: short c
        "RepairTriggered", "PromptSent", "CandidateReceived",
        "CycleCompleted",                             # regression candidate
        "ValidityVerdict", "RepairTriggered",         # CE: a unsorted
        "PromptSent", "CandidateReceived",            # weakest form
        "ValidityVerdict", "WeaknessVerdict",         # both pass
        "TerminalOutcome",
    ]
    assert validate_trace(outcome.trace.events) == []


def test_passing_candidate_draws_one_sample_per_cycle(sorting_copy_ast,
                                                      sorting_copy,
                                                      monkeypatch):
    # The validity pass answers weakness from its own draws: a candidate that
    # passes validity costs trial_limit draws per cycle, and its weakness
    # verdict carries the seed of that validity pass.
    import fuzzfeed.fuzzing as fuzzing

    draws = []
    draw_input = fuzzing.draw_input

    def counting(rng, config):
        draws.append(config.seed)
        return draw_input(rng, config)

    monkeypatch.setattr(fuzzing, "draw_input", counting)
    trial_limit = 500
    provider = ScriptedProvider(scripted_responses(
        sorting_copy.program_source, STRONG_WP, WEAKEST_WP))
    outcome = fg_generate(
        sorting_copy_ast, provider,
        fg_config(fuzz_budget=FuzzBudget.trials_only(trial_limit)),
        program_id="sorting_copy")
    assert isinstance(outcome, Accepted)
    events = outcome.trace.events
    validity = [e for e in events if isinstance(e, ValidityVerdict)]
    weakness = [e for e in events if isinstance(e, WeaknessVerdict)]
    assert [v.verdict for v in validity] == ["likely-pass", "likely-pass"]
    assert [w.verdict for w in weakness] == ["counterexample", "likely-pass"]
    assert [w.seed for w in weakness] == [v.seed for v in validity]
    assert draws == [v.seed for v in validity for _ in range(trial_limit)]
    assert validate_trace(events) == []


def test_repair_witnesses_match_phase(sorting_copy_ast, worked_example_provider):
    outcome = fg_generate(sorting_copy_ast, worked_example_provider, fg_config(),
                          program_id="sorting_copy")
    repairs = [e for e in outcome.trace.events
               if isinstance(e, RepairTriggered)]
    from fuzzfeed.fuzzing import Phase, replay_witness

    programs = [e for e in outcome.trace.events
                if isinstance(e, CandidateReceived)]
    # First repair: the length-only candidate admits an unsorted a.
    first = repairs[0]
    assert first.kind is PromptKind.REPAIR_VALIDITY
    combined = parse(sorting_copy_ast.source_text.rstrip() + "\n\n"
                     + programs[0].precondition_source)
    assert replay_witness(combined, first.witness, Phase.VALIDITY)


def test_zero_shot_single_prompt(sorting_copy_ast, sorting_copy):
    provider = ScriptedProvider(scripted_responses(
        sorting_copy.program_source, LENGTH_ONLY_WP))
    outcome = zero_shot(sorting_copy_ast, provider, program_id="p")
    assert isinstance(outcome, Accepted)
    assert outcome.trace.llm_calls == 1
    assert not outcome.trace.fg_used
    assert outcome.trace.cycles_used == 0
    assert validate_trace(outcome.trace.events) == []


def test_fg_disabled_falls_back_to_zero_shot(sorting_copy_ast, sorting_copy):
    provider = ScriptedProvider(scripted_responses(
        sorting_copy.program_source, LENGTH_ONLY_WP))
    outcome = fg_generate(sorting_copy_ast, provider,
                          fg_config(fg_enabled=False))
    assert isinstance(outcome, Accepted)
    assert outcome.trace.llm_calls == 1


# --- malformed paths ---

def test_malformed_after_retry(sorting_copy_ast):
    provider = ScriptedProvider(["gibberish", "more gibberish"])
    outcome = fg_generate(sorting_copy_ast, provider, fg_config())
    assert isinstance(outcome, Malformed)
    assert outcome.trace.llm_calls == 2
    prompts = [e for e in outcome.trace.events if isinstance(e, PromptSent)]
    assert [p.retry for p in prompts] == [False, True]
    assert "unparsable" in outcome.reason
    assert outcome_candidate(outcome) is None
    assert validate_trace(outcome.trace.events) == []


def test_format_reminder_retry_recovers(sorting_copy_ast, sorting_copy):
    good = scripted_responses(sorting_copy.program_source, WEAKEST_WP)[0]
    provider = ScriptedProvider(["gibberish", good])
    outcome = fg_generate(sorting_copy_ast, provider, fg_config())
    assert isinstance(outcome, Accepted)
    assert outcome.trace.llm_calls == 2


def test_malformed_mid_run(sorting_copy_ast, sorting_copy):
    # Initial candidate is invalid; both repair responses are garbage.
    responses = scripted_responses(sorting_copy.program_source,
                                   LENGTH_ONLY_WP)
    provider = ScriptedProvider(responses + ["junk", "junk"])
    outcome = fg_generate(sorting_copy_ast, provider, fg_config())
    assert isinstance(outcome, Malformed)
    assert outcome.trace.llm_calls == 3
    assert validate_trace(outcome.trace.events) == []


def test_provider_exhaustion_is_malformed(sorting_copy_ast, sorting_copy):
    provider = ScriptedProvider(scripted_responses(
        sorting_copy.program_source, LENGTH_ONLY_WP))
    outcome = fg_generate(sorting_copy_ast, provider, fg_config())
    assert isinstance(outcome, Malformed)
    assert "provider failure" in outcome.reason
    assert validate_trace(outcome.trace.events) == []


# --- budget exhaustion ---

def test_exhausted_when_candidate_never_improves(sorting_copy_ast,
                                                 sorting_copy):
    # The provider repeats the same invalid candidate forever.
    bad = scripted_responses(sorting_copy.program_source, LENGTH_ONLY_WP,
                             fence=())[0]
    provider = ScriptedProvider([bad] * 40)
    config = fg_config(max_validity_iterations=3, max_cycles=2)
    outcome = fg_generate(sorting_copy_ast, provider, config)
    assert isinstance(outcome, ExhaustedBudget)
    # 1 initial + 2 repairs in the single cycle (no repair after the
    # final failed attempt).
    assert outcome.trace.llm_calls == 3
    assert outcome.trace.cycles_used == 1
    assert outcome.best_candidate is not None
    verdicts = [e for e in outcome.trace.events
                if isinstance(e, ValidityVerdict)]
    assert len(verdicts) == 3
    assert all(v.verdict == "counterexample" for v in verdicts)
    assert validate_trace(outcome.trace.events,
                          max_validity_iterations=3, max_cycles=2) == []


def test_exhausted_after_max_cycles(sorting_copy_ast, sorting_copy):
    # Always valid but too strong: every cycle ends in a weakness CE.
    strong = scripted_responses(sorting_copy.program_source, STRONG_WP,
                                fence=())[0]
    provider = ScriptedProvider([strong] * 10)
    config = fg_config(max_cycles=2)
    outcome = fg_generate(sorting_copy_ast, provider, config)
    assert isinstance(outcome, ExhaustedBudget)
    assert outcome.trace.cycles_used == 2
    # Initial + one weakness repair.  The final cycle's weakness CE does
    # not trigger a repair because no cycle remains to use it.
    assert outcome.trace.llm_calls == 2
    weakness = [e for e in outcome.trace.events
                if isinstance(e, WeaknessVerdict)]
    assert len(weakness) == 2
    assert all(w.verdict == "counterexample" for w in weakness)
    assert outcome.best_candidate is not None
    assert validate_trace(outcome.trace.events, max_cycles=2) == []


# --- fuzz-blind ---

@pytest.fixture()
def value_swap(builtin_set):
    return builtin_set.by_id("existential_value_swap")


def test_vacuous_validity_is_diagnostic_by_default(value_swap):
    provider = ScriptedProvider(scripted_responses(
        value_swap.program_source, value_swap.truth_source, fence=()))
    config = fg_config(generator=paper_faithful_config(seed=7),
                       fuzz_budget=FuzzBudget.trials_only(2000))
    outcome = fg_generate(parse(value_swap.program_source), provider, config,
                          program_id=value_swap.id)
    assert isinstance(outcome, Accepted)
    verdicts = [e for e in outcome.trace.events
                if isinstance(e, ValidityVerdict)]
    assert verdicts[0].vacuous
    assert verdicts[0].satisfied == 0
    assert validate_trace(outcome.trace.events) == []


def test_strict_mode_promotes_fuzz_blind(value_swap):
    provider = ScriptedProvider(scripted_responses(
        value_swap.program_source, value_swap.truth_source, fence=()))
    config = fg_config(generator=paper_faithful_config(seed=7),
                       fuzz_budget=FuzzBudget.trials_only(2000),
                       strict_fuzz_blind=True)
    outcome = fg_generate(parse(value_swap.program_source), provider, config,
                          program_id=value_swap.id)
    assert isinstance(outcome, FuzzBlind)
    assert outcome_name(outcome) == "fuzz-blind"
    assert outcome_candidate(outcome) is not None
    assert validate_trace(outcome.trace.events) == []


# --- trace round trip ---

def test_trace_round_trip(sorting_copy_ast, worked_example_provider, tmp_path):
    outcome = fg_generate(sorting_copy_ast, worked_example_provider, fg_config(),
                          program_id="sorting_copy")
    path = tmp_path / "run.trace.jsonl"
    write_trace(outcome.trace, path)
    events = read_trace_events(path)
    assert events == outcome.trace.events
    assert validate_trace(events) == []


def test_trace_lines_have_meta_events_exchanges(sorting_copy_ast,
                                                worked_example_provider):
    import json

    outcome = fg_generate(sorting_copy_ast, worked_example_provider, fg_config(),
                          program_id="sorting_copy")
    lines = [json.loads(l) for l in trace_to_lines(outcome.trace)]
    assert lines[0]["kind"] == "run-meta"
    assert lines[0]["program_id"] == "sorting_copy"
    assert lines[0]["seed"] == 7
    assert lines[0]["llm_calls"] == 4
    kinds = {l["kind"] for l in lines}
    assert kinds == {"run-meta", "event", "exchange"}
    exchanges = [l for l in lines if l["kind"] == "exchange"]
    assert len(exchanges) == 4
    assert all("prompt_hash" in e and "response" in e for e in exchanges)


def test_trace_is_a_usable_transcript(sorting_copy_ast, worked_example_provider,
                                      tmp_path):
    # A written trace doubles as a replay transcript for the same run.
    outcome = fg_generate(sorting_copy_ast, worked_example_provider, fg_config(),
                          program_id="sorting_copy")
    path = tmp_path / "run.trace.jsonl"
    write_trace(outcome.trace, path)
    report = replay_run(sorting_copy_ast, path, fg_config(),
                        program_id="sorting_copy")
    assert isinstance(report.outcome, Accepted)
    assert report.divergences == []
    assert report.outcome.candidate.source == outcome.candidate.source


def test_replay_collects_divergence_on_changed_seed(sorting_copy_ast,
                                                    worked_example_provider,
                                                    tmp_path):
    outcome = fg_generate(sorting_copy_ast, worked_example_provider, fg_config(),
                          program_id="sorting_copy")
    path = tmp_path / "run.trace.jsonl"
    write_trace(outcome.trace, path)
    # A different seed changes the repair witnesses, hence the prompts.
    report = replay_run(sorting_copy_ast, path, fg_config(seed=8),
                        program_id="sorting_copy")
    assert report.divergences != []


# --- trace legality: rejection cases ---

def ok_validity(cycle=1, iteration=1, verdict="likely-pass", witness=None,
                vacuous=False):
    return ValidityVerdict(cycle=cycle, iteration=iteration, verdict=verdict,
                           trials=10, satisfied=0 if vacuous else 5,
                           step_limited=0, precond_faults=0, seed=1,
                           vacuous=vacuous, witness=witness)


def ok_weakness(cycle=1, verdict="likely-pass", witness=None):
    return WeaknessVerdict(cycle=cycle, verdict=verdict, trials=10,
                           satisfied=5, step_limited=0, precond_faults=0,
                           seed=1, witness=witness)


def prompt(kind=PromptKind.INITIAL_WP, cycle=0, retry=False):
    return PromptSent(kind, cycle, "h" * 64, retry=retry)


def candidate(cycle=0):
    return CandidateReceived(cycle, "bool precondition...", "")


W = FuzzInput((1,), (), ())


def accepted_trace():
    return [
        prompt(), candidate(),
        ok_validity(), ok_weakness(),
        TerminalOutcome("accepted", 1, 1, False),
    ]


def test_validator_accepts_minimal_accepted_trace():
    assert validate_trace(accepted_trace()) == []


def test_validator_rejects_weakness_before_validity_pass():
    events = [
        prompt(), candidate(),
        ok_weakness(),
        TerminalOutcome("accepted", 1, 1, False),
    ]
    problems = validate_trace(events)
    assert any("weakness" in p for p in problems)


def test_validator_rejects_weakness_after_validity_counterexample():
    events = [
        prompt(), candidate(),
        ok_validity(verdict="counterexample", witness=W),
        ok_weakness(),
        TerminalOutcome("accepted", 1, 2, True),
    ]
    assert validate_trace(events) != []


def test_validator_rejects_too_many_validity_attempts():
    events = [prompt(), candidate()]
    for i in range(4):
        events.append(ok_validity(iteration=i + 1, verdict="counterexample",
                                  witness=W))
        if i < 3:
            events.append(RepairTriggered(PromptKind.REPAIR_VALIDITY, 1, W))
            events.append(prompt(PromptKind.REPAIR_VALIDITY, 1))
            events.append(candidate(1))
    events.append(TerminalOutcome("exhausted-budget", 1, 4, True))
    problems = validate_trace(events, max_validity_iterations=3)
    assert any("more than 3 validity attempts" in p
               or "repair after the final attempt" in p for p in problems)
    # The same trace is fine at the default cap.
    assert validate_trace(events, max_validity_iterations=10) == []


def test_validator_rejects_repair_after_final_attempt():
    events = [prompt(), candidate()]
    for i in range(2):
        events.append(ok_validity(iteration=i + 1, verdict="counterexample",
                                  witness=W))
        events.append(RepairTriggered(PromptKind.REPAIR_VALIDITY, 1, W))
        events.append(prompt(PromptKind.REPAIR_VALIDITY, 1))
        events.append(candidate(1))
    events.append(TerminalOutcome("exhausted-budget", 1, 3, True))
    problems = validate_trace(events, max_validity_iterations=2)
    assert any("repair after the final attempt" in p for p in problems)


def test_validator_rejects_events_after_terminal():
    events = accepted_trace() + [ok_weakness()]
    problems = validate_trace(events)
    assert any("not the last event" in p for p in problems)


def test_validator_rejects_accepted_without_weakness_pass():
    events = [
        prompt(), candidate(),
        ok_validity(),
        TerminalOutcome("accepted", 1, 1, False),
    ]
    problems = validate_trace(events)
    assert any("accepted" in p for p in problems)


def test_validator_rejects_unfuzzed_repair_candidate():
    events = [
        prompt(), candidate(),
        ok_validity(verdict="counterexample", witness=W),
        RepairTriggered(PromptKind.REPAIR_VALIDITY, 1, W),
        prompt(PromptKind.REPAIR_VALIDITY, 1), candidate(1),
        TerminalOutcome("accepted", 1, 2, True),
    ]
    problems = validate_trace(events)
    assert any("must be fuzzed" in p for p in problems)


def test_validator_rejects_fuzz_blind_without_vacuous_pass():
    events = [
        prompt(), candidate(),
        ok_validity(),  # pass, but not vacuous
        TerminalOutcome("fuzz-blind", 1, 1, False),
    ]
    problems = validate_trace(events)
    assert any("fuzz-blind" in p for p in problems)


def test_validator_accepts_fuzz_blind_after_vacuous_pass():
    events = [
        prompt(), candidate(),
        ok_validity(vacuous=True),
        TerminalOutcome("fuzz-blind", 1, 1, False),
    ]
    assert validate_trace(events) == []


def test_validator_rejects_missing_terminal():
    events = [prompt(), candidate(), ok_validity()]
    problems = validate_trace(events)
    assert problems != []


def test_validator_rejects_wrong_repair_kind():
    events = [
        prompt(), candidate(),
        ok_validity(), ok_weakness(verdict="counterexample", witness=W),
        RepairTriggered(PromptKind.REPAIR_VALIDITY, 1, W),
        prompt(PromptKind.REPAIR_VALIDITY, 1), candidate(1),
        TerminalOutcome("exhausted-budget", 1, 2, True),
    ]
    problems = validate_trace(events)
    assert any("weakness repair" in p for p in problems)


def test_validator_rejects_more_cycles_than_allowed():
    events = [prompt(), candidate()]
    for cycle in (1, 2):
        events.append(ok_validity(cycle=cycle))
        events.append(ok_weakness(cycle=cycle, verdict="counterexample",
                                  witness=W))
        events.append(RepairTriggered(PromptKind.REPAIR_WEAKNESS, cycle, W))
        events.append(prompt(PromptKind.REPAIR_WEAKNESS, cycle))
        events.append(candidate(cycle))
        events.append(CycleCompleted(cycle))
    events.append(ok_validity(cycle=3))
    events.append(ok_weakness(cycle=3))
    events.append(TerminalOutcome("accepted", 3, 3, True))
    assert validate_trace(events, max_cycles=3) == []
    problems = validate_trace(events, max_cycles=2)
    assert any("more than 2 cycles" in p for p in problems)


# --- recorded transcripts of real runs ---

def test_recorded_run_replays_identically(sorting_copy_ast, sorting_copy,
                                          tmp_path):
    path = tmp_path / "recorded.jsonl"
    inner = ScriptedProvider(scripted_responses(
        sorting_copy.program_source,
        LENGTH_ONLY_WP, STRONG_WP, REGRESSED_WP, WEAKEST_WP))
    recorder = RecordingProvider(inner, path)
    first = fg_generate(sorting_copy_ast, recorder, fg_config(),
                        program_id="sorting_copy")
    assert isinstance(first, Accepted)

    replayed = fg_generate(sorting_copy_ast, ReplayProvider(path, strict=True),
                           fg_config(), program_id="sorting_copy")
    assert isinstance(replayed, Accepted)
    assert replayed.candidate.source == first.candidate.source
    assert replayed.trace.events == first.trace.events
