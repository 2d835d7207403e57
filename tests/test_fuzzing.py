"""Fuzzing: deterministic generation, budget compliance, verdict soundness,
shrinking, vacuity detection, and the exhaustive small-domain oracle."""
from __future__ import annotations

import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from fuzzfeed.fuzzing import (
    Counterexample, DomainTooLarge, EMPTY_INPUT, ExhaustiveCounterexample,
    FuzzBudget, FuzzInput, GeneratorConfig, InputStream, LikelyPass,
    NoCounterexample, Phase, VACUOUS_MIN_TRIALS, _all_arrays, default_config,
    derive_seed, draw_input, exhaustive_check, is_vacuous_validity,
    paper_faithful_config, replay_witness, shrink, tiny_domain_config,
    tiny_inputs, validity_fuzz, weakness_fuzz,
)
from fuzzfeed.corpus import candidate_source_with, drop_first_conjunct
from fuzzfeed.minilang import (
    INT_MAX, INT_MIN, Failure, StepLimitExceeded, Success, parse, run_foo,
    run_precondition,
)

from conftest import LENGTH_ONLY_WP, STRONG_WP, with_precondition


def program(pre_body: str, foo_body: str = "return 0;"):
    return parse("int foo(int[] a, int[] b, int[] c) {\n" + foo_body + "\n}\n"
                 "bool precondition(int[] a, int[] b, int[] c) {\n"
                 + pre_body + "\n}")


# --- generation ---

def test_same_seed_same_stream():
    config = default_config(seed=99)
    first = [InputStream(config).draw() for _ in range(50)]
    second = [InputStream(config).draw() for _ in range(50)]
    assert first == second


def test_different_seeds_differ():
    a = [InputStream(default_config(seed=1)).draw() for _ in range(20)]
    b = [InputStream(default_config(seed=2)).draw() for _ in range(20)]
    assert a != b


def test_named_streams_are_independent():
    config = default_config(seed=5)
    plain = [InputStream(config).draw() for _ in range(10)]
    named = [InputStream(config, stream="x").draw() for _ in range(10)]
    assert plain != named


@settings(max_examples=20)
@given(st.integers(0, 2**63 - 1))
def test_draws_respect_max_len(seed):
    config = GeneratorConfig(max_len=5, seed=seed)
    stream = InputStream(config)
    for _ in range(40):
        inp = stream.draw()
        assert max(len(inp.a), len(inp.b), len(inp.c)) <= 5
        for v in inp.a + inp.b + inp.c:
            assert INT_MIN <= v <= INT_MAX


def test_max_len_zero_gives_empty_arrays():
    stream = InputStream(GeneratorConfig(max_len=0, seed=3))
    assert all(stream.draw() == EMPTY_INPUT for _ in range(10))


def test_dictionary_mode_draws_only_dictionary_values():
    config = GeneratorConfig(value_mode="dictionary", dictionary=(4, 7),
                             seed=11)
    stream = InputStream(config)
    values = set()
    for _ in range(100):
        inp = stream.draw()
        values.update(inp.a + inp.b + inp.c)
    assert values == {4, 7}


def test_structure_bias_produces_correlated_shapes():
    biased = GeneratorConfig(structure_bias=1.0, seed=21)
    stream = InputStream(biased)
    for _ in range(50):
        inp = stream.draw()
        assert len(inp.b) == len(inp.a)
        assert list(inp.a) == sorted(inp.a)


def test_paper_faithful_has_no_structure_bias():
    assert paper_faithful_config().structure_bias == 0.0
    assert default_config().structure_bias > 0.0


def test_derive_seed_stable_and_sensitive():
    assert derive_seed(7, "validity", 1, 2) == derive_seed(7, "validity", 1, 2)
    assert derive_seed(7, "validity", 1, 2) != derive_seed(7, "validity", 2, 1)
    assert derive_seed(7, "a") != derive_seed(8, "a")
    assert 0 <= derive_seed(0) < 2**64


def test_fuzz_input_json_round_trip():
    # The path a witness takes through a trace file and back.
    inp = FuzzInput((INT_MIN, 0), (INT_MAX,), ())
    assert FuzzInput.from_dict(json.loads(inp.to_json())) == inp


# --- budgets ---

def test_budget_requires_a_limit():
    with pytest.raises(ValueError):
        FuzzBudget(wall_clock_s=None, trial_limit=None)


def test_trials_only_budget_is_exact():
    prog = program("return true;")  # never any counterexample for return 0
    verdict = validity_fuzz(prog, FuzzBudget.trials_only(137),
                            default_config(seed=1))
    assert isinstance(verdict, LikelyPass)
    assert verdict.trials == 137


def test_wall_clock_budget_stops():
    prog = program("return true;")
    budget = FuzzBudget(wall_clock_s=0.05, trial_limit=None)
    start = time.monotonic()
    verdict = validity_fuzz(prog, budget, default_config(seed=1))
    assert isinstance(verdict, LikelyPass)
    assert time.monotonic() - start < 2.0


def test_first_exhausted_limit_wins():
    prog = program("return true;")
    budget = FuzzBudget(wall_clock_s=60.0, trial_limit=50)
    verdict = validity_fuzz(prog, budget, default_config(seed=1))
    assert verdict.trials == 50


# --- phase verdicts ---

ALWAYS_FAILS = "throw;"


def test_validity_counterexample_satisfies_predicate():
    prog = program("return true;", foo_body=ALWAYS_FAILS)
    verdict = validity_fuzz(prog, FuzzBudget.trials_only(100),
                            default_config(seed=2))
    assert isinstance(verdict, Counterexample)
    assert replay_witness(prog, verdict.witness, Phase.VALIDITY)
    assert not replay_witness(prog, verdict.witness, Phase.WEAKNESS)


def test_weakness_counterexample_satisfies_predicate():
    prog = program("return false;")  # rejects everything; foo always succeeds
    verdict = weakness_fuzz(prog, FuzzBudget.trials_only(100),
                            default_config(seed=2))
    assert isinstance(verdict, Counterexample)
    assert replay_witness(prog, verdict.witness, Phase.WEAKNESS)


def test_valid_precondition_passes_validity(sorting_copy, builtin_set):
    prog = with_precondition(sorting_copy.program_source, STRONG_WP)
    verdict = validity_fuzz(prog, FuzzBudget.trials_only(3000),
                            default_config(seed=3))
    assert isinstance(verdict, LikelyPass)
    assert verdict.stats.satisfied > 0


def test_invalid_precondition_caught(sorting_copy):
    prog = with_precondition(sorting_copy.program_source, LENGTH_ONLY_WP)
    verdict = validity_fuzz(prog, FuzzBudget.trials_only(50_000),
                            default_config(seed=3))
    assert isinstance(verdict, Counterexample)
    assert replay_witness(prog, verdict.witness, Phase.VALIDITY)


def test_too_strong_precondition_caught(sorting_copy):
    prog = with_precondition(sorting_copy.program_source, STRONG_WP)
    verdict = weakness_fuzz(prog, FuzzBudget.trials_only(50_000),
                            default_config(seed=3))
    assert isinstance(verdict, Counterexample)
    # The witness succeeds in foo yet is rejected for its short c.
    assert replay_witness(prog, verdict.witness, Phase.WEAKNESS)


def test_step_limited_runs_are_neither_verdict():
    prog = program("return true;",
                   foo_body="while (true) { int x = 0; }\nreturn 0;")
    verdict = validity_fuzz(prog, FuzzBudget.trials_only(30),
                            default_config(seed=4), step_limit=200)
    assert isinstance(verdict, LikelyPass)
    assert verdict.stats.step_limited > 0


def test_faulting_precondition_counts_as_false():
    # Precondition faults on non-empty a; validity fuzz must not treat the
    # fault as satisfaction, and the fault counter must tick.
    prog = program("return a[0] == a[1];", foo_body=ALWAYS_FAILS)
    verdict = validity_fuzz(prog, FuzzBudget.trials_only(300),
                            default_config(seed=5))
    assert isinstance(verdict, Counterexample)  # a[0]==a[1] happens sometimes
    assert verdict.stats.precond_faults > 0


# --- vacuity ---

def test_vacuous_validity_detection():
    prog = program("return false;", foo_body=ALWAYS_FAILS)
    verdict = validity_fuzz(prog, FuzzBudget.trials_only(VACUOUS_MIN_TRIALS),
                            default_config(seed=6))
    assert isinstance(verdict, LikelyPass)
    assert verdict.stats.satisfied == 0
    assert is_vacuous_validity(verdict)


def test_non_terminating_precondition_has_bounded_cost():
    # Every trial's precondition stalls; cycle detection ends each one long
    # before DEFAULT_STEP_LIMIT, so the phase is cheap and still vacuous.
    prog = program("while (true) { }\nreturn true;", foo_body=ALWAYS_FAILS)
    start = time.perf_counter()
    verdict = validity_fuzz(prog, FuzzBudget.trials_only(2000),
                            default_config(seed=7))
    assert time.perf_counter() - start < 20
    assert is_vacuous_validity(verdict)
    assert verdict.stats.precond_faults == verdict.trials


def test_not_vacuous_below_min_trials():
    prog = program("return false;", foo_body=ALWAYS_FAILS)
    verdict = validity_fuzz(prog,
                            FuzzBudget.trials_only(VACUOUS_MIN_TRIALS - 1),
                            default_config(seed=6))
    assert not is_vacuous_validity(verdict)


def test_not_vacuous_when_satisfied():
    prog = program("return true;")
    verdict = validity_fuzz(prog, FuzzBudget.trials_only(VACUOUS_MIN_TRIALS),
                            default_config(seed=6))
    assert not is_vacuous_validity(verdict)


# --- shrinking ---

def test_shrink_preserves_predicate_and_never_grows(sorting_copy):
    prog = with_precondition(sorting_copy.program_source, LENGTH_ONLY_WP)
    raw = validity_fuzz(prog, FuzzBudget.trials_only(50_000),
                        default_config(seed=7), do_shrink=False)
    assert isinstance(raw, Counterexample)
    small = shrink(prog, raw.witness, Phase.VALIDITY)
    assert replay_witness(prog, small, Phase.VALIDITY)
    assert small.total_len() <= raw.witness.total_len()


def test_shrink_minimizes_values_and_keeps_a_unsorted(sorting_copy):
    # Greedy drop/halve shrinking: length drops are blocked here by the
    # equal-length clause (dropping from one array alone breaks it), but
    # magnitudes must be pulled toward zero and 'a' must stay unsorted.
    prog = with_precondition(sorting_copy.program_source, LENGTH_ONLY_WP)
    bulky = FuzzInput((9, 3, 7, -5), (1, 2, 3, 4), (0, 0, 0, 0))
    assert replay_witness(prog, bulky, Phase.VALIDITY)
    small = shrink(prog, bulky, Phase.VALIDITY)
    assert replay_witness(prog, small, Phase.VALIDITY)
    assert small.total_len() <= bulky.total_len()
    assert sum(map(abs, small.a + small.b + small.c)) <= 2
    assert list(small.a) != sorted(small.a)


def test_shrink_opt_out_returns_raw_witness():
    prog = program("return true;", foo_body=ALWAYS_FAILS)
    seed = 8
    raw = validity_fuzz(prog, FuzzBudget.trials_only(50),
                        default_config(seed=seed), do_shrink=False)
    shrunk = validity_fuzz(prog, FuzzBudget.trials_only(50),
                           default_config(seed=seed), do_shrink=True)
    assert isinstance(raw, Counterexample)
    assert isinstance(shrunk, Counterexample)
    assert shrunk.witness.total_len() <= raw.witness.total_len()
    # With every input failing, the shrunk witness collapses to empty.
    assert shrunk.witness == EMPTY_INPUT


def test_phase_is_deterministic_per_seed(sorting_copy):
    prog = with_precondition(sorting_copy.program_source, LENGTH_ONLY_WP)
    config = default_config(seed=9)
    budget = FuzzBudget.trials_only(50_000)
    first = validity_fuzz(prog, budget, config)
    second = validity_fuzz(prog, budget, config)
    assert first == second


def _replayed_phase(prog, phase: Phase, trial_limit: int,
                    config: GeneratorConfig):
    """What a phase must report: its input stream run through plain
    run_precondition/run_foo calls, with both counterexample rules written
    out here. Returns (trials, satisfied, faults, step_limited, witness)."""
    stream = InputStream(config)
    satisfied = faults = step_limited = 0
    for trials in range(1, trial_limit + 1):
        inp = stream.draw()
        pre = run_precondition(prog, inp)
        satisfied += pre.value
        faults += pre.diagnostic is not None
        if pre.value != (phase is Phase.VALIDITY):
            continue
        out = run_foo(prog, inp)
        if isinstance(out, StepLimitExceeded):
            step_limited += 1
        elif (isinstance(out, Failure) if phase is Phase.VALIDITY
              else out == Success(0)):
            return trials, satisfied, faults, step_limited, inp
    return trial_limit, satisfied, faults, step_limited, None


@pytest.mark.parametrize("phase", list(Phase))
def test_phase_loop_matches_plain_replay(builtin_set, phase):
    # Every corpus truth and its weakening, on the default stream and on a
    # stream where every draw is the same (empty) input.
    fuzz = validity_fuzz if phase is Phase.VALIDITY else weakness_fuzz
    trial_limit = 300
    for seed, entry in enumerate(builtin_set):
        weaker = drop_first_conjunct(entry.truth_function())
        for prog in (entry.with_truth(),
                     parse(candidate_source_with(entry, weaker))):
            for config in (default_config(seed=seed),
                           GeneratorConfig(max_len=0, seed=seed)):
                verdict = fuzz(prog, FuzzBudget.trials_only(trial_limit),
                               config, do_shrink=False)
                witness = (verdict.witness
                           if isinstance(verdict, Counterexample) else None)
                got = (verdict.trials, verdict.stats.satisfied,
                       verdict.stats.precond_faults,
                       verdict.stats.step_limited, witness)
                assert got == _replayed_phase(prog, phase, trial_limit,
                                              config), (entry.id, config)


def test_validity_pass_answers_weakness_of_its_draws(builtin_set):
    # Given the validity pass, weakness_fuzz draws nothing yet returns what
    # a weakness pass over the same stream returns, shrunk or not. Every
    # corpus truth and its weakening, plus a foo that stalls on admitted and
    # rejected inputs, so each phase counts only its own step-limited runs.
    stalls = program("return len(a) > 0;", foo_body=(
        "if (len(b) == 1) { while (true) { int x = 0; } }\n"
        "if (len(a) == 0 && len(c) != 7) { throw; }\nreturn 0;"))
    cases = [(seed, prog) for seed, entry in enumerate(builtin_set)
             for prog in (entry.with_truth(), parse(candidate_source_with(
                 entry, drop_first_conjunct(entry.truth_function()))))]
    cases += [(seed, stalls) for seed in range(5)]
    budget = FuzzBudget.trials_only(300)
    shared = 0
    for seed, prog in cases:
        for config in (default_config(seed=seed),
                       GeneratorConfig(max_len=0, seed=seed)):
            validity = validity_fuzz(prog, budget, config)
            shared += isinstance(validity, LikelyPass)
            for do_shrink in (False, True):
                got = weakness_fuzz(prog, budget, config, do_shrink,
                                    validity=validity)
                want = weakness_fuzz(prog, budget, config, do_shrink)
                assert type(got) is type(want), (prog.source_text, config)
                assert got == want, (prog.source_text, config)
    assert shared >= len(builtin_set)


# --- exhaustive oracle ---

def test_all_arrays_count():
    arrays = _all_arrays(2, (-1, 0, 1))
    assert len(arrays) == 1 + 3 + 9
    assert len(set(arrays)) == 13


def test_tiny_inputs_vary_a_slowest():
    assert [inp.to_json() for inp in tiny_inputs(1, (0,))][:3] == [
        '{"a":[],"b":[],"c":[]}', '{"a":[],"b":[],"c":[0]}',
        '{"a":[],"b":[0],"c":[]}']
    assert len(list(tiny_inputs(2, (-1, 0, 1)))) == 13 ** 3


def test_exhaustive_counts_entire_domain():
    prog = program("return true;")
    out = exhaustive_check(prog, 2, (-1, 0, 1), Phase.VALIDITY)
    assert out == NoCounterexample(13 ** 3)


def test_exhaustive_finds_boundary_witness():
    # Candidate admits everything; foo faults only on a == (1, 1).
    prog = program(
        "return true;",
        foo_body="if (len(a) == 2) {\n"
                 "    if (a[0] == 1 && a[1] == 1) { throw; }\n"
                 "}\nreturn 0;")
    out = exhaustive_check(prog, 2, (-1, 0, 1), Phase.VALIDITY)
    assert isinstance(out, ExhaustiveCounterexample)
    assert out.witness.a == (1, 1)
    assert replay_witness(prog, out.witness, Phase.VALIDITY)


def test_exhaustive_weakness_phase():
    prog = program("return len(a) == 2;")  # too strong; foo never fails
    out = exhaustive_check(prog, 1, (0,), Phase.WEAKNESS)
    assert isinstance(out, ExhaustiveCounterexample)
    assert len(out.witness.a) != 2


def test_exhaustive_guard():
    prog = program("return true;")
    with pytest.raises(DomainTooLarge):
        exhaustive_check(prog, 6, tuple(range(10)), Phase.VALIDITY)


def test_tiny_domain_config_draws_stay_in_domain():
    stream = InputStream(tiny_domain_config(seed=10))
    for _ in range(200):
        inp = stream.draw()
        assert max(len(inp.a), len(inp.b), len(inp.c)) <= 2
        assert set(inp.a + inp.b + inp.c) <= {-1, 0, 1}
