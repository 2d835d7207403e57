"""Seeded input generation, the two fuzzing phases, shrinking, and the
exhaustive small-domain oracle.

A validity counterexample is an input the candidate admits but 'foo' fails
on; a weakness counterexample is an input the candidate rejects but 'foo'
succeeds on (returns 0). Runs that exceed the step limit are neither and are
counted separately. All drawing is a deterministic function of the seed, so
a phase with a trial-only budget is exactly reproducible.

Both phases sample the same input distribution, so one pass answers both:
validity fuzzing also runs 'foo' on the inputs the candidate rejects, until
the first one it succeeds on. A validity pass that finds no counterexample
carries the weakness verdict of its own draws, and ``weakness_fuzz`` returns
that verdict instead of drawing a second sample.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Iterator, Optional, Union

from .minilang import (
    DEFAULT_STEP_LIMIT, Failure, ProgramAst, StepLimitExceeded, Success,
    run_foo, run_precondition,
)

INT_MIN = -0x80000000
INT_MAX = 0x7FFFFFFF

DEFAULT_DICTIONARY = (0, 1, -1, 2, -2, INT_MIN, INT_MAX, 100)

# Trials after which a validity phase that never saw an adhering input is
# flagged vacuous (the candidate may be unfalsifiable by this generator).
VACUOUS_MIN_TRIALS = 1_000


@dataclass(frozen=True)
class FuzzInput:
    """One generated input triple. Immutable; runs never mutate it."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]

    def to_dict(self) -> dict:
        """The {"a", "b", "c"} shape every witness takes in JSON."""
        return {"a": list(self.a), "b": list(self.b), "c": list(self.c)}

    @staticmethod
    def from_dict(d: dict) -> "FuzzInput":
        return FuzzInput(tuple(d["a"]), tuple(d["b"]), tuple(d["c"]))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    def total_len(self) -> int:
        return len(self.a) + len(self.b) + len(self.c)


EMPTY_INPUT = FuzzInput((), (), ())


@dataclass(frozen=True)
class GeneratorConfig:
    """Input-distribution knobs. ``seed`` makes every draw reproducible.

    value_mode: "mixed" picks a mode per array (50% full-range, 30%
    small-range, 20% dictionary); "full" | "small" | "dictionary" force one.
    dictionary_bias: per-element chance of substituting a dictionary value
    in full/small modes. structure_bias: chance of correlated shapes
    (b matching a's length; a pre-sorted).
    """

    max_len: int = 16
    length_distribution: str = "geometric"  # or "uniform"
    mean_len: float = 4.0
    value_mode: str = "mixed"
    dictionary: tuple[int, ...] = DEFAULT_DICTIONARY
    dictionary_bias: float = 0.05
    structure_bias: float = 0.3
    seed: int = 0

    def with_seed(self, seed: int) -> "GeneratorConfig":
        return replace(self, seed=seed)


def default_config(seed: int = 0) -> GeneratorConfig:
    return GeneratorConfig(seed=seed)


def paper_faithful_config(seed: int = 0) -> GeneratorConfig:
    """Uncorrelated shapes: pure random generation."""
    return GeneratorConfig(structure_bias=0.0, seed=seed)


TINY_MAX_LEN = 2
TINY_VALUES = (-1, 0, 1)


def tiny_domain_config(seed: int = 0, max_len: int = TINY_MAX_LEN,
                       values: tuple[int, ...] = TINY_VALUES) -> GeneratorConfig:
    """Uniform draws from the small domain used by exhaustive_check."""
    return GeneratorConfig(max_len=max_len, length_distribution="uniform",
                           value_mode="dictionary", dictionary=values,
                           dictionary_bias=1.0, structure_bias=0.0, seed=seed)


def derive_seed(base: int, *parts: object) -> int:
    """Stable 64-bit child seed for a named stream (phase, worker, ...)."""
    text = "|".join([str(base), *(str(p) for p in parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _draw_length(rng: random.Random, config: GeneratorConfig) -> int:
    if config.max_len <= 0:
        return 0
    if config.length_distribution == "uniform":
        return rng.randrange(config.max_len + 1)
    # Geometric starting at 0, truncated at max_len.
    p = 1.0 / (config.mean_len + 1.0)
    n = 0
    while n < config.max_len and rng.random() >= p:
        n += 1
    return n


def _draw_values(rng: random.Random, n: int, mode: str,
                 config: GeneratorConfig) -> list[int]:
    dictionary = config.dictionary
    bias = config.dictionary_bias
    out = []
    for _ in range(n):
        if mode == "dictionary":
            out.append(dictionary[int(rng.random() * len(dictionary))])
        elif bias > 0.0 and rng.random() < bias:
            out.append(dictionary[int(rng.random() * len(dictionary))])
        elif mode == "small":
            out.append(rng.randint(-8, 8))
        else:  # full
            out.append(rng.getrandbits(32) - 0x80000000)
    return out


def _pick_mode(rng: random.Random, config: GeneratorConfig) -> str:
    if config.value_mode != "mixed":
        return config.value_mode
    r = rng.random()
    if r < 0.5:
        return "full"
    if r < 0.8:
        return "small"
    return "dictionary"


def draw_input(rng: random.Random, config: GeneratorConfig) -> FuzzInput:
    """Draw one input triple from the configured distribution."""
    len_a = _draw_length(rng, config)
    equal_lengths = config.structure_bias > 0.0 and rng.random() < config.structure_bias
    len_b = len_a if equal_lengths else _draw_length(rng, config)
    len_c = _draw_length(rng, config)
    a = _draw_values(rng, len_a, _pick_mode(rng, config), config)
    b = _draw_values(rng, len_b, _pick_mode(rng, config), config)
    c = _draw_values(rng, len_c, _pick_mode(rng, config), config)
    if config.structure_bias > 0.0 and rng.random() < config.structure_bias:
        a.sort()
    return FuzzInput(tuple(a), tuple(b), tuple(c))


class InputStream:
    """Deterministic stream of inputs for one (seed, stream name)."""

    def __init__(self, config: GeneratorConfig, stream: object = None):
        seed = config.seed if stream is None else derive_seed(config.seed, stream)
        self._rng = random.Random(seed)
        self._config = config

    def draw(self) -> FuzzInput:
        return draw_input(self._rng, self._config)


@dataclass(frozen=True)
class FuzzBudget:
    """A phase stops at whichever limit is exhausted first."""

    wall_clock_s: Optional[float] = 10.0
    trial_limit: Optional[int] = 100_000

    def __post_init__(self):
        if self.wall_clock_s is None and self.trial_limit is None:
            raise ValueError("budget needs a wall-clock or trial limit")

    @staticmethod
    def trials_only(n: int) -> "FuzzBudget":
        return FuzzBudget(wall_clock_s=None, trial_limit=n)

    def inputs(self, config: GeneratorConfig) -> Iterator[FuzzInput]:
        """Draws from ``InputStream(config)`` until the trial limit or the
        wall clock runs out; the clock starts at the first draw."""
        draw = InputStream(config).draw
        limit = self.trial_limit
        deadline = (None if self.wall_clock_s is None
                    else time.monotonic() + self.wall_clock_s)
        trials = 0
        while limit is None or trials < limit:
            if deadline is not None and time.monotonic() >= deadline:
                return
            trials += 1
            yield draw()


class Phase(str, Enum):
    VALIDITY = "validity"
    WEAKNESS = "weakness"


@dataclass(frozen=True)
class PhaseStats:
    trials: int = 0
    satisfied: int = 0          # trials on which the precondition held
    precond_faults: int = 0     # precondition evaluations that faulted (-> false)
    step_limited: int = 0       # foo runs that hit the step limit
    duration_s: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class LikelyPass:
    trials: int
    stats: PhaseStats
    # Set on a validity pass: the unshrunk weakness verdict of the same draws.
    weakness: Optional["FuzzVerdict"] = field(default=None, compare=False,
                                              repr=False)


@dataclass(frozen=True)
class Counterexample:
    witness: FuzzInput
    trials: int
    stats: PhaseStats


FuzzVerdict = Union[LikelyPass, Counterexample]


def is_vacuous_validity(verdict: FuzzVerdict) -> bool:
    """A completed validity phase that never saw an adhering input."""
    return (isinstance(verdict, LikelyPass)
            and verdict.trials >= VACUOUS_MIN_TRIALS
            and verdict.stats.satisfied == 0)


def _fails(outcome) -> bool:
    return type(outcome) is Failure


def _returns_zero(outcome) -> bool:
    return type(outcome) is Success and outcome.value == 0


# Each phase's counterexample rule: the precondition value on which the phase
# runs foo, and the outcome of foo that refutes the candidate there.
_COUNTEREXAMPLE_RULES = {Phase.VALIDITY: (True, _fails),
                         Phase.WEAKNESS: (False, _returns_zero)}


def _phase_predicate(program: ProgramAst, phase: Phase,
                     step_limit: int) -> Callable[[FuzzInput], bool]:
    """Exact counterexample predicate used for shrinking and replay."""
    runs_foo_on, refutes = _COUNTEREXAMPLE_RULES[phase]

    def holds(inp: FuzzInput) -> bool:
        return (run_precondition(program, inp, step_limit).value is runs_foo_on
                and refutes(run_foo(program, inp, step_limit)))
    return holds


def replay_witness(program: ProgramAst, witness: FuzzInput, phase: Phase,
                   step_limit: int = DEFAULT_STEP_LIMIT) -> bool:
    """Re-check that a witness still is a counterexample for the phase."""
    return _phase_predicate(program, phase, step_limit)(witness)


def _shrink_candidates(inp: FuzzInput) -> Iterator[FuzzInput]:
    """Strictly smaller variants: drop one element, then pull one value
    toward zero (halving, or stepping for small magnitudes)."""
    arrays = {"a": inp.a, "b": inp.b, "c": inp.c}
    for name, arr in arrays.items():
        for i in range(len(arr)):
            smaller = arr[:i] + arr[i + 1:]
            yield FuzzInput(**{**arrays, name: smaller})
    for name, arr in arrays.items():
        for i, v in enumerate(arr):
            if v == 0:
                continue
            half = v // 2 if v > 0 else -((-v) // 2)
            for nv in dict.fromkeys((half, v - 1 if v > 0 else v + 1)):
                if abs(nv) < abs(v) or (nv == 0 and v != 0):
                    yield FuzzInput(**{**arrays, name: arr[:i] + (nv,) + arr[i + 1:]})


def _size(inp: FuzzInput) -> tuple[int, int]:
    return (inp.total_len(), sum(abs(v) for v in inp.a + inp.b + inp.c))


def shrink(program: ProgramAst, witness: FuzzInput, phase: Phase,
           step_limit: int = DEFAULT_STEP_LIMIT, max_checks: int = 4_000) -> FuzzInput:
    """Greedy witness reduction; the result still satisfies the phase
    predicate and is never larger than the input witness."""
    holds = _phase_predicate(program, phase, step_limit)
    current = witness
    checks = 0
    improved = True
    while improved and checks < max_checks:
        improved = False
        for cand in _shrink_candidates(current):
            checks += 1
            if checks >= max_checks:
                break
            if _size(cand) < _size(current) and holds(cand):
                current = cand
                improved = True
                break
    return current


def _fuzz(program: ProgramAst, budget: FuzzBudget, config: GeneratorConfig,
          phases: tuple[Phase, ...], step_limit: int) -> list[FuzzVerdict]:
    """One pass over config's stream that answers each phase, unshrunk.

    Every draw's precondition is evaluated once. The phases run foo on
    opposite precondition values, so foo runs at most once per draw, and
    only for a phase that has no counterexample yet. The pass ends at the
    first counterexample of ``phases[0]``. Unless it ended there, each
    verdict is exactly what a pass for its phase alone reports on a
    trial-only budget.
    """
    start = time.monotonic()
    open_rules = {}
    for phase in phases:
        runs_foo_on, refutes = _COUNTEREXAMPLE_RULES[phase]
        open_rules[runs_foo_on] = (phase, refutes)
    step_limited = dict.fromkeys(phases, 0)
    found = {}
    trials = 0
    satisfied = 0
    faults = 0
    for inp in budget.inputs(config):
        trials += 1
        pre = run_precondition(program, inp, step_limit)
        if pre.value:
            satisfied += 1
        if pre.diagnostic is not None:
            faults += 1
        rule = open_rules.get(pre.value)
        if rule is None:
            continue
        phase, refutes = rule
        outcome = run_foo(program, inp, step_limit)
        if type(outcome) is StepLimitExceeded:
            step_limited[phase] += 1
        elif refutes(outcome):
            found[phase] = Counterexample(inp, trials, PhaseStats(
                trials, satisfied, faults, step_limited[phase],
                time.monotonic() - start))
            if phase is phases[0]:
                break
            del open_rules[pre.value]

    duration = time.monotonic() - start
    return [found.get(phase) or LikelyPass(trials, PhaseStats(
                trials, satisfied, faults, step_limited[phase], duration))
            for phase in phases]


def _shrunk(program: ProgramAst, verdict: FuzzVerdict, phase: Phase,
            do_shrink: bool, step_limit: int) -> FuzzVerdict:
    if do_shrink and isinstance(verdict, Counterexample):
        return replace(verdict, witness=shrink(program, verdict.witness,
                                               phase, step_limit))
    return verdict


def validity_fuzz(program: ProgramAst, budget: FuzzBudget, config: GeneratorConfig,
                  do_shrink: bool = True,
                  step_limit: int = DEFAULT_STEP_LIMIT) -> FuzzVerdict:
    """Search for an input the candidate admits but 'foo' fails on.

    A LikelyPass carries, as ``weakness``, the unshrunk weakness verdict of
    the same draws."""
    verdict, weakness = _fuzz(program, budget, config,
                              (Phase.VALIDITY, Phase.WEAKNESS), step_limit)
    if isinstance(verdict, LikelyPass):
        return replace(verdict, weakness=weakness)
    return _shrunk(program, verdict, Phase.VALIDITY, do_shrink, step_limit)


def weakness_fuzz(program: ProgramAst, budget: FuzzBudget, config: GeneratorConfig,
                  do_shrink: bool = True,
                  step_limit: int = DEFAULT_STEP_LIMIT,
                  validity: Optional[FuzzVerdict] = None) -> FuzzVerdict:
    """Search for an input the candidate rejects but 'foo' succeeds on.

    ``validity`` is this program's ``validity_fuzz`` verdict on the same
    budget, config and step limit. When it is a LikelyPass, its draws already answered
    weakness: that answer is returned (shrunk when ``do_shrink`` is set)
    and nothing is drawn. Otherwise config's stream is fuzzed."""
    verdict = validity.weakness if isinstance(validity, LikelyPass) else None
    if verdict is None:
        verdict, = _fuzz(program, budget, config, (Phase.WEAKNESS,),
                         step_limit)
    return _shrunk(program, verdict, Phase.WEAKNESS, do_shrink, step_limit)


# --- exhaustive oracle ---

class DomainTooLarge(Exception):
    """The requested enumeration exceeds the safety bound."""


EXHAUSTIVE_GUARD = 10_000_000


@dataclass(frozen=True)
class NoCounterexample:
    inputs_checked: int


@dataclass(frozen=True)
class ExhaustiveCounterexample:
    witness: FuzzInput


ExhaustiveVerdict = Union[NoCounterexample, ExhaustiveCounterexample]


def _all_arrays(max_len: int, values: tuple[int, ...]) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = [()]
    layer: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        layer = [arr + (v,) for arr in layer for v in values]
        out.extend(layer)
    return out


def tiny_inputs(max_len: int, values: tuple[int, ...]) -> Iterator[FuzzInput]:
    """Every input with array lengths <= max_len over the value set, with
    a varying slowest and c fastest."""
    arrays = _all_arrays(max_len, values)
    return itertools.starmap(FuzzInput, itertools.product(arrays, repeat=3))


def exhaustive_check(program: ProgramAst, max_len: int, values: tuple[int, ...],
                     phase: Phase,
                     step_limit: int = DEFAULT_STEP_LIMIT) -> ExhaustiveVerdict:
    """Enumerate every input with array lengths <= max_len over the value
    set; exact within that domain. Raises DomainTooLarge past the guard."""
    per_slot = sum(len(values) ** k for k in range(max_len + 1))
    total = per_slot ** 3
    if total > EXHAUSTIVE_GUARD:
        raise DomainTooLarge(f"{total} inputs exceeds the {EXHAUSTIVE_GUARD} bound")
    holds = _phase_predicate(program, phase, step_limit)
    checked = 0
    for inp in tiny_inputs(max_len, values):
        checked += 1
        if holds(inp):
            return ExhaustiveCounterexample(inp)
    return NoCounterexample(checked)
