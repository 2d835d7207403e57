"""The candidate/repair loop that steers an LLM toward a weakest precondition.

One guidance cycle runs up to ``max_validity_iterations`` rounds of validity
fuzzing (each counterexample triggers a validity-repair prompt), then a
single weakness step, answered from the draws of the validity pass, whose
counterexample, if any, triggers a weakness-repair prompt and the next cycle. The run ends Accepted when a
candidate survives both phases, Malformed when the model output cannot be
extracted (after one re-ask), ExhaustedBudget when iterations or cycles run
out, or FuzzBlind in strict mode when validity fuzzing never saw an adhering
input. Every event and exchange is recorded in an FgTrace; a trace file plus
the same seeds is sufficient to replay the run.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Optional, Union

from .fuzzing import (
    Counterexample, FuzzBudget, FuzzInput, FuzzVerdict, GeneratorConfig,
    LikelyPass, default_config, derive_seed, is_vacuous_validity,
    validity_fuzz, weakness_fuzz,
)
from .llm import (
    CandidateWp, ChatExchange, ExtractionError, FORMAT_REMINDER, PromptKind,
    ProviderError, exchange_record, prompt_hash, render_prompt, user_message,
)
from .minilang import DEFAULT_STEP_LIMIT, ProgramAst

DEFAULT_MAX_VALIDITY_ITERATIONS = 10
DEFAULT_MAX_CYCLES = 3


@dataclass(frozen=True)
class FgConfig:
    max_validity_iterations: int = DEFAULT_MAX_VALIDITY_ITERATIONS
    max_cycles: int = DEFAULT_MAX_CYCLES
    fuzz_budget: FuzzBudget = field(default_factory=FuzzBudget)
    generator: GeneratorConfig = field(default_factory=default_config)
    fg_enabled: bool = True
    strict_fuzz_blind: bool = False
    shrink: bool = True
    step_limit: int = DEFAULT_STEP_LIMIT

    def __post_init__(self):
        # A cap below 1 runs no fuzz phase, so the run could only end with
        # an unfuzzed candidate and a trace validate_trace rejects.
        if self.max_validity_iterations < 1 or self.max_cycles < 1:
            raise ValueError("max_validity_iterations and max_cycles must be "
                             "at least 1")


# --- trace events ---

@dataclass(frozen=True)
class PromptSent:
    kind: PromptKind
    cycle: int
    prompt_hash: str
    retry: bool = False


@dataclass(frozen=True)
class CandidateReceived:
    cycle: int
    precondition_source: str
    comment: str


@dataclass(frozen=True)
class ValidityVerdict:
    cycle: int
    iteration: int
    verdict: str  # "likely-pass" | "counterexample"
    trials: int
    satisfied: int
    step_limited: int
    precond_faults: int
    seed: int
    vacuous: bool
    witness: Optional[FuzzInput] = None


@dataclass(frozen=True)
class WeaknessVerdict:
    cycle: int
    verdict: str
    trials: int
    satisfied: int
    step_limited: int
    precond_faults: int
    seed: int
    witness: Optional[FuzzInput] = None


@dataclass(frozen=True)
class RepairTriggered:
    kind: PromptKind  # REPAIR_VALIDITY or REPAIR_WEAKNESS
    cycle: int
    witness: FuzzInput


@dataclass(frozen=True)
class CycleCompleted:
    cycle: int


@dataclass(frozen=True)
class TerminalOutcome:
    outcome: str  # "accepted" | "exhausted-budget" | "malformed" | "fuzz-blind"
    cycles_used: int
    llm_calls: int
    fg_used: bool


TraceEvent = Union[PromptSent, CandidateReceived, ValidityVerdict,
                   WeaknessVerdict, RepairTriggered, CycleCompleted,
                   TerminalOutcome]


@dataclass
class FgTrace:
    program_id: str
    config: FgConfig
    events: list[TraceEvent] = field(default_factory=list)
    exchanges: list[dict] = field(default_factory=list)  # transcript records
    llm_calls: int = 0
    cycles_used: int = 0

    def add(self, event: TraceEvent) -> None:
        self.events.append(event)

    @property
    def fg_used(self) -> bool:
        return any(isinstance(e, RepairTriggered) for e in self.events)



# --- outcomes ---

@dataclass
class Accepted:
    candidate: CandidateWp
    trace: FgTrace


@dataclass
class ExhaustedBudget:
    """Iterations or cycles ran out. best_candidate is the last candidate
    that passed validity, else the last candidate."""

    best_candidate: Optional[CandidateWp]
    trace: FgTrace


@dataclass
class Malformed:
    reason: str
    trace: FgTrace


@dataclass
class FuzzBlind:
    candidate: CandidateWp
    trace: FgTrace


WpOutcome = Union[Accepted, ExhaustedBudget, Malformed, FuzzBlind]

OUTCOME_NAMES = {
    Accepted: "accepted",
    ExhaustedBudget: "exhausted-budget",
    Malformed: "malformed",
    FuzzBlind: "fuzz-blind",
}


def outcome_name(outcome: WpOutcome) -> str:
    return OUTCOME_NAMES[type(outcome)]


def outcome_candidate(outcome: WpOutcome) -> Optional[CandidateWp]:
    if isinstance(outcome, Accepted):
        return outcome.candidate
    if isinstance(outcome, ExhaustedBudget):
        return outcome.best_candidate
    if isinstance(outcome, FuzzBlind):
        return outcome.candidate
    return None


class _MalformedRun(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _Session:
    """Shared plumbing for zero-shot and guided runs."""

    def __init__(self, program: ProgramAst, provider, config: FgConfig,
                 program_id: str):
        self.program = program
        self.provider = provider
        self.config = config
        self.trace = FgTrace(program_id=program_id, config=config)

    def _complete(self, prompt: str, kind: PromptKind) -> ChatExchange:
        messages = user_message(prompt)
        try:
            exchange = self.provider.complete(
                messages, program_id=self.trace.program_id,
                prompt_kind=kind.value)
        except ProviderError as exc:
            if exc.kind == "config":
                raise  # setup problem, not a run outcome
            raise _MalformedRun(f"provider failure: {exc}") from exc
        self.trace.llm_calls += 1
        self.trace.exchanges.append(
            exchange_record(exchange, self.trace.program_id, kind.value))
        return exchange

    def obtain_candidate(self, kind: PromptKind, cycle: int,
                         source: str,
                         witness: FuzzInput | None = None) -> CandidateWp:
        """Send a prompt and extract the candidate, re-asking once with a
        format reminder before giving up as malformed."""
        from .llm import extract_candidate

        prompt = render_prompt(kind, source, witness)
        self.trace.add(PromptSent(kind, cycle, prompt_hash(user_message(prompt))))
        exchange = self._complete(prompt, kind)
        try:
            candidate = extract_candidate(exchange.response_text, self.program)
        except ExtractionError as first:
            retry_prompt = prompt + "\n\n" + FORMAT_REMINDER
            self.trace.add(PromptSent(kind, cycle,
                                      prompt_hash(user_message(retry_prompt)),
                                      retry=True))
            exchange = self._complete(retry_prompt, kind)
            try:
                candidate = extract_candidate(exchange.response_text, self.program)
            except ExtractionError as second:
                raise _MalformedRun(
                    f"extraction failed twice ({first.kind}, then "
                    f"{second.kind}): {second.detail}") from second
        self.trace.add(CandidateReceived(
            cycle,
            _precondition_source(candidate),
            candidate.comment))
        return candidate


def _precondition_source(candidate: CandidateWp) -> str:
    from .minilang import to_source

    pre = candidate.program.precondition
    return to_source(pre) if pre is not None else ""


def zero_shot(program: ProgramAst, provider, config: FgConfig | None = None,
              program_id: str = "") -> WpOutcome:
    """One initial prompt, no fuzzing: accepted as-is if extractable."""
    config = config or FgConfig(fg_enabled=False)
    session = _Session(program, provider, config, program_id)
    trace = session.trace
    try:
        candidate = session.obtain_candidate(PromptKind.INITIAL_WP, cycle=0,
                                             source=program.source_text)
    except _MalformedRun as exc:
        trace.add(TerminalOutcome("malformed", 0, trace.llm_calls, False))
        return Malformed(exc.reason, trace)
    trace.add(TerminalOutcome("accepted", 0, trace.llm_calls, False))
    return Accepted(candidate, trace)


def fg_generate(program: ProgramAst, provider, config: FgConfig | None = None,
                program_id: str = "") -> WpOutcome:
    """Run the full guidance loop over fuzz-checked repair rounds."""
    config = config or FgConfig()
    if not config.fg_enabled:
        return zero_shot(program, provider, config, program_id)
    session = _Session(program, provider, config, program_id)
    trace = session.trace
    budget = config.fuzz_budget

    def finish(outcome: WpOutcome) -> WpOutcome:
        trace.cycles_used = cycle
        trace.add(TerminalOutcome(outcome_name(outcome), cycle,
                                  trace.llm_calls, trace.fg_used))
        return outcome

    cycle = 0
    try:
        candidate = session.obtain_candidate(PromptKind.INITIAL_WP, cycle=0,
                                             source=program.source_text)
    except _MalformedRun as exc:
        trace.add(TerminalOutcome("malformed", 0, trace.llm_calls, trace.fg_used))
        return Malformed(exc.reason, trace)

    best: Optional[CandidateWp] = None
    for cycle in range(1, config.max_cycles + 1):
        for iteration in range(1, config.max_validity_iterations + 1):
            seed = derive_seed(config.generator.seed, "validity", cycle,
                               iteration)
            generator = config.generator.with_seed(seed)
            verdict = validity_fuzz(candidate.program, budget, generator,
                                    do_shrink=config.shrink,
                                    step_limit=config.step_limit)
            vacuous = is_vacuous_validity(verdict)
            trace.add(ValidityVerdict(cycle, iteration, vacuous=vacuous,
                                      **_verdict_fields(verdict, seed)))
            if isinstance(verdict, LikelyPass):
                if vacuous and config.strict_fuzz_blind:
                    return finish(FuzzBlind(candidate, trace))
                best = candidate
                break
            # Counterexample: repair unless this was the last permitted try.
            if iteration == config.max_validity_iterations:
                break
            trace.add(RepairTriggered(PromptKind.REPAIR_VALIDITY, cycle,
                                      verdict.witness))
            try:
                candidate = session.obtain_candidate(
                    PromptKind.REPAIR_VALIDITY, cycle,
                    candidate.source, verdict.witness)
            except _MalformedRun as exc:
                return finish(Malformed(exc.reason, trace))
        if not isinstance(verdict, LikelyPass):
            return finish(ExhaustedBudget(best or candidate, trace))

        # The passing validity verdict already holds the weakness answer of
        # its draws, so the weakness verdict reuses its seed and draws nothing.
        verdict = weakness_fuzz(candidate.program, budget, generator,
                                do_shrink=config.shrink,
                                step_limit=config.step_limit, validity=verdict)
        trace.add(WeaknessVerdict(cycle, **_verdict_fields(verdict, seed)))
        if isinstance(verdict, LikelyPass):
            return finish(Accepted(candidate, trace))
        if cycle == config.max_cycles:
            return finish(ExhaustedBudget(candidate, trace))
        trace.add(RepairTriggered(PromptKind.REPAIR_WEAKNESS, cycle,
                                  verdict.witness))
        try:
            candidate = session.obtain_candidate(
                PromptKind.REPAIR_WEAKNESS, cycle,
                candidate.source, verdict.witness)
        except _MalformedRun as exc:
            return finish(Malformed(exc.reason, trace))
        trace.add(CycleCompleted(cycle))
    # max_cycles >= 1 (FgConfig), and the last cycle returns on every path.
    raise AssertionError("fg_generate ran past its last cycle")


def _verdict_fields(verdict: FuzzVerdict, seed: int) -> dict:
    """The fields validity and weakness verdict events share."""
    failed = isinstance(verdict, Counterexample)
    return dict(verdict="counterexample" if failed else "likely-pass",
                trials=verdict.trials, satisfied=verdict.stats.satisfied,
                step_limited=verdict.stats.step_limited,
                precond_faults=verdict.stats.precond_faults, seed=seed,
                witness=verdict.witness if failed else None)


# --- trace (de)serialization ---

_EVENT_KINDS = {
    PromptSent: "prompt-sent",
    CandidateReceived: "candidate-received",
    ValidityVerdict: "validity-verdict",
    WeaknessVerdict: "weakness-verdict",
    RepairTriggered: "repair-triggered",
    CycleCompleted: "cycle-completed",
    TerminalOutcome: "terminal-outcome",
}
_KIND_EVENTS = {v: k for k, v in _EVENT_KINDS.items()}


def _event_payload(event: TraceEvent) -> dict:
    payload = {}
    for name, value in vars(event).items():
        if isinstance(value, FuzzInput):
            value = value.to_dict()
        elif isinstance(value, PromptKind):
            value = value.value
        payload[name] = value
    return payload


def _event_from_payload(kind: str, payload: dict) -> TraceEvent:
    cls = _KIND_EVENTS[kind]
    kwargs = dict(payload)
    if kwargs.get("witness") is not None:
        kwargs["witness"] = FuzzInput.from_dict(kwargs["witness"])
    if "kind" in kwargs:
        kwargs["kind"] = PromptKind(kwargs["kind"])
    return cls(**kwargs)


def trace_to_lines(trace: FgTrace) -> list[str]:
    budget = trace.config.fuzz_budget
    meta = {
        "kind": "run-meta",
        "program_id": trace.program_id,
        "seed": trace.config.generator.seed,
        "wall_clock_s": budget.wall_clock_s,
        "trial_limit": budget.trial_limit,
        "max_validity_iterations": trace.config.max_validity_iterations,
        "max_cycles": trace.config.max_cycles,
        "fg_enabled": trace.config.fg_enabled,
        "llm_calls": trace.llm_calls,
        "cycles_used": trace.cycles_used,
    }
    lines = [json.dumps(meta, separators=(",", ":"))]
    for event in trace.events:
        record = {"kind": "event", "event": _EVENT_KINDS[type(event)],
                  "data": _event_payload(event)}
        lines.append(json.dumps(record, separators=(",", ":")))
    for exchange in trace.exchanges:
        record = {"kind": "exchange"}
        record.update(exchange)
        lines.append(json.dumps(record, separators=(",", ":")))
    return lines


def write_trace(trace: FgTrace, path: str | Path) -> None:
    Path(path).write_text("\n".join(trace_to_lines(trace)) + "\n",
                          encoding="utf-8")


def read_trace_events(path: str | Path) -> list[TraceEvent]:
    events = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("kind") != "event":
                continue
            events.append(_event_from_payload(record["event"], record["data"]))
    return events


# --- trace legality ---

# One character per event: the prompt kind (lower case for a format-reminder
# retry), c a candidate, p/q/x a validity pass, vacuous pass and
# counterexample, P/X a weakness pass and counterexample, R/S a validity and a
# weakness repair, C a completed cycle, A/E/M/B the terminal outcomes.
_TOKENS = {
    (PromptSent, PromptKind.INITIAL_WP): "I",
    (PromptSent, PromptKind.REPAIR_VALIDITY): "V",
    (PromptSent, PromptKind.REPAIR_WEAKNESS): "W",
    (ValidityVerdict, "likely-pass"): "p",
    (ValidityVerdict, "counterexample"): "x",
    (WeaknessVerdict, "likely-pass"): "P",
    (WeaknessVerdict, "counterexample"): "X",
    (RepairTriggered, PromptKind.REPAIR_VALIDITY): "R",
    (RepairTriggered, PromptKind.REPAIR_WEAKNESS): "S",
    (TerminalOutcome, "accepted"): "A",
    (TerminalOutcome, "exhausted-budget"): "E",
    (TerminalOutcome, "malformed"): "M",
    (TerminalOutcome, "fuzz-blind"): "B",
}


def _event_token(event: TraceEvent) -> str:
    """The event's character; "?" for anything the loop never emits."""
    kind = type(event)
    if kind is PromptSent or kind is RepairTriggered:
        token = _TOKENS.get((kind, event.kind), "?")
        return token.lower() if kind is PromptSent and event.retry else token
    if kind is ValidityVerdict or kind is WeaknessVerdict:
        token = _TOKENS.get((kind, event.verdict), "?")
        return "q" if token == "p" and event.vacuous else token
    if kind is TerminalOutcome:
        return _TOKENS.get((kind, event.outcome), "?")
    if kind is CandidateReceived:
        return "c"
    return "C" if kind is CycleCompleted else "?"


@lru_cache(maxsize=None)
def _trace_language(max_validity_iterations: int,
                    max_cycles: int) -> re.Pattern:
    """The event strings the guidance loop can emit under these caps.

    Every prompt may have one retry and ends the run malformed when no
    candidate follows. A cycle repairs at most max_validity_iterations - 1
    validity counterexamples, and at most max_cycles - 1 cycles complete.
    """
    if max_validity_iterations < 1 or max_cycles < 1:
        return re.compile("[Ii]i?c?M|[Ii]i?cA")
    repairs = f"{{0,{max_validity_iterations - 1}}}"
    completed = f"(?:xR[Vv]v?c){repairs}[pq]XS[Ww]w?cC"
    # A validity repair that ends malformed still counts against the cap.
    last = (f"(?:xR[Vv]v?(?:c|(?=M))){repairs}"
            "(?:M|x[EM]|qB|[pq](?:[EM]|P[AEM]|X[EM]|XS[Ww]w?c?M))|(?<=C)E")
    return re.compile(f"[Ii]i?(?:M|cA|c(?:{completed}){{0,{max_cycles - 1}}}"
                      f"(?:{last}))")


def validate_trace(events: list[TraceEvent],
                   max_validity_iterations: int = DEFAULT_MAX_VALIDITY_ITERATIONS,
                   max_cycles: int = DEFAULT_MAX_CYCLES) -> list[str]:
    """Check that an event sequence is one the guidance loop could emit.

    Rejects, among other shapes: a weakness verdict in a cycle with no
    validity pass, more validity repairs in a cycle than the iteration cap
    allows, and non-terminal events after the terminal outcome. Returns a
    list of problems; empty means legal.
    """
    tokens = "".join(map(_event_token, events))
    if _trace_language(max_validity_iterations, max_cycles).fullmatch(tokens):
        return []
    repairs = max(max_validity_iterations - 1, 0)
    # Most specific first; a match ends at the offending event.
    for pattern, problem in (
            (r"[AEMB](?=.)", "terminal outcome is not the last event"),
            (r"(?<![pq])[PX]", "weakness phase without a validity pass"),
            (f"R(?:[^C]*R){{{repairs}}}",
             "validity repair after the final attempt of a cycle"),
            (f"C(?:[^C]*C){{{max(max_cycles - 1, 0)}}}.",
             f"more than {max_cycles} cycles"),
            ("XR", "a weakness counterexample needs a weakness repair"),
            ("[VvWw]c[AEB]", "a repair candidate must be fuzzed first"),
            (r"[pqxPX].*(?<!P)A", "accepted without a weakness pass"),
            (r"(?<!q)B", "fuzz-blind without a vacuous validity pass"),
            ("[^AEMB]$", "trace does not end with a terminal outcome")):
        found = re.search(pattern, tokens)
        if found:
            return [f"event {found.end() - 1}: {problem}"]
    return [f"events {tokens!r} are not a run the guidance loop can emit"]


# --- replay ---

@dataclass
class ReplayReport:
    outcome: WpOutcome
    divergences: list


def replay_run(program: ProgramAst, transcript_path: str | Path,
               config: FgConfig | None = None,
               program_id: str = "") -> ReplayReport:
    """Re-drive a run from a recorded transcript, collecting prompt-hash
    divergences instead of failing on them."""
    from .llm import ReplayProvider

    provider = ReplayProvider(transcript_path, strict=False)
    outcome = fg_generate(program, provider, config, program_id=program_id)
    return ReplayReport(outcome=outcome, divergences=provider.divergences)
