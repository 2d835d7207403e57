"""Trace legality as a table of event strings.

Each character stands for one trace event: the prompt kind (``I`` initial,
``V`` validity repair, ``W`` weakness repair; lower case for a
format-reminder retry), ``c`` a candidate, ``p``/``q``/``x`` a validity
pass, vacuous pass and counterexample, ``P``/``X`` a weakness pass and
counterexample, ``R``/``S`` a validity and a weakness repair, ``C`` a
completed cycle, and ``A``/``E``/``M``/``B`` the terminal outcomes
accepted, exhausted-budget, malformed and fuzz-blind.
"""
from __future__ import annotations

import pytest

from fuzzfeed.fuzzing import FuzzInput
from fuzzfeed.llm import PromptKind
from fuzzfeed.orchestrator import (
    CandidateReceived, CycleCompleted, PromptSent, RepairTriggered,
    TerminalOutcome, ValidityVerdict, WeaknessVerdict, validate_trace,
)

W = FuzzInput((1,), (), ())
PROMPTS = {"I": PromptKind.INITIAL_WP, "V": PromptKind.REPAIR_VALIDITY,
           "W": PromptKind.REPAIR_WEAKNESS}
OUTCOMES = {"A": "accepted", "E": "exhausted-budget", "M": "malformed",
            "B": "fuzz-blind"}


def _validity(verdict, vacuous=False):
    return ValidityVerdict(cycle=1, iteration=1, verdict=verdict, trials=10,
                           satisfied=0 if vacuous else 5, step_limited=0,
                           precond_faults=0, seed=1, vacuous=vacuous,
                           witness=W if verdict == "counterexample" else None)


def _weakness(verdict):
    return WeaknessVerdict(cycle=1, verdict=verdict, trials=10, satisfied=5,
                           step_limited=0, precond_faults=0, seed=1,
                           witness=W if verdict == "counterexample" else None)


def event_from_token(token: str):
    if token.upper() in PROMPTS:
        return PromptSent(PROMPTS[token.upper()], 1, "h" * 64,
                          retry=token.islower())
    if token in OUTCOMES:
        return TerminalOutcome(OUTCOMES[token], 1, 1, False)
    return {
        "c": lambda: CandidateReceived(1, "bool precondition...", ""),
        "p": lambda: _validity("likely-pass"),
        "q": lambda: _validity("likely-pass", vacuous=True),
        "x": lambda: _validity("counterexample"),
        "P": lambda: _weakness("likely-pass"),
        "X": lambda: _weakness("counterexample"),
        "R": lambda: RepairTriggered(PromptKind.REPAIR_VALIDITY, 1, W),
        "S": lambda: RepairTriggered(PromptKind.REPAIR_WEAKNESS, 1, W),
        "C": lambda: CycleCompleted(1),
    }[token]()


def events_from_tokens(tokens: str) -> list:
    return [event_from_token(t) for t in tokens]


# (max_validity_iterations, max_cycles) -> (legal, illegal) event strings,
# recorded from the hand-written trace walker this check replaced.
TRACE_LANGUAGE = {
    (1, 1): (
        "IM iM IiM iiM IcA IicA IcM IcxE IcxM IcqB IcqE IcpE IcqM IcpPA "
        "IcqPE IcpPM IcpXE IcpXM IcpXSWM IcpXSWcM IcpXSwwM",
        "IIM IE IiiM IVcM IcB IcE IcAA Ic IcxRVcpPA IcxRVcxE IcxRvcxE "
        "IcxRVvcqB IcxRVcxRVcpPA IcxRVVcpPA IcxRWcpPA IcxRVcxRVcxRVcpPA "
        "IcxRVM IcxRVcM IcxRVvM IcxRVcxRVM IcxRVcE IcxRVcA IcxRM "
        "IcxRVcxRVcxRVM IcxA IcxB IcxPA IcxpPA IcpB IcqPB IcpA Icp IcqA "
        "IcpPB IcPA IcpPPA IcpPAP IcXE IcpXA IcpXC IcpXB IcpXSWcE "
        "IcpXRVcE IcpXSM IcpPSWcM IcpXSWcA IcpXSWcCpPA IcpXSWcCxRVcpPA "
        "IcpXSWcCpXSWcCpPA IcpXSWcpPA IcpXSWcC IcpXSWcCpXSWcCE IcpXSWcCE "
        "IcpXSWcCM IcpXSWcCA IcpXSWcCB IcpXSWcCPA IcxRVcpXSWcCxRVcxRVcqB "
        "IcxRVcpXSWcCxRVcxRVcxE",
    ),
    (2, 2): (
        "IM iM IiM iiM IcA IicA IcM IcxRVcpPA IcxRVcxE IcxRvcxE IcxRVvcqB "
        "IcxRVM IcxRVcM IcxRVvM IcxE IcxM IcqB IcqE IcpE IcqM IcpPA IcqPE "
        "IcpPM IcpXE IcpXM IcpXSWM IcpXSWcM IcpXSwwM IcpXSWcCpPA "
        "IcpXSWcCxRVcpPA IcpXSWcCE IcpXSWcCM",
        "IIM IE IiiM IVcM IcB IcE IcAA Ic IcxRVcxRVcpPA IcxRVVcpPA "
        "IcxRWcpPA IcxRVcxRVcxRVcpPA IcxRVcxRVM IcxRVcE IcxRVcA IcxRM "
        "IcxRVcxRVcxRVM IcxA IcxB IcxPA IcxpPA IcpB IcqPB IcpA Icp IcqA "
        "IcpPB IcPA IcpPPA IcpPAP IcXE IcpXA IcpXC IcpXB IcpXSWcE "
        "IcpXRVcE IcpXSM IcpPSWcM IcpXSWcA IcpXSWcCpXSWcCpPA IcpXSWcpPA "
        "IcpXSWcC IcpXSWcCpXSWcCE IcpXSWcCA IcpXSWcCB IcpXSWcCPA "
        "IcxRVcpXSWcCxRVcxRVcqB IcxRVcpXSWcCxRVcxRVcxE",
    ),
    (10, 3): (
        "IM iM IiM iiM IcA IicA IcM IcxRVcpPA IcxRVcxE IcxRvcxE IcxRVvcqB "
        "IcxRVcxRVcpPA IcxRVcxRVcxRVcpPA IcxRVM IcxRVcM IcxRVvM "
        "IcxRVcxRVM IcxRVcxRVcxRVM IcxE IcxM IcqB IcqE IcpE IcqM IcpPA "
        "IcqPE IcpPM IcpXE IcpXM IcpXSWM IcpXSWcM IcpXSwwM IcpXSWcCpPA "
        "IcpXSWcCxRVcpPA IcpXSWcCpXSWcCpPA IcpXSWcCpXSWcCE IcpXSWcCE "
        "IcpXSWcCM IcxRVcpXSWcCxRVcxRVcqB IcxRVcpXSWcCxRVcxRVcxE",
        "IIM IE IiiM IVcM IcB IcE IcAA Ic IcxRVVcpPA IcxRWcpPA IcxRVcE "
        "IcxRVcA IcxRM IcxA IcxB IcxPA IcxpPA IcpB IcqPB IcpA Icp IcqA "
        "IcpPB IcPA IcpPPA IcpPAP IcXE IcpXA IcpXC IcpXB IcpXSWcE "
        "IcpXRVcE IcpXSM IcpPSWcM IcpXSWcA IcpXSWcpPA IcpXSWcC IcpXSWcCA "
        "IcpXSWcCB IcpXSWcCPA",
    ),
}


@pytest.mark.parametrize("caps", sorted(TRACE_LANGUAGE))
def test_trace_language_table(caps):
    legal, illegal = TRACE_LANGUAGE[caps]
    wrong = [s for s in legal.split() if validate_trace(events_from_tokens(s), *caps)]
    wrong += [s for s in illegal.split()
              if not validate_trace(events_from_tokens(s), *caps)]
    assert wrong == []
