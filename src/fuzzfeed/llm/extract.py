"""Turning raw model output into a validated candidate precondition."""
from __future__ import annotations

import re
from dataclasses import dataclass

from ..minilang import (
    MiniLangError, MiniTypeError, MissingReturn, ProgramAst, parse, typecheck,
)

# Extraction failure kinds.
UNPARSABLE = "unparsable"
FOO_MUTATED = "foo-mutated"
MISSING_PRECONDITION = "missing-precondition"
TYPE_ERROR = "type-error"


class ExtractionError(Exception):
    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


@dataclass(frozen=True)
class CandidateWp:
    """A typechecked program holding the unchanged 'foo' plus the model's
    'precondition', with the model's descriptive comment if one was given."""

    program: ProgramAst
    response_text: str
    comment: str

    @property
    def source(self) -> str:
        return self.program.source_text


_FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)
_PRECOND_HEADER_RE = re.compile(r"^\s*bool\s+precondition\s*\(")


def strip_code_fences(text: str) -> str:
    """Return the fenced code if any fences are present, else the text."""
    blocks = _FENCE_RE.findall(text)
    if blocks:
        return "\n".join(b.strip("\n") for b in blocks)
    return text


def _preceding_comment(source: str) -> str:
    """The contiguous // lines immediately before the precondition header."""
    lines = source.splitlines()
    for i, line in enumerate(lines):
        if _PRECOND_HEADER_RE.match(line):
            comments = []
            j = i - 1
            while j >= 0 and lines[j].lstrip().startswith("//"):
                comments.append(lines[j].strip())
                j -= 1
            return "\n".join(reversed(comments))
    return ""


def extract_candidate(response_text: str, original: ProgramAst) -> CandidateWp:
    """Parse, typecheck, and validate a model response against the original
    program. Raises ExtractionError with kind unparsable | foo-mutated |
    missing-precondition | type-error."""
    source = strip_code_fences(response_text)
    try:
        program = parse(source)
    except MiniLangError as exc:
        raise ExtractionError(UNPARSABLE, str(exc)) from exc
    if not program.has_precondition():
        raise ExtractionError(MISSING_PRECONDITION,
                              "response has no 'precondition' function")
    if program.foo != original.foo:
        raise ExtractionError(FOO_MUTATED, "'foo' differs from the original")
    try:
        typecheck(program)
    except (MiniTypeError, MissingReturn) as exc:
        raise ExtractionError(TYPE_ERROR, str(exc)) from exc
    return CandidateWp(program=program, response_text=response_text,
                       comment=_preceding_comment(source))


def candidate_from_program(program: ProgramAst,
                           comment: str = "") -> CandidateWp:
    """Wrap an already-built program (with precondition) as a candidate."""
    if not program.has_precondition():
        raise ExtractionError(MISSING_PRECONDITION,
                              "program has no 'precondition' function")
    typecheck(program)
    return CandidateWp(program=program, response_text=program.source_text,
                       comment=comment)
