"""Candidate extraction from raw model output."""
from __future__ import annotations

import pytest

from fuzzfeed.llm import (
    CandidateWp, ExtractionError, FOO_MUTATED, MISSING_PRECONDITION,
    TYPE_ERROR, UNPARSABLE, candidate_from_program, extract_candidate,
    strip_code_fences,
)
from fuzzfeed.minilang import parse

from conftest import WEAKEST_WP, with_precondition


def full_response(sorting_copy, pre: str) -> str:
    return sorting_copy.program_source.rstrip() + "\n\n" + pre


def test_plain_response(sorting_copy, sorting_copy_ast):
    text = full_response(sorting_copy, WEAKEST_WP)
    candidate = extract_candidate(text, sorting_copy_ast)
    assert isinstance(candidate, CandidateWp)
    assert candidate.program.has_precondition()
    assert candidate.program.foo == sorting_copy_ast.foo
    assert candidate.response_text == text


def test_fenced_response(sorting_copy, sorting_copy_ast):
    text = "```\n" + full_response(sorting_copy, WEAKEST_WP) + "\n```"
    candidate = extract_candidate(text, sorting_copy_ast)
    assert candidate.program.has_precondition()


def test_language_tagged_fence(sorting_copy, sorting_copy_ast):
    text = "```java\n" + full_response(sorting_copy, WEAKEST_WP) + "\n```"
    assert extract_candidate(text, sorting_copy_ast).program.has_precondition()


def test_strip_code_fences_passthrough():
    assert strip_code_fences("no fences here") == "no fences here"
    assert strip_code_fences("```\nabc\n```") == "abc"
    assert strip_code_fences("before\n```\nabc\n```\nafter") == "abc"


def test_comment_capture(sorting_copy, sorting_copy_ast):
    candidate = extract_candidate(full_response(sorting_copy, WEAKEST_WP),
                                  sorting_copy_ast)
    assert candidate.comment.startswith("// Precondition:")
    assert "sorted in non-decreasing order" in candidate.comment


def test_no_comment_is_empty_string(sorting_copy, sorting_copy_ast):
    bare = ("bool precondition(int[] a, int[] b, int[] c) "
            "{ return true; }\n")
    candidate = extract_candidate(full_response(sorting_copy, bare),
                                  sorting_copy_ast)
    assert candidate.comment == ""


def test_unparsable(sorting_copy_ast):
    with pytest.raises(ExtractionError) as exc:
        extract_candidate("The precondition is that a must be sorted.",
                          sorting_copy_ast)
    assert exc.value.kind == UNPARSABLE


def test_missing_precondition(sorting_copy, sorting_copy_ast):
    with pytest.raises(ExtractionError) as exc:
        extract_candidate(sorting_copy.program_source, sorting_copy_ast)
    assert exc.value.kind == MISSING_PRECONDITION


def test_foo_mutated(sorting_copy, sorting_copy_ast):
    tampered = sorting_copy.program_source.replace(
        "if (N == 0 || len(b) != N)", "if (N == 0)")
    assert tampered != sorting_copy.program_source
    with pytest.raises(ExtractionError) as exc:
        extract_candidate(tampered.rstrip() + "\n\n" + WEAKEST_WP,
                          sorting_copy_ast)
    assert exc.value.kind == FOO_MUTATED


def test_type_error(sorting_copy, sorting_copy_ast):
    bad = ("bool precondition(int[] a, int[] b, int[] c) "
           "{ return len(a) + true; }\n")
    with pytest.raises(ExtractionError) as exc:
        extract_candidate(full_response(sorting_copy, bad), sorting_copy_ast)
    assert exc.value.kind == TYPE_ERROR


def test_whitespace_only_changes_to_foo_are_fine(sorting_copy,
                                                 sorting_copy_ast):
    # AST equality, not text equality: reindenting foo is not a mutation.
    reindented = sorting_copy.program_source.replace("    ", "  ")
    candidate = extract_candidate(reindented.rstrip() + "\n\n" + WEAKEST_WP,
                                  sorting_copy_ast)
    assert candidate.program.foo == sorting_copy_ast.foo


def test_candidate_from_program(sorting_copy):
    ast = with_precondition(sorting_copy.program_source, WEAKEST_WP)
    candidate = candidate_from_program(ast)
    assert candidate.program is ast
    assert candidate.source == ast.source_text
    assert candidate.comment == ""


def test_candidate_from_program_keeps_its_comment(sorting_copy):
    ast = with_precondition(sorting_copy.program_source, WEAKEST_WP)
    candidate = candidate_from_program(ast, comment="// a is sorted")
    assert candidate.comment == "// a is sorted"


def test_candidate_from_program_requires_precondition(sorting_copy_ast):
    with pytest.raises(ExtractionError):
        candidate_from_program(sorting_copy_ast)
