"""Nesting caps: a program at MAX_BLOCK_DEPTH / MAX_EXPR_DEPTH compiles to
Python and runs; one level deeper is a MiniSyntaxError, which extraction
reports as unparsable and the repair loop ends as malformed."""
from __future__ import annotations

import json

import pytest

from fuzzfeed.cli import main
from fuzzfeed.fuzzing import FuzzInput
from fuzzfeed.llm import UNPARSABLE, ExtractionError, extract_candidate
from fuzzfeed.minilang import (
    MAX_BLOCK_DEPTH, MAX_EXPR_DEPTH, MiniSyntaxError, Success, parse,
    run_foo, run_precondition, to_source, typecheck,
)

# Each wrapper adds exactly one level to the tree; between them they cover
# the forms whose generated Python nests deepest. On a = [0] every level
# evaluates to 0.
_WRAPPERS = ("a[{}]", "({} - 0)", "-({})", "binarySearch(a, {})", "(0 * {})")
ZERO_A = FuzzInput((0,), (), ())


def deep_int(height: int) -> str:
    e = "0"
    for i in range(height - 1):
        e = _WRAPPERS[i % len(_WRAPPERS)].format(e)
    return e


def nested_foo(blocks: int, expr: str) -> str:
    """foo returning expr from inside `blocks` nested while/for/if."""
    openers = ("while (len(a) > 0) {{", "for (int i{k} = 0; i{k} < 1; i{k} = i{k} + 1) {{",
               "if (len(b) == 0) {{")
    body = "".join(openers[k % 3].format(k=k) + "\n" for k in range(blocks))
    return ("int foo(int[] a, int[] b, int[] c) {\n" + body
            + f"return {expr};\n" + "}\n" * blocks + "throw;\n}\n")


def test_program_at_both_caps_compiles_and_runs():
    program = parse(nested_foo(MAX_BLOCK_DEPTH, deep_int(MAX_EXPR_DEPTH)))
    typecheck(program)
    assert run_foo(program, ZERO_A) == Success(0)
    assert parse(to_source(program)) == program


def test_parentheses_up_to_the_cap():
    # The outermost expression is one level, each parenthesized group one more.
    groups = MAX_EXPR_DEPTH - 1
    at_cap = "(" * groups + "7" + ")" * groups
    assert run_foo(parse(nested_foo(0, at_cap)), ZERO_A) == Success(7)
    with pytest.raises(MiniSyntaxError, match="nested more than"):
        parse(nested_foo(0, "(" + at_cap + ")"))


@pytest.mark.parametrize("source", [
    nested_foo(0, deep_int(MAX_EXPR_DEPTH + 1)),
    nested_foo(0, " + ".join(["1"] * (MAX_EXPR_DEPTH + 1))),
    nested_foo(0, "-" * MAX_EXPR_DEPTH + "len(a)"),
    nested_foo(MAX_BLOCK_DEPTH + 1, "0"),
], ids=["operators", "chain", "prefix", "blocks"])
def test_one_level_past_a_cap_is_a_syntax_error(source):
    with pytest.raises(MiniSyntaxError, match="nested more than"):
        parse(source)


def test_chain_and_prefix_run_at_the_cap_run():
    chain = " + ".join(["1"] * MAX_EXPR_DEPTH)
    assert run_foo(parse(nested_foo(0, chain)), ZERO_A) == Success(MAX_EXPR_DEPTH)
    prefix = "-" * (MAX_EXPR_DEPTH - 1) + "len(a)"
    assert run_foo(parse(nested_foo(0, prefix)), ZERO_A) == Success(-1)


@pytest.mark.parametrize("literal", ["9" * 5000, "\u00b2"])
def test_unreadable_integer_literal_is_a_syntax_error(literal):
    with pytest.raises(MiniSyntaxError, match="integer literal"):
        parse(nested_foo(0, literal))


def deep_response(program_source: str, bool_expr: str) -> str:
    return (program_source.rstrip() + "\n\nbool precondition(int[] a, int[] b, "
            f"int[] c) {{\n    return {bool_expr};\n}}\n")


def test_extraction_at_and_past_the_expression_cap(sorting_copy,
                                                   sorting_copy_ast):
    at_cap = deep_response(sorting_copy.program_source,
                           deep_int(MAX_EXPR_DEPTH - 1) + " == 0")
    candidate = extract_candidate(at_cap, sorting_copy_ast)
    assert run_precondition(candidate.program, ZERO_A).value is True
    too_deep = deep_response(sorting_copy.program_source,
                             deep_int(MAX_EXPR_DEPTH) + " == 0")
    with pytest.raises(ExtractionError) as exc:
        extract_candidate(too_deep, sorting_copy_ast)
    assert exc.value.kind == UNPARSABLE


@pytest.mark.parametrize("bool_expr", [
    "(" * 200 + "true" + ")" * 200,
    " + ".join(["1"] * 1000) + " > 0",
    "!" * 5000 + "true",
], ids=["parentheses", "chain", "prefix"])
def test_pathological_replies_are_unparsable(sorting_copy, sorting_copy_ast,
                                             bool_expr):
    with pytest.raises(ExtractionError) as exc:
        extract_candidate(deep_response(sorting_copy.program_source, bool_expr),
                          sorting_copy_ast)
    assert exc.value.kind == UNPARSABLE


def test_generate_with_two_too_deep_replies_ends_malformed(tmp_path,
                                                           sorting_copy,
                                                           capsys):
    program_file = tmp_path / "sorting_copy.mini"
    program_file.write_text(sorting_copy.program_source)
    replies = [deep_response(sorting_copy.program_source, "(" * 200 + "true" + ")" * 200),
               deep_response(sorting_copy.program_source,
                             " + ".join(["1"] * 1000) + " > 0")]
    script = tmp_path / "deep.jsonl"
    script.write_text("".join(json.dumps({"response": r}) + "\n" for r in replies))
    code = main(["generate", str(program_file), "--provider", f"scripted:{script}",
                 "--seed", "7", "--fuzz-seconds", "0", "--fuzz-trials", "100",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    captured = capsys.readouterr()
    assert "malformed" in captured.err
    assert "Traceback" not in captured.err + captured.out
