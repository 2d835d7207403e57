"""Interpreter semantics, checked against independent oracles:
ctypes.c_int32 for wrap-around arithmetic, Python's sorted() for sort, and
bisect for the binarySearch contract."""
from __future__ import annotations

import ctypes
import io
import re
import tokenize
from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from fuzzfeed.fuzzing import EMPTY_INPUT, FuzzInput
from fuzzfeed.minilang import (
    DEFAULT_STEP_LIMIT, DIAG_DIVISION_BY_ZERO, DIAG_OUT_OF_BOUNDS,
    DIAG_STEP_LIMIT, DIAG_THROW, Failure, FailureKind, INT_MAX, INT_MIN,
    MissingPrecondition, StepLimitExceeded, Success, eval_precondition,
    is_success, parse, run_foo, run_function, run_precondition,
)
from fuzzfeed.minilang.interp import _PROBE, _function_source


def wrap(v: int) -> int:
    return ctypes.c_int32(v).value


def foo_src(body: str) -> str:
    return "int foo(int[] a, int[] b, int[] c) {\n" + body + "\n}"


def run_expr(expr: str, inputs: FuzzInput = EMPTY_INPUT,
             step_limit: int = DEFAULT_STEP_LIMIT):
    return run_foo(parse(foo_src(f"return {expr};")), inputs, step_limit)


int32s = st.integers(INT_MIN, INT_MAX)


# --- arithmetic ---

@given(int32s, int32s)
def test_add_sub_mul_wrap(x, y):
    assert run_expr(f"{x} + {y}") == Success(wrap(x + y))
    assert run_expr(f"{x} - {y}") == Success(wrap(x - y))
    assert run_expr(f"{x} * {y}") == Success(wrap(x * y))


@given(int32s, int32s.filter(lambda v: v != 0))
def test_division_truncates_toward_zero(x, y):
    expected = wrap(abs(x) // abs(y) * (1 if (x < 0) == (y < 0) else -1))
    assert run_expr(f"{x} / {y}") == Success(expected)


@given(int32s, int32s.filter(lambda v: v != 0))
def test_modulo_sign_follows_dividend(x, y):
    quotient = abs(x) // abs(y) * (1 if (x < 0) == (y < 0) else -1)
    assert run_expr(f"{x} % {y}") == Success(wrap(x - quotient * y))


def test_documented_overflow_example():
    assert run_expr("2147483647 + 1") == Success(INT_MIN)


def test_int_min_division_edge():
    assert run_expr(f"{INT_MIN} / -1") == Success(INT_MIN)
    assert run_expr(f"{INT_MIN} % -1") == Success(0)


@pytest.mark.parametrize("expr", ["1 / 0", "1 % 0", f"{INT_MIN} % 0"])
def test_division_by_zero_fails(expr):
    assert run_expr(expr) == Failure(FailureKind.DIVISION_BY_ZERO)


@given(int32s)
def test_unary_minus_wraps(x):
    assert run_expr(f"-(0 - {x}) + 0") == Success(wrap(x))
    assert run_expr(f"0 - {x}") == Success(wrap(-x))


def test_truncation_differs_from_python_floor():
    # -7 / 2 is -3 (toward zero), not Python's floor -4.
    assert run_expr("0 - 7 / 2") == Success(-3)
    assert run_expr("(0 - 7) % 2") == Success(-1)


# --- comparisons, logic, short-circuit ---

@given(int32s, int32s)
def test_comparisons(x, y):
    table = {"<": x < y, "<=": x <= y, ">": x > y, ">=": x >= y,
             "==": x == y, "!=": x != y}
    for op, expected in table.items():
        out = run_expr(f"({x} {op} {y}) == true")
        assert out == Success(1 if expected else 0)


def test_short_circuit_skips_faulting_operand():
    assert run_expr("false && 1 / 0 == 0") == Success(0)
    assert run_expr("true || 1 / 0 == 0") == Success(1)
    assert run_expr("true && 1 / 0 == 0") == Failure(
        FailureKind.DIVISION_BY_ZERO)


# --- arrays, bounds, builtins ---

def test_array_read_write():
    src = foo_src("int t = a[0];\na[0] = a[1];\na[1] = t;\nreturn a[0] - a[1];")
    out = run_foo(parse(src), FuzzInput((3, 10), (), ()))
    assert out == Success(7)


@pytest.mark.parametrize("body", [
    "return a[0];",
    "return a[-1];",
    "a[0] = 1; return 0;",
    "return b[len(b)];",
])
def test_out_of_bounds(body):
    out = run_foo(parse(foo_src(body)), EMPTY_INPUT)
    assert out == Failure(FailureKind.INDEX_OUT_OF_BOUNDS)


def test_throw():
    assert run_foo(parse(foo_src("throw;")), EMPTY_INPUT) == Failure(
        FailureKind.EXPLICIT_THROW)


def test_len():
    out = run_foo(parse(foo_src("return len(a) * 100 + len(b) * 10 + len(c);")),
                  FuzzInput((1, 2), (3,), ()))
    assert out == Success(210)


@given(st.lists(int32s, max_size=12))
def test_sort_matches_python_sorted(values):
    src = foo_src("sort(a);\nint i = 0;\nwhile (i < len(a)) {\n"
                  "    if (a[i] != b[i]) { throw; }\n    i = i + 1;\n}\n"
                  "return 0;")
    out = run_foo(parse(src), FuzzInput(tuple(values), tuple(sorted(values)), ()))
    assert out == Success(0)


def test_sort_is_local_to_the_run():
    inputs = FuzzInput((3, 1, 2), (), ())
    program = parse(foo_src("sort(a);\nreturn a[0];"))
    assert run_foo(program, inputs) == Success(1)
    assert inputs.a == (3, 1, 2)
    # And a second run sees the pristine input again.
    assert run_foo(program, inputs) == Success(1)


def test_clone_is_independent():
    src = foo_src("int[] d = clone(a);\nd[0] = 42;\nreturn a[0] * 100 + d[0];")
    assert run_foo(parse(src), FuzzInput((7,), (), ())) == Success(742)


@given(st.lists(int32s, max_size=10), int32s)
def test_binary_search_contract(values, key):
    arr = sorted(values)
    src = foo_src("return binarySearch(a, %d);" % key)
    out = run_foo(parse(src), FuzzInput(tuple(arr), (), ()))
    assert isinstance(out, Success)
    if key in arr:
        assert 0 <= out.value < len(arr) and arr[out.value] == key
    else:
        assert out.value == -bisect_left(arr, key) - 1


def test_binary_search_insertion_points():
    arr = (10, 20, 30)
    for key, expected in ((5, -1), (10, 0), (15, -2), (20, 1), (25, -3),
                          (30, 2), (35, -4)):
        out = run_expr(f"binarySearch(a, {key})", FuzzInput(arr, (), ()))
        assert out == Success(expected), key


def test_binary_search_total_on_unsorted_input():
    out = run_expr("binarySearch(a, 2)", FuzzInput((5, 1, 9, 0), (), ()))
    assert isinstance(out, Success)


# --- step limit ---

def test_infinite_loop_hits_step_limit():
    program = parse(foo_src("while (true) { int x = 0; }\nreturn 0;"))
    for limit in (1000, _PROBE, _PROBE + 1, DEFAULT_STEP_LIMIT):
        assert run_foo(program, EMPTY_INPUT, step_limit=limit) == \
            StepLimitExceeded(limit)


def test_step_limit_monotonic():
    program = parse(foo_src(
        "int i = 0;\nwhile (i < 100) { i = i + 1; }\nreturn i;"))
    low = run_foo(program, EMPTY_INPUT, step_limit=10)
    assert isinstance(low, StepLimitExceeded)
    high = run_foo(program, EMPTY_INPUT, step_limit=10_000)
    assert high == Success(100)
    # Raising the limit further never changes a completed outcome.
    assert run_foo(program, EMPTY_INPUT, step_limit=100_000) == high


# --- calling conventions ---

def test_success_zero_convention():
    assert is_success(Success(0))
    assert not is_success(Failure(FailureKind.EXPLICIT_THROW))
    assert not is_success(StepLimitExceeded(5))


def test_run_function_by_name(sorting_copy_ast):
    out = run_function(sorting_copy_ast, "foo", FuzzInput((1, 2), (0, 0), ()))
    assert out == Success(0)


def test_missing_precondition_raises():
    program = parse(foo_src("return 0;"))
    with pytest.raises(MissingPrecondition):
        run_precondition(program, EMPTY_INPUT)


def pre_program(pre_body: str):
    return parse(foo_src("return 0;") +
                 "\nbool precondition(int[] a, int[] b, int[] c) {\n"
                 + pre_body + "\n}")


def test_precondition_true_false():
    assert run_precondition(pre_program("return len(a) > 0;"),
                            FuzzInput((1,), (), ())).value is True
    assert run_precondition(pre_program("return len(a) > 0;"),
                            EMPTY_INPUT).value is False
    assert eval_precondition(pre_program("return true;"), EMPTY_INPUT) is True


@pytest.mark.parametrize("body,diag", [
    ("return a[5] == 0;", DIAG_OUT_OF_BOUNDS),
    ("return 1 / 0 == 0;", DIAG_DIVISION_BY_ZERO),
    ("throw;", DIAG_THROW),
])
def test_faulting_precondition_is_false_with_diagnostic(body, diag):
    result = run_precondition(pre_program(body), EMPTY_INPUT)
    assert result.value is False
    assert result.diagnostic == diag


def test_looping_precondition_is_false_with_diagnostic():
    result = run_precondition(pre_program("while (true) { int x = 0; }\n"
                                          "return true;"),
                              EMPTY_INPUT, step_limit=500)
    assert result.value is False
    assert result.diagnostic == DIAG_STEP_LIMIT


# --- determinism and purity ---

@settings(max_examples=30)
@given(st.lists(int32s, max_size=8), st.lists(int32s, max_size=8))
def test_runs_are_deterministic_and_pure(a, b):
    inputs = FuzzInput(tuple(a), tuple(b), ())
    program = parse(foo_src(
        "sort(a);\nint i = 0;\nint acc = 0;\n"
        "while (i < len(a)) { acc = acc + a[i]; i = i + 1; }\n"
        "if (len(b) > 0) { acc = acc + b[0]; }\nreturn acc;"))
    first = run_foo(program, inputs)
    assert run_foo(program, inputs) == first
    assert inputs.a == tuple(a) and inputs.b == tuple(b)


def test_mixed_program_end_to_end(sorting_copy_ast):
    ok = FuzzInput((1, 2, 3), (9, 9, 9), ())
    assert run_foo(sorting_copy_ast, ok) == Success(0)
    unsorted = FuzzInput((2, 1), (0, 0), ())
    assert run_foo(sorting_copy_ast, unsorted) == Failure(
        FailureKind.EXPLICIT_THROW)
    short_b = FuzzInput((1, 2), (0,), ())
    assert run_foo(sorting_copy_ast, short_b) == Failure(
        FailureKind.EXPLICIT_THROW)


# --- generated source ---

def test_program_names_never_reach_the_generated_source():
    # Names a verbatim translation would collide with or execute.
    program = parse(foo_src(
        "int s = 5;\nint v0 = len(a);\nint t1 = s * 2;\nint _oob = 0;\n"
        "int __import__ = s + v0 + t1;\n"
        "while (_oob < 3) { _oob = _oob + 1; }\n"
        "return __import__ + _oob;"))
    assert run_foo(program, FuzzInput((1, 2), (), ())) == Success(20)
    for cycle_check in (False, True):
        source = _function_source(program.foo, cycle_check)
        names = {tok.string for tok in
                 tokenize.generate_tokens(io.StringIO(source).readline)
                 if tok.type == tokenize.NAME}
        generated = {n for n in names
                     if re.fullmatch(r"[vtnp]\d+|[ko]\d+_v\d+", n)}
        assert names - generated <= {
            "def", "f", "s", "if", "elif", "else", "while", "return", "raise",
            "pass", "not", "and", "or", "is", "True", "False", "len", "list",
            "AssertionError", "_StepsExhausted", "_CycleSignal",
            "_ThrowSignal", "_oob", "_div", "_mod", "_sort", "_bsearch"}
