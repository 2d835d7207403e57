"""Loop cycle detection: a run that exhausts its first _PROBE steps is run
again with a check at every loop back-edge, which ends the run as soon as a
loop head repeats a state. A repeated state proves non-termination, so the
outcome is the StepLimitExceeded the full run would have had; every run that
does not repeat a state keeps its exact outcome and step accounting."""
from __future__ import annotations

import pytest

from fuzzfeed.fuzzing import EMPTY_INPUT, FuzzInput
from fuzzfeed.minilang import (
    DEFAULT_STEP_LIMIT, StepLimitExceeded, Success, parse, run_foo, typecheck,
)
from fuzzfeed.minilang.interp import (
    _PROBE, _CycleSignal, _StepsExhausted, _compile_function,
)

# A caught loop is caught within this many steps of the second run.
QUICK = 1000


def foo_program(body: str):
    program = parse("int foo(int[] a, int[] b, int[] c) {\n" + body + "\n}")
    typecheck(program)
    return program


def run_cycle_checked(program, inp: FuzzInput, steps: int):
    """Call the cycle-checking variant of foo directly with `steps` steps."""
    checked = _compile_function(program.foo, cycle_check=True)
    return checked(list(inp.a), list(inp.b), list(inp.c), steps)


STALLED = {
    "index never advances (period 1)": (
        "int i = 0;\n"
        "while (i < len(a)) { if (a[i] > 0) { i = i + 1; } }\n"
        "return 0;", FuzzInput((1, -1, 2), (), ())),
    "counter modulo 3 (period 3)": (
        "int i = 0;\n"
        "while (true) { i = (i + 1) % 3; }\n"
        "return 0;", EMPTY_INPUT),
    "stalled inner loop": (
        "for (int i = 0; i < 3; i = i + 1) {\n"
        "    int j = 0;\n"
        "    while (j < 5) { if (j < 2) { j = j + 1; } }\n"
        "}\n"
        "return 0;", EMPTY_INPUT),
    "stalled outer loop, terminating inner loop": (
        "int i = 0;\n"
        "while (i < 10) {\n"
        "    int j = 0;\n"
        "    while (j < 3) { j = j + 1; }\n"
        "    if (i < 2) { i = i + 1; }\n"
        "}\n"
        "return 0;", EMPTY_INPUT),
    "while (true) with no locals": (
        "while (true) { }\n"
        "return 0;", FuzzInput((4, 5), (6,), ())),
}


@pytest.mark.parametrize("body,inp", STALLED.values(), ids=STALLED.keys())
def test_repeated_loop_state_is_caught_quickly(body, inp):
    program = foo_program(body)
    with pytest.raises(_CycleSignal):
        run_cycle_checked(program, inp, QUICK)
    assert run_foo(program, inp) == StepLimitExceeded(DEFAULT_STEP_LIMIT)


def test_equal_values_with_different_aliasing_are_not_a_cycle():
    # x1..x8 start as distinct clones of a and shift one place per
    # iteration, with a shifted in at the end: every loop head sees r == 0
    # and all arrays equal to {0}, but x1 aliases a only from the ninth
    # iteration on, when the write through x1 shows in a and the loop ends.
    n = 8
    shifts = " ".join(f"x{i} = x{i + 1};" for i in range(1, n))
    program = foo_program(
        "int w = 0;\n"
        f"while (w < {_PROBE}) {{ w = w + 1; }}\n"  # reach the second run
        + "".join(f"int[] x{i} = clone(a);\n" for i in range(1, n + 1))
        + "int r = 0;\n"
        "while (r == 0) {\n"
        "    x1[0] = 1;\n"
        "    if (a[0] == 1) { r = 1; }\n"
        "    x1[0] = 0;\n"
        f"    {shifts} x{n} = a;\n"
        "}\n"
        "return 7;")
    inp = FuzzInput((0,), (), ())
    assert run_cycle_checked(program, inp, DEFAULT_STEP_LIMIT) == 7
    assert run_foo(program, inp) == Success(7)


def test_loop_that_changes_only_array_contents_is_not_a_cycle():
    program = foo_program("while (a[0] < 50) { a[0] = a[0] + 1; }\n"
                          "return a[0];")
    inp = FuzzInput((0,), (), ())
    assert run_cycle_checked(program, inp, DEFAULT_STEP_LIMIT) == 50


def test_counter_that_never_repeats_runs_to_the_limit():
    # 32-bit wrap-around repeats i only after 2**32 iterations.
    program = foo_program("int i = 0;\nwhile (true) { i = i + 1; }\n"
                          "return 0;")
    with pytest.raises(_StepsExhausted) as raised:
        run_cycle_checked(program, EMPTY_INPUT, DEFAULT_STEP_LIMIT)
    assert type(raised.value) is _StepsExhausted
    assert run_foo(program, EMPTY_INPUT) == \
        StepLimitExceeded(DEFAULT_STEP_LIMIT)


def test_loop_longer_than_the_probe_keeps_its_exact_step_count():
    count = 3 * _PROBE
    program = foo_program(f"int i = 0;\nwhile (i < {count}) {{ i = i + 1; }}\n"
                          "return i;")
    # The declaration, two steps per iteration, the failing condition check
    # and the return.
    n = 1 + 2 * count + 1 + 1
    assert n > _PROBE
    assert run_foo(program, EMPTY_INPUT, n) == Success(count)
    assert run_foo(program, EMPTY_INPUT, n - 1) == StepLimitExceeded(n - 1)
    assert run_foo(program, EMPTY_INPUT) == Success(count)
