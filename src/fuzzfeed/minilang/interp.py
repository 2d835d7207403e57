"""Deterministic MiniLang interpreter.

Each function is translated once into the source of one flat Python
function, compiled with compile() and cached on the ProgramAst; running a
function is then a plain call. The generated code keeps the remaining steps
in a local, inlines wrap-around arithmetic and bounds checks, and calls small
helpers only for '/', '%', binarySearch, sort(...) as an expression and the
out-of-bounds raise. Semantics:

  - all integer arithmetic is 32-bit two's-complement with wrap-around;
    division truncates toward zero; division/modulo by zero is a Failure
  - array reads/writes outside [0, len) are a Failure
  - 'throw;' is a Failure
  - every execution is bounded by a step limit (one step per executed
    statement and per loop-condition check), so all evaluations are total

Execution never mutates caller-provided inputs: arrays are copied on entry.

A run has two tiers. It first gets at most _PROBE steps; nearly every
evaluation finishes within them. A run that exhausts them under a larger
step limit starts again from fresh copies of its input in a variant of the
same function that, at every loop back-edge, compares the slots in scope at
the loop head with a snapshot of them (see _FunctionWriter). A match ends
the run with StepLimitExceeded(step_limit) at once: execution is
deterministic and a function calls no other function, so the same loop head
with the same state repeats the same iterations for ever, and the path
from the state back to itself neither faults nor returns. A stalled loop
thus costs about _PROBE steps instead of the whole step limit; a loop that
keeps changing its state still runs to the limit, with the same outcome and
step accounting as before.

No text of the program reaches the generated source: every variable becomes
a numbered slot (v0, v1, ...), literals are emitted as the repr of a Python
int or bool, and operators come from fixed tables, so a model's reply cannot
inject Python. The parser's nesting caps (MAX_BLOCK_DEPTH, MAX_EXPR_DEPTH)
keep every accepted program within what compile() accepts.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

from .astdefs import (
    Assign, Binary, BinarySearchCall, BoolLit, CloneCall, For, FunctionDef,
    If, Index, IndexAssign, IntLit, Len, ProgramAst, Return, SortCall,
    SortStmt, Throw, Ty, Unary, Var, VarDecl, While, FOO, PRECONDITION,
)
from .errors import MissingPrecondition

DEFAULT_STEP_LIMIT = 1_000_000

INT_MIN = -0x80000000
INT_MAX = 0x7FFFFFFF


class FailureKind(str, Enum):
    EXPLICIT_THROW = "explicit-throw"
    INDEX_OUT_OF_BOUNDS = "index-out-of-bounds"
    DIVISION_BY_ZERO = "division-by-zero"


@dataclass(frozen=True)
class Success:
    value: int


@dataclass(frozen=True)
class Failure:
    kind: FailureKind


@dataclass(frozen=True)
class StepLimitExceeded:
    steps_used: int


ExecOutcome = Union[Success, Failure, StepLimitExceeded]

SUCCESS_ZERO = Success(0)
SUCCESS_TRUE = Success(1)
FAIL_THROW = Failure(FailureKind.EXPLICIT_THROW)
FAIL_BOUNDS = Failure(FailureKind.INDEX_OUT_OF_BOUNDS)
FAIL_DIV_ZERO = Failure(FailureKind.DIVISION_BY_ZERO)


def is_success(outcome: ExecOutcome) -> bool:
    return type(outcome) is Success


# Signals raised by generated code; run_function maps each to an outcome.

class _ThrowSignal(Exception):
    pass


class _BoundsSignal(Exception):
    pass


class _DivZeroSignal(Exception):
    pass


class _StepsExhausted(Exception):
    pass


class _CycleSignal(_StepsExhausted):
    """A loop head saw the same state twice: the run can only end by
    running out of steps."""


# Helpers the generated code calls: the operations that need a statement
# (a raise, a loop) and so cannot be inlined into an expression.

def _oob():
    raise _BoundsSignal


def _div(l, r):
    if r == 0:
        raise _DivZeroSignal
    q = -(-l // r) if (l < 0) != (r < 0) else l // r
    return INT_MIN if q == 0x80000000 else q


def _mod(l, r):
    if r == 0:
        raise _DivZeroSignal
    q = -(-l // r) if (l < 0) != (r < 0) else l // r
    return l - q * r


def _sort(arr):
    arr.sort()
    return arr


def _bsearch(arr, v):
    lo, hi = 0, len(arr) - 1
    while lo <= hi:
        mid = (lo + hi) >> 1
        mv = arr[mid]
        if mv < v:
            lo = mid + 1
        elif mv > v:
            hi = mid - 1
        else:
            return mid
    return -lo - 1


_NAMESPACE = {
    "_StepsExhausted": _StepsExhausted, "_CycleSignal": _CycleSignal,
    "_ThrowSignal": _ThrowSignal,
    "_oob": _oob, "_div": _div, "_mod": _mod, "_sort": _sort,
    "_bsearch": _bsearch,
}

# Every operator's Python text comes from these tables, never from the AST.
_WRAPPED = {"+": "+", "-": "-", "*": "*"}
_HELPER_OPS = {"/": "_div", "%": "_mod"}
_PLAIN_OPS = {"<": "<", "<=": "<=", ">": ">", ">=": ">=", "==": "==",
              "!=": "!=", "&&": "and", "||": "or"}

_STEP = ("s -= 1", "if s < 0: raise _StepsExhausted")

# Steps a run gets before a run that exhausts them is repeated with loop
# cycle detection.
_PROBE = 10_000


class _FunctionWriter:
    """Emits one MiniLang function as the source of a flat Python function
    'f(v0, v1, v2, s)': parameters and locals are numbered slots v<n>,
    bounds-check temporaries are t<n>, and s holds the remaining steps.

    Every emitted expression is a primary (name, literal, call or
    subscript) or fully parenthesized, so it can stand as an operand
    anywhere, and one MiniLang nesting level costs at most two Python
    parentheses.

    With cycle_check, every loop back-edge also compares the slots in scope
    at the loop head with a snapshot and raises _CycleSignal on a match.
    The snapshot is retaken at the first back-edge after the loop is
    entered and then whenever more steps than the current gap have passed
    since the last one, the gap doubling each time (Brent's scheme), so a
    cycle of any length is met once the gap exceeds it. The snapshot of loop
    <L> lives in the locals n<L> (the value of s below which the next
    snapshot is taken), p<L> (the gap), k<L>_<slot> (a value, or a copy of
    an array's contents) and o<L>_<slot> (the array object itself)."""

    def __init__(self, cycle_check: bool = False):
        self.lines = []
        self.scopes = [{}]
        self.slots = 0
        self.temps = 0
        self.arrays = set()
        self.cycle_check = cycle_check
        self.loops = 0

    def declare(self, name: str, ty: Ty) -> str:
        slot = f"v{self.slots}"
        self.slots += 1
        self.scopes[-1][name] = slot
        if ty == Ty.INT_ARRAY:
            self.arrays.add(slot)
        return slot

    def lookup(self, name: str) -> str:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise KeyError(name)

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def function(self, func: FunctionDef) -> str:
        params = ", ".join(self.declare(p.name, p.ty) for p in func.params)
        self.lines.append(f"def f({params}, s):")
        self.block(func.body, 1)
        # Unreachable after typecheck (definite-return analysis).
        self.emit(1, "raise AssertionError('fell off the end of its body')")
        return "\n".join(self.lines) + "\n"

    def emit(self, depth: int, *lines: str):
        ind = "    " * depth
        self.lines.extend(ind + line for line in lines)

    def block(self, stmts, depth: int):
        self.scopes.append({})
        for s in stmts:
            self.stmt(s, depth)
        if not stmts:
            self.emit(depth, "pass")
        self.scopes.pop()

    def loop(self, cond, body, update, d: int):
        """A while loop; a for loop's update runs at the end of the body."""
        reset, check = self.back_edge_check() if self.cycle_check else ((), ())
        self.emit(d, *reset, *_STEP, f"while {self.expr(cond)}:")
        self.block(body, d + 1)
        if update is not None:
            self.stmt(update, d + 1)
        self.emit(d + 1, *check, *_STEP)

    def back_edge_check(self) -> tuple[list, list]:
        """The snapshot reset before a loop and the check at its back-edge.
        The compared state is every slot in scope at the loop head; slots
        the body declares are assigned again before any read in the next
        iteration, and temporaries before any read at all."""
        self.loops += 1
        n, p = f"n{self.loops}", f"p{self.loops}"
        live = [slot for scope in self.scopes for slot in scope.values()]
        save, same = [], []
        # Scalars first, the most recently declared (loop indices) first.
        for v in reversed(live):
            if v not in self.arrays:
                k = f"k{self.loops}_{v}"
                save.append(f"    {k} = {v}")
                same.append(f"{v} == {k}")
        # An array matches only if it is the same object with the same
        # contents: equal contents alone miss a change of aliasing.
        for v in live:
            if v in self.arrays:
                o, k = f"o{self.loops}_{v}", f"k{self.loops}_{v}"
                save += [f"    {o} = {v}", f"    {k} = list({v})"]
                same += [f"{v} is {o}", f"{v} == {k}"]
        reset = [f"{n} = s", f"{p} = 1"]
        # The parser fixes the parameters a, b and c, so same is never empty.
        check = [f"if s < {n}:", f"    {p} += {p}", f"    {n} = s - {p}",
                 *save, f"elif {' and '.join(same)}:", "    raise _CycleSignal"]
        return reset, check

    def stmt(self, s, d: int):
        if isinstance(s, While):
            self.loop(s.cond, s.body, None, d)
            return
        if isinstance(s, For):
            self.scopes.append({})
            self.stmt(s.init, d)
            self.loop(s.cond, s.body, s.update, d)
            self.scopes.pop()
            return
        self.emit(d, *_STEP)
        if isinstance(s, VarDecl):
            value = self.expr(s.init)
            self.emit(d, f"{self.declare(s.name, s.ty)} = {value}")
        elif isinstance(s, Assign):
            self.emit(d, f"{self.lookup(s.name)} = {self.expr(s.value)}")
        elif isinstance(s, IndexAssign):
            # Both bounds are checked before the value is evaluated.
            arr, i = self.lookup(s.array), self.expr(s.index)
            if not _is_atom(i):
                t = self.temp()
                self.emit(d, f"{t} = {i}")
                i = t
            self.emit(d, f"if {i} < 0 or {i} >= len({arr}): _oob()",
                      f"{arr}[{i}] = {self.expr(s.value)}")
        elif isinstance(s, If):
            self.emit(d, f"if {self.expr(s.cond)}:")
            self.block(s.then_body, d + 1)
            if s.else_body is not None:
                self.emit(d, "else:")
                self.block(s.else_body, d + 1)
        elif isinstance(s, SortStmt):
            self.emit(d, f"{self.lookup(s.array)}.sort()")
        elif isinstance(s, Throw):
            self.emit(d, "raise _ThrowSignal")
        elif isinstance(s, Return):
            self.emit(d, f"return {self.expr(s.value)}")
        else:
            raise TypeError(f"unknown statement: {s!r}")

    def expr(self, e) -> str:
        if isinstance(e, IntLit):
            v = int(e.value)
            return repr(v) if v >= 0 else f"({v!r})"
        if isinstance(e, BoolLit):
            return "True" if e.value else "False"
        if isinstance(e, Var):
            return self.lookup(e.name)
        if isinstance(e, Index):
            # Reads check the lower bound here; the list's own check raises
            # IndexError past the end, which run_function maps to the same
            # Failure at the same point.
            arr, i = self.lookup(e.array), self.expr(e.index)
            if isinstance(e.index, IntLit):
                return f"{arr}[{i}]" if e.index.value >= 0 else "_oob()"
            if not _is_atom(i):
                t = self.temp()
                return f"({arr}[{t}] if ({t} := {i}) >= 0 else _oob())"
            return f"({arr}[{i}] if {i} >= 0 else _oob())"
        if isinstance(e, Len):
            return f"len({self.lookup(e.array)})"
        if isinstance(e, Unary):
            operand = self.expr(e.operand)
            if e.op == "-":
                return _wrap32(f"-{operand}")
            return f"(not {operand})"
        if isinstance(e, Binary):
            left, right = self.expr(e.left), self.expr(e.right)
            if e.op in _WRAPPED:
                return _wrap32(f"{left} {_WRAPPED[e.op]} {right}")
            if e.op in _HELPER_OPS:
                return f"{_HELPER_OPS[e.op]}({left}, {right})"
            return f"({left} {_PLAIN_OPS[e.op]} {right})"
        if isinstance(e, SortCall):
            return f"_sort({self.lookup(e.array)})"
        if isinstance(e, CloneCall):
            return f"list({self.lookup(e.array)})"
        if isinstance(e, BinarySearchCall):
            return f"_bsearch({self.lookup(e.array)}, {self.expr(e.key)})"
        raise TypeError(f"unknown expression: {e!r}")


def _is_atom(code: str) -> bool:
    """A slot name or a non-negative literal: safe to evaluate twice."""
    return code.isalnum()


def _wrap32(value: str) -> str:
    """32-bit two's-complement wrap-around of an unparenthesized sum,
    difference, product or negation of emitted expressions."""
    return f"(({value} + 0x80000000 & 0xFFFFFFFF) - 0x80000000)"


def _function_source(func: FunctionDef, cycle_check: bool = False) -> str:
    return _FunctionWriter(cycle_check).function(func)


def _compile_function(func: FunctionDef, cycle_check: bool = False):
    namespace = dict(_NAMESPACE)
    exec(compile(_function_source(func, cycle_check), "<minilang>", "exec"),
         namespace)
    return namespace["f"]


def run_function(program: ProgramAst, name: str, fuzz_input,
                 step_limit: int = DEFAULT_STEP_LIMIT) -> ExecOutcome:
    """Run one function on a FuzzInput-like (a, b, c) triple.

    A run that exhausts its first _PROBE steps is run again from the start
    with loop cycle detection, which ends a stalled loop at its first
    repeated loop-head state instead of after all step_limit steps."""
    compiled = program._compiled
    if compiled is None:
        compiled = program._compiled = {
            n: _compile_function(f) for n, f in program.functions.items()}
    try:
        try:
            v = compiled[name](list(fuzz_input.a), list(fuzz_input.b),
                               list(fuzz_input.c),
                               step_limit if step_limit < _PROBE else _PROBE)
        except _StepsExhausted:
            if step_limit <= _PROBE:
                raise
            # The cycle-checking variant is cached under (name, True).
            checked = compiled.get((name, True))
            if checked is None:
                checked = compiled[name, True] = _compile_function(
                    program.functions[name], cycle_check=True)
            v = checked(list(fuzz_input.a), list(fuzz_input.b),
                        list(fuzz_input.c), step_limit)
    except _ThrowSignal:
        return FAIL_THROW
    except (_BoundsSignal, IndexError):
        return FAIL_BOUNDS
    except _DivZeroSignal:
        return FAIL_DIV_ZERO
    except _StepsExhausted:
        # Also a repeated loop-head state: execution is deterministic, so
        # the run would repeat the same iterations until out of steps.
        return StepLimitExceeded(step_limit)
    if v == 0:
        return SUCCESS_ZERO
    if v is True:
        return SUCCESS_TRUE
    return Success(v)


def run_foo(program: ProgramAst, fuzz_input,
            step_limit: int = DEFAULT_STEP_LIMIT) -> ExecOutcome:
    """Run 'foo'; Success(0) is the success convention."""
    return run_function(program, FOO, fuzz_input, step_limit)


# Diagnostics attached to precondition evaluations that did not run to a
# boolean. Such evaluations count as 'false'.
DIAG_OUT_OF_BOUNDS = "OutOfBoundsInPrecondition"
DIAG_DIVISION_BY_ZERO = "DivisionByZeroInPrecondition"
DIAG_THROW = "ThrowInPrecondition"
DIAG_STEP_LIMIT = "StepLimitInPrecondition"

_PRECOND_DIAG = {
    FailureKind.INDEX_OUT_OF_BOUNDS: DIAG_OUT_OF_BOUNDS,
    FailureKind.DIVISION_BY_ZERO: DIAG_DIVISION_BY_ZERO,
    FailureKind.EXPLICIT_THROW: DIAG_THROW,
}


@dataclass(frozen=True)
class PrecondResult:
    value: bool
    diagnostic: str | None = None


def run_precondition(program: ProgramAst, fuzz_input,
                     step_limit: int = DEFAULT_STEP_LIMIT) -> PrecondResult:
    """Evaluate 'precondition'; faulting evaluations are false + diagnostic."""
    if not program.has_precondition():
        raise MissingPrecondition("program has no 'precondition' function")
    outcome = run_function(program, PRECONDITION, fuzz_input, step_limit)
    t = type(outcome)
    if t is Success:
        return PrecondResult(bool(outcome.value))
    if t is Failure:
        return PrecondResult(False, _PRECOND_DIAG[outcome.kind])
    return PrecondResult(False, DIAG_STEP_LIMIT)


def eval_precondition(program: ProgramAst, fuzz_input,
                      step_limit: int = DEFAULT_STEP_LIMIT) -> bool:
    return run_precondition(program, fuzz_input, step_limit).value
