"""MiniLang: parser, static checker, and deterministic interpreter."""
from .astdefs import (
    Assign, Binary, BinarySearchCall, BoolLit, CloneCall, For, FunctionDef,
    If, Index, IndexAssign, IntLit, Len, Param, Pos, ProgramAst, Return,
    SortCall, SortStmt, Throw, Ty, Unary, Var, VarDecl, While,
    FOO, PRECONDITION, NO_POS, to_source,
)
from .checker import typecheck
from .errors import (
    BadSignature, DuplicateFunction, MiniLangError, MiniSyntaxError,
    MiniTypeError, MissingFoo, MissingPrecondition, MissingReturn,
)
from .interp import (
    DEFAULT_STEP_LIMIT, INT_MAX, INT_MIN, ExecOutcome, Failure, FailureKind,
    PrecondResult, StepLimitExceeded, Success, SUCCESS_ZERO,
    DIAG_DIVISION_BY_ZERO, DIAG_OUT_OF_BOUNDS, DIAG_STEP_LIMIT, DIAG_THROW,
    eval_precondition, is_success, run_foo, run_function, run_precondition,
)
from .parser import MAX_BLOCK_DEPTH, MAX_EXPR_DEPTH, parse, wrap32

__all__ = [
    "Assign", "Binary", "BinarySearchCall", "BoolLit", "CloneCall", "For",
    "FunctionDef", "If", "Index", "IndexAssign", "IntLit", "Len", "Param",
    "Pos", "ProgramAst", "Return", "SortCall", "SortStmt", "Throw", "Ty",
    "Unary", "Var", "VarDecl", "While", "FOO", "PRECONDITION", "NO_POS",
    "to_source", "typecheck", "BadSignature", "DuplicateFunction",
    "MiniLangError", "MiniSyntaxError", "MiniTypeError", "MissingFoo",
    "MissingPrecondition", "MissingReturn", "DEFAULT_STEP_LIMIT", "INT_MAX",
    "INT_MIN", "ExecOutcome", "Failure", "FailureKind", "PrecondResult",
    "StepLimitExceeded", "Success", "SUCCESS_ZERO", "DIAG_DIVISION_BY_ZERO",
    "DIAG_OUT_OF_BOUNDS", "DIAG_STEP_LIMIT", "DIAG_THROW",
    "eval_precondition", "is_success", "run_foo", "run_function",
    "run_precondition", "MAX_BLOCK_DEPTH", "MAX_EXPR_DEPTH", "parse", "wrap32",
]
