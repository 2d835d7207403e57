"""Benchmark programs with hand-derived ground-truth preconditions.

A corpus is a directory of .mini files plus a corpus.json manifest. Each
entry pairs a program (the foo function alone) with a truth file holding
the reference precondition. ``validate_corpus`` machine-checks the "truth"
claim: the attached precondition must survive both fuzzing phases at full
budget and an exhaustive sweep of the tiny domain.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterator, Optional

from .fuzzing import (
    TINY_MAX_LEN, TINY_VALUES, Counterexample, ExhaustiveCounterexample,
    FuzzBudget, FuzzInput, GeneratorConfig, Phase, default_config,
    derive_seed, exhaustive_check, validity_fuzz, weakness_fuzz,
)
from .minilang import (
    Binary, BinarySearchCall, BoolLit, DEFAULT_STEP_LIMIT, For, FunctionDef,
    If, Index, IndexAssign, MiniLangError, ProgramAst, Return, SortCall,
    SortStmt, Throw, Unary, VarDecl, While, parse, to_source, typecheck,
)

MANIFEST_NAME = "corpus.json"

# Stub foo for parsing a precondition on its own; exactly one line so
# reported line numbers can be shifted back to the precondition's file.
FOO_STUB = "int foo(int[] a, int[] b, int[] c) { return 0; }\n"


def program_with_precondition(program_source: str,
                              precondition_source: str) -> str:
    """Program text with precondition_source appended after foo."""
    return program_source.rstrip() + "\n\n" + precondition_source


class Category(str, Enum):
    EXISTENTIAL = "Existential"
    UNIVERSAL = "Universal"
    SORTING = "Sorting"
    SEARCH = "Search"


class CorpusError(Exception):
    pass


class ManifestMissing(CorpusError):
    pass


@dataclass(frozen=True)
class BenchmarkProgram:
    id: str
    category: Category
    program_source: str
    truth_source: str
    description: str

    def program(self) -> ProgramAst:
        return parse(self.program_source)

    def with_truth(self) -> ProgramAst:
        """The program with its ground-truth WP attached as precondition."""
        return parse(program_with_precondition(self.program_source,
                                               self.truth_source))

    def truth_function(self) -> FunctionDef:
        pre = self.with_truth().precondition
        assert pre is not None
        return pre


@dataclass(frozen=True)
class BenchmarkSet:
    name: str
    programs: tuple[BenchmarkProgram, ...]

    def __post_init__(self):
        ids = [p.id for p in self.programs]
        if len(set(ids)) != len(ids):
            raise CorpusError(f"duplicate program ids in set '{self.name}'")

    def __iter__(self) -> Iterator[BenchmarkProgram]:
        return iter(self.programs)

    def __len__(self) -> int:
        return len(self.programs)

    def by_id(self, program_id: str) -> BenchmarkProgram:
        for program in self.programs:
            if program.id == program_id:
                return program
        raise KeyError(program_id)


def builtin_corpus_dir() -> Path:
    """Locate the shipped corpus/builtin directory next to the package."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        candidate = parent / "corpus" / "builtin"
        if (candidate / MANIFEST_NAME).is_file():
            return candidate
    raise ManifestMissing("builtin corpus not found near the package")


def load_builtin_corpus() -> BenchmarkSet:
    return load_corpus(builtin_corpus_dir())


def _parse_checked(source: str, file: Path, line_offset: int = 0) -> ProgramAst:
    try:
        ast = parse(source)
        typecheck(ast)
        return ast
    except MiniLangError as exc:
        line = max(exc.line - line_offset, 0)
        raise CorpusError(f"{file.name}:{line}: {exc.message}") from exc


def load_corpus(path: str | Path) -> BenchmarkSet:
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ManifestMissing(f"no {MANIFEST_NAME} in {path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{manifest_path.name}: invalid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or "programs" not in manifest:
        raise CorpusError(f"{manifest_path.name}: expected a 'programs' list")

    programs = []
    for entry in manifest["programs"]:
        missing = [k for k in ("id", "category", "file", "truth", "description")
                   if k not in entry]
        if missing:
            raise CorpusError(
                f"{manifest_path.name}: entry missing keys {missing}")
        try:
            category = Category(entry["category"])
        except ValueError:
            raise CorpusError(
                f"{entry['id']}: unknown category {entry['category']!r}")
        program_file = path / entry["file"]
        truth_file = path / entry["truth"]
        for file in (program_file, truth_file):
            if not file.is_file():
                raise CorpusError(f"missing corpus file {file}")
        program_source = program_file.read_text(encoding="utf-8")
        truth_source = truth_file.read_text(encoding="utf-8")

        _parse_checked(program_source, program_file)
        # Truth parses on its own against a stub foo, then against the
        # real program (catches name collisions with foo's locals: none,
        # but keeps one validated artifact).
        _parse_checked(FOO_STUB + truth_source, truth_file, line_offset=1)
        ast = _parse_checked(
            program_with_precondition(program_source, truth_source), truth_file)
        if not ast.has_precondition():
            raise CorpusError(f"{truth_file.name}: no precondition function")

        programs.append(BenchmarkProgram(
            id=entry["id"], category=category,
            program_source=program_source, truth_source=truth_source,
            description=entry["description"]))
    return BenchmarkSet(name=manifest.get("name", path.name),
                        programs=tuple(programs))


# --- structural category checks ---

def _walk_statements(body) -> Iterator:
    for stmt in body:
        yield stmt
        if isinstance(stmt, (While, For)):
            yield from _walk_statements(stmt.body)
        elif isinstance(stmt, If):
            yield from _walk_statements(stmt.then_body)
            if stmt.else_body is not None:
                yield from _walk_statements(stmt.else_body)


def _walk_expressions(body) -> Iterator:
    def sub(expr) -> Iterator:
        yield expr
        if isinstance(expr, Unary):
            yield from sub(expr.operand)
        elif isinstance(expr, Binary):
            yield from sub(expr.left)
            yield from sub(expr.right)
        elif isinstance(expr, Index):
            yield from sub(expr.index)
        elif isinstance(expr, BinarySearchCall):
            yield from sub(expr.key)

    for stmt in _walk_statements(body):
        for expr in _statement_expressions(stmt):
            yield from sub(expr)


def _statement_expressions(stmt) -> Iterator:
    if isinstance(stmt, VarDecl) and stmt.init is not None:
        yield stmt.init
    elif isinstance(stmt, IndexAssign):
        yield stmt.index
        yield stmt.value
    elif isinstance(stmt, (While, If)):
        yield stmt.cond
    elif isinstance(stmt, For):
        yield stmt.cond
        yield from _statement_expressions(stmt.init)
        yield from _statement_expressions(stmt.update)
    elif isinstance(stmt, Return):
        yield stmt.value
    elif hasattr(stmt, "value") and not isinstance(stmt, Throw):
        yield stmt.value


def _loop_returns(fn: FunctionDef, value: bool) -> bool:
    """Whether some loop in fn contains `return <value>;`."""
    for stmt in _walk_statements(fn.body):
        if isinstance(stmt, (While, For)):
            for inner in _walk_statements(stmt.body):
                if isinstance(inner, Return) \
                        and isinstance(inner.value, BoolLit) \
                        and inner.value.value is value:
                    return True
    return False


def _uses_sort(fn: FunctionDef) -> bool:
    if any(isinstance(s, SortStmt) for s in _walk_statements(fn.body)):
        return True
    return any(isinstance(e, SortCall) for e in _walk_expressions(fn.body))


def _uses_binary_search(fn: FunctionDef) -> bool:
    return any(isinstance(e, BinarySearchCall)
               for e in _walk_expressions(fn.body))


def category_shape_problems(program: BenchmarkProgram) -> list[str]:
    """Structural fidelity of a benchmark to its category."""
    problems = []
    truth = program.truth_function()
    foo = program.program().foo
    if program.category is Category.EXISTENTIAL:
        if not _loop_returns(truth, True):
            problems.append("existential truth WP has no loop returning "
                            "true on a hit")
    elif program.category is Category.UNIVERSAL:
        if not _loop_returns(truth, False):
            problems.append("universal truth WP has no loop rejecting on "
                            "a violation")
    elif program.category is Category.SORTING:
        if not _uses_sort(foo):
            problems.append("sorting program does not use sort")
    elif program.category is Category.SEARCH:
        if not _uses_binary_search(foo):
            problems.append("search program does not use binarySearch")
    return problems


# --- truth-WP weakening used by the oracle-agreement checks ---

def drop_first_conjunct(fn: FunctionDef) -> Optional[FunctionDef]:
    """Remove the leading conjunct of a precondition, when one is evident.

    Handles three common shapes: a leading `if (...) { return false; }`
    guard, a leading guard loop, and a `return A && B;` body. Returns None
    when no such shape applies.
    """
    body = fn.body
    if not body:
        return None
    first = body[0]
    if isinstance(first, If) and first.else_body is None \
            and len(first.then_body) == 1 \
            and isinstance(first.then_body[0], Return) \
            and isinstance(first.then_body[0].value, BoolLit) \
            and len(body) > 1:
        return replace(fn, body=body[1:])
    if isinstance(first, (While, For)) and len(body) > 1:
        return replace(fn, body=body[1:])
    if len(body) == 1 and isinstance(first, Return) \
            and isinstance(first.value, Binary) and first.value.op == "&&":
        return replace(fn, body=(Return(first.value.right),))
    return None


def candidate_source_with(program: BenchmarkProgram,
                          precondition: FunctionDef) -> str:
    """Program text with the given function as its precondition."""
    return program_with_precondition(program.program_source,
                                     to_source(precondition))


# --- corpus validation ---

@dataclass(frozen=True)
class CorpusFinding:
    program_id: str
    kind: str  # validity | weakness | exhaustive-validity | ... | shape
    detail: str
    witness: Optional[FuzzInput] = None


def validate_corpus(benchmark_set: BenchmarkSet,
                    budget: FuzzBudget | None = None,
                    config: GeneratorConfig | None = None,
                    tiny_max_len: int = TINY_MAX_LEN,
                    tiny_values: tuple[int, ...] = TINY_VALUES,
                    step_limit: int = DEFAULT_STEP_LIMIT) -> list[CorpusFinding]:
    """Fuzz and exhaustively check every ground-truth WP; returns findings
    (an empty list means the corpus passed)."""
    budget = budget or FuzzBudget()
    config = config or default_config()
    findings: list[CorpusFinding] = []
    for program in benchmark_set:
        attached = program.with_truth()
        phase_config = config.with_seed(
            derive_seed(config.seed, program.id, Phase.VALIDITY.value))
        validity = validity_fuzz(attached, budget, phase_config,
                                 step_limit=step_limit)
        weakness = weakness_fuzz(attached, budget, phase_config,
                                 step_limit=step_limit, validity=validity)
        for phase, verdict in ((Phase.VALIDITY, validity),
                               (Phase.WEAKNESS, weakness)):
            if isinstance(verdict, Counterexample):
                findings.append(CorpusFinding(
                    program.id, phase.value,
                    f"truth WP failed {phase.value} fuzzing after "
                    f"{verdict.trials} trials", verdict.witness))
            outcome = exhaustive_check(attached, tiny_max_len, tiny_values,
                                       phase, step_limit=step_limit)
            if isinstance(outcome, ExhaustiveCounterexample):
                findings.append(CorpusFinding(
                    program.id, f"exhaustive-{phase.value}",
                    "truth WP has a tiny-domain counterexample",
                    outcome.witness))
        for problem in category_shape_problems(program):
            findings.append(CorpusFinding(program.id, "shape", problem))
    return findings
