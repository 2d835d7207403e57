"""Command-line interface.

Subcommands: generate (one program), bench (k-iteration corpus run),
check (fuzz a candidate WP against a program), corpus-validate (gate the
ground truths). Exit codes: 0 success, 1 counterexample found by check,
2 malformed model output, 3 budget exhausted or fuzz-blind, 4 usage,
file, or corpus errors.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .corpus import (
    FOO_STUB, CorpusError, load_corpus, program_with_precondition,
    validate_corpus,
)
from .evaluation import (
    EmptyReport, LikelyEquivalent, check_equivalence, emit_report,
    run_benchmark,
)
from .fuzzing import (
    Counterexample, FuzzBudget, default_config, derive_seed,
    paper_faithful_config, validity_fuzz, weakness_fuzz,
)
from .llm import (
    DEFAULT_BASE_URL, DEFAULT_MODEL, ProviderError, candidate_from_program,
    parse_provider_spec,
)
from .minilang import MiniLangError, parse, to_source, typecheck
from .orchestrator import (
    Accepted, ExhaustedBudget, FgConfig, FuzzBlind, Malformed, fg_generate,
    outcome_candidate, outcome_name, write_trace,
)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_MALFORMED = 2
EXIT_EXHAUSTED = 3
EXIT_CONFIG = 4

class CliError(Exception):
    """Configuration or file problem; maps to exit code 4."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # argparse defaults to exit code 2, which is reserved for
        # malformed model output here.
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None,
                        help="generator seed (default: random, printed)")
    parser.add_argument("--fuzz-seconds", type=float, default=10.0,
                        help="wall-clock budget per fuzz pass, which gives "
                             "both the validity and the weakness verdict; 0 "
                             "disables the wall clock (default: 10)")
    parser.add_argument("--fuzz-trials", type=int, default=100_000,
                        help="trial budget per fuzz pass, which gives both "
                             "the validity and the weakness verdict; 0 "
                             "disables the trial cap (default: 100000)")
    parser.add_argument("--paper-faithful", action="store_true",
                        help="disable the structured-input generator bias")
    parser.add_argument("--out", default=".",
                        help="directory for output artifacts (default: .)")


def _add_generation_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--provider", default="http",
                        help="http | scripted:<file> | replay:<file>")
    parser.add_argument("--model", default=None,
                        help="model id for the http provider")
    parser.add_argument("--base-url", default=None,
                        help="base URL for the http provider")
    parser.add_argument("--no-fg", action="store_true",
                        help="zero-shot mode: no fuzzing feedback")
    parser.add_argument("--max-validity-iters", type=int, default=10,
                        help="validity fuzz/repair attempts per cycle")
    parser.add_argument("--max-cycles", type=int, default=3,
                        help="guidance cycles before giving up")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report raw counterexamples without shrinking")
    parser.add_argument("--strict-fuzz-blind", action="store_true",
                        help="treat a vacuous validity pass as terminal")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="fuzzfeed",
                             description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True,
                            parser_class=_ArgumentParser)

    p_gen = sub.add_parser("generate",
                           help="generate a WP for one program")
    p_gen.add_argument("program", help="program file (.mini)")
    _add_common_flags(p_gen)
    _add_generation_flags(p_gen)

    p_bench = sub.add_parser("bench",
                             help="run WP generation over a corpus k times")
    p_bench.add_argument("corpus", help="corpus directory")
    p_bench.add_argument("-k", type=int, default=5,
                         help="iterations per program (default: 5)")
    p_bench.add_argument("--label", default=None,
                         help="configuration label in the report")
    _add_common_flags(p_bench)
    _add_generation_flags(p_bench)

    p_check = sub.add_parser("check",
                             help="fuzz a candidate WP against a program")
    p_check.add_argument("program", help="program file (.mini)")
    p_check.add_argument("candidate", help="candidate WP file")
    p_check.add_argument("--truth", default=None,
                         help="truth WP file for an equivalence verdict")
    _add_common_flags(p_check)

    p_val = sub.add_parser("corpus-validate",
                           help="fuzz every ground-truth WP in a corpus")
    p_val.add_argument("corpus", help="corpus directory")
    _add_common_flags(p_val)
    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = random.SystemRandom().getrandbits(32)
    print(f"seed: {seed} (use --seed {seed} to reproduce)")
    return seed


def _budget(args) -> FuzzBudget:
    wall = args.fuzz_seconds if args.fuzz_seconds > 0 else None
    trials = args.fuzz_trials if args.fuzz_trials > 0 else None
    if wall is None and trials is None:
        raise CliError("at least one of --fuzz-seconds/--fuzz-trials "
                       "must be positive")
    return FuzzBudget(wall_clock_s=wall, trial_limit=trials)


def _generator(args, seed: int):
    if args.paper_faithful:
        return paper_faithful_config(seed=seed)
    return default_config(seed=seed)


def _fg_config(args, seed: int) -> FgConfig:
    if args.max_validity_iters < 1 or args.max_cycles < 1:
        raise CliError("--max-validity-iters and --max-cycles must be at "
                       "least 1")
    return FgConfig(
        max_validity_iterations=args.max_validity_iters,
        max_cycles=args.max_cycles,
        fuzz_budget=_budget(args),
        generator=_generator(args, seed),
        fg_enabled=not args.no_fg,
        strict_fuzz_blind=args.strict_fuzz_blind,
        shrink=not args.no_shrink)


def _provider(args):
    return parse_provider_spec(args.provider,
                               model=args.model or DEFAULT_MODEL,
                               base_url=args.base_url or DEFAULT_BASE_URL)


def _load_program(path_text: str):
    path = Path(path_text)
    if not path.is_file():
        raise CliError(f"no such file: {path}")
    source = path.read_text(encoding="utf-8")
    try:
        ast = parse(source)
        typecheck(ast)
    except MiniLangError as exc:
        raise CliError(f"{path.name}:{exc}") from exc
    return ast, source, path


def _attach_precondition(program_source: str, candidate_text: str,
                         name: str):
    """Combine a program's foo with the precondition from candidate_text,
    which may be a full program or a bare precondition function."""
    try:
        standalone = parse(candidate_text)
        pre = standalone.precondition
    except MiniLangError:
        try:
            pre = parse(FOO_STUB + candidate_text).precondition
        except MiniLangError as exc:
            raise CliError(f"{name}: cannot parse candidate: {exc}") from exc
    if pre is None:
        raise CliError(f"{name}: no precondition function found")
    try:
        ast = parse(program_with_precondition(program_source, to_source(pre)))
        typecheck(ast)
    except MiniLangError as exc:
        raise CliError(f"{name}: candidate does not typecheck against "
                       f"the program: {exc}") from exc
    return ast


def _witness_json(witness) -> str:
    return json.dumps(witness.to_dict(), separators=(", ", ": "))


def cmd_generate(args) -> int:
    seed = _resolve_seed(args)
    program_ast, _, path = _load_program(args.program)
    config = _fg_config(args, seed)
    provider = _provider(args)
    program_id = path.stem
    outcome = fg_generate(program_ast, provider, config, program_id=program_id)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"{program_id}.trace.jsonl"
    write_trace(outcome.trace, trace_path)
    candidate = outcome_candidate(outcome)
    print(f"{program_id}: {outcome_name(outcome)} "
          f"(cycles={outcome.trace.cycles_used}, "
          f"llm_calls={outcome.trace.llm_calls}, "
          f"fg_used={outcome.trace.fg_used})")
    if candidate is not None:
        candidate_path = out_dir / f"{program_id}.candidate.mini"
        candidate_path.write_text(candidate.source.rstrip() + "\n",
                                  encoding="utf-8")
        print(f"wrote {candidate_path} and {trace_path}")
    else:
        print(f"wrote {trace_path}")
    if isinstance(outcome, Accepted):
        return EXIT_OK
    if isinstance(outcome, Malformed):
        print(f"malformed: {outcome.reason}", file=sys.stderr)
        return EXIT_MALFORMED
    if isinstance(outcome, (ExhaustedBudget, FuzzBlind)):
        return EXIT_EXHAUSTED
    return EXIT_CONFIG


def cmd_bench(args) -> int:
    seed = _resolve_seed(args)
    if args.k < 1:
        raise CliError("-k must be at least 1")
    try:
        benchmark_set = load_corpus(args.corpus)
    except CorpusError as exc:
        raise CliError(str(exc)) from exc
    if len(benchmark_set) == 0:
        raise CliError("corpus has no programs")
    config = _fg_config(args, seed)
    provider = _provider(args)
    label = args.label
    if label is None:
        kind = args.provider.split(":", 1)[0]
        label = kind if args.no_fg else f"{kind}-FG"
    try:
        report = run_benchmark(benchmark_set, provider, config, k=args.k,
                               configuration=label)
    except EmptyReport as exc:
        raise CliError(str(exc)) from exc
    paths = emit_report(report, args.out)
    for summary in report.summaries():
        print(f"{summary.benchmark}: correct {summary.correct_min}-"
              f"{summary.correct_max} of {summary.n_programs} "
              f"(avg {float(summary.correct_avg):g}, "
              f"{summary.correct_avg_pct}%)")
    print(f"wrote {paths['report_csv']}, {paths['detail_csv']}, "
          f"{paths['report_json']}")
    return EXIT_OK


def cmd_check(args) -> int:
    seed = _resolve_seed(args)
    program_ast, program_source, path = _load_program(args.program)
    candidate_path = Path(args.candidate)
    if not candidate_path.is_file():
        raise CliError(f"no such file: {candidate_path}")
    combined = _attach_precondition(
        program_source, candidate_path.read_text(encoding="utf-8"),
        candidate_path.name)

    budget = _budget(args)
    config = _generator(args, seed).with_seed(
        derive_seed(seed, "check", "validity"))
    validity = validity_fuzz(combined, budget, config)
    weakness = weakness_fuzz(combined, budget, config, validity=validity)
    exit_code = EXIT_OK
    for phase_name, verdict in (("validity", validity),
                                ("weakness", weakness)):
        if isinstance(verdict, Counterexample):
            print(f"{phase_name}: counterexample after {verdict.trials} "
                  f"trials: {_witness_json(verdict.witness)}")
            exit_code = EXIT_COUNTEREXAMPLE
        else:
            print(f"{phase_name}: likely-pass ({verdict.trials} trials, "
                  f"{verdict.stats.satisfied} satisfied)")

    if args.truth is not None:
        truth_path = Path(args.truth)
        if not truth_path.is_file():
            raise CliError(f"no such file: {truth_path}")
        truth_ast = _attach_precondition(
            program_source, truth_path.read_text(encoding="utf-8"),
            truth_path.name)
        # Reuse the corpus equivalence machinery via a synthetic entry.
        from .corpus import BenchmarkProgram, Category

        truth_pre = truth_ast.precondition
        entry = BenchmarkProgram(
            id=path.stem, category=Category.UNIVERSAL,
            program_source=program_source,
            truth_source=to_source(truth_pre), description="")
        verdict = check_equivalence(
            candidate_from_program(combined), entry, budget=budget,
            config=_generator(args, seed).with_seed(
                derive_seed(seed, "check", "equivalence")))
        if isinstance(verdict, LikelyEquivalent):
            print(f"equivalence: likely-equivalent ({verdict.trials} trials)")
        else:
            says = verdict.disagreement
            print(f"equivalence: not-equivalent, {says} accepts "
                  f"{_witness_json(verdict.witness)}")
    return exit_code


def cmd_corpus_validate(args) -> int:
    seed = _resolve_seed(args)
    try:
        benchmark_set = load_corpus(args.corpus)
    except CorpusError as exc:
        raise CliError(str(exc)) from exc
    if len(benchmark_set) == 0:
        raise CliError("corpus has no programs")
    findings = validate_corpus(benchmark_set, budget=_budget(args),
                               config=_generator(args, seed))
    if not findings:
        print(f"{benchmark_set.name}: {len(benchmark_set)} programs, "
              f"no findings")
        return EXIT_OK
    for finding in findings:
        witness = (f" witness {_witness_json(finding.witness)}"
                   if finding.witness is not None else "")
        print(f"{finding.program_id}: {finding.kind}: "
              f"{finding.detail}{witness}")
    print(f"{len(findings)} finding(s)")
    return EXIT_COUNTEREXAMPLE


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "bench": cmd_bench,
        "check": cmd_check,
        "corpus-validate": cmd_corpus_validate,
    }
    try:
        return handlers[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ProviderError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
