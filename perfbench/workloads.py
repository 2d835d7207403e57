"""The three workloads, their known answers and the traced layers.

Each workload is a closed loop with one caller: it calls the system's public
entry points one after another, so each verdict starts when the previous one
has ended. Every fuzz budget is trial-only (``--fuzz-seconds 0``) and every
stream is derived from the benchmark's ``--seed``.

* ``bench-replay``: ``evaluation.run_benchmark`` and ``emit_report`` over the
  recorded transcript ``fixtures/bench.jsonl`` (k = 5, 4000 trials), the
  paper's experiment end to end. The replay is strict at the recorded seed
  and lenient at any other seed, where rendered prompts may differ.
* ``verify``: ``fuzzfeed corpus-validate`` of the 18 truths, then
  ``fuzzfeed check --truth`` of each of the 62 candidates under
  ``data/verify`` (1000 trials).
* ``step-limit``: ``fuzzfeed check`` of one hand-written candidate per family
  whose precondition stalls on a stated input property, so most evaluations
  run to ``DEFAULT_STEP_LIMIT``.
"""
from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

from fuzzfeed import cli, corpus, evaluation
from fuzzfeed.corpus import TINY_MAX_LEN, TINY_VALUES
from fuzzfeed.evaluation import LikelyEquivalent, NotEquivalent
from fuzzfeed.fuzzing import (
    Counterexample, ExhaustiveCounterexample, FuzzBudget, FuzzInput,
    InputStream, NoCounterexample, Phase, default_config, derive_seed,
    replay_witness,
)
from fuzzfeed.llm import ExtractionError, ReplayProvider
from fuzzfeed.minilang import (
    DEFAULT_STEP_LIMIT, DIAG_STEP_LIMIT, Failure, StepLimitExceeded,
    eval_precondition,
)
from fuzzfeed.orchestrator import FgConfig, validate_trace

from harness import bump, patched

DATA = Path(__file__).resolve().parent / "data"

# Verdict kind -> what callers look up.
VERDICT_FUNCTIONS = {
    "validity": "fuzzfeed.fuzzing:validity_fuzz",
    "weakness": "fuzzfeed.fuzzing:weakness_fuzz",
    "equivalence": "fuzzfeed.evaluation:check_equivalence",
    "exhaustive": "fuzzfeed.fuzzing:exhaustive_check",
}


@dataclass
class PassResult:
    """What one pass produced and how it compares with the known answers."""

    outputs: bytes                  # deterministic output, byte-compared
    rows: int = 0                   # report rows judged besides verdicts
    wrong: list = field(default_factory=list)   # one line per wrong item
    divergences: int = 0            # replayed prompts that differed


# --- verdict summaries --------------------------------------------------------

def tiny_domain(max_len: int = TINY_MAX_LEN,
                values: tuple = TINY_VALUES) -> list[FuzzInput]:
    """Every input of the tiny domain, in the oracle's sweep order."""
    arrays = [()]
    layer = [()]
    for _ in range(max_len):
        layer = [arr + (v,) for arr in layer for v in values]
        arrays.extend(layer)
    return [FuzzInput(a, b, c) for a in arrays for b in arrays for c in arrays]


_TINY_INDEX = {inp: i for i, inp in enumerate(tiny_domain())}


def _position(witness: FuzzInput, config, trial_limit) -> int:
    """Inputs evaluated up to and including ``witness``: its place in the
    tiny sweep, else the sweep plus its place in the fuzz stream."""
    if witness in _TINY_INDEX:
        return _TINY_INDEX[witness] + 1
    stream = InputStream(config)
    for i in range(trial_limit or 0):
        if stream.draw() == witness:
            return len(_TINY_INDEX) + i + 1
    return len(_TINY_INDEX)


def evaluated_inputs(kind: str, kwargs: dict, result) -> int:
    """Inputs one verdict evaluated: fuzz trials, equivalence inputs or
    exhaustive inputs."""
    if kind in ("validity", "weakness") or isinstance(result, LikelyEquivalent):
        return result.trials
    if isinstance(result, NoCounterexample):
        return result.inputs_checked
    if isinstance(result, ExhaustiveCounterexample):
        return _TINY_INDEX.get(result.witness, len(_TINY_INDEX) - 1) + 1
    budget = kwargs.get("budget") or FuzzBudget()
    return _position(result.witness, kwargs.get("config") or default_config(),
                     budget.trial_limit)


def verdict_inputs(v) -> int:
    return evaluated_inputs(v.kind, v.kwargs, v.result)


def verdict_line(v) -> str:
    """A timing-free summary of one verdict, for the byte comparison."""
    r = v.result
    if isinstance(r, (Counterexample, ExhaustiveCounterexample,
                      NotEquivalent)):
        side = f" {r.disagreement}" if isinstance(r, NotEquivalent) else ""
        head = f"{type(r).__name__}{side} {r.witness.to_json()}"
    else:
        head = type(r).__name__
    if v.kind in ("validity", "weakness"):
        s = r.stats
        head += (f" trials={r.trials} satisfied={s.satisfied}"
                 f" faults={s.precond_faults} step_limited={s.step_limited}")
    return f"{v.kind} {head} inputs={verdict_inputs(v)}"


def verdict_problems(v) -> list[str]:
    """Soundness of one verdict: a trial-only budget, and a witness that
    replays."""
    problems = []
    budget = v.args[1] if v.kind in ("validity", "weakness") \
        else v.kwargs.get("budget")
    if budget is not None and budget.wall_clock_s is not None:
        problems.append(f"{v.kind}: wall-clock fuzz budget refused")
    r = v.result
    step_limit = v.kwargs.get("step_limit", DEFAULT_STEP_LIMIT)
    if isinstance(r, Counterexample):
        if not replay_witness(v.args[0], r.witness, Phase(v.kind), step_limit):
            problems.append(f"{v.kind}: witness {r.witness.to_json()} "
                            f"does not replay")
    elif isinstance(r, ExhaustiveCounterexample):
        if not replay_witness(v.args[0], r.witness, v.args[3], step_limit):
            problems.append(f"exhaustive: witness {r.witness.to_json()} "
                            f"does not replay")
    elif isinstance(r, NotEquivalent):
        candidate, truth = v.args[0], v.args[1]
        if eval_precondition(candidate.program, r.witness) == \
                eval_precondition(truth.with_truth(), r.witness):
            problems.append(f"equivalence: witness {r.witness.to_json()} "
                            f"does not separate the preconditions")
    return problems


# --- CLI plumbing ---------------------------------------------------------------

def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _check_verdicts(output: str) -> dict[str, str]:
    """Phase -> first word of its verdict, from ``fuzzfeed check`` output."""
    verdicts = {}
    for line in output.splitlines():
        phase, sep, rest = line.partition(": ")
        if sep and phase in ("validity", "weakness", "equivalence"):
            verdicts[phase] = rest.split()[0].rstrip(",")
    return verdicts


def _budget_flags(trials: int) -> list[str]:
    return ["--fuzz-seconds", "0", "--fuzz-trials", str(trials)]


def _compare(label: str, expected: dict, output: str, code: int,
             result: PassResult) -> None:
    got = _check_verdicts(output)
    for phase, want in expected.items():
        if got.get(phase) != want:
            result.wrong.append(f"{label}: {phase} {got.get(phase)!r}, "
                                f"expected {want!r}")
    want_code = 1 if "counterexample" in expected.values() else 0
    if code != want_code:
        result.wrong.append(f"{label}: exit code {code}, expected "
                            f"{want_code}: {output.strip()[-200:]}")


# --- workloads ------------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, root: Path, seed: int, work_dir: Path):
        self.root = root
        self.seed = seed
        self.work_dir = work_dir

    def patches(self):
        """Extra wrappers the workload needs while a pass runs."""
        return patched([])

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def judge_verdicts(self, verdicts, result: PassResult) -> None:
        """Workload-specific checks of the recorded verdicts."""


class BenchReplay(Workload):
    name = "bench-replay"
    RECORDED_SEED = 7
    TRIALS = 4000
    K = 5

    def __init__(self, root, seed, work_dir):
        super().__init__(root, seed, work_dir)
        self.k = self.K
        self.outcomes = []
        self.passes = 0

    def patches(self):
        def keep(fn):
            def kept(*args, **kwargs):
                outcome = fn(*args, **kwargs)
                self.outcomes.append(outcome)
                return outcome
            return kept
        return patched([("fuzzfeed.orchestrator:fg_generate", keep)])

    def run_pass(self) -> PassResult:
        return self._judge(*self.replay())

    def replay(self) -> tuple[bytes, FgConfig, int]:
        """One bench run: detail.csv, its configuration and the number of
        replayed prompts that differed from the recording."""
        self.outcomes = []
        self.passes += 1
        provider = ReplayProvider(self.root / "fixtures" / "bench.jsonl",
                                  strict=self.seed == self.RECORDED_SEED)
        # Called through their modules, so that traced passes see them.
        benchmark_set = corpus.load_corpus(self.root / "corpus" / "builtin")
        config = FgConfig(fuzz_budget=FuzzBudget.trials_only(self.TRIALS),
                          generator=default_config(seed=self.seed))
        report = evaluation.run_benchmark(benchmark_set, provider, config,
                                          k=self.k, configuration="replay-FG")
        out_dir = self.work_dir / f"{self.name}-{self.passes}"
        detail = evaluation.emit_report(report, out_dir)["detail_csv"] \
            .read_bytes()
        return detail, config, len(provider.divergences)

    def _judge(self, detail: bytes, config: FgConfig,
               divergences: int) -> PassResult:
        expected = (DATA / "bench_replay" / "detail.csv").read_bytes()
        header, *want = expected.decode().splitlines()
        want = [row for row in want if int(row.split(",")[0]) <= self.k]
        got_header, *got = detail.decode().splitlines()
        result = PassResult(outputs=detail, rows=len(want),
                            divergences=divergences)
        if got_header != header or len(got) != len(want):
            result.wrong.append(f"detail.csv has {len(got)} rows under "
                                f"{got_header!r}, expected {len(want)}")
        for got_row, want_row in zip(got, want):
            if got_row != want_row:
                result.wrong.append(f"row {got_row!r}, expected {want_row!r}")
        if self.seed == self.RECORDED_SEED and self.k == self.K \
                and detail != expected:
            result.wrong.append("detail.csv differs from the recorded copy")
        for outcome in self.outcomes:
            problems = validate_trace(outcome.trace.events,
                                      config.max_validity_iterations,
                                      config.max_cycles)
            if problems:
                result.wrong.append(f"trace of {outcome.trace.program_id}: "
                                    f"{problems[0]}")
        return result


class Verify(Workload):
    name = "verify"
    TRIALS = 1000

    def __init__(self, root, seed, work_dir):
        super().__init__(root, seed, work_dir)
        answers = json.loads((DATA / "verify" / "answers.json").read_text())
        self.candidates = answers["candidates"]

    def run_pass(self) -> PassResult:
        corpus_dir = self.root / "corpus" / "builtin"
        log = []
        result = PassResult(outputs=b"")
        code, output = _run_cli(["corpus-validate", str(corpus_dir),
                                 "--seed", str(self.seed),
                                 *_budget_flags(self.TRIALS)])
        log.append(output)
        if code != 0:
            result.wrong.append(f"corpus-validate exit {code}: "
                                f"{output.strip()[-300:]}")
        for cand in self.candidates:
            program = corpus_dir / f"{cand['program']}.mini"
            seed = derive_seed(self.seed, "verify", cand["id"]) % 2**31
            code, output = _run_cli([
                "check", str(program), str(DATA / "verify" / cand["file"]),
                "--truth", str(corpus_dir / f"{cand['program']}.truth.mini"),
                "--seed", str(seed), *_budget_flags(self.TRIALS)])
            log.append(output)
            _compare(cand["id"], cand["expected"], output, code, result)
        result.outputs = "".join(log).encode()
        return result


class StepLimit(Workload):
    name = "step-limit"

    def __init__(self, root, seed, work_dir):
        super().__init__(root, seed, work_dir)
        answers = json.loads(
            (DATA / "step_limit" / "answers.json").read_text())
        self.candidates = answers["candidates"]

    def run_pass(self) -> PassResult:
        log = []
        result = PassResult(outputs=b"")
        for cand in self.candidates:
            program = self.root / "corpus" / "builtin" / f"{cand['program']}.mini"
            for check in range(cand["checks"]):
                seed = derive_seed(self.seed, "step-limit", cand["id"],
                                   check) % 2**31
                code, output = _run_cli([
                    "check", str(program),
                    str(DATA / "step_limit" / cand["file"]),
                    "--seed", str(seed), *_budget_flags(cand["trials"])])
                log.append(output)
                _compare(cand["id"], cand["expected"], output, code, result)
        result.outputs = "".join(log).encode()
        return result

    def judge_verdicts(self, verdicts, result: PassResult) -> None:
        """The pass must have run into the step limit, at least once per
        candidate on average. A step-limited precondition counts in
        ``PhaseStats.precond_faults``; ``PhaseStats.step_limited`` counts
        only ``foo``."""
        stalls = sum(v.result.stats.precond_faults for v in verdicts)
        if stalls < len(self.candidates):
            result.wrong.append(f"only {stalls} step-limited precondition "
                                f"evaluations in the pass")


WORKLOADS = {w.name: w for w in (BenchReplay, Verify, StepLimit)}


# --- traced layers ----------------------------------------------------------------

def _observe_precondition(counts, args, kwargs, result):
    if result.diagnostic is not None:
        bump(counts, "faults")
        if result.diagnostic == DIAG_STEP_LIMIT:
            bump(counts, "step_limited")


def _observe_foo(counts, args, kwargs, result):
    if type(result) is Failure:
        bump(counts, "failures")
    elif type(result) is StepLimitExceeded:
        bump(counts, "step_limited")


def _observe_phase(counts, args, kwargs, result):
    bump(counts, "trials", result.trials)
    bump(counts, "satisfied", result.stats.satisfied)
    if isinstance(result, Counterexample):
        bump(counts, "cex")


def _observe_shrink(counts, args, kwargs, result):
    bump(counts, "size_before", args[1].total_len())
    bump(counts, "size_after", result.total_len())


def _observe_exhaustive(counts, args, kwargs, result):
    bump(counts, "inputs", evaluated_inputs("exhaustive", kwargs, result))


def _observe_equivalence(counts, args, kwargs, result):
    bump(counts, "trials", evaluated_inputs("equivalence", kwargs, result))
    if isinstance(result, LikelyEquivalent) and result.trials == 0:
        bump(counts, "shortcut")


def _observe_extract(counts, args, kwargs, result):
    if isinstance(result, ExtractionError):
        bump(counts, "failures")


# (layer span name, what callers look up, counters)
TRACED_LAYERS = (
    ("fuzzing.draw", "fuzzfeed.fuzzing:draw_input", None),
    ("interp.precondition", "fuzzfeed.fuzzing:run_precondition",
     _observe_precondition),
    ("interp.foo", "fuzzfeed.fuzzing:run_foo", _observe_foo),
    ("fuzzing.phase", "fuzzfeed.fuzzing:validity_fuzz", _observe_phase),
    ("fuzzing.phase", "fuzzfeed.fuzzing:weakness_fuzz", _observe_phase),
    ("fuzzing.shrink", "fuzzfeed.fuzzing:shrink", _observe_shrink),
    ("fuzzing.exhaustive", "fuzzfeed.fuzzing:exhaustive_check",
     _observe_exhaustive),
    ("evaluation.eval_precondition", "fuzzfeed.evaluation:eval_precondition",
     None),
    ("evaluation.equivalence", "fuzzfeed.evaluation:check_equivalence",
     _observe_equivalence),
    ("evaluation.bench", "fuzzfeed.evaluation:run_benchmark", None),
    ("evaluation.report", "fuzzfeed.evaluation:emit_report", None),
    ("orchestrator", "fuzzfeed.orchestrator:fg_generate", None),
    ("orchestrator", "fuzzfeed.orchestrator:zero_shot", None),
    ("corpus.load", "fuzzfeed.corpus:load_corpus", None),
    ("corpus.validate", "fuzzfeed.corpus:validate_corpus", None),
    ("llm.extract", "fuzzfeed.llm:extract_candidate", _observe_extract),
    ("llm.prompts", "fuzzfeed.llm:render_prompt", None),
    ("llm.provider", "fuzzfeed.llm.providers:ReplayProvider.complete", None),
    ("minilang.parse", "fuzzfeed.minilang:parse", None),
    ("minilang.typecheck", "fuzzfeed.minilang:typecheck", None),
    ("cli", "fuzzfeed.cli:cmd_check", None),
    ("cli", "fuzzfeed.cli:cmd_corpus_validate", None),
)


def layer_metrics(spans, divergences: int) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of one traced pass: name -> (value, unit)."""
    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in ("fuzzing.draw", "interp.precondition", "interp.foo",
                  "fuzzing.phase", "fuzzing.shrink", "fuzzing.exhaustive",
                  "evaluation.equivalence", "minilang.parse",
                  "minilang.typecheck", "llm.extract", "llm.provider"):
        m[f"{layer}.calls"] = (spans.calls(layer), "count")
        m[f"{layer}.self_s"] = (spans.self_s(layer), "s")
    for layer in ("llm.prompts", "corpus.load", "orchestrator",
                  "evaluation.report"):
        m[f"{layer}.self_s"] = (spans.self_s(layer), "s")
    m["interp.precondition.faults"] = (
        spans.count("interp.precondition", "faults"), "count")
    m["interp.precondition.step_limited"] = (
        spans.count("interp.precondition", "step_limited"), "count")
    m["interp.foo.failures"] = (spans.count("interp.foo", "failures"), "count")
    m["interp.foo.step_limited"] = (
        spans.count("interp.foo", "step_limited"), "count")
    trials = spans.count("fuzzing.phase", "trials")
    phases = spans.calls("fuzzing.phase")
    m["fuzzing.phase.trials"] = (trials, "count")
    m["fuzzing.phase.satisfied_ratio"] = (
        ratio(spans.count("fuzzing.phase", "satisfied"), trials), "ratio")
    m["fuzzing.phase.memo_hit_ratio"] = (
        1.0 - ratio(spans.child_calls("fuzzing.phase", "interp.precondition"),
                    trials) if trials else 0.0, "ratio")
    m["fuzzing.phase.cex_ratio"] = (
        ratio(spans.count("fuzzing.phase", "cex"), phases), "ratio")
    m["fuzzing.shrink.checks"] = (
        spans.child_calls("fuzzing.shrink", "interp.precondition"), "count")
    m["fuzzing.shrink.size_ratio"] = (
        ratio(spans.count("fuzzing.shrink", "size_after"),
              spans.count("fuzzing.shrink", "size_before")), "ratio")
    m["fuzzing.exhaustive.inputs"] = (
        spans.count("fuzzing.exhaustive", "inputs"), "count")
    equivalences = spans.calls("evaluation.equivalence")
    m["evaluation.equivalence.trials"] = (
        spans.count("evaluation.equivalence", "trials"), "count")
    m["evaluation.equivalence.shortcut_ratio"] = (
        ratio(spans.count("evaluation.equivalence", "shortcut"),
              equivalences), "ratio")
    m["llm.extract.failures"] = (
        spans.count("llm.extract", "failures"), "count")
    m["llm.provider.divergences"] = (divergences, "count")
    return m
