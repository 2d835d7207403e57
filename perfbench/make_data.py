#!/usr/bin/env python3
"""Build and audit the benchmark's known answers under perfbench/data.

    python3 perfbench/make_data.py            # rebuild, then audit
    python3 perfbench/make_data.py --check    # audit only

Rebuilding writes the 62 ``verify`` candidates with their answers and the
expected ``detail.csv`` of the recorded bench replay. The step-limit
candidates are hand-written and only audited.

The audit judges every expected verdict without the fuzzer being measured:
each candidate is compared with its program's hand-derived truth WP on the
whole tiny domain and on an independent sample of inputs, and the tiny-domain
exhaustive oracle is re-run. A validity counterexample exists where the
candidate admits an input the truth rejects, a weakness counterexample where
it rejects one the truth admits.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from fuzzfeed.corpus import drop_first_conjunct, load_corpus  # noqa: E402
from fuzzfeed.fuzzing import (  # noqa: E402
    ExhaustiveCounterexample, FuzzInput, InputStream, Phase, default_config,
    derive_seed, exhaustive_check, paper_faithful_config,
)
from fuzzfeed.llm import strip_code_fences  # noqa: E402
from fuzzfeed.minilang import (  # noqa: E402
    DIAG_STEP_LIMIT, Failure, MiniLangError, Success, parse, run_foo, run_precondition,
    to_source, typecheck,
)

from workloads import DATA, tiny_domain, BenchReplay, Verify  # noqa: E402

CORPUS = ROOT / "corpus" / "builtin"
VERIFY = DATA / "verify"
STEP_LIMIT = DATA / "step_limit"
AUDIT_SEED = 20250705
# A counterexample must be dense enough under the fuzz distribution that a
# phase of Verify.TRIALS trials misses it with probability below 1e-9.
MIN_DENSITY = 0.0205

# Counterexamples the generator cannot reach, with a witness built by hand.
BLIND_SPOTS = {
    ("existential_value_swap", "weakened"): (
        FuzzInput((7654321, 1234567), (), ()),
        "foo succeeds only on the adjacent pair (7654321, 1234567), which "
        "the generator draws with probability about 2^-64: a sound fuzz "
        "loop says likely-pass and likely-equivalent"),
}

# The input property on which each step-limit candidate stalls.
STALLS = {
    "existential_value_swap":
        lambda x: (7654321, 1234567) not in zip(x.a, x.a[1:]),
    "universal_b_twice_a":
        lambda x: not (len(x.a) == len(x.b) and all(
            b == _wrap(2 * a) for a, b in zip(x.a, x.b))),
    "sorting_b_is_sorted_a":
        lambda x: list(x.b) != sorted(x.a),
    "search_key_present":
        lambda x: 100 not in x.a,
}


def _wrap(v: int) -> int:
    return (v + 2**31) % 2**32 - 2**31


def _recorded_responses() -> list[tuple[str, str, str]]:
    """Distinct recorded responses: (fixture, program id, prompt kind)."""
    seen = {}
    for fixture in ("bench.jsonl", "worked_example.jsonl"):
        with open(ROOT / "fixtures" / fixture, encoding="utf-8") as fh:
            for line in fh:
                entry = json.loads(line)
                seen.setdefault(entry["response"], (
                    fixture, entry["program_id"], entry["prompt_kind"]))
    return [(text, *where) for text, where in seen.items()]


def build_verify() -> None:
    corpus = load_corpus(CORPUS)
    sources = []
    for text, fixture, program, kind in _recorded_responses():
        sources.append((program, "recorded",
                        f"recorded model output: the {kind} response for "
                        f"{program} in fixtures/{fixture}",
                        strip_code_fences(text).strip() + "\n"))
    for p in corpus:
        sources.append((p.id, "truth",
                        f"truth: corpus/builtin/{p.id}.truth.mini",
                        p.truth_source))
    for p in corpus:
        sources.append((p.id, "weakened",
                        f"weakened truth: drop_first_conjunct of the "
                        f"{p.id} truth",
                        to_source(drop_first_conjunct(p.truth_function()))
                        + "\n"))
    for old in VERIFY.glob("*.mini"):
        old.unlink()
    candidates = []
    for n, (program, origin, reason, text) in enumerate(sources):
        cand_id = f"{n:02d}-{origin}-{program}"
        (VERIFY / f"{cand_id}.mini").write_text(text, encoding="utf-8")
        judged = judge(corpus.by_id(program), text,
                       BLIND_SPOTS.get((program, origin)))
        judged.pop("_density")
        candidates.append({"id": cand_id, "program": program,
                           "file": f"{cand_id}.mini", "origin": origin,
                           "reason": reason, **judged})
    (VERIFY / "answers.json").write_text(json.dumps({
        "about": "Known answers of the verify workload. 'expected' is what "
                 "'fuzzfeed check --truth' must print at the benchmark's "
                 "budget; 'truth' is the answer over the whole input domain "
                 "from the hand-derived truth WP; 'exhaustive' is the "
                 "tiny-domain oracle. They differ only where 'note' says "
                 "why.",
        "trials": Verify.TRIALS,
        "candidates": candidates}, indent=2) + "\n", encoding="utf-8")


def build_bench_expected() -> None:
    work_dir = ROOT / ".perfbench" / "make-data"
    workload = BenchReplay(ROOT, BenchReplay.RECORDED_SEED, work_dir)
    detail, _, divergences = workload.replay()
    shutil.rmtree(work_dir, ignore_errors=True)
    if divergences:
        raise AssertionError("the recorded replay diverged")
    (DATA / "bench_replay" / "detail.csv").write_bytes(detail)


def _attach(program, text: str):
    """The program with the candidate's precondition, as `check` builds it."""
    try:
        pre = parse(text).precondition
    except MiniLangError:
        pre = parse("int foo(int[] a, int[] b, int[] c) { return 0; }\n"
                    + text).precondition
    ast = parse(program.program_source.rstrip() + "\n\n" + to_source(pre))
    typecheck(ast)
    return ast


def _sample(size: int) -> tuple[list, list]:
    """Inputs from the fuzz distribution, then from the unbiased one, on
    streams the benchmark never uses."""
    fuzz = InputStream(default_config(derive_seed(AUDIT_SEED, "fuzz")))
    plain = InputStream(paper_faithful_config(
        derive_seed(AUDIT_SEED, "plain")))
    return ([fuzz.draw() for _ in range(size)],
            [plain.draw() for _ in range(size)])


def judge(program, text: str, blind_spot=None, size: int = 4000) -> dict:
    """Expected, truth and exhaustive verdicts of one candidate, plus the
    density of each kind of counterexample under the fuzz distribution."""
    cand = _attach(program, text)
    truth = program.with_truth()
    tiny = tiny_domain()
    fuzz_inputs, plain_inputs = _sample(size)
    found = {"validity": None, "weakness": None}
    hits = {"validity": 0, "weakness": 0}
    for i, x in enumerate(tiny + fuzz_inputs + plain_inputs):
        c = run_precondition(cand, x).value
        if c == run_precondition(truth, x).value:
            continue
        phase = "validity" if c else "weakness"
        found[phase] = found[phase] or x
        if len(tiny) <= i < len(tiny) + size:
            hits[phase] += 1
    note = None
    if blind_spot is not None and not any(found.values()):
        witness, note = blind_spot
        if run_precondition(cand, witness).value \
                or not run_precondition(truth, witness).value:
            raise AssertionError(f"{program.id}: blind-spot witness does not "
                                 f"separate the preconditions")
        found["weakness"] = witness
    for phase, witness in found.items():
        if witness is None:
            continue
        out = run_foo(truth, witness)
        ok = type(out) is Failure if phase == "validity" \
            else type(out) is Success and out.value == 0
        if not ok:
            raise AssertionError(f"{program.id}: {phase} witness "
                                 f"{witness.to_json()} is not confirmed by foo")
    separated = any(found.values())
    truth_answer = {phase: "counterexample" if found[phase] else "none"
                    for phase in found}
    truth_answer["equivalence"] = "not-equivalent" if separated \
        else "equivalent"
    if note is None:
        expected = {phase: "counterexample" if found[phase] else "likely-pass"
                    for phase in found}
        expected["equivalence"] = "not-equivalent" if separated \
            else "likely-equivalent"
    else:
        expected = {"validity": "likely-pass", "weakness": "likely-pass",
                    "equivalence": "likely-equivalent"}
    exhaustive = {
        phase.value: "counterexample" if isinstance(
            exhaustive_check(cand, 2, (-1, 0, 1), phase),
            ExhaustiveCounterexample) else "none"
        for phase in Phase}
    judged = {"expected": expected, "truth": truth_answer,
              "exhaustive": exhaustive}
    if note is not None:
        judged["note"] = note
    judged["_density"] = {k: v / size for k, v in hits.items()}
    return judged


def audit_verify(size: int = 4000) -> list[str]:
    """Problems with the committed verify answers (empty when sound)."""
    corpus = load_corpus(CORPUS)
    answers = json.loads((VERIFY / "answers.json").read_text())
    problems = []
    if answers["trials"] != Verify.TRIALS:
        problems.append("answers were judged at another trial budget")
    for cand in answers["candidates"]:
        text = (VERIFY / cand["file"]).read_text(encoding="utf-8")
        judged = judge(corpus.by_id(cand["program"]), text,
                       BLIND_SPOTS.get((cand["program"], cand["origin"])), size)
        density = judged.pop("_density")
        for key in ("expected", "truth", "exhaustive", "note"):
            if judged.get(key) != cand.get(key):
                problems.append(f"{cand['id']}: {key} {cand.get(key)} "
                                f"!= judged {judged.get(key)}")
        for phase, verdict in cand["exhaustive"].items():
            if verdict == "counterexample" \
                    and cand["expected"][phase] != "counterexample":
                problems.append(f"{cand['id']}: the exhaustive oracle finds "
                                f"a {phase} counterexample the answer misses")
        for phase in ("validity", "weakness"):
            if cand["expected"][phase] == "counterexample" \
                    and density[phase] < MIN_DENSITY:
                problems.append(f"{cand['id']}: {phase} counterexamples too "
                                f"rare for {Verify.TRIALS} trials "
                                f"({density[phase]:.4f})")
    return problems


def audit_step_limit(size: int = 1000, step_limit: int = 2_000) -> list[str]:
    """Each step-limit candidate stalls exactly on its stated property, and
    only where foo fails, so both phases must pass."""
    corpus = load_corpus(CORPUS)
    answers = json.loads((STEP_LIMIT / "answers.json").read_text())
    fuzz_inputs, plain_inputs = _sample(size)
    problems = []
    for cand in answers["candidates"]:
        program = corpus.by_id(cand["program"])
        ast = _attach(program, (STEP_LIMIT / cand["file"]).read_text())
        truth = program.with_truth()
        stalls = STALLS[cand["id"]]
        for x in tiny_domain() + fuzz_inputs + plain_inputs:
            result = run_precondition(ast, x, step_limit)
            stalled = result.diagnostic == DIAG_STEP_LIMIT
            if stalled != stalls(x):
                problems.append(f"{cand['id']}: stalls={stalled} on "
                                f"{x.to_json()}")
                break
            if result.value != run_precondition(truth, x).value:
                problems.append(f"{cand['id']}: differs from the truth on "
                                f"{x.to_json()}")
                break
        if cand["expected"] != {"validity": "likely-pass",
                                "weakness": "likely-pass"}:
            problems.append(f"{cand['id']}: both phases must pass")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="audit the committed answers without rebuilding")
    args = parser.parse_args(argv)
    if not args.check:
        build_verify()
        build_bench_expected()
    problems = audit_verify() + audit_step_limit()
    for problem in problems:
        print(problem)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
