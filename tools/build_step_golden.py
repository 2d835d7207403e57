#!/usr/bin/env python3
"""Record the step-accounting table checked by tests/test_step_golden.py.

For every corpus program, every recorded or derived candidate under
perfbench/data/verify, and a few hand-written programs that reach every
construct, the table holds a fixed sample of inputs and, for each function
and input, the smallest step limit at which the run does not end in
StepLimitExceeded, together with the outcome it then has. Sources and
inputs are stored in the table, so it does not depend on the corpus files
or on the input generator staying as they are.

The committed table was recorded with the closure-tree interpreter that the
generated-source back end replaced; regenerate it only on an intended change
to the step semantics:

    python3 tools/build_step_golden.py
"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from fuzzfeed.corpus import load_builtin_corpus  # noqa: E402
from fuzzfeed.fuzzing import (  # noqa: E402
    EMPTY_INPUT, FuzzInput, GeneratorConfig, default_config, draw_input,
    tiny_domain_config,
)
from fuzzfeed.minilang import (  # noqa: E402
    Failure, StepLimitExceeded, Success, parse, run_function, typecheck,
)

OUT = REPO / "tests" / "data" / "step_golden.json"
SEED = 2024
SEARCH_CAP = 1 << 22

# Programs that reach the constructs the corpus leaves out or reaches only
# on rare inputs: for with an assignment as init, nested loops, else
# branches, sort and clone as expressions, binarySearch, / and %, unary
# operators, out-of-bounds stores, and throw inside a loop.
EXTRA_PROGRAMS = {
    "extra-arith": """\
int foo(int[] a, int[] b, int[] c) {
    int acc = 0;
    int i = 0;
    for (i = 0; i < len(a); i = i + 1) {
        if (a[i] % 3 == 0) {
            acc = acc + a[i] / 3;
        } else {
            acc = acc * 31 - -a[i];
        }
    }
    if (!(acc >= 0) || len(b) > 1 && b[1] == 0) {
        return acc % (len(c) - 1);
    }
    return acc;
}
""",
    "extra-arrays": """\
int foo(int[] a, int[] b, int[] c) {
    int[] d = sort(a);
    int[] e = clone(b);
    sort(e);
    int n = 0;
    for (int i = 0; i < len(e); i = i + 1) {
        int j = binarySearch(d, e[i]);
        while (j > 0 && d[j - 1] == e[i]) {
            j = j - 1;
            n = n + 1;
        }
        if (j >= 0) {
            c[n] = j;
        }
    }
    if (n > 2) {
        throw;
    }
    return a[0] + n;
}

bool precondition(int[] a, int[] b, int[] c) {
    int[] s = clone(a);
    sort(s);
    for (int i = 0; i < len(s); i = i + 1) {
        for (int k = i + 1; k < len(s); k = k + 1) {
            if (s[k] < s[i]) {
                return false;
            }
        }
    }
    return len(c) >= len(b) && binarySearch(s, 0) < 0;
}
""",
}


def outcome_code(outcome) -> str:
    if type(outcome) is Success:
        return f"ok:{outcome.value}"
    if type(outcome) is Failure:
        return f"fail:{outcome.kind.value}"
    raise AssertionError(f"unexpected outcome {outcome!r}")


def min_steps(program, name: str, inp: FuzzInput) -> list:
    """[smallest limit that completes, outcome there], by doubling then
    bisecting: completion is monotone in the limit."""
    hi = 1
    while isinstance(run_function(program, name, inp, hi), StepLimitExceeded):
        hi *= 2
        if hi > SEARCH_CAP:
            raise AssertionError(f"{name} did not finish within {SEARCH_CAP}")
    lo = hi // 2  # lo never completes (or is 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if isinstance(run_function(program, name, inp, mid), StepLimitExceeded):
            lo = mid
        else:
            hi = mid
    return [hi, outcome_code(run_function(program, name, inp, hi))]


def sample_inputs(rng: random.Random) -> list[FuzzInput]:
    configs = ([default_config()] * 12
               + [GeneratorConfig(value_mode="small")] * 8
               + [tiny_domain_config()] * 6)
    return [EMPTY_INPUT] + [draw_input(rng, cfg) for cfg in configs]


def sources() -> dict[str, str]:
    corpus = {p.id: p for p in load_builtin_corpus()}
    out = {f"corpus/{p.id}": p.program_source.rstrip() + "\n\n" + p.truth_source
           for p in corpus.values()}
    for path in sorted((REPO / "perfbench" / "data" / "verify").glob("*.mini")):
        text = path.read_text(encoding="utf-8")
        if "int foo(" not in text:
            # Precondition-only candidates: '<n>-<kind>-<program id>.mini'.
            program_id = path.stem.split("-", 2)[2]
            text = corpus[program_id].program_source.rstrip() + "\n\n" + text
        out[f"verify/{path.name}"] = text
    out.update(EXTRA_PROGRAMS)
    return out


def main() -> int:
    rng = random.Random(SEED)
    table = []
    seen = set()
    for label, source in sources().items():
        if source in seen:
            continue
        seen.add(source)
        program = parse(source)
        typecheck(program)
        inputs = sample_inputs(rng)
        row = {"label": label, "source": source,
               "inputs": [[list(i.a), list(i.b), list(i.c)] for i in inputs],
               "runs": {}}
        for name in program.functions:
            row["runs"][name] = [min_steps(program, name, i) for i in inputs]
        table.append(row)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    # One program per line keeps a change to the table reviewable.
    rows = (json.dumps(row, separators=(",", ":")) for row in table)
    OUT.write_text("[\n" + ",\n".join(rows) + "\n]\n", encoding="utf-8")
    runs = sum(len(r) for row in table for r in row["runs"].values())
    print(f"wrote {OUT.relative_to(REPO)}: {len(table)} programs, {runs} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
