#!/usr/bin/env python3
"""Benchmark of the fuzzfeed loop. One run measures one workload:

    python3 perfbench/run.py --workload bench-replay --seed 7 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
With ``--trace 0`` it reports the end-to-end metrics: set-up time (median of
several fresh processes, each stopped at its first verdict), then whole
passes of the workload until the next pass would end after ``--seconds``.
With ``--trace 1`` it runs one untraced pass and one traced pass, checks
that both produce byte-identical outputs, and reports the per-layer metrics.

Every pass is checked against the workload's known answers. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 when every
verdict was right, 1 when one was wrong and 2 when the run could not be made.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import ExitStack
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/fuzzfeed/cli.py", "corpus/builtin/corpus.json",
            "fixtures/bench.jsonl")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
FIRST_VERDICT = "first-verdict"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("bench-replay", "verify", "step-limit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure whole passes for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def probe_setup(workload) -> int:
    """Run the workload until its first verdict starts, print the wall-clock
    time of that moment and stop."""
    from harness import FirstVerdict, VerdictLog
    from workloads import VERDICT_FUNCTIONS

    def report():
        sys.__stdout__.write(f"{FIRST_VERDICT} {time.time():.6f}\n")
        sys.__stdout__.flush()
        raise FirstVerdict

    log = VerdictLog(on_first=report)
    try:
        with log.install(VERDICT_FUNCTIONS), workload.patches():
            workload.run_pass()
    except FirstVerdict:
        return 0
    return 1


def measure_setup(args) -> list[float]:
    """Seconds from process start to first verdict, once per probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--probe-setup"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        stamps = [line.split()[1] for line in proc.stdout.splitlines()
                  if line.startswith(FIRST_VERDICT + " ")]
        if proc.returncode != 0 or not stamps:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): "
                               f"{proc.stderr.strip()[-500:]}")
        samples.append(float(stamps[0]) - start)
    return samples


class Pass:
    """One measured pass: its wall time, verdicts and judged result."""

    def __init__(self, workload, extra=()):
        from harness import VerdictLog
        from workloads import VERDICT_FUNCTIONS, verdict_problems

        log = VerdictLog()
        with ExitStack() as stack:
            stack.enter_context(log.install(VERDICT_FUNCTIONS))
            stack.enter_context(workload.patches())
            for patch in extra:
                stack.enter_context(patch)
            start = time.perf_counter()
            self.result = workload.run_pass()
            self.wall = time.perf_counter() - start
        self.verdicts = log.verdicts
        for v in self.verdicts:
            self.result.wrong.extend(verdict_problems(v))
        workload.judge_verdicts(self.verdicts, self.result)

    def verdict_lines(self) -> list[str]:
        from workloads import verdict_line
        return [verdict_line(v) for v in self.verdicts]

    def inputs(self) -> int:
        from workloads import verdict_inputs
        return sum(verdict_inputs(v) for v in self.verdicts)

    def attempted(self) -> int:
        return len(self.verdicts) + self.result.rows


def end_to_end(args, workload):
    """Set-up probes, then passes for about ``--seconds``."""
    from harness import percentile, tail_reportable

    setup = measure_setup(args)
    start = time.perf_counter()
    passes = [Pass(workload)]
    # Later passes can only add allocator growth, not the workload's need.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while time.perf_counter() - start + median([p.wall for p in passes]) \
            <= args.seconds:
        passes.append(Pass(workload))
    for p in passes[1:]:
        if p.result.outputs != passes[0].result.outputs \
                or p.verdict_lines() != passes[0].verdict_lines():
            p.result.wrong.append("a repeated pass at the same seed gave "
                                  "different outputs")
    verdict_ms = [v.seconds * 1e3 for p in passes for v in p.verdicts]
    wall = sum(p.wall for p in passes)
    metrics = {
        "setup_s": (median(setup), "s"),
        "wall_s": (median([p.wall for p in passes]), "s"),
        "trials_per_s": (sum(p.inputs() for p in passes) / wall, "1/s"),
        "verdict_ms.p50": (percentile(verdict_ms, 50), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [f"{len(passes)} pass(es) of {wall:.3f} s in all; set-up "
             f"samples {', '.join(f'{s:.4f}' for s in setup)} s",
             f"verdicts: n={len(verdict_ms)}"]
    if tail_reportable(len(verdict_ms), 95):
        notes.append(f"verdict_ms.p95 = {percentile(verdict_ms, 95):.4f} ms "
                     f"(n={len(verdict_ms)})")
    else:
        notes.append(f"verdict_ms.p95 not reported: n={len(verdict_ms)} "
                     f"leaves fewer than 10 samples beyond it")
    return passes, metrics, notes


def traced(workload):
    """An untraced pass, then a traced one; per-layer metrics of the traced
    pass, whose overhead is its wall time minus the untraced pass's."""
    from harness import SpanRecorder, patched
    from workloads import TRACED_LAYERS, layer_metrics

    plain = Pass(workload)
    spans = SpanRecorder()
    tracing = patched([(target, spans.wrap(name, observe))
                       for name, target, observe in TRACED_LAYERS])
    with_spans = Pass(workload, extra=[tracing])
    if with_spans.result.outputs != plain.result.outputs \
            or with_spans.verdict_lines() != plain.verdict_lines():
        with_spans.result.wrong.append("traced and untraced passes gave "
                                       "different outputs")
    metrics = layer_metrics(spans, with_spans.result.divergences)
    metrics["tracing.overhead_s"] = (with_spans.wall - plain.wall, "s")
    metrics["verdicts.count"] = (len(with_spans.verdicts), "count")
    return [plain, with_spans], metrics, spans


def write_spans(spans, path: Path, passes) -> list[str]:
    """Write the span table once, after the traced pass; return notes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(spans.table(), indent=1) + "\n")
    names = {row["path"].rsplit("/", 1)[-1] for row in spans.table()}
    top = sorted(((n, spans.self_s(n)) for n in names),
                 key=lambda item: -item[1])[:8]
    walls = ", ".join(f"{p.wall:.3f}" for p in passes)
    return [f"untraced, traced pass: {walls} s; spans in "
            f"{path.relative_to(ROOT)}",
            "self time: " + ", ".join(f"{n} {s:.3f} s" for n, s in top)]


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not a full checkout; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    out_dir = ROOT / ".perfbench"
    work_dir = out_dir / f"work-{os.getpid()}"
    workload = WORKLOADS[args.workload](ROOT, args.seed, work_dir)
    try:
        if args.probe_setup:
            return probe_setup(workload)
        if args.trace:
            passes, metrics, spans = traced(workload)
            notes = write_spans(
                spans, out_dir / f"{args.workload}-seed{args.seed}.spans.json",
                passes)
        else:
            passes, metrics, notes = end_to_end(args, workload)
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(p.attempted() for p in passes)
    wrong = [w for p in passes for w in p.result.wrong]
    failed = min(len(wrong), attempted)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6f} {unit}")
    print(f"  wrong_ratio {failed / attempted:.6f} ({failed} of {attempted} "
          f"verdicts and rows differ from the known answers)")
    for line in wrong[:20]:
        print(f"  WRONG {line}")
    print(json.dumps({
        "correct": not wrong, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
