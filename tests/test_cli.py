"""The command-line interface, driven in process through cli.main."""
from __future__ import annotations

import json

import pytest

from fuzzfeed.cli import main
from fuzzfeed.corpus import builtin_corpus_dir
from fuzzfeed.orchestrator import read_trace_events, validate_trace

from conftest import (
    LENGTH_ONLY_WP, REGRESSED_WP, STRONG_WP, WEAKEST_WP, scripted_responses,
)


def write_responses(path, responses):
    path.write_text("".join(json.dumps({"response": r}) + "\n"
                            for r in responses))
    return str(path)


@pytest.fixture()
def program_file(tmp_path, sorting_copy):
    path = tmp_path / "sorting_copy.mini"
    path.write_text(sorting_copy.program_source)
    return path


@pytest.fixture()
def truth_file(tmp_path, sorting_copy):
    path = tmp_path / "sorting_copy.truth.mini"
    path.write_text(sorting_copy.truth_source)
    return path


def worked_example_script(tmp_path, sorting_copy):
    return write_responses(
        tmp_path / "responses.jsonl",
        scripted_responses(sorting_copy.program_source, LENGTH_ONLY_WP,
                           STRONG_WP, REGRESSED_WP, WEAKEST_WP))


# --- generate ---

def test_generate_accepted_exit_zero(tmp_path, program_file, sorting_copy,
                                     capsys):
    script = worked_example_script(tmp_path, sorting_copy)
    code = main(["generate", str(program_file),
                 "--provider", f"scripted:{script}",
                 "--seed", "7", "--fuzz-seconds", "0",
                 "--fuzz-trials", "20000", "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "sorting_copy: accepted" in out
    assert "cycles=2" in out and "llm_calls=4" in out

    candidate = (tmp_path / "out" / "sorting_copy.candidate.mini").read_text()
    assert "bool precondition" in candidate
    assert "len(c)" not in candidate
    events = read_trace_events(tmp_path / "out" / "sorting_copy.trace.jsonl")
    assert validate_trace(events) == []


def test_generate_malformed_exit_two(tmp_path, program_file, capsys):
    script = write_responses(tmp_path / "garbage.jsonl", ["nope", "nope"])
    code = main(["generate", str(program_file),
                 "--provider", f"scripted:{script}",
                 "--seed", "7", "--fuzz-seconds", "0",
                 "--fuzz-trials", "1000", "--out", str(tmp_path / "out")])
    assert code == 2
    captured = capsys.readouterr()
    assert "malformed" in captured.err
    # The trace is still written for diagnosis.
    assert (tmp_path / "out" / "sorting_copy.trace.jsonl").is_file()


def test_generate_exhausted_exit_three(tmp_path, program_file, sorting_copy,
                                       capsys):
    bad = scripted_responses(sorting_copy.program_source, LENGTH_ONLY_WP,
                             fence=())[0]
    script = write_responses(tmp_path / "stuck.jsonl", [bad] * 40)
    code = main(["generate", str(program_file),
                 "--provider", f"scripted:{script}",
                 "--seed", "7", "--fuzz-seconds", "0", "--fuzz-trials",
                 "2000", "--max-validity-iters", "2", "--max-cycles", "1",
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert "exhausted-budget" in capsys.readouterr().out
    # The best candidate so far is still saved.
    assert (tmp_path / "out" / "sorting_copy.candidate.mini").is_file()


def test_generate_strict_fuzz_blind_exit_three(tmp_path, builtin_set, capsys):
    program = builtin_set.by_id("existential_value_swap")
    program_file = tmp_path / "value_swap.mini"
    program_file.write_text(program.program_source)
    script = write_responses(
        tmp_path / "truth.jsonl",
        scripted_responses(program.program_source, program.truth_source,
                           fence=()))
    code = main(["generate", str(program_file),
                 "--provider", f"scripted:{script}",
                 "--seed", "7", "--fuzz-seconds", "0",
                 "--fuzz-trials", "2000", "--paper-faithful",
                 "--strict-fuzz-blind", "--out", str(tmp_path / "out")])
    assert code == 3
    assert "fuzz-blind" in capsys.readouterr().out


def test_generate_zero_shot_no_fg(tmp_path, program_file, sorting_copy,
                                  capsys):
    script = write_responses(
        tmp_path / "one.jsonl",
        scripted_responses(sorting_copy.program_source, WEAKEST_WP))
    code = main(["generate", str(program_file),
                 "--provider", f"scripted:{script}", "--no-fg",
                 "--seed", "7", "--fuzz-seconds", "0",
                 "--fuzz-trials", "1000", "--out", str(tmp_path / "out")])
    assert code == 0
    assert "fg_used=False" in capsys.readouterr().out


def test_generate_prints_random_seed_when_unset(tmp_path, program_file,
                                                sorting_copy, capsys):
    script = write_responses(
        tmp_path / "one.jsonl",
        scripted_responses(sorting_copy.program_source, WEAKEST_WP))
    code = main(["generate", str(program_file),
                 "--provider", f"scripted:{script}", "--no-fg",
                 "--fuzz-seconds", "0", "--fuzz-trials", "1000",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "seed:" in out and "--seed" in out


# --- usage and config errors (exit 4) ---

def test_missing_program_file_exit_four(tmp_path, capsys):
    code = main(["generate", str(tmp_path / "ghost.mini"),
                 "--provider", "scripted:none.jsonl"])
    assert code == 4
    assert "no such file" in capsys.readouterr().err


def test_unknown_provider_exit_four(tmp_path, program_file, capsys):
    code = main(["generate", str(program_file), "--provider", "oracle"])
    assert code == 4
    assert "unknown provider" in capsys.readouterr().err


def test_empty_response_file_exit_four(tmp_path, program_file, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = main(["generate", str(program_file),
                 "--provider", f"scripted:{empty}"])
    assert code == 4
    assert "provider error" in capsys.readouterr().err


def test_both_budgets_zero_exit_four(tmp_path, program_file, sorting_copy,
                                     capsys):
    script = write_responses(
        tmp_path / "one.jsonl",
        scripted_responses(sorting_copy.program_source, WEAKEST_WP))
    code = main(["generate", str(program_file),
                 "--provider", f"scripted:{script}",
                 "--fuzz-seconds", "0", "--fuzz-trials", "0"])
    assert code == 4
    assert "--fuzz-seconds/--fuzz-trials" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--max-cycles", "--max-validity-iters"])
def test_caps_below_one_exit_four(tmp_path, program_file, sorting_copy, flag,
                                  capsys):
    # A zero cap used to skip fuzzing and save the unfuzzed first candidate.
    script = write_responses(
        tmp_path / "one.jsonl",
        scripted_responses(sorting_copy.program_source, WEAKEST_WP))
    out_dir = tmp_path / "out"
    code = main(["generate", str(program_file),
                 "--provider", f"scripted:{script}", "--seed", "1",
                 "--fuzz-seconds", "0", "--fuzz-trials", "100", flag, "0",
                 "--out", str(out_dir)])
    assert code == 4
    assert flag in capsys.readouterr().err
    assert not out_dir.exists()


def test_argparse_errors_use_exit_four(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["generate"])  # missing required positional
    assert excinfo.value.code == 4
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 4


def test_http_provider_without_key_exit_four(tmp_path, program_file,
                                             monkeypatch, capsys):
    monkeypatch.delenv("FUZZFEED_API_KEY", raising=False)
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    code = main(["generate", str(program_file), "--provider", "http",
                 "--seed", "1"])
    assert code == 4
    assert "API key" in capsys.readouterr().err


def test_bench_bad_k_exit_four(tmp_path, capsys):
    code = main(["bench", str(builtin_corpus_dir()), "-k", "0",
                 "--provider", "scripted:none.jsonl"])
    assert code == 4


def test_bench_missing_corpus_exit_four(tmp_path, capsys):
    code = main(["bench", str(tmp_path / "nowhere"),
                 "--provider", "scripted:none.jsonl"])
    assert code == 4
    assert "corpus.json" in capsys.readouterr().err


# --- check ---

def test_check_passing_candidate(tmp_path, program_file, truth_file,
                                 sorting_copy, capsys):
    candidate = tmp_path / "candidate.mini"
    candidate.write_text(WEAKEST_WP)
    code = main(["check", str(program_file), str(candidate),
                 "--truth", str(truth_file), "--seed", "5",
                 "--fuzz-seconds", "0", "--fuzz-trials", "4000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "validity: likely-pass" in out
    assert "weakness: likely-pass" in out
    assert "equivalence: likely-equivalent" in out


def test_check_invalid_candidate_exit_one(tmp_path, program_file,
                                          sorting_copy, capsys):
    candidate = tmp_path / "candidate.mini"
    candidate.write_text(REGRESSED_WP)
    code = main(["check", str(program_file), str(candidate), "--seed", "5",
                 "--fuzz-seconds", "0", "--fuzz-trials", "4000"])
    assert code == 1
    out = capsys.readouterr().out
    assert "validity: counterexample" in out
    witness = json.loads(out.split("trials: ", 1)[1].splitlines()[0])
    assert set(witness) == {"a", "b", "c"}


def test_check_too_strong_candidate_exit_one(tmp_path, program_file,
                                             truth_file, capsys):
    candidate = tmp_path / "candidate.mini"
    candidate.write_text(STRONG_WP)
    code = main(["check", str(program_file), str(candidate),
                 "--truth", str(truth_file), "--seed", "5",
                 "--fuzz-seconds", "0", "--fuzz-trials", "4000"])
    assert code == 1
    out = capsys.readouterr().out
    assert "validity: likely-pass" in out
    assert "weakness: counterexample" in out
    assert "equivalence: not-equivalent, truth accepts" in out


def test_check_phase_seeds_are_named_streams(tmp_path, program_file,
                                            truth_file, monkeypatch):
    # Validity and equivalence each draw from their own named derive_seed
    # stream. Weakness is answered from the validity stream: it gets that
    # config and the validity verdict. No stream of one --seed is a stream
    # of a neighbouring --seed.
    import fuzzfeed.cli as cli
    from fuzzfeed.fuzzing import LikelyPass, derive_seed

    seen = {}
    validity_verdicts = []

    def recording(name, fn):
        def record(*args, **kwargs):
            config = kwargs["config"] if "config" in kwargs else args[2]
            seen.setdefault(name, []).append(config.seed)
            result = fn(*args, **kwargs)
            if name == "validity_fuzz":
                validity_verdicts.append(result)
            if name == "weakness_fuzz":
                assert kwargs["validity"] is validity_verdicts[-1]
            return result
        return record

    for name in ("validity_fuzz", "weakness_fuzz", "check_equivalence"):
        monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
    candidate = tmp_path / "candidate.mini"
    candidate.write_text(WEAKEST_WP)
    for seed in (5, 6):
        main(["check", str(program_file), str(candidate),
              "--truth", str(truth_file), "--seed", str(seed),
              "--fuzz-seconds", "0", "--fuzz-trials", "50"])
    validity = [derive_seed(s, "check", "validity") for s in (5, 6)]
    assert seen == {
        "validity_fuzz": validity, "weakness_fuzz": validity,
        "check_equivalence": [derive_seed(s, "check", "equivalence")
                              for s in (5, 6)]}
    assert all(isinstance(v, LikelyPass) for v in validity_verdicts)
    assert len({s for seeds in seen.values() for s in seeds}) == 4


def test_check_full_program_candidate_accepted(tmp_path, program_file,
                                               sorting_copy, capsys):
    # The candidate file may also be a whole program with a precondition.
    candidate = tmp_path / "candidate.mini"
    candidate.write_text(sorting_copy.program_source.rstrip() + "\n\n"
                         + WEAKEST_WP)
    code = main(["check", str(program_file), str(candidate), "--seed", "5",
                 "--fuzz-seconds", "0", "--fuzz-trials", "2000"])
    assert code == 0


def test_check_unparsable_candidate_exit_four(tmp_path, program_file, capsys):
    candidate = tmp_path / "candidate.mini"
    candidate.write_text("this is not a precondition")
    code = main(["check", str(program_file), str(candidate), "--seed", "5"])
    assert code == 4
    assert "cannot parse candidate" in capsys.readouterr().err


# --- corpus-validate ---

def test_corpus_validate_builtin_clean(capsys):
    code = main(["corpus-validate", str(builtin_corpus_dir()), "--seed", "11",
                 "--fuzz-seconds", "0", "--fuzz-trials", "1500"])
    assert code == 0
    assert "no findings" in capsys.readouterr().out


def test_corpus_validate_flags_bad_truth(tmp_path, sorting_copy, capsys):
    import shutil

    dst = tmp_path / "corpus"
    shutil.copytree(builtin_corpus_dir(), dst)
    manifest = json.loads((dst / "corpus.json").read_text())
    entry = next(p for p in manifest["programs"]
                 if p["id"] == "sorting_copy")
    (dst / entry["truth"]).write_text(REGRESSED_WP)
    code = main(["corpus-validate", str(dst), "--seed", "11",
                 "--fuzz-seconds", "0", "--fuzz-trials", "1500"])
    assert code == 1
    out = capsys.readouterr().out
    assert "sorting_copy: validity:" in out
    assert "finding(s)" in out


# --- bench ---

def test_bench_writes_reports(tmp_path, builtin_set, capsys):
    # A one-program corpus keeps the run fast.
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    program = builtin_set.by_id("sorting_copy")
    (corpus_dir / "sorting_copy.mini").write_text(program.program_source)
    (corpus_dir / "sorting_copy.truth.mini").write_text(program.truth_source)
    (corpus_dir / "corpus.json").write_text(json.dumps({
        "name": "mini", "programs": [{
            "id": "sorting_copy", "category": "Sorting",
            "file": "sorting_copy.mini",
            "truth": "sorting_copy.truth.mini",
            "description": program.description}]}))
    script = write_responses(
        tmp_path / "responses.jsonl",
        scripted_responses(program.program_source, program.truth_source,
                           fence=()) * 2)

    out_dir = tmp_path / "out"
    code = main(["bench", str(corpus_dir), "-k", "2",
                 "--provider", f"scripted:{script}",
                 "--seed", "7", "--fuzz-seconds", "0",
                 "--fuzz-trials", "2000", "--out", str(out_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "Sorting: correct 1-1 of 1" in out
    assert "100.00%" in out

    detail = (out_dir / "detail.csv").read_text().splitlines()
    assert len(detail) == 3  # header + 2 iterations
    report = json.loads((out_dir / "report.json").read_text())
    assert report["k"] == 2
    assert report["configuration"] == "scripted-FG"
    assert report["summary"][0]["correct_avg_pct"] == "100.00"


def test_bench_label_override(tmp_path, builtin_set, capsys):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    program = builtin_set.by_id("sorting_copy")
    (corpus_dir / "p.mini").write_text(program.program_source)
    (corpus_dir / "t.mini").write_text(program.truth_source)
    (corpus_dir / "corpus.json").write_text(json.dumps({
        "name": "mini", "programs": [{
            "id": "sorting_copy", "category": "Sorting", "file": "p.mini",
            "truth": "t.mini", "description": program.description}]}))
    script = write_responses(
        tmp_path / "responses.jsonl",
        scripted_responses(program.program_source, program.truth_source,
                           fence=()))
    code = main(["bench", str(corpus_dir), "-k", "1", "--label", "Truth-Run",
                 "--provider", f"scripted:{script}", "--no-fg",
                 "--seed", "7", "--fuzz-seconds", "0",
                 "--fuzz-trials", "2000", "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["configuration"] == "Truth-Run"
