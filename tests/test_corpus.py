"""The benchmark corpus: loading, structural checks, truth-WP weakening,
and the corpus self-validation pass."""
from __future__ import annotations

import json
import shutil

import pytest

from fuzzfeed.corpus import (
    Category, CorpusError, ManifestMissing, builtin_corpus_dir,
    candidate_source_with, category_shape_problems, drop_first_conjunct,
    load_builtin_corpus, load_corpus, validate_corpus,
)
from fuzzfeed.fuzzing import (
    FuzzBudget, Phase, default_config, replay_witness, tiny_domain_config,
)
from fuzzfeed.minilang import parse, typecheck

SMALL_BUDGET = FuzzBudget.trials_only(3000)


# --- the shipped corpus ---

def test_builtin_corpus_size_and_balance(builtin_set):
    assert len(builtin_set) >= 16
    for category in Category:
        assert sum(p.category is category for p in builtin_set) >= 4


def test_builtin_ids_unique_and_stable(builtin_set):
    ids = [p.id for p in builtin_set]
    assert len(set(ids)) == len(ids)
    assert "sorting_copy" in ids
    assert "existential_value_swap" in ids


def test_every_program_parses_and_typechecks(builtin_set):
    for program in builtin_set:
        typecheck(program.program())
        combined = program.with_truth()
        typecheck(combined)
        assert combined.has_precondition()


def test_every_program_matches_its_category_shape(builtin_set):
    for program in builtin_set:
        assert category_shape_problems(program) == [], program.id


def test_by_id_unknown_raises(builtin_set):
    with pytest.raises(KeyError):
        builtin_set.by_id("no_such_program")


def test_descriptions_are_informative(builtin_set):
    for program in builtin_set:
        assert len(program.description) > 10, program.id


# --- loader error paths ---

@pytest.fixture()
def corpus_copy(tmp_path):
    dst = tmp_path / "corpus"
    shutil.copytree(builtin_corpus_dir(), dst)
    return dst


def read_manifest(root):
    return json.loads((root / "corpus.json").read_text())


def write_manifest(root, manifest):
    (root / "corpus.json").write_text(json.dumps(manifest))


def test_missing_manifest(tmp_path):
    with pytest.raises(ManifestMissing):
        load_corpus(tmp_path)


def test_bad_manifest_json(corpus_copy):
    (corpus_copy / "corpus.json").write_text("{not json")
    with pytest.raises(CorpusError, match="invalid JSON"):
        load_corpus(corpus_copy)


def test_manifest_without_programs_key(corpus_copy):
    write_manifest(corpus_copy, {"name": "x"})
    with pytest.raises(CorpusError, match="programs"):
        load_corpus(corpus_copy)


def test_entry_missing_keys(corpus_copy):
    manifest = read_manifest(corpus_copy)
    del manifest["programs"][0]["truth"]
    write_manifest(corpus_copy, manifest)
    with pytest.raises(CorpusError, match="missing keys.*truth"):
        load_corpus(corpus_copy)


def test_unknown_category(corpus_copy):
    manifest = read_manifest(corpus_copy)
    manifest["programs"][0]["category"] = "Recursion"
    write_manifest(corpus_copy, manifest)
    with pytest.raises(CorpusError, match="unknown category 'Recursion'"):
        load_corpus(corpus_copy)


def test_missing_program_file(corpus_copy):
    manifest = read_manifest(corpus_copy)
    manifest["programs"][0]["file"] = "ghost.mini"
    write_manifest(corpus_copy, manifest)
    with pytest.raises(CorpusError, match="missing corpus file"):
        load_corpus(corpus_copy)


def test_truth_without_precondition(corpus_copy):
    entry = read_manifest(corpus_copy)["programs"][0]
    (corpus_copy / entry["truth"]).write_text(
        "int helper(int[] a, int[] b, int[] c) { return 0; }\n")
    with pytest.raises(CorpusError, match="helper"):
        # A second non-precondition function is a signature error.
        load_corpus(corpus_copy)


def test_parse_error_reports_file_and_line(corpus_copy):
    entry = read_manifest(corpus_copy)["programs"][0]
    broken = (corpus_copy / entry["file"]).read_text().replace("return 0;",
                                                               "return 0", 1)
    (corpus_copy / entry["file"]).write_text(broken)
    with pytest.raises(CorpusError, match=rf"{entry['file']}:\d+:"):
        load_corpus(corpus_copy)


def test_loaded_copy_equals_builtin(corpus_copy, builtin_set):
    again = load_corpus(corpus_copy)
    assert [p.id for p in again] == [p.id for p in builtin_set]
    assert {p.id: p.program_source for p in again} \
        == {p.id: p.program_source for p in builtin_set}


# --- truth weakening ---

def test_drop_first_conjunct_applies_to_every_truth(builtin_set):
    for program in builtin_set:
        weaker = drop_first_conjunct(program.truth_function())
        assert weaker is not None, program.id
        # The weakened text must still be a well-typed precondition.
        typecheck(parse(candidate_source_with(program, weaker)))


def test_drop_first_conjunct_weakens_sorting_copy(sorting_copy):
    weaker = drop_first_conjunct(sorting_copy.truth_function())
    source = candidate_source_with(sorting_copy, weaker)
    # Sortedness alone no longer requires equal lengths, so the weakened
    # predicate admits an input the truth rejects — a validity fuzz on the
    # weakened candidate must find a counterexample.
    from fuzzfeed.fuzzing import Counterexample, validity_fuzz
    verdict = validity_fuzz(parse(source), SMALL_BUDGET,
                            default_config(seed=3))
    assert isinstance(verdict, Counterexample)
    assert replay_witness(parse(source), verdict.witness, Phase.VALIDITY)


def test_drop_first_conjunct_handles_return_conjunction():
    fn = parse(
        "int foo(int[] a, int[] b, int[] c) { return 0; }\n"
        "bool precondition(int[] a, int[] b, int[] c) {\n"
        "    return len(a) > 0 && len(b) > 0;\n"
        "}\n").precondition
    weaker = drop_first_conjunct(fn)
    from fuzzfeed.minilang import to_source
    assert "len(b) > 0" in to_source(weaker)
    assert "len(a)" not in to_source(weaker)


def test_drop_first_conjunct_none_when_atomic():
    fn = parse(
        "int foo(int[] a, int[] b, int[] c) { return 0; }\n"
        "bool precondition(int[] a, int[] b, int[] c) {\n"
        "    return true;\n"
        "}\n").precondition
    assert drop_first_conjunct(fn) is None


# --- corpus self-validation ---

def test_validate_corpus_clean_on_builtin(builtin_set):
    findings = validate_corpus(builtin_set, SMALL_BUDGET,
                               default_config(seed=11))
    assert findings == []


def test_validate_corpus_flags_too_weak_truth(builtin_set, sorting_copy):
    # Swap in a truth that misses the sortedness requirement: validity
    # fuzzing of the truth itself must produce a finding.
    from conftest import make_single_program_set

    weak_truth = (
        "bool precondition(int[] a, int[] b, int[] c) {\n"
        "    return len(a) > 0 && len(a) == len(b);\n"
        "}\n")
    bad = make_single_program_set(sorting_copy, weak_truth)
    findings = validate_corpus(bad, SMALL_BUDGET, default_config(seed=11))
    kinds = {f.kind for f in findings}
    assert "validity" in kinds
    finding = next(f for f in findings if f.kind == "validity")
    assert finding.program_id == "sorting_copy"
    assert finding.witness is not None
    combined = parse(sorting_copy.program_source.rstrip() + "\n\n"
                     + weak_truth)
    assert replay_witness(combined, finding.witness, Phase.VALIDITY)


def test_validate_corpus_flags_too_strong_truth(builtin_set, sorting_copy):
    # A truth demanding a non-empty c is stronger than necessary: only the
    # weakness phases should complain.
    from conftest import STRONG_WP, make_single_program_set

    strong_truth = "\n".join(
        l for l in STRONG_WP.splitlines() if not l.lstrip().startswith("//")
    ) + "\n"
    bad = make_single_program_set(sorting_copy, strong_truth)
    findings = validate_corpus(bad, SMALL_BUDGET, default_config(seed=11))
    assert findings != []
    assert {f.kind for f in findings} <= {"weakness", "exhaustive-weakness"}
    assert all(f.witness is not None for f in findings)


def test_validate_corpus_exhaustive_uses_tiny_domain(builtin_set,
                                                     sorting_copy):
    # A flaw visible only on tiny inputs: reject length-1 arrays.  Random
    # fuzzing may or may not hit it, but the exhaustive pass must.
    from conftest import make_single_program_set

    picky_truth = (
        "bool precondition(int[] a, int[] b, int[] c) {\n"
        "    if (len(a) != len(b)) { return false; }\n"
        "    if (len(a) < 2) { return false; }\n"
        "    for (int i = 0; i < len(a) - 1; i = i + 1) {\n"
        "        if (a[i] > a[i + 1]) { return false; }\n"
        "    }\n"
        "    return true;\n"
        "}\n")
    bad = make_single_program_set(sorting_copy, picky_truth)
    findings = validate_corpus(bad, SMALL_BUDGET, default_config(seed=11))
    assert any(f.kind == "exhaustive-weakness" for f in findings)
    witness = next(f for f in findings
                   if f.kind == "exhaustive-weakness").witness
    assert len(witness.a) == 1


def test_validate_corpus_flags_shape_mismatch(builtin_set, sorting_copy):
    from dataclasses import replace

    from conftest import make_single_program_set
    from fuzzfeed.corpus import BenchmarkSet

    relabeled = replace(sorting_copy, category=Category.SEARCH)
    bad = BenchmarkSet(name="x", programs=(relabeled,))
    findings = validate_corpus(bad, FuzzBudget.trials_only(50),
                               default_config(seed=11))
    assert any(f.kind == "shape" and "binarySearch" in f.detail
               for f in findings)


def test_tiny_domain_config_also_clean(builtin_set):
    # The alternative generator preset must also find nothing against the
    # shipped truths.
    findings = validate_corpus(builtin_set, FuzzBudget.trials_only(1500),
                               tiny_domain_config(seed=5))
    assert findings == []
