import gc
import json
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import pytest

from ontoclose import cli, closure, kif, taxonomy
from ontoclose.cli import (
    EXIT_DATA, EXIT_INCONSISTENT, EXIT_OK, EXIT_PROVER, EXIT_USAGE,
    load_config, main,
)
from ontoclose.prover import MAX_MEMORY_LIMIT_MIB, MAX_TIME_LIMIT

from conftest import DATA_DIR
import stub_provers


ONTOLOGY = DATA_DIR / "organism_process.kif"
SRC = Path(__file__).resolve().parent.parent / "src"

MAPPING_TSV = (
    "birth#n#2\tBirth=\n"
    "death#n#1\tDeath=\n"
    "breathing#n#1\tBreathing=\n"
    "process#n#2\tOrganismProcess+\n"
)
ANTONYMY_TSV = "birth#n#2\tdeath#n#1\n"
HYPONYMY_TSV = "breathing#n#1\tprocess#n#2\n"


@pytest.fixture
def lexical_files(tmp_path):
    mapping = tmp_path / "mapping.tsv"
    mapping.write_text(MAPPING_TSV)
    antonymy = tmp_path / "antonymy.tsv"
    antonymy.write_text(ANTONYMY_TSV)
    hyponymy = tmp_path / "hyponymy.tsv"
    hyponymy.write_text(HYPONYMY_TSV)
    return mapping, antonymy, hyponymy


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# parse / stats / close / suggest-curation
# ---------------------------------------------------------------------------

def test_parse_round_trips(tmp_path, capsys):
    out = tmp_path / "canonical.kif"
    assert run_cli("parse", ONTOLOGY, "--out", out) == EXIT_OK
    reparsed = kif.parse_kif(out.read_text())
    original = kif.parse_kif(ONTOLOGY.read_text())
    assert reparsed.structurally_equal(original)


def test_parse_exports_graphs(tmp_path):
    dot = tmp_path / "tax.dot"
    edges = tmp_path / "edges.tsv"
    assert run_cli("parse", ONTOLOGY, "--out", tmp_path / "o.kif",
                   "--dot", dot, "--edges", edges) == EXIT_OK
    assert dot.read_text().startswith("digraph")
    assert "Birth\tOrganismProcess" in edges.read_text()


def test_parse_reports_syntax_errors(tmp_path, capsys):
    bad = tmp_path / "bad.kif"
    bad.write_text("($disjoint Birth Death")
    assert run_cli("parse", bad) == EXIT_DATA
    assert "line 1" in capsys.readouterr().err


def test_stats_reports_pruned_and_unpruned(tmp_path, capsys):
    csv_path = tmp_path / "stats.csv"
    assert run_cli("stats", ONTOLOGY, "--mode", "subclass+disjointness",
                   "--csv", csv_path) == EXIT_OK
    text = csv_path.read_text()
    lines = text.splitlines()
    assert lines[0].startswith("label,axiom")
    assert lines[1].startswith("original,16,")
    assert any(line.startswith("subclass+disjointness (pruned),") for line in lines)
    assert any(line.startswith("subclass+disjointness (unpruned),") for line in lines)

    def atoms(label):
        row = next(l for l in lines if l.startswith(label))
        return int(row.split(",")[4])

    assert atoms("original") < atoms("subclass+disjointness (pruned)")


def test_close_writes_augmented_ontology(tmp_path):
    out = tmp_path / "closed.kif"
    assert run_cli("close", ONTOLOGY, "--mode", "subclass+disjointness",
                   "--out", out) == EXIT_OK
    assert "($disjoint Birth Death)" in out.read_text()


def test_close_deterministic(tmp_path):
    first = tmp_path / "one.kif"
    second = tmp_path / "two.kif"
    run_cli("close", ONTOLOGY, "--mode", "subclass+nondisjointness",
            "--out", first)
    run_cli("close", ONTOLOGY, "--mode", "subclass+nondisjointness",
            "--out", second)
    assert first.read_bytes() == second.read_bytes()


def test_suggest_curation_output(tmp_path):
    agent = DATA_DIR / "agent.kif"
    out = tmp_path / "curation.kif"
    assert run_cli("suggest-curation", agent, "--mode",
                   "subclass+disjointness", "--out", out) == EXIT_OK
    assert "($nonDisjoint Organism SentientAgent)" in out.read_text()
    blood = DATA_DIR / "blood_cell.kif"
    assert run_cli("suggest-curation", blood, "--mode",
                   "subclass+nondisjointness", "--out", out) == EXIT_OK
    assert "; undecided: RedBloodCell WhiteBloodCell" in out.read_text()


def test_suggest_curation_rejects_conflicted_taxonomy(tmp_path, capsys):
    conflicted = tmp_path / "conflicted.kif"
    conflicted.write_text("($subclass A P) ($subclass B P)\n"
                          "($subclass X A) ($subclass X B)\n($disjoint A B)\n")
    out = tmp_path / "curation.kif"
    assert run_cli("suggest-curation", conflicted, "--mode",
                   "subclass+disjointness", "--out", out) == EXIT_DATA
    assert "conflicting pairs: A/B" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# gen-cqs / emit / run / report
# ---------------------------------------------------------------------------

def test_gen_cqs_writes_corpus(tmp_path, lexical_files, capsys):
    mapping, antonymy, hyponymy = lexical_files
    out = tmp_path / "cqs.kif"
    assert run_cli("gen-cqs", "--mapping", mapping, "--antonymy", antonymy,
                   "--hyponymy", hyponymy, "--out", out,
                   "--split-dir", tmp_path / "split") == EXIT_OK
    text = out.read_text()
    assert "; cq: antonymy-1:birth#n#2:death#n#1:Birth:Death" in text
    assert (tmp_path / "split" / "antonymy-1.kif").exists()
    assert (tmp_path / "split" / "hypo-noun-2.kif").exists()
    assert "generated" in capsys.readouterr().err


def test_gen_cqs_template(tmp_path, lexical_files):
    mapping, _, _ = lexical_files
    template = tmp_path / "overlap.kif"
    template.write_text(
        "; template: part-overlap\n"
        "; kind: meronymy-part\n"
        "(exists (X Y) (and ($instance X C1) ($instance Y C2) (part X Y)))\n")
    pairs = tmp_path / "parts.tsv"
    pairs.write_text("birth#n#2\tdeath#n#1\n")
    out = tmp_path / "cqs.kif"
    assert run_cli("gen-cqs", "--mapping", mapping, "--template",
                   f"{template}:{pairs}", "--out", out) == EXIT_OK
    assert "template(part-overlap)" in out.read_text()


def test_gen_cqs_writes_exact_corpus_bytes(tmp_path, capsys):
    # every built-in pattern: noun and verb hyponymy pairs whose first
    # synset is mapped by =, + and @, a synset mapped to two classes, two
    # links to one class (one question), an unmapped pair (skipped by
    # both hyponymy patterns) and antonymy pairs
    mapping = tmp_path / "mapping.tsv"
    mapping.write_text(
        "cat#n#1\tFeline=\nanimal#n#1\tAnimal+\nanimal#n#1\tOrganism+\n"
        "animal#n#1\tAnimal=\nfido#n#1\tDog@\nfido#n#1\tDog+\n"
        "dog#n#1\tCanine=\nrun#v#1\tRunning+\nwalk#v#1\tWalking=\n"
        "move#v#1\tMotion+\nbirth#n#2\tBirth=\ndeath#n#1\tDeath=\n"
        "live#v#1\tLiving=\ndie#v#1\tDeath+\n")
    hyponymy = tmp_path / "hyponymy.tsv"
    hyponymy.write_text(
        "cat#n#1\tanimal#n#1\nfido#n#1\tdog#n#1\nrun#v#1\tmove#v#1\n"
        "walk#v#1\tmove#v#1\nghost#n#1\tanimal#n#1\n")
    antonymy = tmp_path / "antonymy.tsv"
    antonymy.write_text("birth#n#2\tdeath#n#1\nlive#v#1\tdie#v#1\n")
    out = tmp_path / "cqs.kif"
    assert run_cli("gen-cqs", "--mapping", mapping, "--hyponymy", hyponymy,
                   "--antonymy", antonymy, "--out", out) == EXIT_OK
    assert out.read_bytes() == b"""\
; cq: hypo-noun-1:fido#n#1:dog#n#1:Dog:Canine
; pattern: hypo-noun-1
; kind: hyponymy
; source: fido#n#1 dog#n#1
(exists (X) (and ($instance X Dog) ($instance X Canine)))

; cq: hypo-verb-1:run#v#1:move#v#1:Running:Motion
; pattern: hypo-verb-1
; kind: hyponymy
; source: run#v#1 move#v#1
(exists (X) (and ($instance X Running) ($instance X Motion)))

; cq: hypo-noun-2:cat#n#1:animal#n#1:Feline:Animal
; pattern: hypo-noun-2
; kind: hyponymy
; source: cat#n#1 animal#n#1
(forall (X) (=> ($instance X Feline) ($instance X Animal)))

; cq: hypo-noun-2:cat#n#1:animal#n#1:Feline:Organism
; pattern: hypo-noun-2
; kind: hyponymy
; source: cat#n#1 animal#n#1
(forall (X) (=> ($instance X Feline) ($instance X Organism)))

; cq: hypo-verb-2:walk#v#1:move#v#1:Walking:Motion
; pattern: hypo-verb-2
; kind: hyponymy
; source: walk#v#1 move#v#1
(forall (X) (=> ($instance X Walking) ($instance X Motion)))

; cq: antonymy-1:birth#n#2:death#n#1:Birth:Death
; pattern: antonymy-1
; kind: antonymy
; source: birth#n#2 death#n#1
(forall (X Y)
  (=> (and ($instance X Birth) ($instance Y Death)) (not (equal X Y))))

; cq: antonymy-1:live#v#1:die#v#1:Living:Death
; pattern: antonymy-1
; kind: antonymy
; source: live#v#1 die#v#1
(forall (X Y)
  (=> (and ($instance X Living) ($instance Y Death)) (not (equal X Y))))
"""
    assert capsys.readouterr().err == \
        "generated 7 questions; skipped 2 unmapped pairs\n"


def _generate_corpus(tmp_path, lexical_files):
    mapping, antonymy, hyponymy = lexical_files
    corpus = tmp_path / "cqs.kif"
    run_cli("gen-cqs", "--mapping", mapping, "--antonymy", antonymy,
            "--hyponymy", hyponymy, "--out", corpus)
    return corpus


def _problem_headers(path):
    return dict(line[2:].split(": ", 1)
                for line in path.read_text().splitlines()
                if line.startswith("% ") and ": " in line)


def test_emit_problem_files(tmp_path, lexical_files):
    corpus = _generate_corpus(tmp_path, lexical_files)
    out_dir = tmp_path / "problems"
    assert run_cli("emit", ONTOLOGY, "--cqs", corpus,
                   "--out-dir", out_dir) == EXIT_OK
    files = sorted(out_dir.iterdir())
    tests = set()
    for path in files:
        headers = _problem_headers(path)
        assert path.name.endswith(f"_{headers['polarity']}.p")
        assert ", conjecture, " in path.read_text()
        tests.add((headers["cq"], headers["polarity"]))
    assert len(files) == len(tests)
    assert tests == {(cq_id, polarity) for cq_id in list_corpus_ids(corpus)
                     for polarity in ("truth", "falsity")}


def test_emit_writes_the_files_run_writes(tmp_path, lexical_files):
    corpus = _generate_corpus(tmp_path, lexical_files)
    emitted, ran = tmp_path / "emitted", tmp_path / "ran"
    # counter-satisfiable truth tests: no falsity test is short-circuited
    config = stub_provers.stub_config(tmp_path, stub_provers.COUNTER_SATISFIABLE)
    assert run_cli("emit", ONTOLOGY, "--cqs", corpus,
                   "--out-dir", emitted) == EXIT_OK
    assert run_cli("run", ONTOLOGY, "--cqs", corpus, "--problems", ran,
                   "--journal", tmp_path / "journal.jsonl",
                   "--prover-cmd", config.command) == EXIT_OK
    names = sorted(path.name for path in emitted.iterdir())
    assert names == sorted(path.name for path in ran.iterdir())
    assert len(names) == 2 * len(list_corpus_ids(corpus))
    for name in names:
        assert (emitted / name).read_bytes() == (ran / name).read_bytes()


def list_corpus_ids(corpus):
    from ontoclose.questions import read_cq_corpus
    return [cq.id for cq in read_cq_corpus(corpus.read_text())]


def test_run_oracle_trichotomy(tmp_path, lexical_files, capsys):
    corpus = _generate_corpus(tmp_path, lexical_files)
    # two questions: birth/death distinctness and a subset question that the
    # subclass edge already answers in every mode
    expectations = {
        "owa": "passing: 1, unknown: 1",
        "subclass-only": "passing: 1, unknown: 1",
        "subclass+disjointness": "passing: 2",
        "subclass+nondisjointness": "non-passing: 1, passing: 1",
    }
    for mode, expected in expectations.items():
        closed = tmp_path / f"{mode.replace('+', '_')}.kif"
        run_cli("close", ONTOLOGY, "--mode", mode, "--out", closed)
        journal = tmp_path / f"journal_{mode.replace('+', '_')}.jsonl"
        assert run_cli("run", closed, "--oracle", "--cqs", corpus,
                       "--journal", journal) == EXIT_OK
        assert expected in capsys.readouterr().err


def test_run_with_stub_prover(tmp_path, lexical_files):
    corpus = _generate_corpus(tmp_path, lexical_files)
    config = stub_provers.stub_config(tmp_path, stub_provers.COUNTER_SATISFIABLE)
    journal = tmp_path / "stub_journal.jsonl"
    assert run_cli("run", ONTOLOGY, "--cqs", corpus, "--journal", journal,
                   "--prover-cmd", config.command, "--time-limit", "10",
                   "--workers", "2") == EXIT_OK
    assert journal.exists()
    lines = journal.read_text().splitlines()
    assert all(json.loads(line)["status"] == "counter-satisfiable"
               for line in lines)


def test_run_prover_env_override(tmp_path, lexical_files, monkeypatch):
    corpus = _generate_corpus(tmp_path, lexical_files)
    config = stub_provers.stub_config(tmp_path, stub_provers.COUNTER_SATISFIABLE)
    monkeypatch.setenv("ONTOCLOSE_PROVER_COMMAND", config.command)
    journal = tmp_path / "env_journal.jsonl"
    assert run_cli("run", ONTOLOGY, "--cqs", corpus,
                   "--journal", journal) == EXIT_OK
    assert journal.exists()


def test_env_overrides_for_limits(monkeypatch):
    from ontoclose.cli import _prover_config
    given = dict(command="prover {problem}", time_limit=300.0,
                 memory_limit=2048, workers=1)
    monkeypatch.setenv("ONTOCLOSE_TIME_LIMIT", "42.5")
    monkeypatch.setenv("ONTOCLOSE_MEMORY_LIMIT", "512")
    config = _prover_config(**given)
    assert config.time_limit == 42.5
    assert config.memory_limit_mib == 512
    monkeypatch.setenv("ONTOCLOSE_PROVER_COMMAND", "other {problem}")
    assert _prover_config(**given).command == "other {problem}"


def test_run_without_prover_is_a_prover_error(tmp_path, lexical_files,
                                              monkeypatch, capsys):
    monkeypatch.delenv("ONTOCLOSE_PROVER_COMMAND", raising=False)
    corpus = _generate_corpus(tmp_path, lexical_files)
    assert run_cli("run", ONTOLOGY, "--cqs", corpus,
                   "--journal", tmp_path / "j.jsonl") == EXIT_PROVER


def test_run_inconsistent_ontology_exits_5(tmp_path, capsys):
    bad = tmp_path / "bad.kif"
    bad.write_text("($disjoint A B)\n($subclass C A)\n($subclass C B)\n")
    corpus = tmp_path / "cqs.kif"
    corpus.write_text(
        "; cq: antonymy-1:a#n#1:b#n#1:A:B\n"
        "; pattern: antonymy-1\n"
        "; kind: antonymy\n"
        "; source: a#n#1 b#n#1\n"
        "(forall (X Y) (=> (and ($instance X A) ($instance Y B)) "
        "(not (equal X Y))))\n")
    assert run_cli("run", bad, "--oracle", "--cqs", corpus,
                   "--journal", tmp_path / "j.jsonl") == EXIT_INCONSISTENT


def test_report_from_journal(tmp_path, lexical_files, capsys):
    corpus = _generate_corpus(tmp_path, lexical_files)
    closed = tmp_path / "closed.kif"
    run_cli("close", ONTOLOGY, "--mode", "subclass+disjointness",
            "--out", closed)
    journal = tmp_path / "journal.jsonl"
    run_cli("run", closed, "--oracle", "--cqs", corpus, "--journal", journal)
    capsys.readouterr()
    out_dir = tmp_path / "reports"
    assert run_cli("report", "--journal", journal, "--cqs", corpus,
                   "--baseline", journal, "--out-dir", out_dir) == EXIT_OK
    output = capsys.readouterr().out
    assert "Total" in output
    comp = (out_dir / "competency.csv").read_text()
    assert comp.splitlines()[0].startswith("pattern,count")
    assert (out_dir / "efficiency.csv").exists()
    # identical baseline: every exclusive count is zero
    for line in comp.splitlines()[1:]:
        fields = line.split(",")
        assert fields[3] == "0" and fields[5] == "0"


def test_report_deterministic(tmp_path, lexical_files, capsys):
    corpus = _generate_corpus(tmp_path, lexical_files)
    journal = tmp_path / "journal.jsonl"
    run_cli("run", ONTOLOGY, "--oracle", "--cqs", corpus, "--journal", journal)
    one = tmp_path / "r1"
    two = tmp_path / "r2"
    run_cli("report", "--journal", journal, "--out-dir", one)
    run_cli("report", "--journal", journal, "--out-dir", two)
    assert (one / "competency.csv").read_bytes() == \
        (two / "competency.csv").read_bytes()
    assert (one / "efficiency.csv").read_bytes() == \
        (two / "efficiency.csv").read_bytes()


def test_report_on_a_journal_line_that_is_not_a_record(tmp_path, capsys):
    journal = tmp_path / "journal.jsonl"
    for line in ("5",
                 # a report read these three and failed with a traceback
                 '{"cq": "q:1", "polarity": "truth", "status": "proved"}',
                 '{"cq": "q:1", "polarity": "truth", "status": "proved", '
                 '"seconds": "fast"}',
                 '{"cq": "q:1", "polarity": "truth", "seconds": 1.0}'):
        journal.write_text('{"cq": "a", "polarity": "truth", '
                           f'"seconds": 0.5, "status": "proved"}}\n{line}\n')
        assert run_cli("report", "--journal", journal) == EXIT_PROVER, line
        assert f"{journal}:2:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def test_load_config(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("# comment\nontology=onto.kif\n\nout = results \n")
    assert load_config(str(path)) == {"ontology": "onto.kif", "out": "results"}
    bad = tmp_path / "bad.conf"
    bad.write_text("no equals sign\n")
    assert run_cli("pipeline", bad) == EXIT_DATA


def test_config_comment_after_a_value_is_not_part_of_it(tmp_path,
                                                       lexical_files,
                                                       monkeypatch):
    # the comment was kept in the value: the pipeline wrote into a
    # directory named "results   # where outputs go" and exited 0
    mapping, antonymy, _ = lexical_files
    config = tmp_path / "run.conf"
    config.write_text(f"ontology={ONTOLOGY}\t# the ontology\n"
                      f"mapping={mapping}\npairs.antonymy={antonymy}\n"
                      "  # an indented comment\n"
                      "out=results   # where outputs go\n"
                      "modes=owa #,subclass-only\n"
                      "prover.command=prover --tag=#1 {problem}\n")
    assert load_config(str(config))["prover.command"] == \
        "prover --tag=#1 {problem}"
    monkeypatch.chdir(tmp_path)
    assert run_cli("pipeline", config) == EXIT_OK
    assert sorted(p.name for p in (tmp_path / "results").iterdir()) == \
        ["cqs.kif", "owa", "stats.csv"]
    assert {p.name for p in tmp_path.iterdir()} == \
        {"run.conf", "results", "mapping.tsv", "antonymy.tsv",
         "hyponymy.tsv"}


def test_config_lines_end_at_newline_only(tmp_path):
    # str.splitlines would also break at U+2028 and call "b.kif" line 2
    ontology = f"{tmp_path}/a\u2028b.kif"
    path = tmp_path / "run.conf"
    path.write_text(f"ontology={ontology}\nout=results\n", encoding="utf-8")
    assert load_config(str(path)) == {"ontology": ontology, "out": "results"}


def test_pipeline_end_to_end(tmp_path, lexical_files):
    mapping, antonymy, hyponymy = lexical_files
    out = tmp_path / "results"
    config = tmp_path / "run.conf"
    config.write_text(
        f"ontology={ONTOLOGY}\n"
        f"mapping={mapping}\n"
        f"pairs.antonymy={antonymy}\n"
        f"pairs.hyponymy={hyponymy}\n"
        f"out={out}\n"
        "oracle=true\n"
        "modes=owa,subclass-only,subclass+disjointness,"
        "subclass+nondisjointness\n")
    assert run_cli("pipeline", config) == EXIT_OK
    assert (out / "cqs.kif").exists()
    assert (out / "stats.csv").exists()
    for mode_dir in ("owa", "subclass-only", "subclass_disjointness",
                     "subclass_nondisjointness"):
        assert (out / mode_dir / "journal.jsonl").exists(), mode_dir
        assert (out / mode_dir / "competency.csv").exists()
    # the closed variants grow monotonically in atom count
    stats_lines = (out / "stats.csv").read_text().splitlines()[1:]
    atoms = [int(line.split(",")[4]) for line in stats_lines]
    assert atoms[0] <= atoms[1] <= atoms[2]
    assert atoms[1] <= atoms[3]


def test_pipeline_warns_of_an_undeclared_curated_class_once(tmp_path,
                                                            lexical_files):
    mapping, antonymy, _ = lexical_files
    curation = tmp_path / "curation.kif"
    curation.write_text("($disjoint Fresh Birth)\n")
    config = tmp_path / "run.conf"
    config.write_text(
        f"ontology={ONTOLOGY}\nmapping={mapping}\npairs.antonymy={antonymy}\n"
        f"curation={curation}\nout={tmp_path / 'results'}\n"
        "modes=subclass+disjointness,subclass+nondisjointness\n")
    with warnings.catch_warnings(record=True) as caught:
        # as a run shows them: each warning once per place it is raised
        warnings.simplefilter("default")
        assert run_cli("pipeline", config) == EXIT_OK
    assert [str(w.message) for w in caught] == [
        "curation names classes the ontology does not declare: Fresh"]


def test_pipeline_is_deterministic(tmp_path, lexical_files):
    mapping, antonymy, hyponymy = lexical_files
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        config = tmp_path / f"{name}.conf"
        config.write_text(
            f"ontology={ONTOLOGY}\nmapping={mapping}\n"
            f"pairs.antonymy={antonymy}\nout={out}\noracle=true\n"
            "modes=subclass+disjointness\n")
        assert run_cli("pipeline", config) == EXIT_OK
        mode_dir = out / "subclass_disjointness"
        outputs.append((
            (out / "cqs.kif").read_bytes(),
            (mode_dir / "closed.kif").read_bytes(),
            (mode_dir / "journal.jsonl").read_bytes(),
            (mode_dir / "competency.csv").read_bytes(),
        ))
    assert outputs[0] == outputs[1]


def test_pipeline_rerun_reports_the_new_ontology(tmp_path, lexical_files):
    mapping, antonymy, _ = lexical_files
    ontology = tmp_path / "onto.kif"
    ontology.write_text(ONTOLOGY.read_text())
    out = tmp_path / "results"
    config = tmp_path / "run.conf"
    config.write_text(
        f"ontology={ontology}\nmapping={mapping}\n"
        f"pairs.antonymy={antonymy}\nout={out}\noracle=true\n"
        "modes=subclass+disjointness\n")

    def competency():
        assert run_cli("pipeline", config) == EXIT_OK
        header, *rows = (out / "subclass_disjointness" / "competency.csv"
                         ).read_text().splitlines()
        return [dict(zip(header.split(","), row.split(","))) for row in rows]

    [row] = [r for r in competency() if r["pattern"] == "antonymy-1"]
    assert (row["truth_proved"], row["falsity_proved"]) == ("1", "0")
    # the same config again, now over an ontology where the pair is
    # compatible: the reports describe this run, not the last one
    with ontology.open("a") as handle:
        handle.write("($nonDisjoint Birth Death)\n")
    [row] = [r for r in competency() if r["pattern"] == "antonymy-1"]
    assert (row["truth_proved"], row["falsity_proved"]) == ("0", "1")


def _journal_without_seconds(path):
    return sorted(json.dumps({k: v for k, v in json.loads(line).items()
                              if k != "seconds"}, sort_keys=True)
                  for line in path.read_text().splitlines())


def test_pipeline_matches_the_stages_run_by_hand(tmp_path, lexical_files):
    mapping, antonymy, hyponymy = lexical_files
    curation = tmp_path / "curation.kif"
    curation.write_text("($nonDisjoint Breathing Digesting)\n")
    modes = ["owa", "subclass-only", "subclass+disjointness",
             "subclass+nondisjointness"]
    out = tmp_path / "pipeline"
    config = tmp_path / "run.conf"
    config.write_text(
        f"ontology={ONTOLOGY}\ncuration={curation}\nmapping={mapping}\n"
        f"pairs.hyponymy={hyponymy}\npairs.antonymy={antonymy}\n"
        f"out={out}\noracle=true\nmodes={','.join(modes)}\n")
    assert run_cli("pipeline", config) == EXIT_OK

    by_hand = tmp_path / "by_hand"
    cqs = by_hand / "cqs.kif"
    assert run_cli("gen-cqs", "--mapping", mapping, "--hyponymy", hyponymy,
                   "--antonymy", antonymy, "--out", cqs) == EXIT_OK
    assert (out / "cqs.kif").read_bytes() == cqs.read_bytes()
    first_journal = None
    for mode in modes:
        mode_dir = by_hand / mode.replace("+", "_")
        closed = mode_dir / "closed.kif"
        journal = mode_dir / "journal.jsonl"
        assert run_cli("close", ONTOLOGY, "--mode", mode, "--curation",
                       curation, "--out", closed) == EXIT_OK
        assert run_cli("run", closed, "--oracle", "--cqs", cqs,
                       "--journal", journal) == EXIT_OK
        baseline = ("--baseline", first_journal) if first_journal else ()
        assert run_cli("report", "--journal", journal, "--cqs", cqs,
                       *baseline, "--out-dir", mode_dir) == EXIT_OK
        first_journal = first_journal or journal
        piped = out / mode.replace("+", "_")
        for name in ("closed.kif", "competency.csv"):
            assert (piped / name).read_bytes() == \
                (mode_dir / name).read_bytes(), (mode, name)
        assert _journal_without_seconds(piped / "journal.jsonl") == \
            _journal_without_seconds(journal), mode


def test_pipeline_with_stub_prover(tmp_path, lexical_files, monkeypatch):
    mapping, antonymy, hyponymy = lexical_files
    stub = stub_provers.stub_config(tmp_path, stub_provers.COUNTER_SATISFIABLE)
    monkeypatch.setenv("ONTOCLOSE_PROVER_COMMAND", stub.command)
    modes = ["subclass-only", "subclass+disjointness"]
    out = tmp_path / "results"
    config = tmp_path / "run.conf"
    config.write_text(
        f"ontology={ONTOLOGY}\nmapping={mapping}\n"
        f"pairs.hyponymy={hyponymy}\npairs.antonymy={antonymy}\n"
        f"out={out}\noracle=false\nmodes={','.join(modes)}\n"
        "prover.command=/no/such/prover {problem}\n"
        "prover.workers=2\nprover.time_limit=10\n")
    assert run_cli("pipeline", config) == EXIT_OK
    cq_ids = list_corpus_ids(out / "cqs.kif")
    assert cq_ids
    for mode in modes:
        mode_dir = out / mode.replace("+", "_")
        records = [json.loads(line) for line in
                   (mode_dir / "journal.jsonl").read_text().splitlines()]
        assert sorted((r["cq"], r["polarity"]) for r in records) == \
            sorted((cq_id, polarity) for cq_id in cq_ids
                   for polarity in ("truth", "falsity"))
        assert {r["status"] for r in records} == {"counter-satisfiable"}
        problems = list((mode_dir / "problems").glob("*.p"))
        assert len(problems) == len(records)
        for path in problems:
            assert f"% mode: {mode}" in path.read_text().splitlines(), path


def test_pipeline_rerun_with_fewer_questions_reports_the_new_corpus(
        tmp_path, lexical_files, monkeypatch):
    mapping, antonymy, hyponymy = lexical_files
    hyponymy.write_text(HYPONYMY_TSV + "birth#n#2\tprocess#n#2\n")
    stub = stub_provers.stub_config(tmp_path, stub_provers.COUNTER_SATISFIABLE)
    monkeypatch.setenv("ONTOCLOSE_PROVER_COMMAND", stub.command)
    out = tmp_path / "results"
    config = tmp_path / "run.conf"
    config.write_text(
        f"ontology={ONTOLOGY}\nmapping={mapping}\n"
        f"pairs.hyponymy={hyponymy}\npairs.antonymy={antonymy}\n"
        f"out={out}\noracle=false\nmodes=subclass-only\n"
        "prover.workers=2\nprover.time_limit=10\n")

    def total_count():
        assert run_cli("pipeline", config) == EXIT_OK
        header, *rows = (out / "subclass-only" / "competency.csv"
                         ).read_text().splitlines()
        [total] = [dict(zip(header.split(","), row.split(",")))
                   for row in rows if row.startswith("Total,")]
        return int(total["count"])

    first = total_count()
    assert first == len(list_corpus_ids(out / "cqs.kif"))
    # the same out directory again, with one hyponymy pair fewer: the
    # journal resumes, but the report counts only this corpus's questions
    hyponymy.write_text(HYPONYMY_TSV)
    second = total_count()
    assert second == len(list_corpus_ids(out / "cqs.kif"))
    assert second < first


def test_pipeline_rejects_meronymy_pairs(tmp_path, lexical_files, capsys):
    mapping, _, _ = lexical_files
    parts = tmp_path / "parts.tsv"
    parts.write_text("birth#n#2\tdeath#n#1\n")
    config = tmp_path / "run.conf"
    config.write_text(
        f"ontology={ONTOLOGY}\nmapping={mapping}\n"
        f"pairs.meronymy-part={parts}\nout={tmp_path / 'results'}\n")
    assert run_cli("pipeline", config) == EXIT_DATA
    assert "gen-cqs --template" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["oracle-pipeline", "prover-pipeline",
                                     "stats"])
def test_a_run_builds_the_taxonomy_once(tmp_path, lexical_files, monkeypatch,
                                        command):
    # every closure and the oracle share the input's taxonomy
    builds = []
    real_build = taxonomy.build_taxonomy

    def counting_build(ontology):
        builds.append(len(ontology))
        return real_build(ontology)

    for module in (taxonomy, closure):
        monkeypatch.setattr(module, "build_taxonomy", counting_build)
    mapping, antonymy, hyponymy = lexical_files
    stub = stub_provers.stub_config(tmp_path, stub_provers.COUNTER_SATISFIABLE)
    monkeypatch.setenv("ONTOCLOSE_PROVER_COMMAND", stub.command)
    if command == "stats":
        argv = ("stats", ONTOLOGY, "--mode", "subclass+nondisjointness")
    else:
        oracle = command == "oracle-pipeline"
        modes = (closure.MODES if oracle
                 else ("subclass-only", "subclass+disjointness"))
        config = tmp_path / "run.conf"
        config.write_text(
            f"ontology={ONTOLOGY}\nmapping={mapping}\n"
            f"pairs.hyponymy={hyponymy}\npairs.antonymy={antonymy}\n"
            f"out={tmp_path / 'results'}\noracle={str(oracle).lower()}\n"
            f"modes={','.join(modes)}\n"
            "prover.workers=2\nprover.time_limit=10\n")
        argv = ("pipeline", config)
    assert run_cli(*argv) == EXIT_OK
    assert builds == [16]  # the input ontology's axioms


# ---------------------------------------------------------------------------
# the cyclic garbage collector
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("oracle", [True, False], ids=["oracle", "prover"])
def test_pipeline_leaves_no_reference_cycles(tmp_path, lexical_files,
                                             monkeypatch, oracle):
    # commands run with the cyclic collector off, so any cycle the code
    # builds stays in memory until the process ends
    mapping, antonymy, hyponymy = lexical_files
    stub = stub_provers.stub_config(tmp_path, stub_provers.THEOREM)
    monkeypatch.setenv("ONTOCLOSE_PROVER_COMMAND", stub.command)
    config = tmp_path / "run.conf"
    config.write_text(
        f"ontology={ONTOLOGY}\nmapping={mapping}\n"
        f"pairs.hyponymy={hyponymy}\npairs.antonymy={antonymy}\n"
        f"out={tmp_path / 'results'}\noracle={str(oracle).lower()}\n"
        "prover.workers=2\nprover.time_limit=10\n")
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run_cli("pipeline", config) == EXIT_OK
        gc.collect()
        leaked = sorted({
            o.__qualname__ if isinstance(o, types.FunctionType)
            else type(o).__qualname__
            for o in gc.garbage
            if (isinstance(o, types.FunctionType)
                and (o.__module__ or "").startswith("ontoclose"))
            or type(o).__module__.startswith("ontoclose")})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert leaked == []


@pytest.mark.parametrize("collecting", [True, False])
def test_main_restores_the_collector_state(tmp_path, monkeypatch,
                                           collecting):
    seen = []
    real_parse = cli.cmd_parse

    def spying_parse(args):
        seen.append(gc.isenabled())
        return real_parse(args)

    monkeypatch.setattr(cli, "cmd_parse", spying_parse)
    bad = tmp_path / "bad.kif"
    bad.write_text("($disjoint Birth Death")
    was_enabled = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert run_cli("parse", ONTOLOGY, "--out", tmp_path / "o.kif") \
            == EXIT_OK
        assert gc.isenabled() is collecting
        assert run_cli("parse", bad) == EXIT_DATA
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [False, False]


# ---------------------------------------------------------------------------
# A command imports only the modules it runs
# ---------------------------------------------------------------------------

def modules_loaded_by(script: str, *argv) -> set:
    """Modules a child interpreter loads running ``script``, beyond those
    it held before the script began."""
    probe = ("import sys\nbare = set(sys.modules)\n" + script
             + "\nprint('\\n'.join(sorted(set(sys.modules) - bare)))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", probe, *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_the_parser_loads_no_library_module():
    loaded = modules_loaded_by("import ontoclose.cli\n"
                               "ontoclose.cli.build_parser()")
    assert {m for m in loaded if m.startswith("ontoclose.")} == \
        {"ontoclose.cli", "ontoclose.modes"}
    assert not loaded & {"dataclasses", "json", "decimal", "logging",
                         "concurrent.futures"}


def test_an_oracle_pipeline_loads_no_prover_machinery(tmp_path,
                                                      lexical_files):
    mapping, antonymy, hyponymy = lexical_files
    config = tmp_path / "run.conf"
    config.write_text(
        f"ontology={ONTOLOGY}\nmapping={mapping}\n"
        f"pairs.hyponymy={hyponymy}\npairs.antonymy={antonymy}\n"
        f"out={tmp_path / 'results'}\noracle=true\n")
    loaded = modules_loaded_by(
        "from ontoclose import cli\n"
        "assert cli.main(['pipeline', sys.argv[1]]) == 0", config)
    assert "ontoclose.prover" in loaded
    assert not loaded & {"ontoclose.tptp", "logging", "concurrent.futures"}


# ---------------------------------------------------------------------------
# Input errors name the file, config key or variable at fault (exit 3)
# ---------------------------------------------------------------------------

def test_text_that_is_not_utf8_names_its_file(tmp_path, capsys):
    bad = tmp_path / "bad.kif"
    bad.write_bytes(b"($subclass \xff Birth)\n")
    assert run_cli("parse", bad) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"cannot read {bad}: 'utf-8' codec can't decode byte 0xff" in err


@pytest.mark.parametrize("key", ["prover.workers", "prover.time_limit",
                                 "prover.memory_limit"])
def test_pipeline_config_number_names_its_key(tmp_path, lexical_files,
                                              capsys, key):
    mapping, _, _ = lexical_files
    config = tmp_path / "run.conf"
    config.write_text(
        f"ontology={ONTOLOGY}\nmapping={mapping}\nout={tmp_path / 'out'}\n"
        f"oracle=false\nprover.command=prover {{problem}}\n{key}=two\n")
    assert run_cli("pipeline", config) == EXIT_DATA
    assert f"{config}: {key}: expected " in capsys.readouterr().err


@pytest.mark.parametrize("variable", [cli.ENV_TIME_LIMIT,
                                      cli.ENV_MEMORY_LIMIT])
def test_limit_variable_names_itself(tmp_path, lexical_files, monkeypatch,
                                     capsys, variable):
    corpus = _generate_corpus(tmp_path, lexical_files)
    monkeypatch.setenv(variable, "lots")
    assert run_cli("run", ONTOLOGY, "--cqs", corpus,
                   "--journal", tmp_path / "j.jsonl",
                   "--prover-cmd", "prover {problem}") == EXIT_DATA
    assert f"{variable}: expected " in capsys.readouterr().err
    assert not (tmp_path / "j.jsonl").exists()


# each limit no prover run can take, by name: its option, config key and
# environment variable, the value given and the cap the error names
UNREACHABLE_LIMITS = {
    "inf": ("--time-limit", "prover.time_limit", cli.ENV_TIME_LIMIT, "inf",
            f"at most {MAX_TIME_LIMIT} seconds"),
    "3e6": ("--time-limit", "prover.time_limit", cli.ENV_TIME_LIMIT, "3e6",
            f"at most {MAX_TIME_LIMIT} seconds"),
    "memory": ("--memory-limit", "prover.memory_limit", cli.ENV_MEMORY_LIMIT,
               str(10**14), f"at most {MAX_MEMORY_LIMIT_MIB} MiB"),
}


@pytest.mark.parametrize("limit", sorted(UNREACHABLE_LIMITS))
@pytest.mark.parametrize("source", ["option", "config", "variable"])
def test_a_time_limit_no_wait_can_reach_is_a_prover_error(
        tmp_path, lexical_files, monkeypatch, capsys, source, limit):
    # Popen.communicate could not wait that long, nor could prlimit take
    # that many bytes: the run used to end in an OverflowError traceback
    # with the prover left unreaped
    option, key, variable, value, message = UNREACHABLE_LIMITS[limit]
    mapping, antonymy, hyponymy = lexical_files
    stub = stub_provers.stub_config(tmp_path, stub_provers.COUNTER_SATISFIABLE)
    monkeypatch.delenv(cli.ENV_TIME_LIMIT, raising=False)
    monkeypatch.delenv(cli.ENV_MEMORY_LIMIT, raising=False)
    if source == "config":
        config = tmp_path / "run.conf"
        config.write_text(
            f"ontology={ONTOLOGY}\nmapping={mapping}\n"
            f"pairs.antonymy={antonymy}\nout={tmp_path / 'results'}\n"
            f"oracle=false\nprover.command={stub.command}\n"
            f"{key}={value}\n")
        argv = ("pipeline", config)
    else:
        corpus = _generate_corpus(tmp_path, lexical_files)
        argv = ("run", ONTOLOGY, "--cqs", corpus,
                "--journal", tmp_path / "j.jsonl", "--prover-cmd",
                stub.command)
        if source == "option":
            argv += (option, value)
        else:
            monkeypatch.setenv(variable, value)
    assert run_cli(*argv) == EXIT_PROVER
    assert message in capsys.readouterr().err
    assert not (tmp_path / "j.jsonl").exists()
    assert not list(tmp_path.glob("results/**/*.jsonl"))


# each pipeline input, broken, with the line its message names
BROKEN_PIPELINE_INPUTS = {
    "ontology": ("($subclass Birth OrganismProcess)\n($disjoint Birth\n",
                 "line 2"),
    "curation": ("($disjoint Birth Death)\n($disjoint Birth\n", "line 2"),
    "mapping": ("birth#n#2\tBirth=\nbroken row\n", "line 2"),
    "pairs.hyponymy": ("broken row\n", "line 1"),
    "pairs.antonymy": ("birth#n#2\tdeath#n#1\nbroken row\n", "line 2"),
}


@pytest.mark.parametrize("key", sorted(BROKEN_PIPELINE_INPUTS))
def test_pipeline_input_error_names_its_file(tmp_path, lexical_files, capsys,
                                            key):
    mapping, antonymy, hyponymy = lexical_files
    inputs = {"ontology": ONTOLOGY, "mapping": mapping,
              "pairs.antonymy": antonymy, "pairs.hyponymy": hyponymy}
    text, line = BROKEN_PIPELINE_INPUTS[key]
    broken = inputs[key] = tmp_path / f"broken-{key}"
    broken.write_text(text)
    config = tmp_path / "run.conf"
    config.write_text("".join(f"{k}={v}\n" for k, v in inputs.items())
                      + f"out={tmp_path / 'results'}\n")
    assert run_cli("pipeline", config) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{broken}: " in err and line in err


# each pipeline config value that selects nothing, and what its error says
EMPTY_PIPELINE_SELECTIONS = {
    "ontology": ("ontology=", "needs a path in 'ontology='"),
    "mapping": ("mapping=", "needs a path in 'mapping='"),
    "out": ("out=", "needs a path in 'out='"),
    "modes": ("modes= , ", "'modes=' names no mode"),
    "oracle": ("oracle=on",
               "oracle: expected 1/true/yes or 0/false/no, found 'on'"),
}


@pytest.mark.parametrize("key", sorted(EMPTY_PIPELINE_SELECTIONS))
def test_pipeline_config_value_that_selects_nothing_is_refused(
        tmp_path, lexical_files, monkeypatch, capsys, key):
    # an empty out= wrote every output into the working directory, an
    # empty modes= ran nothing, and oracle=on quietly selected the prover
    mapping, antonymy, _ = lexical_files
    settings = {"ontology": ONTOLOGY, "mapping": mapping,
                "pairs.antonymy": antonymy, "out": "results",
                "modes": "owa", "oracle": "true"}
    line, message = EMPTY_PIPELINE_SELECTIONS[key]
    del settings[key]
    config = tmp_path / "run.conf"
    config.write_text("".join(f"{k}={v}\n" for k, v in settings.items())
                      + line + "\n")
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    assert run_cli("pipeline", config) == EXIT_DATA
    assert f"{config}: {message}" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["gen-cqs", "pipeline"])
def test_a_class_named_like_a_bound_variable_is_a_data_error(
        tmp_path, lexical_files, capsys, command):
    _, antonymy, _ = lexical_files
    mapping = tmp_path / "mapping.tsv"
    mapping.write_text("birth#n#2\tX=\ndeath#n#1\tDeath=\n")
    corpus = tmp_path / "cqs.kif"
    if command == "gen-cqs":
        argv = ("gen-cqs", "--mapping", mapping, "--antonymy", antonymy,
                "--out", corpus)
    else:
        config = tmp_path / "run.conf"
        config.write_text(
            f"ontology={ONTOLOGY}\nmapping={mapping}\n"
            f"pairs.antonymy={antonymy}\nout={tmp_path}\n")
        argv = ("pipeline", config)
    assert run_cli(*argv) == EXIT_DATA
    assert ("class 'X' of pair birth#n#2 death#n#1 is named like a variable "
            "that template 'distinctness' binds") in capsys.readouterr().err
    assert not corpus.exists()


@pytest.mark.parametrize("broken", ["ontology", "cqs"])
def test_run_syntax_error_names_the_broken_file(tmp_path, lexical_files,
                                                capsys, broken):
    files = {"ontology": tmp_path / "o.kif",
             "cqs": _generate_corpus(tmp_path, lexical_files)}
    files["ontology"].write_text(ONTOLOGY.read_text())
    with open(files[broken], "a") as handle:
        handle.write("\n($subclass Birth\n")
    assert run_cli("run", files["ontology"], "--oracle", "--cqs",
                   files["cqs"], "--journal", tmp_path / "j.jsonl") \
        == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{files[broken]}: unbalanced '('" in err
    for name, path in files.items():
        assert (str(path) in err) == (name == broken)


def test_template_syntax_error_names_its_file(tmp_path, lexical_files,
                                             capsys):
    mapping, _, _ = lexical_files
    template = tmp_path / "overlap.kif"
    template.write_text("; template: part-overlap\n; kind: meronymy-part\n"
                        "(exists (X Y) (and ($instance X C1)\n")
    pairs = tmp_path / "parts.tsv"
    pairs.write_text("birth#n#2\tdeath#n#1\n")
    assert run_cli("gen-cqs", "--mapping", mapping, "--template",
                   f"{template}:{pairs}") == EXIT_DATA
    assert f"{template}: unbalanced '(' (line 3, " in capsys.readouterr().err


def test_template_pairs_row_error_names_its_file(tmp_path, lexical_files,
                                                 capsys):
    mapping, _, _ = lexical_files
    template = tmp_path / "overlap.kif"
    template.write_text(
        "; template: part-overlap\n; kind: meronymy-part\n"
        "(exists (X Y) (and ($instance X C1) ($instance Y C2) (part X Y)))\n")
    pairs = tmp_path / "parts.tsv"
    pairs.write_text("birth#n#2\tbirth#n#2\n")
    assert run_cli("gen-cqs", "--mapping", mapping, "--template",
                   f"{template}:{pairs}") == EXIT_DATA
    assert f"{pairs}: line 1: pair relates" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["close", str(ONTOLOGY)],  # --mode missing
    ["run", "--journal", "j.jsonl"],  # the ontology and --cqs missing
], ids=["close", "run"])
def test_usage_error_exit_code(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == EXIT_USAGE
