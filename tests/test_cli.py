import gc
import json
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import pytest

from ontoclose import (cli, closure, kif, prover, questions, reports,
                       taxonomy)
from ontoclose.cli import (
    EXIT_DATA, EXIT_INCONSISTENT, EXIT_OK, EXIT_PROVER, EXIT_USAGE,
    load_config, main,
)
from ontoclose.prover import MAX_MEMORY_LIMIT_MIB, MAX_TIME_LIMIT

from conftest import DATA_DIR
from normal_form import structurally_equal
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
    assert structurally_equal(reparsed, original)


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


@pytest.mark.parametrize("oracle", [True, False], ids=["oracle", "prover"])
def test_run_creates_the_journals_directory(tmp_path, lexical_files, oracle):
    # a journal in a directory that did not exist yet ended the run in a
    # FileNotFoundError; the prover's problems go elsewhere here
    corpus = _generate_corpus(tmp_path, lexical_files)
    config = stub_provers.stub_config(tmp_path, stub_provers.COUNTER_SATISFIABLE)
    journal = tmp_path / "new" / "dir" / "journal.jsonl"
    engine = (("--oracle",) if oracle else
              ("--problems", tmp_path / "problems", "--prover-cmd",
               config.command))
    assert run_cli("run", ONTOLOGY, "--cqs", corpus, "--journal", journal,
                   *engine) == EXIT_OK
    assert len(journal.read_text().splitlines()) == \
        2 * len(list_corpus_ids(corpus))


@pytest.mark.parametrize("oracle", [True, False], ids=["oracle", "prover"])
def test_run_refuses_a_journal_that_is_a_directory(tmp_path, lexical_files,
                                                   capsys, oracle):
    # it ended in an IsADirectoryError traceback: at the oracle's unlink of
    # the old journal, or at the prover path's read of it; the error's own
    # message names the path
    corpus = _generate_corpus(tmp_path, lexical_files)
    config = stub_provers.stub_config(tmp_path, stub_provers.COUNTER_SATISFIABLE)
    journal = tmp_path / "journal.jsonl"
    journal.mkdir()
    engine = ("--oracle",) if oracle else ("--prover-cmd", config.command)
    capsys.readouterr()
    assert run_cli("run", ONTOLOGY, "--cqs", corpus, "--journal", journal,
                   *engine) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("ontoclose: run: ") and f"'{journal}'" in err
    assert list(journal.iterdir()) == []


def test_run_without_prover_is_a_prover_error(tmp_path, lexical_files,
                                              capsys):
    corpus = _generate_corpus(tmp_path, lexical_files)
    assert run_cli("run", ONTOLOGY, "--cqs", corpus,
                   "--journal", tmp_path / "j.jsonl") == EXIT_PROVER


# each prover limit's ProverConfig field, run option and pipeline key
LIMIT_SETTINGS = {"time_limit": ("--time-limit", "prover.time_limit"),
                  "memory_limit_mib": ("--memory-limit", "prover.memory_limit"),
                  "workers": ("--workers", "prover.workers")}


def _prover_argv(tmp_path, lexical_files, command, prover_cmd, limits):
    """Argv of a ``run`` or a one-mode ``pipeline`` on a prover, with the
    prover command (if any) and the limits as the command takes them."""
    mapping, antonymy, _ = lexical_files
    if command == "run":
        argv = ["run", ONTOLOGY, "--cqs",
                _generate_corpus(tmp_path, lexical_files),
                "--journal", tmp_path / "j.jsonl"]
        argv += ["--prover-cmd", prover_cmd] if prover_cmd else []
        for field, value in limits.items():
            argv += [LIMIT_SETTINGS[field][0], value]
        return argv
    lines = [f"ontology={ONTOLOGY}", f"mapping={mapping}",
             f"pairs.antonymy={antonymy}", f"out={tmp_path / 'results'}",
             "oracle=false", "modes=subclass-only"]
    lines += [f"prover.command={prover_cmd}"] if prover_cmd else []
    lines += [f"{LIMIT_SETTINGS[field][1]}={value}"
              for field, value in limits.items()]
    config = tmp_path / "run.conf"
    config.write_text("\n".join(lines) + "\n")
    return ["pipeline", config]


def _recorded_configs(monkeypatch) -> list:
    """The ProverConfig of every prover batch that runs from now on."""
    configs = []
    real_batch = prover.run_batch

    def recording_batch(ontology, cqs, config, *args, **kwargs):
        configs.append(config)
        return real_batch(ontology, cqs, config, *args, **kwargs)

    monkeypatch.setattr(prover, "run_batch", recording_batch)
    return configs


@pytest.mark.parametrize("command", ["run", "pipeline"])
def test_limits_left_out_take_the_prover_config_defaults(
        tmp_path, lexical_files, monkeypatch, command):
    stub = stub_provers.stub_config(tmp_path, stub_provers.COUNTER_SATISFIABLE)
    configs = _recorded_configs(monkeypatch)
    argv = _prover_argv(tmp_path, lexical_files, command, stub.command, {})
    assert run_cli(*argv) == EXIT_OK
    assert configs == [prover.ProverConfig(command=stub.command)]


@pytest.mark.parametrize("command", ["run", "pipeline"])
def test_prover_variables_change_no_run(tmp_path, lexical_files, monkeypatch,
                                        capsys, command):
    # these variables once won over the options and keys; the options and
    # keys are now the one source of each setting
    for name, value in (("ONTOCLOSE_PROVER_COMMAND", "/no/such {problem}"),
                        ("ONTOCLOSE_TIME_LIMIT", "lots"),
                        ("ONTOCLOSE_MEMORY_LIMIT", "1")):
        monkeypatch.setenv(name, value)
    stub = stub_provers.stub_config(tmp_path, stub_provers.COUNTER_SATISFIABLE)
    configs = _recorded_configs(monkeypatch)
    limits = {"time_limit": 7.5, "memory_limit_mib": 1024, "workers": 2}
    argv = _prover_argv(tmp_path, lexical_files, command, stub.command,
                        limits)
    assert run_cli(*argv) == EXIT_OK
    assert configs == [prover.ProverConfig(command=stub.command, **limits)]
    # and a run given no command has none
    argv = _prover_argv(tmp_path, lexical_files, command, None, {})
    capsys.readouterr()
    assert run_cli(*argv) == EXIT_PROVER
    err = capsys.readouterr().err
    assert "--prover-cmd" in err and "prover.command" in err
    assert configs == [prover.ProverConfig(command=stub.command, **limits)]


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


def test_report_groups_questions_by_their_corpus_pattern(tmp_path, capsys):
    # a question's pattern came from its id, so an id that does not begin
    # with the corpus pattern made a row of its own
    corpus = tmp_path / "cqs.kif"
    corpus.write_text(
        "; cq: q1\n; pattern: antonymy-1\n; kind: antonymy\n"
        "; source: birth#n#2 death#n#1\n"
        "(forall (X Y) (=> (and ($instance X Birth) ($instance Y Death)) "
        "(not (equal X Y))))\n"
        "; cq: q2\n; pattern: antonymy-1\n; kind: antonymy\n"
        "; source: birth#n#2 death#n#1\n"
        "(forall (X Y) (=> (and ($instance X Death) ($instance Y Birth)) "
        "(not (equal X Y))))\n")
    journal = tmp_path / "journal.jsonl"
    closed = tmp_path / "closed.kif"
    assert run_cli("close", ONTOLOGY, "--mode", "subclass+disjointness",
                   "--out", closed) == EXIT_OK
    assert run_cli("run", closed, "--oracle", "--cqs", corpus,
                   "--journal", journal) == EXIT_OK
    # q2 not run; a record of a question the corpus lacks keeps its id's
    # pattern
    records = [line for line in journal.read_text().splitlines()
               if '"q2"' not in line]
    records.append(json.dumps({"cq": "other:a:b", "polarity": "truth",
                               "seconds": 1.0, "status": "proved",
                               "used": []}))
    journal.write_text("\n".join(records) + "\n")
    out_dir = tmp_path / "reports"
    with pytest.warns(UserWarning, match="missing questions: q2"):
        assert run_cli("report", "--journal", journal, "--cqs", corpus,
                       "--out-dir", out_dir) == EXIT_OK
    assert (out_dir / "competency.csv").read_text().splitlines()[1:] == [
        "antonymy-1,2,1,,0,,50.00", "other,1,1,,0,,100.00",
        "Total,3,2,,0,,66.67"]
    assert [line.split(",")[:2] for line in
            (out_dir / "efficiency.csv").read_text().splitlines()[1:]] == [
        ["antonymy-1", "+"], ["antonymy-1", "-"], ["other", "+"],
        ["other", "-"], ["Total", "+"], ["Total", "-"]]


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


def test_report_refuses_a_journal_it_cannot_read(tmp_path, lexical_files,
                                                  capsys):
    # a missing journal read as an empty one: an empty report, and a
    # baseline that left every proved test exclusive, both with exit 0;
    # the error of the journal's open names it
    corpus = _generate_corpus(tmp_path, lexical_files)
    journal = tmp_path / "journal.jsonl"
    assert run_cli("run", ONTOLOGY, "--oracle", "--cqs", corpus,
                   "--journal", journal) == EXIT_OK
    missing = tmp_path / "missing.jsonl"
    out_dir = tmp_path / "reports"
    for unread, argv in ((missing, ("--journal", missing)),
                         (tmp_path, ("--journal", tmp_path)),
                         (missing, ("--journal", journal,
                                    "--baseline", missing))):
        capsys.readouterr()
        assert run_cli("report", *argv, "--out-dir", out_dir) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("ontoclose: report: ") and f"'{unread}'" in err
    assert not out_dir.exists()


def test_a_prover_run_and_pipeline_start_a_missing_journal(
        tmp_path, lexical_files):
    # load_journal raises on a missing journal; a run that resumes from
    # one starts it, in a directory that does not exist yet too
    corpus = _generate_corpus(tmp_path, lexical_files)
    stub = stub_provers.stub_config(tmp_path, stub_provers.COUNTER_SATISFIABLE)
    tests = 2 * len(list_corpus_ids(corpus))
    mapping, antonymy, hyponymy = lexical_files
    config = tmp_path / "run.conf"
    config.write_text(
        f"ontology={ONTOLOGY}\nmapping={mapping}\n"
        f"pairs.hyponymy={hyponymy}\npairs.antonymy={antonymy}\n"
        f"out={tmp_path / 'new' / 'results'}\noracle=false\n"
        f"modes=subclass-only\nprover.command={stub.command}\n")
    assert run_cli("pipeline", config) == EXIT_OK
    journals = [tmp_path / "new" / "results" / "subclass-only" / "journal.jsonl"]
    for journal in (tmp_path / "journal.jsonl",
                    tmp_path / "other" / "journal.jsonl"):
        assert run_cli("run", ONTOLOGY, "--cqs", corpus, "--journal", journal,
                       "--prover-cmd", stub.command) == EXIT_OK
        journals.append(journal)
    for journal in journals:
        assert len(journal.read_text().splitlines()) == tests, journal


# each command with a plain file in the way of a path it writes: all of
# them ended in a FileExistsError traceback with exit 1
BLOCKED_WRITES = {
    "parse --out": ("parse", ONTOLOGY, "--out", "{blocked}/x"),
    "parse --dot": ("parse", ONTOLOGY, "--out", "{tmp}/o.kif",
                    "--dot", "{blocked}/x"),
    "stats --csv": ("stats", ONTOLOGY, "--csv", "{blocked}/x"),
    "close --out": ("close", ONTOLOGY, "--mode", "subclass-only",
                    "--out", "{blocked}/x"),
    "suggest-curation --out": ("suggest-curation", ONTOLOGY,
                               "--out", "{blocked}/x"),
    "gen-cqs --out": ("gen-cqs", "--mapping", "{mapping}",
                      "--antonymy", "{antonymy}", "--out", "{blocked}/x"),
    "gen-cqs --split-dir": ("gen-cqs", "--mapping", "{mapping}",
                            "--antonymy", "{antonymy}",
                            "--split-dir", "{blocked}"),
    "emit --out-dir": ("emit", ONTOLOGY, "--cqs", "{corpus}",
                       "--out-dir", "{blocked}"),
    "run --journal": ("run", ONTOLOGY, "--cqs", "{corpus}", "--oracle",
                      "--journal", "{blocked}/j.jsonl"),
    "run --problems": ("run", ONTOLOGY, "--cqs", "{corpus}",
                       "--journal", "{tmp}/j.jsonl", "--problems", "{blocked}",
                       "--prover-cmd", "{prover}"),
    "report --out-dir": ("report", "--journal", "{journal}",
                         "--out-dir", "{blocked}"),
    "pipeline out=": ("pipeline", "{config}"),
}


@pytest.mark.parametrize("argv", BLOCKED_WRITES.values(), ids=BLOCKED_WRITES)
def test_a_path_a_command_cannot_write_is_a_data_error(tmp_path, lexical_files,
                                                       capsys, argv):
    mapping, antonymy, _ = lexical_files
    corpus = _generate_corpus(tmp_path, lexical_files)
    journal = tmp_path / "oracle.jsonl"
    assert run_cli("run", ONTOLOGY, "--cqs", corpus, "--oracle",
                   "--journal", journal) == EXIT_OK
    blocked = tmp_path / "blocked"
    blocked.write_text("")
    config = tmp_path / "run.conf"
    config.write_text(f"ontology={ONTOLOGY}\nmapping={mapping}\n"
                      f"pairs.antonymy={antonymy}\nout={blocked}\n")
    prover = stub_provers.stub_config(tmp_path,
                                      stub_provers.COUNTER_SATISFIABLE).command
    values = dict(tmp=tmp_path, blocked=blocked, mapping=mapping,
                  antonymy=antonymy, corpus=corpus, journal=journal,
                  config=config, prover=prover)
    capsys.readouterr()
    assert run_cli(*(str(a).format(**values) for a in argv)) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"ontoclose: {argv[0]}: ") and f"'{blocked}'" in err
    assert "Traceback" not in err


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


def test_modes_over_one_oracle_taxonomy_share_one_oracle_pass(
        tmp_path, lexical_files, monkeypatch):
    # completion and support axioms hold no pair facts, so owa and
    # subclass-only ask the oracle of the same taxonomy; each assumption
    # mode adds pair facts and runs a pass of its own
    mapping, antonymy, hyponymy = lexical_files
    modes = ["owa", "subclass-only", "subclass+disjointness",
             "subclass+nondisjointness"]
    names = [mode.replace("+", "_") for mode in modes]
    out = tmp_path / "results"
    config = tmp_path / "run.conf"
    config.write_text(
        f"ontology={ONTOLOGY}\nmapping={mapping}\n"
        f"pairs.hyponymy={hyponymy}\npairs.antonymy={antonymy}\n"
        f"out={out}\noracle=true\nmodes={','.join(modes)}\n")
    real_run, real_load = prover.oracle_run_batch, prover.load_journal
    real_efficiency = reports.efficiency_report
    passes, loads, efficiency_tallies = [], [], []

    def counting_run(tax, cqs, journal_path):
        passes.append((tax, Path(journal_path).parent.name))
        return real_run(tax, cqs, journal_path)

    def counting_load(path):
        loads.append(Path(path).parent.name)
        return real_load(path)

    def counting_efficiency(tallied):
        efficiency_tallies.append(tallied)
        return real_efficiency(tallied)

    monkeypatch.setattr(prover, "oracle_run_batch", counting_run)
    monkeypatch.setattr(prover, "load_journal", counting_load)
    monkeypatch.setattr(reports, "efficiency_report", counting_efficiency)
    assert run_cli("pipeline", config) == EXIT_OK
    monkeypatch.undo()
    assert [name for _, name in passes] == loads == [names[0], names[2],
                                                     names[3]]
    assert len({id(tax) for tax, _ in passes}) == 3
    # a mode that shares a pass shares its efficiency rows too
    assert len({id(tallied) for tallied in efficiency_tallies}) == \
        len(efficiency_tallies) == 3
    assert (out / "owa" / "journal.jsonl").read_bytes() == \
        (out / "subclass-only" / "journal.jsonl").read_bytes()

    # every output file equals the one the stage functions give, each
    # mode closed, asked of its own taxonomy and reported on its own
    ontology = kif.parse_kif(ONTOLOGY.read_text())
    cqs, _ = cli._generate_questions(str(mapping), str(hyponymy),
                                     str(antonymy))
    expected = {"cqs.kif": questions.write_cq_corpus(cqs)}
    labeled, baseline = [], None
    for mode, name in zip(modes, names):
        closed = closure.apply_closure(ontology, mode)
        labeled.append((mode, kif.count_metrics(closed)))
        journal = tmp_path / "reference" / name / "journal.jsonl"
        journal.parent.mkdir(parents=True)
        prover.oracle_run_batch(taxonomy.build_taxonomy(closed), cqs, journal)
        outcomes = prover.load_journal(journal)
        tallied = reports.tally(outcomes)
        competency = reports.competency_report(
            tallied, baseline_proved=baseline, expected_cqs=cqs)
        efficiency = reports.efficiency_report(tallied)
        expected.update({
            f"{name}/closed.kif": kif.serialize_kif(closed),
            f"{name}/journal.jsonl": journal.read_text(),
            f"{name}/competency.csv":
                reports.render_competency_csv(competency),
            f"{name}/competency.txt":
                reports.render_competency_text(competency),
            f"{name}/efficiency.csv":
                reports.render_efficiency_csv(efficiency),
            f"{name}/efficiency.txt":
                reports.render_efficiency_text(efficiency)})
        if baseline is None:
            baseline = reports.proved_keys(outcomes)
    expected["stats.csv"] = reports.render_size_stats_csv(labeled)
    written = {path.relative_to(out).as_posix(): path.read_bytes()
               for path in out.rglob("*") if path.is_file()}
    assert written == {name: text.encode() for name, text in expected.items()}


def test_pipeline_runs_a_mode_named_twice(tmp_path, lexical_files):
    # the second owa shares the pass whose journal it would copy onto
    # itself
    mapping, antonymy, _ = lexical_files
    out = tmp_path / "results"
    config = tmp_path / "run.conf"
    config.write_text(
        f"ontology={ONTOLOGY}\nmapping={mapping}\npairs.antonymy={antonymy}\n"
        f"out={out}\nmodes=owa,subclass-only,owa\n")
    assert run_cli("pipeline", config) == EXIT_OK
    assert (out / "owa" / "journal.jsonl").read_bytes() == \
        (out / "subclass-only" / "journal.jsonl").read_bytes()
    assert [line.split(",")[0] for line in
            (out / "stats.csv").read_text().splitlines()[1:]] == \
        ["owa", "subclass-only", "owa"]


def test_pipeline_with_stub_prover(tmp_path, lexical_files):
    mapping, antonymy, hyponymy = lexical_files
    stub = stub_provers.stub_config(tmp_path, stub_provers.COUNTER_SATISFIABLE)
    modes = ["subclass-only", "subclass+disjointness"]
    out = tmp_path / "results"
    config = tmp_path / "run.conf"
    config.write_text(
        f"ontology={ONTOLOGY}\nmapping={mapping}\n"
        f"pairs.hyponymy={hyponymy}\npairs.antonymy={antonymy}\n"
        f"out={out}\noracle=false\nmodes={','.join(modes)}\n"
        f"prover.command={stub.command}\n"
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


def test_prover_pipeline_reports_equal_report_of_its_journals(
        tmp_path, lexical_files):
    # the pipeline reports from its outcomes, report from their journal
    # lines: the efficiency tables, whose mE scales inverse times by 1000,
    # agree only if both read wall times at the journal's precision
    mapping, antonymy, hyponymy = lexical_files
    stub = stub_provers.stub_config(tmp_path, stub_provers.THEOREM)
    modes = ["subclass-only", "subclass+disjointness"]
    out = tmp_path / "results"
    config = tmp_path / "run.conf"
    config.write_text(
        f"ontology={ONTOLOGY}\nmapping={mapping}\n"
        f"pairs.hyponymy={hyponymy}\npairs.antonymy={antonymy}\n"
        f"out={out}\noracle=false\nmodes={','.join(modes)}\n"
        f"prover.command={stub.command}\n"
        "prover.workers=2\nprover.time_limit=10\n")
    assert run_cli("pipeline", config) == EXIT_OK
    baseline = ()  # the first mode's run is the baseline of the others
    for mode in modes:
        piped = out / mode.replace("+", "_")
        reported = tmp_path / "reported" / mode.replace("+", "_")
        assert run_cli("report", "--journal", piped / "journal.jsonl",
                       *baseline, "--cqs", out / "cqs.kif",
                       "--out-dir", reported) == EXIT_OK
        baseline = baseline or ("--baseline", piped / "journal.jsonl")
        for name in ("competency.csv", "competency.txt", "efficiency.csv",
                     "efficiency.txt"):
            assert (piped / name).read_bytes() == \
                (reported / name).read_bytes(), (mode, name)
        # every truth test proved, citing the stub's one axiom
        assert ",1,1.00\nTotal,-,0.00,0.00,0,0.00\n" in \
            (piped / "efficiency.csv").read_text()


def test_pipeline_rerun_with_fewer_questions_reports_the_new_corpus(
        tmp_path, lexical_files):
    mapping, antonymy, hyponymy = lexical_files
    hyponymy.write_text(HYPONYMY_TSV + "birth#n#2\tprocess#n#2\n")
    stub = stub_provers.stub_config(tmp_path, stub_provers.COUNTER_SATISFIABLE)
    out = tmp_path / "results"
    config = tmp_path / "run.conf"
    config.write_text(
        f"ontology={ONTOLOGY}\nmapping={mapping}\n"
        f"pairs.hyponymy={hyponymy}\npairs.antonymy={antonymy}\n"
        f"out={out}\noracle=false\nmodes=subclass-only\n"
        f"prover.command={stub.command}\n"
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
            f"modes={','.join(modes)}\nprover.command={stub.command}\n"
            "prover.workers=2\nprover.time_limit=10\n")
        argv = ("pipeline", config)
    assert run_cli(*argv) == EXIT_OK
    assert builds == [16]  # the input ontology's axioms


# ---------------------------------------------------------------------------
# the cyclic garbage collector
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("oracle", [True, False], ids=["oracle", "prover"])
def test_pipeline_leaves_no_reference_cycles(tmp_path, lexical_files,
                                             oracle):
    # commands run with the cyclic collector off, so any cycle the code
    # builds stays in memory until the process ends
    mapping, antonymy, hyponymy = lexical_files
    stub = stub_provers.stub_config(tmp_path, stub_provers.THEOREM)
    config = tmp_path / "run.conf"
    config.write_text(
        f"ontology={ONTOLOGY}\nmapping={mapping}\n"
        f"pairs.hyponymy={hyponymy}\npairs.antonymy={antonymy}\n"
        f"out={tmp_path / 'results'}\noracle={str(oracle).lower()}\n"
        f"prover.command={stub.command}\n"
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
    assert not loaded & {"ontoclose.tptp", "logging", "concurrent.futures",
                         "subprocess", "selectors", "signal"}


# ---------------------------------------------------------------------------
# Input errors name the file or config key at fault (exit 3)
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


# each limit no prover run can take, by name: its option and config key,
# the value given and the cap the error names
UNREACHABLE_LIMITS = {
    "inf": ("--time-limit", "prover.time_limit", "inf",
            f"at most {MAX_TIME_LIMIT} seconds"),
    "3e6": ("--time-limit", "prover.time_limit", "3e6",
            f"at most {MAX_TIME_LIMIT} seconds"),
    "memory": ("--memory-limit", "prover.memory_limit", str(10**14),
               f"at most {MAX_MEMORY_LIMIT_MIB} MiB"),
}


@pytest.mark.parametrize("limit", sorted(UNREACHABLE_LIMITS))
@pytest.mark.parametrize("source", ["option", "config"])
def test_a_time_limit_no_wait_can_reach_is_a_prover_error(
        tmp_path, lexical_files, capsys, source, limit):
    # Popen.communicate could not wait that long, nor could prlimit take
    # that many bytes: the run used to end in an OverflowError traceback
    # with the prover left unreaped
    option, key, value, message = UNREACHABLE_LIMITS[limit]
    mapping, antonymy, hyponymy = lexical_files
    stub = stub_provers.stub_config(tmp_path, stub_provers.COUNTER_SATISFIABLE)
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
                stub.command, option, value)
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
