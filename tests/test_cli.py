import json

import pytest

from ontoclose import kif
from ontoclose.cli import (
    EXIT_DATA, EXIT_INCONSISTENT, EXIT_OK, EXIT_PROVER, EXIT_USAGE,
    load_config, main,
)

from conftest import DATA_DIR
import stub_provers


ONTOLOGY = DATA_DIR / "organism_process.kif"

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
    import argparse

    from ontoclose.cli import _prover_config
    args = argparse.Namespace(prover_cmd="prover {problem}",
                              time_limit=300.0, memory_limit=2048, workers=1)
    monkeypatch.setenv("ONTOCLOSE_TIME_LIMIT", "42.5")
    monkeypatch.setenv("ONTOCLOSE_MEMORY_LIMIT", "512")
    config = _prover_config(args)
    assert config.time_limit == 42.5
    assert config.memory_limit_mib == 512
    monkeypatch.setenv("ONTOCLOSE_PROVER_COMMAND", "other {problem}")
    assert _prover_config(args).command == "other {problem}"


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


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["close", str(ONTOLOGY)])  # --mode missing
    assert err.value.code == EXIT_USAGE
