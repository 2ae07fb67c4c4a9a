import random
import time
from dataclasses import replace

import pytest

from ontoclose import kif
from ontoclose.closure import (
    OWA, SUBCLASS_DISJOINT, SUBCLASS_NONDISJOINT, SUBCLASS_ONLY, apply_closure,
)
from ontoclose.prover import (
    CONTRADICTORY, COUNTER_SATISFIABLE, ERROR, FALSITY, GAVE_UP, NON_PASSING,
    PASSING, PROVED, TIMEOUT, TRUTH, UNKNOWN, InconsistencyError,
    ProverConfig, ProverError, ProverOutcome, UnrecognizedShapeError,
    append_journal, classify, journal_record, load_journal, oracle_run_batch,
    oracle_verdict, parse_prover_output, recognize_shape, run_batch,
    run_prover, vampire_reference_config,
)
from ontoclose.taxonomy import build_taxonomy

from conftest import antonymy_cq, load_ontology, overlap_cq, subset_cq
import stub_provers
import witness_oracle


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ProverError):
        ProverConfig(command="prover file.p")  # no placeholder
    with pytest.raises(ProverError):
        ProverConfig(command="prover {problem} {problem}")
    with pytest.raises(ProverError):
        ProverConfig(command="prover {problem}", time_limit=0)
    with pytest.raises(ProverError):
        ProverConfig(command="prover {problem}", workers=0)


def test_reference_config_flags():
    config = vampire_reference_config(time_limit=300, memory_limit_mib=2048)
    assert "--proof tptp" in config.command
    assert "--output_axiom_names on" in config.command
    assert "--mode casc" in config.command
    assert "-t 300" in config.command
    assert "-m 2048" in config.command
    assert config.command.count("{problem}") == 1


# ---------------------------------------------------------------------------
# Output parsing
# ---------------------------------------------------------------------------

def test_parse_output_prefers_file_citations():
    output = """
    % SZS status Theorem for x
    fof(f12, axiom, p, file('/tmp/x.p', orig_3)).
    fof(f13, plain, q, inference(resolution, [], [f12])).
    """
    szs, used = parse_prover_output(output)
    assert szs == "Theorem"
    assert used == ("orig_3",)


def test_parse_output_falls_back_to_fof_axiom_names():
    output = "% SZS status Theorem for x\nfof(orig_1, axiom, $true).\n" \
             "fof(orig_1, axiom, $true).\n"
    szs, used = parse_prover_output(output)
    assert used == ("orig_1",)


def test_parse_output_without_status():
    szs, used = parse_prover_output("nothing to see here")
    assert szs is None and used == ()


# ---------------------------------------------------------------------------
# Running stubs
# ---------------------------------------------------------------------------

@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.p"
    path.write_text("fof(orig_1, axiom, p).\nfof(cq, conjecture, p).\n")
    return path


def test_theorem_stub(tmp_path, problem_file):
    config = stub_provers.stub_config(tmp_path, stub_provers.THEOREM)
    outcome = run_prover(problem_file, config)
    assert outcome.status == PROVED
    assert outcome.szs == "Theorem"
    assert outcome.used == ("orig_1",)
    assert outcome.wall_time > 0


def test_counter_satisfiable_stub(tmp_path, problem_file):
    config = stub_provers.stub_config(tmp_path, stub_provers.COUNTER_SATISFIABLE)
    outcome = run_prover(problem_file, config)
    assert outcome.status == COUNTER_SATISFIABLE
    assert outcome.used == ()


def test_sleeper_stub_is_killed(tmp_path, problem_file):
    config = stub_provers.stub_config(tmp_path, stub_provers.SLEEPER,
                                      time_limit=0.4, grace=0.4)
    start = time.perf_counter()
    outcome = run_prover(problem_file, config)
    elapsed = time.perf_counter() - start
    assert outcome.status == TIMEOUT
    assert elapsed < 5.0
    assert outcome.wall_time >= 0.4


def test_garbage_stub(tmp_path, problem_file):
    config = stub_provers.stub_config(tmp_path, stub_provers.GARBAGE)
    outcome = run_prover(problem_file, config)
    assert outcome.status == ERROR
    assert "thermal anomaly" in outcome.detail


def test_unknown_status_stub(tmp_path, problem_file):
    config = stub_provers.stub_config(tmp_path, stub_provers.WRONG_STATUS)
    outcome = run_prover(problem_file, config)
    assert outcome.status == ERROR
    assert "Telepathy" in outcome.detail


def test_non_utf8_output_stub(tmp_path, problem_file):
    config = stub_provers.stub_config(tmp_path, stub_provers.NON_UTF8)
    outcome = run_prover(problem_file, config)
    assert outcome.status == PROVED
    assert outcome.szs == "Theorem"


def test_spawn_failure(problem_file):
    config = ProverConfig(command="/no/such/prover {problem}")
    outcome = run_prover(problem_file, config)
    assert outcome.status == ERROR
    assert "spawn failed" in outcome.detail


def test_trivial_entailment_stub(tmp_path, organism_process):
    """A conjecture that is literally one of the axioms must be proved,
    and the proof must cite that axiom."""
    from ontoclose import tptp
    config = stub_provers.stub_config(tmp_path, stub_provers.TRIVIAL_ENTAILMENT)
    conjecture = kif.parse_formula_text("($subclass Birth OrganismProcess)")
    problem = tptp.emit_problem(organism_process, conjecture)
    path = tmp_path / "trivial.p"
    path.write_text(problem.text)
    outcome = run_prover(path, config)
    assert outcome.status == PROVED
    assert problem.axiom_id_for(outcome.used[0]) == "orig_1"


def test_outcome_invariant_used_only_when_proved():
    outcome = ProverOutcome(status=GAVE_UP, wall_time=1.0, used=("a",))
    assert outcome.used == ()


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

def test_classify_matrix():
    assert classify(True, False) == PASSING
    assert classify(False, True) == NON_PASSING
    assert classify(False, False) == UNKNOWN
    assert classify(True, True) == CONTRADICTORY


def test_run_batch_short_circuits(tmp_path, organism_process):
    config = stub_provers.stub_config(tmp_path, stub_provers.THEOREM)
    cq = antonymy_cq("Birth", "Death")
    [verdict] = run_batch(organism_process, [cq], config,
                          tmp_path / "j.jsonl", tmp_path / "work")
    assert verdict.value == PASSING
    assert verdict.truth.proved
    assert verdict.falsity is None  # skipped after the truth test proved


def test_run_batch_detects_contradiction(tmp_path, organism_process):
    config = stub_provers.stub_config(tmp_path, stub_provers.THEOREM)
    cqs = [antonymy_cq("Birth", "Death"), overlap_cq("Birth", "Death")]
    with pytest.raises(InconsistencyError) as err:
        run_batch(organism_process, cqs, config, tmp_path / "j.jsonl",
                  tmp_path / "work", short_circuit=False)
    # every contradictory question of the batch is named, not only the first
    assert err.value.cq_ids == tuple(cq.id for cq in cqs)


def test_run_batch_unknown(tmp_path, organism_process):
    config = stub_provers.stub_config(tmp_path, stub_provers.COUNTER_SATISFIABLE)
    cq = antonymy_cq("Birth", "Death")
    [verdict] = run_batch(organism_process, [cq], config,
                          tmp_path / "j.jsonl", tmp_path / "work")
    assert verdict.value == UNKNOWN
    assert verdict.truth.status == COUNTER_SATISFIABLE
    assert verdict.falsity.status == COUNTER_SATISFIABLE


# ---------------------------------------------------------------------------
# Journal and batches
# ---------------------------------------------------------------------------

def test_journal_round_trip(tmp_path):
    journal = tmp_path / "results.jsonl"
    outcome = ProverOutcome(status=PROVED, wall_time=1.25, used=("orig_1",))
    append_journal(journal, [journal_record("cq-1", TRUTH, outcome)])
    append_journal(journal, [journal_record("cq-1", FALSITY,
                                            ProverOutcome(GAVE_UP, 0.5))])
    records = load_journal(journal)
    assert records[("cq-1", TRUTH)]["status"] == PROVED
    assert records[("cq-1", TRUTH)]["used"] == ["orig_1"]
    assert records[("cq-1", FALSITY)]["status"] == GAVE_UP


def test_load_journal_missing_file(tmp_path):
    assert load_journal(tmp_path / "absent.jsonl") == {}


def test_load_journal_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    with pytest.raises(ProverError):
        load_journal(bad)


def test_run_batch_resumes(tmp_path, organism_process):
    config = stub_provers.stub_config(tmp_path, stub_provers.COUNTER_SATISFIABLE,
                                      workers=2)
    journal = tmp_path / "journal.jsonl"
    cqs = [antonymy_cq("Birth", "Death"), antonymy_cq("Breathing", "Mating")]
    verdicts = run_batch(organism_process, cqs, config, journal,
                         tmp_path / "problems")
    assert [v.value for v in verdicts] == [UNKNOWN, UNKNOWN]
    size_after_first = journal.stat().st_size
    assert len(load_journal(journal)) == 4
    verdicts = run_batch(organism_process, cqs, config, journal,
                         tmp_path / "problems")
    assert journal.stat().st_size == size_after_first  # nothing re-run
    assert [v.value for v in verdicts] == [UNKNOWN, UNKNOWN]


def test_run_batch_resumes_after_a_torn_last_line(tmp_path, organism_process):
    config = stub_provers.stub_config(tmp_path, stub_provers.COUNTER_SATISFIABLE)
    journal = tmp_path / "journal.jsonl"
    cqs = [antonymy_cq("Birth", "Death"), antonymy_cq("Breathing", "Mating")]
    run_batch(organism_process, cqs, config, journal, tmp_path / "problems")
    whole = journal.read_text()
    # a kill mid-append leaves part of the last record and no newline
    journal.write_text(whole[:-10])
    assert len(load_journal(journal)) == 3
    verdicts = run_batch(organism_process, cqs, config, journal,
                         tmp_path / "problems")
    assert [v.value for v in verdicts] == [UNKNOWN, UNKNOWN]
    lines = journal.read_text().splitlines()
    assert len(lines) == 4  # the torn record was run again, on a line of its own
    assert len(load_journal(journal)) == 4


def test_run_batch_aborts_on_contradiction(tmp_path, organism_process):
    config = stub_provers.stub_config(tmp_path, stub_provers.THEOREM)
    cq = antonymy_cq("Birth", "Death")
    journal = tmp_path / "j.jsonl"
    with pytest.raises(InconsistencyError) as err:
        run_batch(organism_process, [cq], config, journal,
                  tmp_path / "problems", short_circuit=False)
    assert cq.id in err.value.cq_ids
    # both proved records are journaled before the run aborts
    records = load_journal(journal)
    assert {polarity: records[(cq.id, polarity)]["status"]
            for polarity in (TRUTH, FALSITY)} == {TRUTH: PROVED,
                                                  FALSITY: PROVED}


def test_run_batch_problem_files_are_distinct_per_question(tmp_path,
                                                          organism_process):
    # ids that differ only in characters a file-name slug would flatten
    classes = {"antonymy-1:a#n#1:b#n#1:A:B": ("Birth", "Death"),
               "antonymy-1:a_n_1:b_n_1:A:B": ("Breathing", "Mating")}
    cqs = [replace(antonymy_cq(c1, c2), id=cq_id)
           for cq_id, (c1, c2) in classes.items()]
    config = stub_provers.stub_config(tmp_path, stub_provers.COUNTER_SATISFIABLE,
                                      workers=2)
    problems = tmp_path / "problems"
    run_batch(organism_process, cqs, config, tmp_path / "j.jsonl", problems,
              short_circuit=False)
    files = sorted(problems.glob("*.p"))
    assert len(files) == 4
    tests = set()
    for path in files:
        lines = path.read_text().splitlines()
        cq_id = lines[0].removeprefix("% cq: ")
        tests.add((cq_id, lines[3].removeprefix("% polarity: ")))
        conjecture = next(line for line in lines if ", conjecture, " in line)
        for name in classes[cq_id]:
            assert f"c__{name.lower()}" in conjecture, (path, cq_id)
    assert tests == {(cq_id, polarity) for cq_id in classes
                     for polarity in (TRUTH, FALSITY)}


def test_run_batch_flags_total_failure(tmp_path, organism_process):
    config = ProverConfig(command="/no/such/prover {problem}")
    with pytest.raises(ProverError):
        run_batch(organism_process, [antonymy_cq("Birth", "Death")], config,
                  tmp_path / "j.jsonl", tmp_path / "problems")


# ---------------------------------------------------------------------------
# Structural oracle
# ---------------------------------------------------------------------------

def test_recognize_shapes():
    assert recognize_shape(overlap_cq("A", "B").conjecture) == ("overlap", "A", "B")
    assert recognize_shape(subset_cq("A", "B").conjecture) == ("subset", "A", "B")
    assert recognize_shape(antonymy_cq("A", "B").conjecture) == ("distinct", "A", "B")
    assert recognize_shape(kif.parse_formula_text(
        "(forall (X) (=> (instance X A) (instance X B)))")) == \
        ("subset", "A", "B")
    with pytest.raises(UnrecognizedShapeError):
        recognize_shape(kif.parse_formula_text(
            "(exists (X Y) (and ($instance X A) (part X Y)))"))
    with pytest.raises(UnrecognizedShapeError):
        recognize_shape(kif.parse_formula_text(
            "(exists (X) (and ($instance X A) ($p X B)))"))


def test_oracle_overlap_with_explicit_compatibility():
    tax = build_taxonomy(kif.parse_kif(
        "($inheritableNonDisjoint PoliticalOrganization GroupOfPeople)"))
    cq = overlap_cq("PoliticalOrganization", "GroupOfPeople")
    assert oracle_verdict(tax, cq).value == PASSING


def test_oracle_overlap_through_a_shared_instance():
    tax = build_taxonomy(kif.parse_kif(
        "($subclass A Top)\n($subclass B Top)\n"
        "($instance o A)\n($instance o B)"))
    assert oracle_verdict(tax, overlap_cq("A", "B")).value == PASSING


def test_oracle_decides_plain_instance_spelling():
    tax = build_taxonomy(kif.parse_kif("($subclass Birth OrganismProcess)"))
    cq = replace(subset_cq("Birth", "OrganismProcess"),
                 conjecture=kif.parse_formula_text(
                     "(forall (X) (=> (instance X Birth) "
                     "(instance X OrganismProcess)))"))
    assert oracle_verdict(tax, cq).value == PASSING


def test_oracle_subset_with_edge():
    tax = build_taxonomy(kif.parse_kif(
        "($subclass Poisoning TherapeuticProcess)"))
    assert oracle_verdict(
        tax, subset_cq("Poisoning", "TherapeuticProcess")).value == PASSING
    assert oracle_verdict(
        tax, subset_cq("TherapeuticProcess", "Poisoning")).value == UNKNOWN


def test_oracle_distinctness_unknown_without_facts(organism_process):
    tax = build_taxonomy(organism_process)
    assert oracle_verdict(tax, antonymy_cq("Birth", "Death")).value == UNKNOWN


def test_oracle_unknown_classes_stay_unknown(organism_process):
    tax = build_taxonomy(organism_process)
    assert oracle_verdict(tax, antonymy_cq("Ghost", "Spirit")).value == UNKNOWN


def test_oracle_trichotomy_over_modes(organism_process):
    cq = antonymy_cq("Birth", "Death")
    expectations = {
        OWA: UNKNOWN,
        SUBCLASS_ONLY: UNKNOWN,
        SUBCLASS_DISJOINT: PASSING,
        SUBCLASS_NONDISJOINT: NON_PASSING,
    }
    for mode, expected in expectations.items():
        closed = apply_closure(organism_process, mode)
        verdict = oracle_verdict(build_taxonomy(closed), cq)
        assert verdict.value == expected, mode


def test_oracle_verdict_contradictory_on_conflicted_taxonomy():
    tax = build_taxonomy(kif.parse_kif(
        "($disjoint A B)\n($subclass C A)\n($subclass C B)"))
    verdict = oracle_verdict(tax, antonymy_cq("A", "B"))
    assert verdict.value == CONTRADICTORY


def test_oracle_run_batch_journals_and_aborts(tmp_path, organism_process):
    closed = apply_closure(organism_process, SUBCLASS_DISJOINT)
    tax = build_taxonomy(closed)
    journal = tmp_path / "oracle.jsonl"
    cqs = [antonymy_cq("Birth", "Death"), overlap_cq("Birth", "OrganismProcess")]
    verdicts = oracle_run_batch(tax, cqs, journal)
    assert [v.value for v in verdicts] == [PASSING, PASSING]
    assert len(load_journal(journal)) == 4
    bad_tax = build_taxonomy(kif.parse_kif(
        "($disjoint A B)\n($subclass C A)\n($subclass C B)"))
    with pytest.raises(InconsistencyError):
        oracle_run_batch(bad_tax, [antonymy_cq("A", "B")])


def test_oracle_run_batch_rewrites_its_journal(tmp_path):
    journal = tmp_path / "oracle.jsonl"
    cq = antonymy_cq("Birth", "Death")
    disjoint = build_taxonomy(kif.parse_kif("($disjoint Birth Death)"))
    [first] = oracle_run_batch(disjoint, [cq], journal)
    assert first.value == PASSING
    compatible = build_taxonomy(kif.parse_kif("($nonDisjoint Birth Death)"))
    [second] = oracle_run_batch(compatible, [cq], journal)
    assert second.value == NON_PASSING
    assert len(journal.read_text().splitlines()) == 2
    records = load_journal(journal)
    assert records[(cq.id, TRUTH)]["status"] == GAVE_UP
    assert records[(cq.id, FALSITY)]["status"] == PROVED


def test_oracle_agrees_with_witness_enumeration_on_random_dags():
    rng = random.Random(8080)
    for _ in range(10):
        tax = witness_oracle.random_taxonomy(rng, max_classes=8)
        placements = witness_oracle.consistent_placements(tax)
        demands = witness_oracle.witness_demands(tax)
        ordered = sorted(tax.classes)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                semantic = witness_oracle.brute_pair_status(
                    tax, a, b, placements, demands)
                answer = oracle_verdict(tax, antonymy_cq(a, b)).value
                if semantic == "disjoint":
                    assert answer == PASSING
                elif semantic == "nondisjoint":
                    assert answer == NON_PASSING
                else:
                    assert answer == UNKNOWN


def test_oracle_monotone_under_closure(organism_process):
    cqs = [antonymy_cq("Birth", "Death"),
           overlap_cq("Birth", "OrganismProcess"),
           subset_cq("Birth", "OrganismProcess")]
    base_tax = build_taxonomy(organism_process)
    base_resolved = {cq.id for cq in cqs
                     if oracle_verdict(base_tax, cq).value != UNKNOWN}
    for mode in (SUBCLASS_ONLY, SUBCLASS_DISJOINT, SUBCLASS_NONDISJOINT):
        tax = build_taxonomy(apply_closure(organism_process, mode))
        resolved = {cq.id for cq in cqs
                    if oracle_verdict(tax, cq).value != UNKNOWN}
        assert base_resolved <= resolved


def _fresh_organism_process():
    # parsed anew, so no earlier test has rendered its axioms yet
    return load_ontology("organism_process.kif")


def test_run_batch_renders_the_axioms_once(tmp_path, monkeypatch):
    from ontoclose import tptp
    ontology = _fresh_organism_process()
    calls = []
    real_to_fof = tptp.to_fof

    def counting_to_fof(formula, table=None):
        calls.append(formula)
        return real_to_fof(formula, table)

    monkeypatch.setattr(tptp, "to_fof", counting_to_fof)
    config = stub_provers.stub_config(tmp_path, stub_provers.COUNTER_SATISFIABLE,
                                      workers=2)
    cqs = [antonymy_cq("Birth", "Death"), overlap_cq("Breathing", "Mating"),
           subset_cq("Birth", "Unicorn")]
    run_batch(ontology, cqs, config, tmp_path / "j.jsonl",
              tmp_path / "problems", short_circuit=False)
    tests = 2 * len(cqs)
    assert len(calls) == len(ontology) + tests


def test_run_batch_workers_write_the_same_problem_files(tmp_path):
    # questions over classes the ontology lacks name new constants per problem
    cqs = [antonymy_cq(c1, c2) for c1, c2 in (
        ("Birth", "Death"), ("Unicorn", "Griffin"), ("Birth", "BIRTH"),
        ("Griffin", "Mating"), ("Phoenix", "Unicorn"), ("Death", "DEATH"))]
    contents = []
    for workers in (1, 4):
        config = stub_provers.stub_config(
            tmp_path, stub_provers.COUNTER_SATISFIABLE, workers=workers)
        problems = tmp_path / f"problems{workers}"
        run_batch(_fresh_organism_process(), cqs, config,
                  tmp_path / f"j{workers}.jsonl", problems,
                  short_circuit=False)
        contents.append({path.name: path.read_bytes()
                         for path in problems.glob("*.p")})
    assert len(contents[0]) == 2 * len(cqs)
    assert contents[0] == contents[1]
