"""Exit criteria for the package: one test per criterion, each printing a
PASS line (run with ``pytest tests/test_acceptance.py -v -s``).

External provers are optional everywhere: when none is installed the
prover-dependent halves are exercised through scripted stubs and the
structural oracle.
"""

import math
import random
import shutil
import time
from itertools import permutations

import pytest

from ontoclose import kif
from ontoclose.closure import (
    MODES, OWA, SUBCLASS_DISJOINT, SUBCLASS_NONDISJOINT, SUBCLASS_ONLY,
    apply_closure, assume_disjointness, assume_nondisjointness,
    complete_subclass, suggest_curation, support_axioms,
)
from ontoclose.prover import (
    COUNTER_SATISFIABLE, ERROR, KILL_GRACE, NON_PASSING, PASSING, PROVED,
    TIMEOUT, TRUTH, UNKNOWN, ProverConfig, ProverOutcome, oracle_verdict,
    run_batch, run_prover, verdict_tests,
)
from ontoclose.reports import efficiency_report, tally
from ontoclose.taxonomy import DISJOINT, NONDISJOINT, OPEN, build_taxonomy
from ontoclose.cli import main as cli_main

from conftest import DATA_DIR, ORGANISM_SUBCLASSES, antonymy_cq, overlap_cq, subset_cq
from normal_form import normalize, structurally_equal
import stub_provers
import witness_oracle

RANDOM_SEED = 20260808
TAXONOMY_COUNT = 200


def report_pass(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS: {message}", flush=True)


@pytest.fixture(scope="module")
def random_taxonomies():
    rng = random.Random(RANDOM_SEED)
    return [witness_oracle.random_taxonomy(rng) for _ in range(TAXONOMY_COUNT)]


def external_prover_config(time_limit: float) -> "ProverConfig | None":
    if shutil.which("vampire"):
        return ProverConfig(
            command="vampire --proof tptp --output_axiom_names on "
                    f"--mode casc -t {int(time_limit)} -m 2048 {{problem}}",
            time_limit=time_limit, memory_limit_mib=2048)
    if shutil.which("eprover"):
        return ProverConfig(
            command=f"eprover --auto --tptp3-format "
                    f"--cpu-limit={int(time_limit)} {{problem}}",
            time_limit=time_limit, memory_limit_mib=2048)
    return None


def _closed_taxonomy(tax, mode):
    """Apply a closed mode at the taxonomy level, with its own
    auto-suggested curation."""
    if mode == SUBCLASS_ONLY:
        # no pair facts: the taxonomy the pipeline's oracle asks
        return tax.with_axioms(support_axioms() + complete_subclass(tax))
    advice = suggest_curation(tax, mode)
    curation = advice.candidates
    if mode == SUBCLASS_DISJOINT:
        axioms = assume_disjointness(tax, curation)
    else:
        axioms = assume_nondisjointness(tax, curation)
    disjoint, nondisjoint, inheritable = set(), set(), set()
    for ax in axioms:
        pair = tuple(t.name for t in ax.formula.args)
        {"$disjoint": disjoint, "$nonDisjoint": nondisjoint,
         "$inheritableNonDisjoint": inheritable}[ax.formula.predicate].add(pair)
    return tax.with_facts(
        disjoint=disjoint | curation.disjoint,
        nondisjoint=nondisjoint | curation.nondisjoint,
        inheritable_nondisjoint=inheritable | curation.inheritable)


# ---------------------------------------------------------------------------
# 1. The unknown / unknown / passing / non-passing progression
# ---------------------------------------------------------------------------

def test_criterion_01_trichotomy(organism_process, tmp_path):
    started = time.perf_counter()
    cq = antonymy_cq("Birth", "Death")
    expected = {
        OWA: UNKNOWN,
        SUBCLASS_ONLY: UNKNOWN,
        SUBCLASS_DISJOINT: PASSING,
        SUBCLASS_NONDISJOINT: NON_PASSING,
    }
    for mode, value in expected.items():
        closed = apply_closure(organism_process, mode)
        verdict = oracle_verdict(build_taxonomy(closed), cq)
        assert verdict.value == value, f"oracle disagrees in mode {mode}"

    prover_config = external_prover_config(time_limit=10)
    checked_with = "oracle"
    if prover_config is not None:
        for mode, value in expected.items():
            closed = apply_closure(organism_process, mode)
            workdir = tmp_path / mode.replace("+", "_")
            [verdict] = run_batch(closed, [cq], prover_config,
                                  workdir / "journal.jsonl", workdir)
            assert verdict.value == value, f"prover disagrees in mode {mode}"
        checked_with = "oracle and external prover"
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    report_pass(1, f"unknown/unknown/passing/non-passing via {checked_with} "
                   f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Closure totality and consistency on random taxonomies
# ---------------------------------------------------------------------------

def test_criterion_02_closure_totality(random_taxonomies):
    started = time.perf_counter()
    for tax in random_taxonomies:
        for mode in (SUBCLASS_DISJOINT, SUBCLASS_NONDISJOINT):
            closed = _closed_taxonomy(tax, mode)
            assert closed.find_conflicts() == []
            for a, b in tax.sibling_pairs():
                status = closed.pair_status(a, b)
                assert status in (DISJOINT, NONDISJOINT), \
                    (mode, a, b, status)
    elapsed = time.perf_counter() - started
    assert elapsed < 300
    report_pass(2, f"{len(random_taxonomies)} taxonomies x 2 modes: every "
                   f"sibling pair decided, no conflicts ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 3. Derived pair status equals the brute-force enumeration
# ---------------------------------------------------------------------------

def test_criterion_03_oracle_vs_bruteforce(random_taxonomies):
    started = time.perf_counter()
    pairs_checked = 0
    for index, tax in enumerate(random_taxonomies):
        semantics = witness_oracle.WitnessSemantics(tax)
        ordered = sorted(tax.classes)
        for i, a in enumerate(ordered):
            for b in ordered[i:]:
                expected = semantics.status(a, b)
                assert tax.pair_status(a, b) == expected, (a, b)
                pairs_checked += 1
        if index < 5:  # the fast path must agree with the plain enumeration
            placements = witness_oracle.consistent_placements(tax)
            demands = witness_oracle.witness_demands(tax)
            for i, a in enumerate(ordered):
                for b in ordered[i:]:
                    assert semantics.status(a, b) == \
                        witness_oracle.brute_pair_status(
                            tax, a, b, placements, demands)
    elapsed = time.perf_counter() - started
    assert elapsed < 600
    report_pass(3, f"pair status equals witness enumeration on "
                   f"{pairs_checked} pairs ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 4. Resolution monotonicity across the four variants
# ---------------------------------------------------------------------------

def _resolved_fraction(tax, cqs) -> float:
    verdicts = [oracle_verdict(tax, cq) for cq in cqs]
    assert not any(v.value == "contradictory" for v in verdicts)
    resolved = sum(v.value in (PASSING, NON_PASSING) for v in verdicts)
    return resolved / len(cqs)


def _proved_tests(tax, cqs) -> set:
    """(question id, polarity) of each test the oracle proves on ``tax``."""
    return {(cq_id, polarity) for cq_id, polarity, outcome
            in verdict_tests(oracle_verdict(tax, cq) for cq in cqs)
            if outcome.proved}


def test_criterion_04_monotonicity(organism_process, random_taxonomies):
    corpus = [antonymy_cq(a, b)
              for i, a in enumerate(ORGANISM_SUBCLASSES)
              for b in ORGANISM_SUBCLASSES[i + 1:]]
    corpus += [subset_cq("Birth", "OrganismProcess"),
               subset_cq("OrganismProcess", "Birth"),
               overlap_cq("Breathing", "OrganismProcess")]
    fractions = {}
    for mode in MODES:
        tax = build_taxonomy(apply_closure(organism_process, mode))
        fractions[mode] = _resolved_fraction(tax, corpus)
    assert fractions[OWA] <= fractions[SUBCLASS_ONLY]
    assert fractions[SUBCLASS_ONLY] <= fractions[SUBCLASS_DISJOINT]
    assert fractions[SUBCLASS_ONLY] <= fractions[SUBCLASS_NONDISJOINT]
    # the fixture has default sibling pairs, so the growth is strict
    assert fractions[SUBCLASS_ONLY] < fractions[SUBCLASS_DISJOINT]
    assert fractions[SUBCLASS_ONLY] < fractions[SUBCLASS_NONDISJOINT]

    # a resolved fraction can hold while a test proved before is lost and
    # another gained: every test the open taxonomy proves, over each
    # ordered class pair in all three shapes, stays proved
    strict_checked = kept_checked = 0
    for tax in random_taxonomies[:40]:
        asked = [make(a, b) for a, b in permutations(sorted(tax.classes), 2)
                 for make in (antonymy_cq, subset_cq, overlap_cq)]
        proved = _proved_tests(tax, asked)
        sibling_pairs = list(tax.sibling_pairs())
        corpus = [antonymy_cq(a, b) for a, b in sibling_pairs]
        base = _resolved_fraction(tax, corpus) if corpus else None
        default_pairs = [
            p for p in sibling_pairs
            if tax.pair_status(*p) == OPEN
            and not any(tax.derived_disjoint(x, y)
                        for x in tax.down(p[0]) for y in tax.down(p[1])
                        if x != y)]
        for mode in (SUBCLASS_ONLY, SUBCLASS_DISJOINT, SUBCLASS_NONDISJOINT):
            closed = _closed_taxonomy(tax, mode)
            lost = proved - _proved_tests(closed, asked)
            assert not lost, (mode, sorted(lost))
            kept_checked += len(asked)
            # subclass-only answers what owa answers, so only the two
            # assumption modes must grow
            if not corpus or mode == SUBCLASS_ONLY:
                continue
            grown = _resolved_fraction(closed, corpus)
            assert base <= grown
            if default_pairs:
                assert base < grown
                strict_checked += 1
    assert strict_checked > 0
    report_pass(4, "resolved fraction is non-decreasing across variants and "
                   "strictly grows on default sibling pairs; no closed mode "
                   f"loses a proved test of {kept_checked} questions "
                   f"(fixture: {', '.join(f'{fractions[m]:.0%}' for m in MODES)})")


# ---------------------------------------------------------------------------
# 5. Duality of the two disjoint-closure modes
# ---------------------------------------------------------------------------

def test_criterion_05_duality(organism_process, random_taxonomies):
    flipped = 0

    def check(tax):
        nonlocal flipped
        default_pairs = [
            p for p in tax.sibling_pairs()
            if tax.pair_status(*p) == OPEN
            and not any(tax.derived_disjoint(x, y)
                        for x in tax.down(p[0]) for y in tax.down(p[1])
                        if x != y)]
        if not default_pairs:
            return
        disjoint_tax = _closed_taxonomy(tax, SUBCLASS_DISJOINT)
        compatible_tax = _closed_taxonomy(tax, SUBCLASS_NONDISJOINT)
        for a, b in default_pairs:
            cq = antonymy_cq(a, b)
            assert oracle_verdict(disjoint_tax, cq).value == PASSING, (a, b)
            assert oracle_verdict(compatible_tax, cq).value == NON_PASSING, (a, b)
            flipped += 1

    check(build_taxonomy(organism_process))
    for tax in random_taxonomies[:60]:
        check(tax)
    assert flipped >= 45  # at least the whole fixture sibling set
    report_pass(5, f"{flipped} default sibling questions flip "
                   "passing <-> non-passing between the two modes")


# ---------------------------------------------------------------------------
# 6. Completion axiom shapes
# ---------------------------------------------------------------------------

def test_criterion_06_completion_shape(organism_process, data_dir):
    tax = build_taxonomy(organism_process)
    axioms = {ax.id: ax.formula for ax in complete_subclass(tax)}
    reference = next(
        ax.formula
        for ax in kif.parse_kif((data_dir / "shapes.kif").read_text())
        if isinstance(ax.formula, kif.Forall)
        and isinstance(ax.formula.body, kif.Implies)
        and isinstance(ax.formula.body.right, kif.Or))
    assert len(reference.body.right.parts) == 11
    assert normalize(axioms["comp_OrganismProcess"]) == \
        normalize(reference)
    for leaf in ORGANISM_SUBCLASSES:
        expected = kif.parse_formula_text(
            f"(forall (X) (=> ($subclass X {leaf}) (equal X {leaf})))")
        assert normalize(axioms[f"comp_{leaf}"]) == normalize(expected)
    report_pass(6, "root completion equals the eleven-way disjunction; "
                   "leaves collapse to the equality form")


# ---------------------------------------------------------------------------
# 7. Report arithmetic
# ---------------------------------------------------------------------------

def test_criterion_07_metrics_arithmetic():
    outcomes = {
        ("antonymy-1:a:b:A:B", TRUTH): ProverOutcome(PROVED, 2.0, tuple("abc")),
        ("antonymy-1:c:d:C:D", TRUTH): ProverOutcome(PROVED, 4.0, tuple("bcd")),
    }
    cell = efficiency_report(tally(outcomes))[0]
    assert math.isclose(cell.mE, 375.0, rel_tol=1e-9)
    assert math.isclose(cell.t, 3.0, rel_tol=1e-12)
    assert cell.N == 4
    assert math.isclose(cell.A, 3.0, rel_tol=1e-12)
    report_pass(7, "mE([2,4]) = 375.0 and t/N/A match hand computation")


# ---------------------------------------------------------------------------
# 8. Size metrics across the four variants
# ---------------------------------------------------------------------------

def test_criterion_08_size_metrics(organism_process):
    hand_counted = kif.SizeStats(
        axiom_count=16, unit_clause_count=10, formula_count=6,
        atom_count=24, forall_block_count=6, exists_block_count=2,
        iff_count=1, implies_count=3, and_count=4, or_count=0,
        not_count=1, equality_count=1)
    assert kif.count_metrics(organism_process) == hand_counted
    atoms = {mode: kif.count_metrics(apply_closure(organism_process, mode)).atom_count
             for mode in MODES}
    assert atoms[OWA] <= atoms[SUBCLASS_ONLY]
    assert atoms[SUBCLASS_ONLY] <= atoms[SUBCLASS_DISJOINT]
    assert atoms[SUBCLASS_ONLY] <= atoms[SUBCLASS_NONDISJOINT]
    report_pass(8, "hand-counted fixture metrics match exactly; atom counts "
                   f"grow {atoms[OWA]} -> {atoms[SUBCLASS_ONLY]} -> "
                   f"{atoms[SUBCLASS_DISJOINT]} / {atoms[SUBCLASS_NONDISJOINT]}")


# ---------------------------------------------------------------------------
# 9. Round trips and byte determinism
# ---------------------------------------------------------------------------

def test_criterion_09_roundtrip_and_determinism(tmp_path):
    for name in ("organism_process.kif", "shapes.kif", "agent.kif",
                 "blood_cell.kif", "sound_process.kif"):
        text = (DATA_DIR / name).read_text()
        ontology = kif.parse_kif(text)
        assert structurally_equal(
            kif.parse_kif(kif.serialize_kif(ontology)), ontology), name

    mapping = tmp_path / "mapping.tsv"
    mapping.write_text("birth#n#2\tBirth=\ndeath#n#1\tDeath=\n")
    antonymy = tmp_path / "antonymy.tsv"
    antonymy.write_text("birth#n#2\tdeath#n#1\n")
    artifacts = []
    for run in ("one", "two"):
        out = tmp_path / run
        config = tmp_path / f"{run}.conf"
        config.write_text(
            f"ontology={DATA_DIR / 'organism_process.kif'}\n"
            f"mapping={mapping}\npairs.antonymy={antonymy}\n"
            f"out={out}\noracle=true\n")
        assert cli_main(["pipeline", str(config)]) == 0
        collected = {}
        for path in sorted(out.rglob("*")):
            if path.is_file():
                collected[str(path.relative_to(out))] = path.read_bytes()
        artifacts.append(collected)
    assert artifacts[0] == artifacts[1]
    report_pass(9, "parse/serialize identity on every fixture; repeated "
                   f"pipeline runs produced {len(artifacts[0])} identical files")


# ---------------------------------------------------------------------------
# 10. Harness robustness against scripted provers
# ---------------------------------------------------------------------------

def test_criterion_10_harness_robustness(tmp_path):
    problem = tmp_path / "problem.p"
    problem.write_text("fof(orig_1, axiom, p).\nfof(cq, conjecture, p).\n")

    outcome = run_prover(problem, stub_provers.stub_config(
        tmp_path, stub_provers.THEOREM, name="theorem"))
    assert outcome.status == PROVED and outcome.used == ("orig_1",)

    outcome = run_prover(problem, stub_provers.stub_config(
        tmp_path, stub_provers.COUNTER_SATISFIABLE, name="csa"))
    assert outcome.status == COUNTER_SATISFIABLE

    outcome = run_prover(problem, stub_provers.stub_config(
        tmp_path, stub_provers.GARBAGE, name="garbage"))
    assert outcome.status == ERROR and outcome.detail

    limit = 0.4
    config = stub_provers.stub_config(tmp_path, stub_provers.SLEEPER,
                                      name="sleeper", time_limit=limit)
    started = time.perf_counter()
    outcome = run_prover(problem, config)
    elapsed = time.perf_counter() - started
    assert outcome.status == TIMEOUT
    assert elapsed <= limit + KILL_GRACE + 1.0, \
        "kill must land within limit + grace"
    report_pass(10, "stub provers classified correctly; sleeper killed after "
                    f"{elapsed:.1f}s (limit {limit}s + {KILL_GRACE:g}s grace)")
