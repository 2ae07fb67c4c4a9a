import random

import pytest

from ontoclose import kif
from ontoclose.closure import (
    OWA, SUBCLASS_DISJOINT, SUBCLASS_NONDISJOINT, SUBCLASS_ONLY,
    ClosureConflictError, CurationError, CurationFile, CurationIncompleteError,
    apply_closure, assume_disjointness, assume_nondisjointness,
    complete_subclass, load_curation, serialize_curation, suggest_curation,
    support_axioms,
)
from ontoclose.kif import Forall, Implies, Or
from ontoclose.taxonomy import DISJOINT, NONDISJOINT, build_taxonomy

from conftest import call_depth_limit, subclass_chain
import witness_oracle


def taxonomy_to_ontology(tax):
    lines = []
    for sup in sorted(tax.classes):
        for sub in sorted(tax.direct_subclasses(sup)):
            lines.append(f"($subclass {sub} {sup})")
    for a, b in sorted(tax.explicit_disjoint):
        lines.append(f"($disjoint {a} {b})")
    for a, b in sorted(tax.explicit_nondisjoint):
        lines.append(f"($nonDisjoint {a} {b})")
    for a, b in sorted(tax.explicit_inheritable):
        lines.append(f"($inheritableNonDisjoint {a} {b})")
    if len(tax.classes) == 1:
        only = next(iter(tax.classes))
        lines.append(f"($instance something {only})")
    return kif.parse_kif("\n".join(lines))


# ---------------------------------------------------------------------------
# Support axioms
# ---------------------------------------------------------------------------

def test_support_axioms_shapes():
    axs = support_axioms()
    assert len(axs) == 4
    assert all(ax.provenance == "support" for ax in axs)
    # the downward-inheritance axiom binds three variables in one block
    assert isinstance(axs[3].formula, Forall)
    assert len(axs[3].formula.variables) == 3
    expected_second = kif.parse_formula_text("""
        (forall (CLASS1 CLASS2)
          (=> ($inheritableNonDisjoint CLASS1 CLASS2)
              (not ($disjoint CLASS1 CLASS2))))""")
    assert kif.normalize(axs[1].formula) == kif.normalize(expected_second)


def test_support_axioms_atom_total():
    stats = kif.count_metrics(kif.Ontology(support_axioms()))
    assert stats.atom_count == 9  # 2 + 2 + 2 + 3
    assert stats.forall_block_count == 4


# ---------------------------------------------------------------------------
# Subclass completion
# ---------------------------------------------------------------------------

def test_completion_root_axiom_matches_reference(organism_process, data_dir):
    tax = build_taxonomy(organism_process)
    axioms = {ax.id: ax for ax in complete_subclass(tax)}
    reference = kif.parse_kif((data_dir / "shapes.kif").read_text())
    root_reference = next(
        ax.formula for ax in reference
        if isinstance(ax.formula, Forall)
        and isinstance(ax.formula.body, Implies)
        and isinstance(ax.formula.body.right, Or)
        and len(ax.formula.body.right.parts) == 11)
    generated = axioms["comp_OrganismProcess"].formula
    assert kif.normalize(generated) == kif.normalize(root_reference)


def test_completion_leaf_axiom(organism_process):
    tax = build_taxonomy(organism_process)
    axioms = {ax.id: ax for ax in complete_subclass(tax)}
    leaf = axioms["comp_Birth"].formula
    expected = kif.parse_formula_text(
        "(forall (X) (=> ($subclass X Birth) (equal X Birth)))")
    assert kif.normalize(leaf) == kif.normalize(expected)


def test_completion_axiom_and_atom_counts(organism_process):
    tax = build_taxonomy(organism_process)
    axioms = complete_subclass(tax)
    assert len(axioms) == len(tax.classes) == 11
    assert all(ax.provenance == "completion" for ax in axioms)

    def consequent_atoms(formula):
        body = formula.body.right
        return len(body.parts) if isinstance(body, Or) else 1

    total_edges = sum(len(tax.direct_subclasses(c)) for c in tax.classes)
    implied_side = sum(consequent_atoms(ax.formula) for ax in axioms)
    assert implied_side == len(tax.classes) + total_edges == 21


def test_completion_on_random_dags_counts_edges():
    rng = random.Random(77)
    for _ in range(10):
        tax = witness_oracle.random_taxonomy(rng)
        axioms = complete_subclass(tax)
        assert len(axioms) == len(tax.classes)
        for ax in axioms:
            name = ax.id.removeprefix("comp_")
            body = ax.formula.body.right
            expected = 1 + len(tax.direct_subclasses(name))
            got = len(body.parts) if isinstance(body, Or) else 1
            assert got == expected


# ---------------------------------------------------------------------------
# Disjointness assumption
# ---------------------------------------------------------------------------

def test_assume_disjointness_fixture(organism_process):
    tax = build_taxonomy(organism_process)
    axioms = assume_disjointness(tax, CurationFile.empty())
    assert len(axioms) == 45  # all pairs of the ten siblings
    texts = {kif.serialize_formula(ax.formula) for ax in axioms}
    assert "($disjoint Birth Death)" in texts
    assert all(ax.provenance == "cwa-disjoint" for ax in axioms)
    ids = [ax.id for ax in axioms]
    assert ids == sorted(ids)


def test_assume_disjointness_skips_and_warns_on_shared_subclass(agent_ontology):
    tax = build_taxonomy(agent_ontology)
    with pytest.warns(UserWarning, match=r"\(\$nonDisjoint Organism SentientAgent\)"):
        axioms = assume_disjointness(tax, CurationFile.empty())
    texts = {kif.serialize_formula(ax.formula) for ax in axioms}
    assert "($disjoint Organism SentientAgent)" not in texts


def test_assume_disjointness_strict_raises(agent_ontology):
    tax = build_taxonomy(agent_ontology)
    with pytest.raises(CurationIncompleteError) as err:
        assume_disjointness(tax, CurationFile.empty(), strict=True)
    assert ("Organism", "SentientAgent") in err.value.pairs


def test_assume_disjointness_single_class():
    tax = build_taxonomy(kif.parse_kif("($instance x Only)"))
    assert assume_disjointness(tax, CurationFile.empty()) == []


def test_assume_disjointness_conflict_is_hard_error():
    tax = build_taxonomy(kif.parse_kif(
        "($disjoint A B)\n($subclass C A)\n($subclass C B)"))
    with pytest.raises(ClosureConflictError):
        assume_disjointness(tax, CurationFile.empty())


def test_disjointness_pruning_drops_inherited_pairs():
    text = """
    ($subclass B A) ($subclass C A)
    ($subclass Bsub B) ($subclass Bsub E) ($subclass C E)
    """
    tax = build_taxonomy(kif.parse_kif(text))
    unpruned = assume_disjointness(tax, CurationFile.empty(), prune=False)
    pruned = assume_disjointness(tax, CurationFile.empty(), prune=True)
    pairs_unpruned = {tuple(t.name for t in ax.formula.args) for ax in unpruned}
    pairs_pruned = {tuple(t.name for t in ax.formula.args) for ax in pruned}
    assert ("B", "C") in pairs_pruned
    assert ("Bsub", "C") in pairs_unpruned
    assert ("Bsub", "C") not in pairs_pruned


def test_pruning_preserves_pair_status_on_random_dags():
    rng = random.Random(2024)
    for _ in range(15):
        tax = witness_oracle.random_taxonomy(rng)
        advice = suggest_curation(tax, SUBCLASS_DISJOINT)
        for mode_fn in (assume_disjointness, assume_nondisjointness):
            unpruned = mode_fn(tax, advice.candidates, prune=False)
            pruned = mode_fn(tax, advice.candidates, prune=True)

            def merged_with(axioms):
                dis, nd, ind = [], [], []
                for ax in axioms:
                    p = tuple(t.name for t in ax.formula.args)
                    {"$disjoint": dis, "$nonDisjoint": nd,
                     "$inheritableNonDisjoint": ind}[ax.formula.predicate].append(p)
                base = tax.with_facts(
                    disjoint=advice.candidates.disjoint,
                    nondisjoint=advice.candidates.nondisjoint,
                    inheritable_nondisjoint=advice.candidates.inheritable)
                return base.with_facts(dis, nd, ind)

            full = merged_with(unpruned)
            slim = merged_with(pruned)
            ordered = sorted(tax.classes)
            for i, a in enumerate(ordered):
                for b in ordered[i + 1:]:
                    assert full.pair_status(a, b) == slim.pair_status(a, b)


# ---------------------------------------------------------------------------
# Non-disjointness assumption
# ---------------------------------------------------------------------------

def test_assume_nondisjointness_fixture(organism_process):
    tax = build_taxonomy(organism_process)
    axioms = assume_nondisjointness(tax, CurationFile.empty())
    assert len(axioms) == 45
    texts = {kif.serialize_formula(ax.formula) for ax in axioms}
    assert "($inheritableNonDisjoint Birth Death)" in texts
    assert all(ax.formula.predicate == "$inheritableNonDisjoint" for ax in axioms)


def test_assume_nondisjointness_recurses_past_clashing_subclasses(
        sound_process_ontology):
    tax = build_taxonomy(sound_process_ontology)
    axioms = assume_nondisjointness(tax, CurationFile.empty(), prune=False)
    by_pred = {}
    for ax in axioms:
        p = tuple(t.name for t in ax.formula.args)
        by_pred.setdefault(ax.formula.predicate, set()).add(p)
    assert ("AutonomicProcess", "RadiatingSound") in by_pred["$nonDisjoint"]
    # recursion reaches the mixed levels but never the clashing leaves
    assert ("AutonomicProcess", "Reciting") in by_pred["$nonDisjoint"]
    assert ("Breathing", "RadiatingSound") in by_pred["$nonDisjoint"]
    assert ("Breathing", "Reciting") not in by_pred.get("$nonDisjoint", set())
    assert "$inheritableNonDisjoint" not in by_pred


def test_assume_nondisjointness_needs_no_call_per_level():
    # the chain's bottom is disjoint with its leaf sibling B, so each
    # (Ai, B) clashes below and the walk goes down all 300 levels
    ontology = kif.parse_kif(subclass_chain("Root", "A", 300)
                             + "($subclass B Root)\n($disjoint A300 B)\n")
    tax = build_taxonomy(ontology)
    with call_depth_limit(100):
        unpruned = assume_nondisjointness(tax, CurationFile.empty(),
                                          prune=False)
        pruned = assume_nondisjointness(tax, CurationFile.empty())
    assert sorted(kif.serialize_formula(ax.formula) for ax in unpruned) == \
        sorted(f"($nonDisjoint A{i} B)" for i in range(1, 300))
    assert [kif.serialize_formula(ax.formula) for ax in pruned] == \
        ["($nonDisjoint A299 B)"]


def test_assume_nondisjointness_respects_curated_disjointness(
        blood_cell_ontology):
    tax = build_taxonomy(blood_cell_ontology)
    unfixed = assume_nondisjointness(tax, CurationFile.empty())
    assert [kif.serialize_formula(ax.formula) for ax in unfixed] == \
        ["($inheritableNonDisjoint RedBloodCell WhiteBloodCell)"]
    fix = CurationFile.from_pairs(disjoint=[("RedBloodCell", "WhiteBloodCell")])
    assert assume_nondisjointness(tax, fix) == []


def test_assume_nondisjointness_single_class():
    tax = build_taxonomy(kif.parse_kif("($instance x Only)"))
    assert assume_nondisjointness(tax, CurationFile.empty()) == []


# ---------------------------------------------------------------------------
# Curation files and suggestions
# ---------------------------------------------------------------------------

def test_curation_round_trip():
    cur = CurationFile.from_pairs(
        nondisjoint=[("Organism", "SentientAgent")],
        inheritable=[("Birth", "Death")],
        disjoint=[("RedBloodCell", "WhiteBloodCell")])
    text = serialize_curation(cur)
    assert load_curation(text) == cur
    assert load_curation("") == CurationFile.empty()
    plain = ("(nonDisjoint Organism SentientAgent)\n"
             "(inheritableNonDisjoint Birth Death)\n"
             "(disjoint RedBloodCell WhiteBloodCell)\n")
    assert load_curation(plain) == cur


def test_curation_rejects_bad_entries():
    with pytest.raises(CurationError):
        load_curation("($subclass A B)")
    with pytest.raises(CurationError):
        load_curation("($$nonDisjoint A B)")
    with pytest.raises(CurationError):
        load_curation("($nonDisjoint A B)\n($disjoint A B)")
    with pytest.raises(CurationError):
        CurationFile.from_pairs(nondisjoint=[("A", "A")])


def test_suggest_curation_agent(agent_ontology):
    tax = build_taxonomy(agent_ontology)
    advice = suggest_curation(tax, SUBCLASS_DISJOINT)
    assert advice.candidates.nondisjoint == {("Organism", "SentientAgent")}
    assert advice.candidates.inheritable == frozenset()
    assert advice.undecided == ()


def test_suggest_curation_prefers_inheritable_without_clashes():
    text = "($subclass A P) ($subclass B P) ($subclass C A) ($subclass C B)"
    tax = build_taxonomy(kif.parse_kif(text))
    advice = suggest_curation(tax, SUBCLASS_DISJOINT)
    assert advice.candidates.inheritable == {("A", "B")}


def test_suggest_curation_empty_for_leaf_siblings(organism_process):
    tax = build_taxonomy(organism_process)
    advice = suggest_curation(tax, SUBCLASS_DISJOINT)
    assert advice.candidates.is_empty()


def test_suggest_curation_nondisjoint_mode_reports(blood_cell_ontology):
    tax = build_taxonomy(blood_cell_ontology)
    advice = suggest_curation(tax, SUBCLASS_NONDISJOINT)
    assert advice.candidates.is_empty()
    assert advice.undecided == (("RedBloodCell", "WhiteBloodCell"),)


def test_suggest_curation_rejects_conflicted_taxonomy():
    tax = build_taxonomy(kif.parse_kif(
        "($subclass A P) ($subclass B P)\n"
        "($subclass X A) ($subclass X B)\n($disjoint A B)"))
    for mode in (SUBCLASS_DISJOINT, SUBCLASS_NONDISJOINT):
        with pytest.raises(ClosureConflictError) as err:
            suggest_curation(tax, mode)
        assert err.value.pairs == (("A", "B"),)


def test_suggest_curation_mode_validation(organism_process):
    tax = build_taxonomy(organism_process)
    with pytest.raises(ValueError):
        suggest_curation(tax, OWA)


# ---------------------------------------------------------------------------
# apply_closure
# ---------------------------------------------------------------------------

def test_apply_closure_owa_identity(organism_process):
    assert apply_closure(organism_process, OWA) is organism_process


def test_apply_closure_subclass_only_counts(organism_process):
    closed = apply_closure(organism_process, SUBCLASS_ONLY)
    assert len(closed) == len(organism_process) + 4 + 11
    assert [ax.id for ax in closed][:len(organism_process)] == \
        [ax.id for ax in organism_process]


def test_apply_closure_disjointness_counts(organism_process):
    closed = apply_closure(organism_process, SUBCLASS_DISJOINT)
    assert len(closed) == len(organism_process) + 4 + 11 + 45
    assert "($disjoint Birth Death)" in kif.serialize_kif(closed)


def test_apply_closure_nondisjointness_counts(organism_process):
    closed = apply_closure(organism_process, SUBCLASS_NONDISJOINT)
    assert len(closed) == len(organism_process) + 4 + 11 + 45
    assert "($inheritableNonDisjoint Birth Death)" in kif.serialize_kif(closed)


def test_apply_closure_includes_curation_axioms(blood_cell_ontology):
    fix = CurationFile.from_pairs(disjoint=[("RedBloodCell", "WhiteBloodCell")])
    closed = apply_closure(blood_cell_ontology, SUBCLASS_NONDISJOINT, fix)
    text = kif.serialize_kif(closed)
    assert "($disjoint RedBloodCell WhiteBloodCell)" in text
    provenances = {ax.provenance for ax in closed}
    assert "curation" in provenances


def test_apply_closure_modes_are_supersets_of_subclass_only(organism_process):
    base_ids = {ax.id for ax in apply_closure(organism_process, SUBCLASS_ONLY)}
    for mode in (SUBCLASS_DISJOINT, SUBCLASS_NONDISJOINT):
        ids = {ax.id for ax in apply_closure(organism_process, mode)}
        assert base_ids <= ids


def test_apply_closure_deterministic(organism_process):
    first = kif.serialize_kif(apply_closure(organism_process, SUBCLASS_DISJOINT))
    second = kif.serialize_kif(apply_closure(organism_process, SUBCLASS_DISJOINT))
    assert first == second


def test_apply_closure_unknown_mode(organism_process):
    with pytest.raises(ValueError):
        apply_closure(organism_process, "open-world")


# ---------------------------------------------------------------------------
# Closure totality and duality on random taxonomies
# ---------------------------------------------------------------------------

def test_closure_decides_sibling_pairs_on_random_dags():
    rng = random.Random(31337)
    for _ in range(20):
        tax = witness_oracle.random_taxonomy(rng)
        ontology = taxonomy_to_ontology(tax)
        for mode in (SUBCLASS_DISJOINT, SUBCLASS_NONDISJOINT):
            advice = suggest_curation(tax, mode)
            closed = apply_closure(ontology, mode, advice.candidates)
            closed_tax = build_taxonomy(closed)
            assert closed_tax.find_conflicts() == []
            for a, b in tax.sibling_pairs():
                assert closed_tax.pair_status(a, b) in (DISJOINT, NONDISJOINT)


def test_default_sibling_pairs_flip_between_modes(organism_process):
    disjoint_tax = build_taxonomy(
        apply_closure(organism_process, SUBCLASS_DISJOINT))
    compatible_tax = build_taxonomy(
        apply_closure(organism_process, SUBCLASS_NONDISJOINT))
    base_tax = build_taxonomy(organism_process)
    for a, b in base_tax.sibling_pairs():
        assert disjoint_tax.pair_status(a, b) == DISJOINT
        assert compatible_tax.pair_status(a, b) == NONDISJOINT
