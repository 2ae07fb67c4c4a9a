import random
import warnings
from collections import Counter
from dataclasses import replace

import pytest

from ontoclose import kif
from ontoclose.closure import (
    OWA, SUBCLASS_DISJOINT, SUBCLASS_NONDISJOINT, SUBCLASS_ONLY,
    ClosureConflictError, CurationError, CurationFile, CurationIncompleteError,
    apply_closure, assume_disjointness, assume_nondisjointness,
    complete_subclass, load_curation, serialize_curation, suggest_curation,
    support_axioms, _unit,
)
from ontoclose.kif import Forall, Implies, Or
from ontoclose.modes import MODES
from ontoclose.prover import FALSITY, TRUTH, oracle_verdict, write_problem
from ontoclose.taxonomy import (
    DISJOINT, NONDISJOINT, OPEN, ClassGraph, Taxonomy, TaxonomyError,
    build_taxonomy,
)
from ontoclose.tptp import AxiomBlock

from conftest import (
    DATA_DIR, antonymy_cq, call_depth_limit, load_ontology, overlap_cq,
    subclass_chain, subset_cq,
)
from fof_reader import ADVERSARIAL_NAMES, read_problem
from normal_form import normalize
from witness_model import WitnessModel
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


def with_curated_disjoint(rng, tax, candidates, count=2):
    """``candidates`` plus curated ``$disjoint`` facts on up to ``count``
    pairs that are open once the candidates are merged, each kept only if
    the facts stay free of conflicts."""
    merged = tax.with_facts(nondisjoint=candidates.nondisjoint,
                            inheritable_nondisjoint=candidates.inheritable)
    names = sorted(tax.classes)
    open_pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]
                  if merged.pair_status(a, b) == OPEN]
    disjoint = []
    for p in rng.sample(open_pairs, min(count, len(open_pairs))):
        if not merged.with_facts(disjoint=[*disjoint, p]).find_conflicts():
            disjoint.append(p)
    return CurationFile.from_pairs(candidates.nondisjoint,
                                   candidates.inheritable, disjoint)


def model_background():
    """The non-unit axioms of ``organism_process.kif``, which give the
    predicates their meaning, renamed apart from the closure's ids."""
    background = [replace(ax, id=f"bg_{ax.id}")
                  for ax in load_ontology("organism_process.kif")
                  if not kif.is_unit_clause(ax.formula)]
    assert len(background) == 6
    return background


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
    assert normalize(axs[1].formula) == normalize(expected_second)


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
    assert normalize(generated) == normalize(root_reference)


def test_completion_leaf_axiom(organism_process):
    tax = build_taxonomy(organism_process)
    axioms = {ax.id: ax for ax in complete_subclass(tax)}
    leaf = axioms["comp_Birth"].formula
    expected = kif.parse_formula_text(
        "(forall (X) (=> ($subclass X Birth) (equal X Birth)))")
    assert normalize(leaf) == normalize(expected)


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


def test_disjointness_closure_keeps_a_shared_instance_compatible():
    ontology = kif.parse_kif("($subclass A Top)\n($subclass B Top)\n"
                             "($instance o A)\n($instance o B)")
    # strict: a pair that needed curation would raise
    closed = apply_closure(ontology, SUBCLASS_DISJOINT, strict=True)
    disjoint = [tuple(t.name for t in ax.formula.args) for ax in closed
                if ax.provenance == "cwa-disjoint"]
    assert ("A", "B") not in disjoint
    assert build_taxonomy(closed).find_conflicts() == []


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
                # the curated facts apply_closure writes in this mode
                written = (advice.candidates if mode_fn is assume_disjointness
                           else CurationFile.from_pairs(
                               disjoint=advice.candidates.disjoint))
                base = tax.with_facts(
                    disjoint=written.disjoint,
                    nondisjoint=written.nondisjoint,
                    inheritable_nondisjoint=written.inheritable)
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


def probed_tree(classes: int, branching: int, probes: list,
                every_level: bool = False) -> Taxonomy:
    """A breadth-first tree whose class names add one to ``probes[0]`` each
    time a set or dict hashes them. Where the first two children of a class
    have leaves as first children, those leaves are declared disjoint, so
    the non-disjointness closure also recurses and prunes plain pairs. With
    ``every_level``, those first-cousin pairs are declared disjoint at every
    level, leaves or not, which gives the classes above them many
    partners."""

    class Name(str):
        def __hash__(self):
            probes[0] += 1
            # not the seeded string hash: the same set layout, and so the
            # same count, under every hash seed
            return int(self[1:])

    names = [Name(f"C{i}") for i in range(classes)]
    edges = [(names[i], names[(i - 1) // branching])
             for i in range(1, classes)]

    def first_child(i: int) -> int:
        return branching * i + 1

    disjoint = []
    for i in range(classes):
        x = first_child(first_child(i))
        y = first_child(first_child(i) + 1)
        if y < classes and (every_level or first_child(x) >= classes
                            and first_child(y) >= classes):
            disjoint.append((names[x], names[y]))
    return Taxonomy(ClassGraph(names, edges), disjoint)


def pruning_probes_per_candidate(classes: int,
                                 every_level: bool = False) -> dict:
    probes = [0]
    tax = probed_tree(classes, 4, probes, every_level)
    out = {}
    for assume in (assume_disjointness, assume_nondisjointness):
        probes[0] = 0
        candidates = len(assume(tax, CurationFile.empty(), prune=False))
        unpruned = probes[0]
        probes[0] = 0
        assume(tax, CurationFile.empty())
        out[assume.__name__] = (probes[0] - unpruned) / candidates
    return out


def test_pruning_work_grows_linearly_with_the_candidates():
    # pruning asks one pair query per candidate; with 4x the classes (and
    # so about 4x the candidates) a query must not look at 4x the pairs
    small = pruning_probes_per_candidate(500)
    large = pruning_probes_per_candidate(2000)
    for assume, per_candidate in small.items():
        assert large[assume] < 1.5 * per_candidate, (assume, small, large)
    # with first cousins disjoint at every level, the classes above them
    # have many partners, and non-disjointness pruning's probes per
    # candidate went from 43 at 500 classes to 85 at 2000: not linear, so
    # this shape is held to its counts at 2000 classes, a regression bound
    partner_heavy = pruning_probes_per_candidate(2000, every_level=True)
    for assume, bound in (("assume_disjointness", 31),
                          ("assume_nondisjointness", 86)):
        assert partner_heavy[assume] <= bound, (assume, partner_heavy)


def test_assume_nondisjointness_respects_curated_disjointness(
        blood_cell_ontology):
    tax = build_taxonomy(blood_cell_ontology)
    unfixed = assume_nondisjointness(tax, CurationFile.empty())
    assert [kif.serialize_formula(ax.formula) for ax in unfixed] == \
        ["($inheritableNonDisjoint RedBloodCell WhiteBloodCell)"]
    fix = CurationFile.from_pairs(disjoint=[("RedBloodCell", "WhiteBloodCell")])
    assert assume_nondisjointness(tax, fix) == []


def test_nondisjointness_pruning_ignores_curated_facts_it_does_not_write():
    # this mode writes only curated $disjoint facts, so the curated
    # (X2, y) compatibility cannot stand in for the (x, y) fact
    ontology = kif.parse_kif("($subclass x P)\n($subclass y P)\n($subclass x X2)")
    curation = load_curation("($inheritableNonDisjoint X2 y)")
    for prune in (True, False):
        closed = apply_closure(ontology, SUBCLASS_NONDISJOINT, curation,
                               prune=prune)
        assert build_taxonomy(closed).pair_status("x", "y") == NONDISJOINT


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
    assert text == ("($nonDisjoint Organism SentientAgent)\n"
                    "($inheritableNonDisjoint Birth Death)\n"
                    "($disjoint RedBloodCell WhiteBloodCell)\n")
    assert load_curation(text) == cur
    assert load_curation("") == CurationFile.empty()
    plain = ("(nonDisjoint Organism SentientAgent)\n"
             "(inheritableNonDisjoint Birth Death)\n"
             "(disjoint RedBloodCell WhiteBloodCell)\n")
    assert load_curation(plain) == cur
    # each kind sorted; names that join to the same text keep two ids
    joined = CurationFile.from_pairs(disjoint=[("A_B", "C"), ("B", "A"),
                                               ("A", "B_C")])
    assert serialize_curation(joined) == (
        "($disjoint A B)\n($disjoint A B_C)\n($disjoint A_B C)\n")


def test_curation_rejects_bad_entries():
    with pytest.raises(CurationError):
        load_curation("($subclass A B)")
    with pytest.raises(CurationError):
        load_curation("($$nonDisjoint A B)")
    with pytest.raises(CurationError):
        load_curation("($nonDisjoint A B)\n($disjoint A B)")
    with pytest.raises(CurationError):
        CurationFile.from_pairs(nondisjoint=[("A", "A")])


def test_curation_naming_an_undeclared_class_warns_once(organism_process):
    fresh = load_curation("($disjoint Fresh Birth)")
    declared = load_curation("($disjoint Death Birth)")
    for mode in (SUBCLASS_DISJOINT, SUBCLASS_NONDISJOINT):
        for curation, expected in (
                (fresh, ["curation names classes the ontology does not "
                         "declare: Fresh"]),
                (declared, [])):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                apply_closure(organism_process, mode, curation)
            assert [str(w.message) for w in caught] == expected, mode


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
    assert advice.candidates == CurationFile.empty()


def test_suggest_curation_nondisjoint_mode_reports(blood_cell_ontology):
    tax = build_taxonomy(blood_cell_ontology)
    advice = suggest_curation(tax, SUBCLASS_NONDISJOINT)
    assert advice.candidates == CurationFile.empty()
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


@pytest.mark.parametrize("name", [
    "class-named-X", "organism_process.kif", "agent.kif", "blood_cell.kif",
    "sound_process.kif",
])
def test_closed_ontology_reads_back_as_written(name):
    # a class named X, which the completion axioms would otherwise bind
    text = ("($subclass X T) ($subclass A X) ($subclass B X)"
            if name == "class-named-X" else (DATA_DIR / name).read_text())
    ontology = kif.parse_kif(text)
    for mode in MODES:
        with warnings.catch_warnings():  # undecided sibling pairs
            warnings.simplefilter("ignore", UserWarning)
            closed = apply_closure(ontology, mode)
        reread = kif.parse_kif(kif.serialize_kif(closed))
        assert [ax.formula for ax in reread] == \
            [ax.formula for ax in closed], mode


def test_apply_closure_unknown_mode(organism_process):
    with pytest.raises(ValueError):
        apply_closure(organism_process, "open-world")


def test_pair_axiom_ids_never_collide():
    # with a plain "_" between the names, A_B/C and A/B_C both gave
    # A_B_C, and A_/B and A/_B both gave A__B
    joined = [("A_B", "C"), ("A", "B_C"), ("A_", "B"), ("A", "_B")]
    for prefix in ("cwad", "cwan_ind", "cwan_nd", "cur_nd", "cur_ind",
                   "cur_dis"):
        ids = {_unit("$disjoint", p, prefix, "curation").id for p in joined}
        assert len(ids) == len(joined), prefix
        # names without "_" keep the ids they had
        assert _unit("$disjoint", ("A", "C"), prefix, "curation").id == \
            f"{prefix}_A_C"
    siblings = kif.parse_kif("($subclass A_B T) ($subclass C T) "
                             "($subclass A T) ($subclass B_C T)")
    closed = apply_closure(siblings, SUBCLASS_DISJOINT)
    assert {"cwad_A_;B_C", "cwad_A_B_;C"} <= {ax.id for ax in closed}
    both = kif.parse_kif("($subclass A_B T) ($subclass C T) ($subclass A T) "
                         "($subclass B_C T) ($subclass D A_B) ($subclass D C) "
                         "($subclass E A) ($subclass E B_C)")
    closed = apply_closure(both, SUBCLASS_NONDISJOINT)
    assert {"cwan_ind_A_;B_C", "cwan_ind_A_B_;C"} <= {ax.id for ax in closed}
    curation = CurationFile.from_pairs(disjoint=joined)
    assert load_curation(serialize_curation(curation)) == curation


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


def test_every_closed_ontology_has_the_witness_model():
    # the closure adds answers without making a consistent ontology
    # inconsistent: every axiom it returns, and the background axioms that
    # give the predicates their meaning, hold in one finite model, and so
    # does every test the oracle proves
    background = model_background()
    rng, curation_rng = random.Random(5151), random.Random(5252)
    curated = 0
    for round_ in range(120):
        ontology = taxonomy_to_ontology(
            witness_oracle.random_taxonomy(rng, max_classes=7))
        tax = build_taxonomy(ontology)
        curation = with_curated_disjoint(
            curation_rng, tax, suggest_curation(tax, SUBCLASS_DISJOINT).candidates)
        curated += bool(curation.disjoint)
        for mode in MODES:
            closed = apply_closure(ontology, mode, curation, tax=tax)
            model = WitnessModel(closed)
            for ax in (*closed, *background):
                assert model.holds(ax.formula), (round_, mode, ax)
            oracle_tax = build_taxonomy(closed)
            for a in sorted(oracle_tax.classes):
                for b in sorted(oracle_tax.classes):
                    for cq in (overlap_cq(a, b), subset_cq(a, b),
                               antonymy_cq(a, b)):
                        verdict = oracle_verdict(oracle_tax, cq)
                        where = (round_, mode, cq.id)
                        if verdict.truth.proved:
                            assert model.holds(cq.conjecture), where
                        if verdict.falsity.proved:
                            assert not model.holds(cq.conjecture), where
    assert curated > 30


def test_every_emitted_closed_axiom_holds_in_the_witness_model(tmp_path):
    # the same model check on what a prover reads: each line of the axiom
    # block of a closed ontology and the background axioms, read back
    # through the block's table, and the conjecture line of the problem
    # of every test the oracle proves
    background = model_background()
    rng, curation_rng = random.Random(6161), random.Random(6262)
    inputs = [kif.parse_kif(ADVERSARIAL_NAMES)] + [
        taxonomy_to_ontology(witness_oracle.random_taxonomy(rng, max_classes=7))
        for _ in range(30)]
    proved = Counter()
    for round_, ontology in enumerate(inputs):
        tax = build_taxonomy(ontology)
        curation = with_curated_disjoint(
            curation_rng, tax, suggest_curation(tax, SUBCLASS_DISJOINT).candidates)
        for mode in MODES:
            closed = apply_closure(ontology, mode, curation, tax=tax)
            model = WitnessModel(closed)
            block = AxiomBlock(kif.Ontology([*closed, *background]))
            read = read_problem(block.text, block.table.demangle)
            assert len(read) == len(closed) + len(background)
            for name, _, formula in read:
                assert model.holds(formula), (round_, mode, name)
            if round_ > 5:  # problem files cost time: six inputs suffice
                continue
            oracle_tax = build_taxonomy(closed)
            names = sorted(oracle_tax.classes)
            for shape, question in (("overlap", overlap_cq),
                                    ("subset", subset_cq),
                                    ("distinct", antonymy_cq)):
                for cq in (question(a, b) for a in names for b in names):
                    verdict = oracle_verdict(oracle_tax, cq)
                    for polarity, outcome in ((TRUTH, verdict.truth),
                                              (FALSITY, verdict.falsity)):
                        if not outcome.proved:
                            continue
                        problem = write_problem(block, cq, polarity, tmp_path)
                        [(_, role, conjecture)] = read_problem(
                            problem.read_text().splitlines()[-1],
                            block.table.demangle)
                        where = (round_, mode, cq.id, polarity)
                        assert role == "conjecture", where
                        assert model.holds(conjecture), where
                        proved[shape, polarity] += 1
    assert len(proved) == 6, proved


def test_every_open_oracle_answer_has_a_countermodel():
    # the other direction: no prover could answer a test the oracle leaves
    # open, since a finite model of the closed axioms and the background
    # axioms makes the test fail. The candidates are the witness model and,
    # for each pair of classes, the witness model with one more object in
    # every class above either; a candidate counts once every axiom holds
    # in it. Subset falsity tests are left out: the oracle leaves some of
    # them open that the closed axioms entail, and they join this test
    # once the oracle decides them exactly.
    background = model_background()
    rng, curation_rng = random.Random(7171), random.Random(7272)
    certified, models_kept = Counter(), 0
    for round_ in range(20):
        ontology = taxonomy_to_ontology(
            witness_oracle.random_taxonomy(rng, max_classes=7))
        tax = build_taxonomy(ontology)
        curation = with_curated_disjoint(
            curation_rng, tax, suggest_curation(tax, SUBCLASS_DISJOINT).candidates)
        for mode in MODES:
            closed = apply_closure(ontology, mode, curation, tax=tax)
            axioms = [ax.formula for ax in (*closed, *background)]
            oracle_tax = build_taxonomy(closed)
            names = sorted(oracle_tax.classes)
            base = WitnessModel(closed)
            # an extra witness whose placement the model has already is
            # merged, which leaves the model as it is
            candidates = [base] + [
                model for model in (WitnessModel(closed, [(a, b)])
                                    for i, a in enumerate(names)
                                    for b in names[i + 1:])
                if len(model.domain) > len(base.domain)]
            models = [model for model in candidates
                      if all(model.holds(f) for f in axioms)]
            models_kept += len(models)
            for shape, question in (("overlap", overlap_cq),
                                    ("subset", subset_cq),
                                    ("distinct", antonymy_cq)):
                for cq in (question(a, b) for a in names for b in names):
                    verdict = oracle_verdict(oracle_tax, cq)
                    where = (round_, mode, cq.id)
                    if not verdict.truth.proved:
                        assert not all(model.holds(cq.conjecture)
                                       for model in models), (*where, TRUTH)
                        certified[shape, TRUTH] += 1
                    if not verdict.falsity.proved and shape != "subset":
                        assert any(model.holds(cq.conjecture)
                                   for model in models), (*where, FALSITY)
                        certified[shape, FALSITY] += 1
    assert len(certified) == 5, certified
    assert models_kept > 20 * len(MODES), models_kept  # extra witnesses count


def test_input_taxonomy_with_appended_facts_equals_a_rebuild():
    # what cmd_pipeline hands the oracle in place of build_taxonomy(closed)
    rng = random.Random(4242)
    for round_ in range(12):
        base = witness_oracle.random_taxonomy(rng, max_classes=9)
        ontology = taxonomy_to_ontology(base)
        tax = build_taxonomy(ontology)
        curations = [None, suggest_curation(tax, SUBCLASS_DISJOINT).candidates]
        if round_ % 3 == 0:
            # a curated pair naming a class the ontology lacks
            curations.append(CurationFile.from_pairs(
                disjoint=[("Fresh", sorted(tax.classes)[0])]))
        for curation in curations:
            for mode in (OWA, SUBCLASS_ONLY, SUBCLASS_DISJOINT,
                         SUBCLASS_NONDISJOINT):
                for prune in (True, False):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        closed = apply_closure(ontology, mode, curation,
                                               prune=prune, tax=tax)
                        appended = closed.axioms[len(ontology):]
                        shortcut = tax.with_axioms(appended)
                    rebuilt = build_taxonomy(closed)
                    where = (round_, mode, prune, curation)
                    assert shortcut.classes == rebuilt.classes, where
                    for attr in ("explicit_disjoint", "explicit_nondisjoint",
                                 "explicit_inheritable", "instance_facts"):
                        assert getattr(shortcut, attr) == \
                            getattr(rebuilt, attr), (where, attr)
                    names = sorted(rebuilt.classes)
                    for a in names:
                        for b in names:
                            assert shortcut.subclass_closed(a, b) == \
                                rebuilt.subclass_closed(a, b), where
                            if a == b:
                                continue
                            assert shortcut.pair_status(a, b) == \
                                rebuilt.pair_status(a, b), (where, a, b)
                            assert shortcut.explicitly_nondisjoint(a, b) == \
                                rebuilt.explicitly_nondisjoint(a, b), where
                    named = {c for ax in appended
                             if isinstance(ax.formula, kif.Atom)
                             for c in (t.name for t in ax.formula.args)}
                    assert (shortcut._graph is tax._graph) == \
                        (named <= tax.classes), where


def test_appended_subclass_or_instance_facts_are_refused(organism_process):
    tax = build_taxonomy(organism_process)
    for text in ("($subclass Birth Death)", "($subclass Birth Birth)",
                 "($instance birth1 Birth)"):
        with pytest.raises(TaxonomyError, match="pair facts only"):
            tax.with_axioms(kif.parse_kif(text))
    assert tax.with_axioms(kif.parse_kif("(=> (p ?X) (q ?X))")) is tax


def test_default_sibling_pairs_flip_between_modes(organism_process):
    disjoint_tax = build_taxonomy(
        apply_closure(organism_process, SUBCLASS_DISJOINT))
    compatible_tax = build_taxonomy(
        apply_closure(organism_process, SUBCLASS_NONDISJOINT))
    base_tax = build_taxonomy(organism_process)
    for a, b in base_tax.sibling_pairs():
        assert disjoint_tax.pair_status(a, b) == DISJOINT
        assert compatible_tax.pair_status(a, b) == NONDISJOINT
