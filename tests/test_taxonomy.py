import random

import pytest

from ontoclose import kif
from ontoclose.taxonomy import (
    CONFLICT, DISJOINT, NONDISJOINT, OPEN,
    SubclassCycleError, Taxonomy, TaxonomyError, UnknownClassError,
    build_taxonomy, pair,
)

from conftest import ORGANISM_SUBCLASSES, call_depth_limit, subclass_chain
import witness_oracle


def tax_of(text: str) -> Taxonomy:
    return build_taxonomy(kif.parse_kif(text))


# ---------------------------------------------------------------------------
# Harvesting
# ---------------------------------------------------------------------------

def test_build_from_fixture(organism_process):
    tax = build_taxonomy(organism_process)
    assert len(tax.classes) == 11
    assert tax.direct_subclasses("OrganismProcess") == frozenset(ORGANISM_SUBCLASSES)
    assert sum(len(tax.direct_subclasses(c)) for c in tax.classes) == 10
    assert tax.direct_subclasses("Birth") == frozenset()


def test_partition_expands_to_disjoint_pairs():
    tax = tax_of("(partition A B C D)")
    assert tax.explicit_disjoint == {("B", "C"), ("B", "D"), ("C", "D")}
    assert tax.classes == {"A", "B", "C", "D"}


def test_disjoint_decomposition_expands_like_partition():
    tax = tax_of("($disjointDecomposition Cell RedBloodCell WhiteBloodCell)")
    assert tax.explicit_disjoint == {("RedBloodCell", "WhiteBloodCell")}


def test_empty_ontology_gives_empty_taxonomy():
    tax = build_taxonomy(kif.Ontology())
    assert tax.classes == frozenset()
    assert list(tax.sibling_pairs()) == []


def test_dollar_and_plain_spellings_are_synonyms():
    tax = tax_of("($subclass A B)\n(subclass C B)\n(disjoint A C)\n"
                 "($$subclass D B)")
    assert tax.direct_subclasses("B") == {"A", "C"}
    assert tax.explicit_disjoint == {("A", "C")}
    assert "D" not in tax.classes  # only one "$" is a spelling


def test_quantified_axioms_are_not_harvested():
    tax = tax_of(
        "(forall (?X ?Y) (=> ($subclass ?X ?Y) ($subclass ?X ?Y)))\n"
        "($subclass A B)")
    assert tax.classes == {"A", "B"}


def test_instance_facts_collected_but_objects_are_not_classes():
    tax = tax_of("($instance socrates Human)")
    assert tax.instance_facts == {("socrates", "Human")}
    assert tax.classes == {"Human"}


def test_cycle_is_rejected():
    with pytest.raises(SubclassCycleError):
        tax_of("($subclass A B)\n($subclass B C)\n($subclass C A)")


def test_reachability_needs_no_call_per_level():
    ontology = kif.parse_kif(subclass_chain("Top", "C", 300))
    with call_depth_limit(100):
        tax = build_taxonomy(ontology)
    assert len(tax.down("Top")) == 301
    assert len(tax.up("C300")) == 301
    assert tax.subclass_closed("C300", "Top")
    assert not tax.subclass_closed("Top", "C1")


def test_reflexive_edge_is_ignored():
    tax = tax_of("($subclass A A)\n($subclass A B)")
    assert tax.subclass_closed("A", "A")
    assert tax.direct_subclasses("B") == {"A"}


@pytest.mark.parametrize("text", [
    "($subclass A)",
    "($disjoint A B C)",
    "($disjoint A A)",
    "(partition A)",
    "(partition P A A)",
])
def test_malformed_structural_atoms(text):
    with pytest.raises(TaxonomyError):
        tax_of(text)


def test_explicitly_contradictory_pairs_rejected():
    with pytest.raises(TaxonomyError):
        tax_of("($disjoint A B)\n($nonDisjoint A B)")


def test_auto_declared_classes_warn():
    with pytest.warns(UserWarning, match="auto-declaring"):
        Taxonomy(["A"], subclass_edges=[("B", "A")])


# ---------------------------------------------------------------------------
# Reachability
# ---------------------------------------------------------------------------

def test_subclass_closed_fixture(organism_process):
    tax = build_taxonomy(organism_process)
    assert tax.subclass_closed("Birth", "OrganismProcess")
    assert not tax.subclass_closed("OrganismProcess", "Birth")
    for c in tax.classes:
        assert tax.subclass_closed(c, c)


def test_unknown_class_queries_raise(organism_process):
    tax = build_taxonomy(organism_process)
    with pytest.raises(UnknownClassError):
        tax.subclass_closed("Birth", "Nope")
    with pytest.raises(UnknownClassError):
        tax.direct_subclasses("Nope")
    with pytest.raises(UnknownClassError):
        tax.pair_status("Nope", "Birth")


def test_reachability_matches_floyd_warshall_on_random_dags():
    rng = random.Random(1234)
    for _ in range(25):
        tax = witness_oracle.random_taxonomy(rng)
        reach = witness_oracle.floyd_warshall_reachable(tax)
        for a in tax.classes:
            for b in tax.classes:
                assert tax.subclass_closed(a, b) == reach[(a, b)]


def test_direct_subclasses_match_edge_scan_on_random_dags():
    rng = random.Random(99)
    for _ in range(25):
        tax = witness_oracle.random_taxonomy(rng)
        tsv = tax.to_edge_tsv()
        edges = [tuple(line.split("\t")) for line in tsv.splitlines()]
        for c in tax.classes:
            assert tax.direct_subclasses(c) == {s for s, p in edges if p == c}


# ---------------------------------------------------------------------------
# Pair status
# ---------------------------------------------------------------------------

def test_disjointness_inherits_downward():
    tax = tax_of("($disjoint Reciting Breathing)\n($subclass Exhaling Breathing)")
    assert tax.pair_status("Reciting", "Exhaling") == DISJOINT


def test_common_subclass_makes_nondisjoint(agent_ontology):
    tax = build_taxonomy(agent_ontology)
    assert tax.pair_status("Organism", "SentientAgent") == NONDISJOINT


def test_fresh_classes_are_open():
    tax = Taxonomy(["A", "B"])
    assert tax.pair_status("A", "B") == OPEN


def test_subclass_related_pairs_are_nondisjoint(organism_process):
    tax = build_taxonomy(organism_process)
    assert tax.pair_status("Birth", "OrganismProcess") == NONDISJOINT


def test_nondisjoint_propagates_upward_only():
    tax = tax_of(
        "($subclass Stating Speaking)\n($subclass Reciting Speaking)\n"
        "($nonDisjoint Stating Reciting)")
    assert tax.pair_status("Speaking", "Stating") == NONDISJOINT
    assert tax.pair_status("Speaking", "Reciting") == NONDISJOINT


def test_inheritable_propagates_down_and_up():
    tax = tax_of(
        "($subclass Sub1 Top1)\n($subclass Sub2 Top2)\n"
        "($subclass Top1 Super1)\n"
        "($inheritableNonDisjoint Top1 Top2)")
    # downward to subclasses of both arguments
    assert tax.pair_status("Sub1", "Sub2") == NONDISJOINT
    # upward to superclasses
    assert tax.pair_status("Super1", "Top2") == NONDISJOINT
    # and composed: a superclass of a subclass of an argument
    tax2 = tax_of(
        "($subclass Low Top1)\n($subclass Low Other)\n"
        "($inheritableNonDisjoint Top1 Top2)")
    assert tax2.pair_status("Other", "Top2") == NONDISJOINT


def test_pair_status_symmetry_on_random_dags():
    rng = random.Random(7)
    for _ in range(20):
        tax = witness_oracle.random_taxonomy(rng)
        ordered = sorted(tax.classes)
        for a in ordered:
            for b in ordered:
                assert tax.pair_status(a, b) == tax.pair_status(b, a)


def test_status_invariants_on_random_dags():
    rng = random.Random(21)
    for _ in range(20):
        tax = witness_oracle.random_taxonomy(rng)
        ordered = sorted(tax.classes)
        for a in ordered:
            for b in ordered:
                status = tax.pair_status(a, b)
                if tax.subclass_closed(a, b):
                    assert status in (NONDISJOINT, CONFLICT)
                if tax.derived_disjoint(a, b):
                    for s in tax.down(a):
                        assert tax.derived_disjoint(s, b)
                if tax.derived_nondisjoint(a, b):
                    for p in tax.up(a):
                        assert tax.derived_nondisjoint(p, b)
                clashing_descendants = any(
                    tax.derived_disjoint(x, y)
                    for x in tax.down(a) for y in tax.down(b) if x != y)
                assert tax.has_pair_meeting(
                    a, b, tax.explicit_disjoint) == clashing_descendants
                for pairs in (tax.explicit_disjoint, tax.explicit_nondisjoint,
                              tax.explicit_inheritable):
                    assert tax.has_pair_above(a, b, pairs) == any(
                        (a in tax.down(p) and b in tax.down(q))
                        or (a in tax.down(q) and b in tax.down(p))
                        for p, q in pairs)
                    assert tax.has_pair_below(a, b, pairs) == any(
                        (a in tax.up(p) and b in tax.up(q))
                        or (a in tax.up(q) and b in tax.up(p))
                        for p, q in pairs)


def test_pair_status_equals_witness_enumeration_on_random_dags():
    rng = random.Random(5150)
    for _ in range(20):
        tax = witness_oracle.random_taxonomy(rng, max_classes=9)
        placements = witness_oracle.consistent_placements(tax)
        demands = witness_oracle.witness_demands(tax)
        for a in sorted(tax.classes):
            for b in sorted(tax.classes):
                if a >= b:
                    continue
                expected = witness_oracle.brute_pair_status(
                    tax, a, b, placements, demands)
                assert tax.pair_status(a, b) == expected, (a, b)


# ---------------------------------------------------------------------------
# Conflicts and curation probes
# ---------------------------------------------------------------------------

def test_find_conflicts_empty_on_fixture(organism_process):
    assert build_taxonomy(organism_process).find_conflicts() == []


def test_find_conflicts_detects_disjoint_with_common_subclass():
    tax = tax_of("($disjoint A B)\n($subclass C A)\n($subclass C B)")
    assert tax.find_conflicts() == [("A", "B")]
    # the witness enumeration confirms the shared subclass cannot be placed
    placements = witness_oracle.consistent_placements(tax)
    assert not any("C" in s for s in placements)


def test_empty_conflict_report_means_no_conflicting_status():
    rng = random.Random(404)
    for _ in range(20):
        tax = witness_oracle.random_taxonomy(rng, max_classes=8)
        ordered = sorted(tax.classes)
        any_conflict = any(
            tax.pair_status(a, b) == CONFLICT
            for i, a in enumerate(ordered) for b in ordered[i:])
        assert bool(tax.find_conflicts()) == any_conflict


def test_common_subclass_pairs(agent_ontology, organism_process):
    agent_tax = build_taxonomy(agent_ontology)
    assert agent_tax.common_subclass_pairs("Agent") == [("Organism", "SentientAgent")]
    org_tax = build_taxonomy(organism_process)
    assert org_tax.common_subclass_pairs("OrganismProcess") == []


def test_common_subclass_pairs_match_set_intersection_on_random_dags():
    rng = random.Random(31)
    for _ in range(20):
        tax = witness_oracle.random_taxonomy(rng)
        for c in sorted(tax.classes):
            kids = sorted(tax.direct_subclasses(c))
            expected = sorted(
                pair(a, b)
                for i, a in enumerate(kids) for b in kids[i + 1:]
                if tax.down(a) & tax.down(b))
            assert tax.common_subclass_pairs(c) == expected


def test_with_facts_merges_pairs(organism_process):
    tax = build_taxonomy(organism_process)
    merged = tax.with_facts(disjoint=[("Birth", "Death")])
    assert merged.pair_status("Birth", "Death") == DISJOINT
    assert tax.pair_status("Birth", "Death") == OPEN


def test_sibling_pairs_fixture(organism_process):
    tax = build_taxonomy(organism_process)
    pairs = list(tax.sibling_pairs())
    assert len(pairs) == 45
    assert ("Birth", "Death") in pairs
    assert pairs == sorted(pairs)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def test_edge_tsv_and_dot(organism_process):
    tax = build_taxonomy(organism_process)
    tsv = tax.to_edge_tsv()
    assert "Birth\tOrganismProcess" in tsv.splitlines()
    dot = tax.to_dot()
    assert dot.startswith("digraph taxonomy {")
    assert '"Birth" -> "OrganismProcess";' in dot
    assert dot.endswith("}\n")
