import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from ontoclose import kif, taxonomy
from ontoclose.taxonomy import (
    CONFLICT, DISJOINT, NONDISJOINT, OPEN,
    ClassGraph, PairSet, SubclassCycleError, Taxonomy, TaxonomyError,
    UnknownClassError, build_taxonomy, pair,
)

from conftest import ORGANISM_SUBCLASSES, call_depth_limit, subclass_chain
import witness_oracle

SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_cycle_message_does_not_depend_on_the_hash_seed():
    script = (
        "from ontoclose import kif, taxonomy\n"
        "text = '($subclass A B) ($subclass B C) ($subclass C A)"
        " ($subclass D A) ($subclass E F)'\n"
        "try:\n"
        "    taxonomy.build_taxonomy(kif.parse_kif(text))\n"
        "except taxonomy.SubclassCycleError as err:\n"
        "    print(err)\n")
    messages = set()
    for seed in range(1, 7):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        messages.add(done.stdout)
    # the classes on the cycle, in subclass order; D only reaches it
    assert messages == {"subclass cycle: A < B < C < A\n"}


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
    # a self-edge given to the constructor directly is skipped, not a cycle
    alone = Taxonomy(ClassGraph(["A"], [("A", "A")]))
    assert alone.down("A") == {"A"}
    assert alone.direct_subclasses("A") == frozenset()


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


def test_a_class_only_a_fact_names_is_declared_silently():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tax = Taxonomy(ClassGraph(["A"], [("B", "A")]))
    assert tax.classes == {"A", "B"}
    assert tax.subclass_closed("B", "A")


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
    tax = Taxonomy(ClassGraph(["A", "B"], ()))
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
    paths_seen = set()
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
        # random pools against a scan of every pair, with and without a
        # skipped pair; a query looks at each pair when its pool is smaller
        # than both related sets and walks the partners otherwise
        meeting = {c: {x for x in ordered if tax.down(x) & tax.down(c)}
                   for c in ordered}
        queries = (
            (tax.has_pair_above, {c: tax.up(c) for c in ordered}),
            (tax.has_pair_below, {c: tax.down(c) for c in ordered}),
            (tax.has_pair_meeting, meeting))
        all_pairs = [pair(a, b) for i, a in enumerate(ordered)
                     for b in ordered[i + 1:]]
        for size in {1, 2, len(all_pairs) // 2, len(all_pairs)}:
            pool = PairSet(rng.sample(all_pairs, min(size, len(all_pairs))))
            for a in ordered:
                for b in ordered:
                    for has_pair, related in queries:
                        looked_at_each = len(pool) < min(len(related[a]),
                                                         len(related[b]))
                        paths_seen.add(looked_at_each)
                        for skip in (None, *sorted(pool)[:2]):
                            expected = any(
                                ((p in related[a] and q in related[b])
                                 or (p in related[b] and q in related[a]))
                                and (p, q) != skip for p, q in pool)
                            assert has_pair(a, b, pool, skip) == expected
    assert paths_seen == {True, False}


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
    assert tax.pair_status("A", "B") == CONFLICT
    assert tax.pair_status("B", "A") == CONFLICT
    # the witness enumeration confirms the shared subclass cannot be placed
    placements = witness_oracle.consistent_placements(tax)
    assert not any("C" in s for s in placements)


def test_find_conflicts_detects_disjoint_with_shared_instance():
    tax = tax_of("($disjoint A B)\n($instance o A)\n($instance o B)")
    assert tax.find_conflicts() == [("A", "B")]


def test_shared_instance_makes_a_pair_nondisjoint_upward():
    tax = tax_of("($subclass A Top)\n($subclass B Top)\n($subclass A1 A)\n"
                 "($instance o A1)\n($instance o B)\n($instance p Top)")
    assert tax.pair_status("A1", "B") == NONDISJOINT
    assert tax.pair_status("A", "B") == NONDISJOINT
    assert tax.explicitly_nondisjoint("A", "B")
    assert tax.instance_facts == {("o", "A1"), ("o", "B"), ("p", "Top")}


def test_empty_conflict_report_means_no_conflicting_status():
    rng = random.Random(404)
    for _ in range(20):
        tax = witness_oracle.random_taxonomy(rng, max_classes=8)
        ordered = sorted(tax.classes)
        any_conflict = any(
            tax.pair_status(a, b) == CONFLICT
            for i, a in enumerate(ordered) for b in ordered[i:])
        assert bool(tax.find_conflicts()) == any_conflict


def test_with_facts_merges_pairs(organism_process):
    tax = build_taxonomy(organism_process)
    merged = tax.with_facts(disjoint=[("Birth", "Death")])
    assert merged.pair_status("Birth", "Death") == DISJOINT
    assert tax.pair_status("Birth", "Death") == OPEN


def test_with_facts_declares_a_class_only_a_pair_names():
    tax = Taxonomy(ClassGraph(["A", "B"], [("B", "A")]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        merged = tax.with_facts(disjoint=[("A", "New")])
    assert "New" in merged.classes
    assert merged.up("New") == {"New"}
    assert merged.pair_status("A", "New") == DISJOINT
    assert merged.pair_status("B", "New") == DISJOINT
    with pytest.raises(UnknownClassError):
        tax.pair_status("A", "New")


def test_with_axioms_declares_a_new_class_silently():
    # as a rebuild declares it; a curated pair naming the class already
    # warned once when the curation was merged
    text = "($subclass Birth Process)\n($subclass Death Process)\n"
    added = "($disjoint Fresh Birth)\n($inheritableNonDisjoint Fresh Death)\n"
    tax = tax_of(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        merged = tax.with_axioms(kif.parse_kif(added))
        fresh = tax_of(text + added)
    assert merged.classes == fresh.classes == tax.classes | {"Fresh"}
    for attr in ("explicit_disjoint", "explicit_nondisjoint",
                 "explicit_inheritable", "instance_facts"):
        assert getattr(merged, attr) == getattr(fresh, attr), attr
    everything = sorted(fresh.classes)
    for a in everything:
        for b in everything:
            assert merged.subclass_closed(a, b) == fresh.subclass_closed(a, b)
            assert merged.pair_status(a, b) == fresh.pair_status(a, b)


def test_with_facts_equals_a_fresh_build_on_random_dags():
    rng = random.Random(77)
    for round_ in range(20):
        tax = witness_oracle.random_taxonomy(rng)
        ordered = sorted(tax.classes)
        explicit = (tax.explicit_disjoint | tax.explicit_nondisjoint
                    | tax.explicit_inheritable)
        free = [pair(a, b) for i, a in enumerate(ordered)
                for b in ordered[i + 1:] if pair(a, b) not in explicit]
        added: list = [[], [], []]
        for p in rng.sample(free, min(4, len(free))):
            added[rng.randrange(3)].append(p)
        if round_ % 2:
            # a class no subclass fact names
            added[rng.randrange(3)].append((rng.choice(ordered), "New"))
        edges = [(sub, sup) for sup in ordered
                 for sub in tax.direct_subclasses(sup)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            merged = tax.with_facts(*added)
            fresh = Taxonomy(
                ClassGraph(tax.classes, edges),
                tax.explicit_disjoint | set(added[0]),
                tax.explicit_nondisjoint | set(added[1]),
                tax.explicit_inheritable | set(added[2]), tax.instance_facts)
        assert merged.classes == fresh.classes
        # the class graph is shared unless a pair names a new class
        assert (merged._graph is tax._graph) == ("New" not in fresh.classes)
        everything = sorted(fresh.classes)
        for a in everything:
            for b in everything:
                assert merged.pair_status(a, b) == fresh.pair_status(a, b)
                assert merged.explicitly_nondisjoint(a, b) == \
                    fresh.explicitly_nondisjoint(a, b)


def test_one_class_graph_per_build(monkeypatch):
    built = []

    class CountedGraph(taxonomy.ClassGraph):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(taxonomy, "ClassGraph", CountedGraph)
    # pair and instance facts name classes that no subclass fact names
    tax = tax_of("($subclass B A)\n($disjoint C D)\n($nonDisjoint A E)\n"
                 "($inheritableNonDisjoint B F)\n($instance g G)")
    assert len(built) == 1
    assert tax.classes == set("ABCDEFG")
    merged = tax.with_facts(disjoint=[("A", "C")], nondisjoint=[("B", "D")],
                            inheritable_nondisjoint=[("E", "G")])
    assert len(built) == 1
    assert merged._graph is tax._graph
    extended = tax.with_facts(nondisjoint=[("A", "New")])
    assert len(built) == 2
    assert extended.classes == tax.classes | {"New"}
    assert extended.subclass_closed("B", "A")


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


def test_dot_draws_each_kind_of_pair():
    tax = Taxonomy(ClassGraph("ABCD", [("B", "A")]), disjoint=[("D", "B")],
                   nondisjoint=[("C", "B")],
                   inheritable_nondisjoint=[("D", "C")])
    assert tax.to_dot() == (
        'digraph taxonomy {\n'
        '  "A";\n'
        '  "B";\n'
        '  "C";\n'
        '  "D";\n'
        '  "B" -> "A";\n'
        '  "B" -> "D" [dir=none, style=dashed, label="disjoint"];\n'
        '  "B" -> "C" [dir=none, style=dotted, label="nonDisjoint"];\n'
        '  "C" -> "D" [dir=none, style=dotted, label="inheritableNonDisjoint"];\n'
        '}\n')
