"""Build the structural graph of an ontology and query what it decides.

Ground ``subclass`` / ``disjoint`` / ``nonDisjoint`` /
``inheritableNonDisjoint`` facts become a class graph. Disjointness flows
down to subclasses; compatibility (shared instances) flows up to
superclasses. Every pair of classes is then disjoint, nondisjoint, open,
or in conflict.
"""

from ontoclose import kif
from ontoclose.taxonomy import build_taxonomy

ONTOLOGY_TEXT = """
($subclass Organism Agent)
($subclass SentientAgent Agent)
($subclass Human Organism)
($subclass Human SentientAgent)
($subclass Plant Organism)
($disjoint Plant SentientAgent)
(partition Process BiologicalProcess IntentionalProcess)
"""

tax = build_taxonomy(kif.parse_kif(ONTOLOGY_TEXT))
print(f"classes: {', '.join(sorted(tax.classes))}")

# ---------------------------------------------------------------------------
# Reachability is reflexive and transitive.
print(f"\nHuman below Agent? {tax.subclass_closed('Human', 'Agent')}")
print(f"direct subclasses of Agent: {sorted(tax.direct_subclasses('Agent'))}")

# ---------------------------------------------------------------------------
# partition statements expand into pairwise disjointness of the parts.
print(f"\nBiologicalProcess vs IntentionalProcess: "
      f"{tax.pair_status('BiologicalProcess', 'IntentionalProcess')}")

# ---------------------------------------------------------------------------
# A shared subclass makes two classes compatible; an explicitly disjoint
# subclass pair does not stop that (Human witnesses the overlap).
print(f"Organism vs SentientAgent: "
      f"{tax.pair_status('Organism', 'SentientAgent')}")
# Disjointness inherits downward: Plant clashes with everything under
# SentientAgent.
print(f"Plant vs Human: {tax.pair_status('Plant', 'Human')}")
# Nothing decides these two, so they stay open.
print(f"Plant vs BiologicalProcess: "
      f"{tax.pair_status('Plant', 'BiologicalProcess')}")

# ---------------------------------------------------------------------------
# An explicitly disjoint pair that shares a descendant would be a conflict.
print(f"\nconflicts: {tax.find_conflicts()}")

# ---------------------------------------------------------------------------
# The graph exports for external inspection.
print("\nDOT preview:")
print("\n".join(tax.to_dot().splitlines()[:5]) + "\n  ...")
