"""Parse an ontology, walk its structure, and measure its size.

The input format is parenthesized prefix notation with ``;`` comments.
Everything round-trips: parsing the serializer's output gives back a
structurally identical ontology.
"""

from ontoclose import kif

ONTOLOGY_TEXT = """
; a tiny taxonomy of processes
($subclass Birth OrganismProcess)
($subclass Death OrganismProcess)
($disjoint Reciting Breathing)

; subclass is transitive
(forall (?X ?Y ?Z)
  (=> (and ($subclass ?X ?Y) ($subclass ?Y ?Z)) ($subclass ?X ?Z)))
"""

# ---------------------------------------------------------------------------
# Parsing gives an ordered axiom list; each axiom remembers where it came from.
ontology = kif.parse_kif(ONTOLOGY_TEXT, source_name="demo")
print(f"parsed {len(ontology)} axioms")
for axiom in ontology:
    print(f"  {axiom.id:8} {axiom.source:10} "
          f"{kif.serialize_formula(axiom.formula)}")

# ---------------------------------------------------------------------------
# Serialization is deterministic and re-parseable.
text = kif.serialize_kif(ontology)
assert [ax.formula for ax in kif.parse_kif(text)] == \
    [ax.formula for ax in ontology]
print("\nround trip ok")

# ---------------------------------------------------------------------------
# Size metrics count axioms, unit clauses, atoms, quantifier blocks and
# connectives in one traversal; the CSV row is ready for spreadsheets.
stats = kif.count_metrics(ontology)
print(f"\natoms={stats.atom_count} unit_clauses={stats.unit_clause_count} "
      f"formulas={stats.formula_count}")
print(kif.SizeStats.csv_header())
print(stats.as_csv_row())

# ---------------------------------------------------------------------------
# Malformed input fails with a line and column.
try:
    kif.parse_kif("(=> only-one-operand)")
except kif.KifSyntaxError as error:
    print(f"\nrejected bad input: {error}")
