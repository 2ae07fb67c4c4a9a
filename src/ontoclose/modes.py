"""The four ontology variants' names, in the paper's order.

This module imports nothing, so the command-line parser can offer the
modes as choices without loading the closure machinery.
"""

OWA = "owa"
SUBCLASS_ONLY = "subclass-only"
SUBCLASS_DISJOINT = "subclass+disjointness"
SUBCLASS_NONDISJOINT = "subclass+nondisjointness"
MODES = (OWA, SUBCLASS_ONLY, SUBCLASS_DISJOINT, SUBCLASS_NONDISJOINT)
