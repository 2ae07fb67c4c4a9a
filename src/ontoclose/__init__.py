"""Closed-world augmentation and competency evaluation for first-order
SUMO-style ontologies.

The package imports none of its modules: import the ones you use, for
example ``from ontoclose.closure import apply_closure``.
"""

__version__ = "0.1.0"
