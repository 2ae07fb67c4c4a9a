"""Formulas compared up to bound-variable names and operand order.

Tests compare a generated formula with a hand-written one through
``normalize``, and a round-tripped ontology with its source through
``structurally_equal``.
"""

from ontoclose import kif
from ontoclose.kif import And, Atom, Equal, Or


def structurally_equal(a: kif.Ontology, b: kif.Ontology) -> bool:
    """The same formulas in the same order, whatever the ids."""
    return [ax.formula for ax in a] == [ax.formula for ax in b]


def alpha_key(formula: kif.Formula) -> str:
    """Serialized form with canonically renamed bound variables."""
    return kif.serialize_formula(kif.rename_bound(formula), width=10 ** 9)


def _sort_parts(f: kif.Formula) -> kif.Formula:
    """The formula with equality operands and and/or operands sorted."""
    if isinstance(f, Equal):
        return Equal(*sorted((f.left, f.right),
                             key=lambda t: (t.kind, t.name)))
    if isinstance(f, Atom):
        return f
    parts = [_sort_parts(p) for p in kif.children(f)]
    if isinstance(f, (And, Or)):
        return type(f)(tuple(sorted(parts, key=alpha_key)))
    if isinstance(f, (kif.Forall, kif.Exists)):
        return type(f)(f.variables, *parts)
    return type(f)(*parts)


def normalize(formula: kif.Formula) -> kif.Formula:
    """Canonical form: bound variables renamed, commutative connective
    operands sorted, then bound variables renamed again in the new order.
    Two formulas equal up to variable names and and/or/equal operand order
    normalize identically."""
    # renamed first to names that sort in binding order and differ from
    # alpha_key's, so that the operands sort alike whatever the original
    # names
    ordered = kif.rename_bound(formula, (f"_n{i:09d}" for i in range(10 ** 9)))
    return kif.rename_bound(_sort_parts(ordered))
