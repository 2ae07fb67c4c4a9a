"""A finite model of a closed ontology, built from its structural facts.

The domain holds the classes and witness objects. Each demanded overlap
gets an object placed in every class above either of its two classes:
each class with itself, each explicit ``$nonDisjoint`` pair, and each
descendant combination of an ``$inheritableNonDisjoint`` pair (objects
with one placement are merged). Then:

* ``$subclass`` is reachability over the direct edges, reflexive on every
  element;
* ``$instance o x`` holds when ``x`` is in ``o``'s placement, and each
  object is an instance of itself, so every element is inhabited;
* ``$disjoint x y`` holds when no object is an instance of both;
* ``$nonDisjoint`` is the explicit set, and ``$inheritableNonDisjoint``
  its closure down both sides.

When the ontology's taxonomy is free of conflicts, this is a model of its
structural facts, of the closure's support, completion and assumption
axioms, and of the background axioms of ``organism_process.kif``.
Reachability is recomputed from the direct edges, as in
``witness_oracle``.
"""

from __future__ import annotations

from operator import itemgetter

from ontoclose import kif
from ontoclose.taxonomy import build_taxonomy

from witness_oracle import _closures, _raw_relations


def _both_ways(pairs) -> set[tuple]:
    return {q for a, b in pairs for q in ((a, b), (b, a))}


class WitnessModel:
    def __init__(self, ontology: kif.Ontology):
        tax = build_taxonomy(ontology)
        classes, parents = _raw_relations(tax)
        children = {c: set() for c in classes}
        for sub, sups in parents.items():
            for sup in sups:
                children[sup].add(sub)
        ups = _closures(classes, parents)
        downs = _closures(classes, children)
        inheritable = {(p, q) for a, b in _both_ways(tax.explicit_inheritable)
                       for p in downs[a] for q in downs[b]}
        demands = ({(c, c) for c in classes} | set(tax.explicit_nondisjoint)
                   | inheritable)
        placements = sorted({frozenset(ups[a] | ups[b]) for a, b in demands},
                            key=sorted)
        objects = [("witness", i) for i in range(len(placements))]
        self.domain = classes + objects
        # the elements each object is an instance of
        members = {o: placement | {o}
                   for o, placement in zip(objects, placements)}
        instance = {(o, x) for o, xs in members.items() for x in xs}
        overlapping = {(x, y) for xs in members.values()
                       for x in xs for y in xs}
        self._tables = {
            "$subclass": ({(c, u) for c in classes for u in ups[c]}
                          | {(o, o) for o in objects}),
            "$instance": instance,
            "$disjoint": {(x, y) for x in self.domain for y in self.domain
                          if (x, y) not in overlapping},
            "$nonDisjoint": _both_ways(tax.explicit_nondisjoint),
            "$inheritableNonDisjoint": inheritable,
        }

    def holds(self, formula: kif.Formula) -> bool:
        """The closed formula's truth value in the model."""
        return self._compile(formula, {}, 0)([None] * _depth(formula))

    def _compile(self, f, slots: dict[str, int], depth: int):
        """``f`` as a function of a list of variable values, each variable
        at its slot; ``depth`` slots are bound outside ``f``."""
        if isinstance(f, (kif.Atom, kif.Equal)):
            terms = f.args if isinstance(f, kif.Atom) else (f.left, f.right)
            left, right = (itemgetter(slots[t.name]) if t.kind == kif.VARIABLE
                           else (lambda env, name=t.name: name) for t in terms)
            if isinstance(f, kif.Equal):
                return lambda env: left(env) == right(env)
            table = self._tables[f.predicate]
            return lambda env: (left(env), right(env)) in table
        if isinstance(f, kif.Not):
            body = self._compile(f.body, slots, depth)
            return lambda env: not body(env)
        if isinstance(f, (kif.And, kif.Or)):
            parts = [self._compile(p, slots, depth) for p in f.parts]
            combine = all if isinstance(f, kif.And) else any
            return lambda env: combine(p(env) for p in parts)
        if isinstance(f, (kif.Implies, kif.Iff)):
            left = self._compile(f.left, slots, depth)
            right = self._compile(f.right, slots, depth)
            if isinstance(f, kif.Iff):
                return lambda env: left(env) == right(env)
            return lambda env: not left(env) or right(env)
        if isinstance(f, (kif.Forall, kif.Exists)):
            # one variable at a time, each in the next free slot
            inner = dict(slots)
            for name in f.variables:
                inner[name] = depth
                depth += 1
            body = self._compile(f.body, inner, depth)
            for name in reversed(f.variables):
                body = self._quantified(body, inner[name],
                                        isinstance(f, kif.Forall))
            return body
        raise TypeError(f"no model value for {f!r}")

    def _quantified(self, body, slot: int, universal: bool):
        domain = self.domain

        def quantified(env):
            for value in domain:
                env[slot] = value
                if body(env) != universal:
                    return not universal
            return universal

        return quantified


def _depth(formula: kif.Formula) -> int:
    """The most variables bound at once anywhere in ``formula``."""
    inner = max(map(_depth, kif.children(formula)), default=0)
    if isinstance(formula, (kif.Forall, kif.Exists)):
        return len(formula.variables) + inner
    return inner
