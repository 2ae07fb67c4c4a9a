"""Structural fragment of an ontology: the class graph and what it decides.

Harvests ground ``subclass`` / ``disjoint`` / ``instance`` / ``nonDisjoint`` /
``inheritableNonDisjoint`` facts (``$``-prefixed or plain spellings) into an
immutable graph, and answers derived disjointness and non-disjointness
queries. Disjointness is inherited downward by subclasses. Two classes are
non-disjoint when they share a descendant, and non-disjointness rises to
superclasses from a ``nonDisjoint`` pair or from an object that is an
instance of both classes of a pair; an ``inheritableNonDisjoint`` pair
reaches every class that shares a descendant with one of its arguments.
"""

from __future__ import annotations

import graphlib
from typing import Callable, Iterable, Iterator

from . import kif

DISJOINT = "disjoint"
NONDISJOINT = "nondisjoint"
OPEN = "open"
CONFLICT = "conflict"

# structural relations, each accepted with or without a leading "$"
_STRUCTURAL = frozenset({
    "subclass", "disjoint", "instance", "nonDisjoint",
    "inheritableNonDisjoint", "partition", "disjointDecomposition",
})


class TaxonomyError(kif.KifError):
    """Malformed structural input."""


class SubclassCycleError(TaxonomyError):
    """The subclass graph has a cycle among distinct classes."""


class UnknownClassError(TaxonomyError):
    """A query named a class the taxonomy does not contain."""


def pair(a: str, b: str) -> tuple[str, str]:
    """Unordered pair, normalized to lexicographic order."""
    return (a, b) if a <= b else (b, a)


def pair_set(pairs: Iterable[tuple[str, str]], label: str,
             error: type[Exception]) -> "PairSet":
    """The unordered pairs, each normalized with ``pair``; a pair relating
    a class to itself raises ``error``."""
    out = set()
    for a, b in pairs:
        if a == b:
            raise error(f"{label} pair relates {a!r} to itself")
        out.add(pair(a, b))
    return PairSet(out)


class PairSet(frozenset):
    """A frozen set of unordered pairs, each ordered as ``pair`` orders it,
    indexed by member: ``partners`` maps each class to the classes it is
    paired with."""

    __slots__ = ("partners",)

    def __new__(cls, pairs: Iterable[tuple[str, str]] = ()):
        self = super().__new__(cls, pairs)
        partners: dict[str, list[str]] = {}
        for a, b in self:
            partners.setdefault(a, []).append(b)
            partners.setdefault(b, []).append(a)
        self.partners = partners
        return self


def _close(order: Iterable[str], neighbors: dict[str, set[str]],
           seed: Callable[[str], Iterable[str]]) -> dict[str, frozenset[str]]:
    """Each class with its ``seed`` and the seeds of everything reachable
    over ``neighbors``; ``order`` lists every class after all of its
    neighbors."""
    closed: dict[str, frozenset[str]] = {}
    for c in order:
        acc = set(seed(c))
        for n in neighbors[c]:
            acc |= closed[n]
        closed[c] = frozenset(acc)
    return closed


class ClassGraph:
    """The subclass graph: direct edges both ways, reachability both ways
    and the classes meeting each class, all built eagerly. The endpoints
    of its edges are declared with ``classes``. Nothing changes it
    afterwards, so the taxonomies ``with_facts`` derives share it."""

    def __init__(self, classes: Iterable[str],
                 edges: Iterable[tuple[str, str]]):
        edges = set(edges)
        self.classes = classes = (frozenset(classes)
                                  | {c for e in edges for c in e})
        self.parents: dict[str, set[str]] = {c: set() for c in classes}
        self.children: dict[str, set[str]] = {c: set() for c in classes}
        for sub, sup in edges:
            if sub == sup:
                continue  # reflexivity is implicit; graphlib calls it a cycle
            self.parents[sub].add(sup)
            self.children[sup].add(sub)

        # children before parents; sorted input keeps the order and any
        # cycle named the same under every hash seed
        graph = graphlib.TopologicalSorter(
            {c: sorted(self.children[c]) for c in sorted(classes)})
        try:
            order = list(graph.static_order())
        except graphlib.CycleError as exc:
            raise SubclassCycleError(
                "subclass cycle: " + " < ".join(exc.args[1])) from None
        self.down = _close(order, self.children, lambda c: (c,))
        self.up = _close(reversed(order), self.parents, lambda c: (c,))
        # the classes sharing a descendant with c: c's ancestors, and every
        # class meeting one of its direct subclasses
        self.met = _close(order, self.children, self.up.__getitem__)

    def edges(self) -> Iterator[tuple[str, str]]:
        return ((sub, sup) for sub, sups in self.parents.items()
                for sup in sups)


class Taxonomy:
    """Immutable class graph plus explicit pair facts; all queries are
    pure. A class that only a fact names is declared: the graph is
    extended with it, and is shared as given when there is none."""

    def __init__(self, graph: ClassGraph,
                 disjoint: Iterable[tuple[str, str]] = (),
                 nondisjoint: Iterable[tuple[str, str]] = (),
                 inheritable_nondisjoint: Iterable[tuple[str, str]] = (),
                 instance_facts: Iterable[tuple[str, str]] = ()):
        self.explicit_disjoint = pair_set(disjoint, "disjoint", TaxonomyError)
        self.explicit_nondisjoint = pair_set(nondisjoint, "nonDisjoint",
                                             TaxonomyError)
        self.explicit_inheritable = pair_set(
            inheritable_nondisjoint, "inheritableNonDisjoint", TaxonomyError)
        overlap = self.explicit_disjoint & (
            self.explicit_nondisjoint | self.explicit_inheritable)
        if overlap:
            raise TaxonomyError(
                "pairs declared both disjoint and non-disjoint: "
                + ", ".join(f"{a}/{b}" for a, b in sorted(overlap)))
        self.instance_facts = frozenset(instance_facts)
        # an object's classes are pairwise compatible, as nonDisjoint pairs
        classes_of: dict[str, set[str]] = {}
        for obj, c in self.instance_facts:
            classes_of.setdefault(obj, set()).add(c)
        self._compatible = PairSet(self.explicit_nondisjoint | {
            (a, b) for cs in classes_of.values() for a in cs for b in cs
            if a < b})
        named = {c for _, c in self.instance_facts}
        for pairs in (self.explicit_disjoint, self.explicit_nondisjoint,
                      self.explicit_inheritable):
            named.update(pairs.partners)
        if not named <= graph.classes:
            graph = ClassGraph(graph.classes | named, graph.edges())
        self._graph = graph
        self.classes = graph.classes

    # -- basic queries ------------------------------------------------------

    def _require(self, *names: str):
        for name in names:
            if name not in self.classes:
                raise UnknownClassError(f"unknown class: {name!r}")

    def down(self, c: str) -> frozenset[str]:
        """c plus every descendant."""
        self._require(c)
        return self._graph.down[c]

    def up(self, c: str) -> frozenset[str]:
        """c plus every ancestor."""
        self._require(c)
        return self._graph.up[c]

    def direct_subclasses(self, c: str) -> frozenset[str]:
        self._require(c)
        return frozenset(self._graph.children[c])

    def subclass_closed(self, x: str, c: str) -> bool:
        """Reflexive-transitive subclass reachability."""
        self._require(x, c)
        return c in self._graph.up[x]

    def sibling_pairs(self) -> Iterator[tuple[str, str]]:
        """Every unordered pair of distinct direct subclasses of one class,
        deduplicated, in lexicographic order."""
        seen: set[tuple[str, str]] = set()
        for c in sorted(self.classes):
            kids = sorted(self._graph.children[c])
            for i, a in enumerate(kids):
                for b in kids[i + 1:]:
                    seen.add(pair(a, b))
        yield from sorted(seen)

    # -- pair queries -------------------------------------------------------
    #
    # Every derived pair status asks one question of a set of pairs: does
    # some pair have one member related to c1 and the other to c2? Only the
    # relation differs. A ``skip`` pair, ordered as ``pair`` orders it, is
    # left out of the set, so pruning can ask about every other pair without
    # copying the set per pair.

    def _has_pair(self, related: dict[str, frozenset[str]], c1: str, c2: str,
                  pairs: PairSet, skip: "tuple[str, str] | None") -> bool:
        self._require(c1, c2)
        if not pairs:
            return False
        r1, r2 = related[c1], related[c2]
        if len(r2) < len(r1):
            r1, r2 = r2, r1
        # walk the smaller related set and look its partners up in the other
        partners = pairs.partners
        for a in r1:
            for b in partners.get(a, ()):
                if b in r2 and pair(a, b) != skip:
                    return True
        return False

    def has_pair_above(self, c1: str, c2: str, pairs: PairSet,
                       skip: "tuple[str, str] | None" = None) -> bool:
        """Some pair has one member at or above c1 and the other at or
        above c2: how disjointness descends to subclasses."""
        return self._has_pair(self._graph.up, c1, c2, pairs, skip)

    def has_pair_below(self, c1: str, c2: str, pairs: PairSet,
                       skip: "tuple[str, str] | None" = None) -> bool:
        """Some pair has one member at or below c1 and the other at or
        below c2: how non-disjointness rises to superclasses."""
        return self._has_pair(self._graph.down, c1, c2, pairs, skip)

    def has_pair_meeting(self, c1: str, c2: str, pairs: PairSet,
                         skip: "tuple[str, str] | None" = None) -> bool:
        """Some pair has one member sharing a descendant with c1 and the
        other sharing one with c2: how an inheritableNonDisjoint pair
        spreads."""
        return self._has_pair(self._graph.met, c1, c2, pairs, skip)

    # -- derived relations --------------------------------------------------

    def derived_disjoint(self, c1: str, c2: str) -> bool:
        return self.has_pair_above(c1, c2, self.explicit_disjoint)

    def derived_nondisjoint(self, c1: str, c2: str) -> bool:
        self._require(c1, c2)
        return c2 in self._graph.met[c1] or self.explicitly_nondisjoint(c1, c2)

    def explicitly_nondisjoint(self, c1: str, c2: str) -> bool:
        """Non-disjointness that follows from the explicit compatibility
        pairs or a shared instance, not merely from a shared descendant:
        what an external prover given those facts can also derive."""
        return (self.has_pair_below(c1, c2, self._compatible)
                or self.has_pair_meeting(c1, c2, self.explicit_inheritable))

    def pair_status(self, c1: str, c2: str) -> str:
        dis = self.derived_disjoint(c1, c2)
        non = self.derived_nondisjoint(c1, c2)
        if dis and non:
            return CONFLICT
        if dis:
            return DISJOINT
        if non:
            return NONDISJOINT
        return OPEN

    def find_conflicts(self) -> list[tuple[str, str]]:
        """Explicitly disjoint pairs whose non-disjointness is also derivable.

        Any pair with a conflicting status is inherited downward from at
        least one such explicit pair, so an empty result means no pair in
        the taxonomy has status ``conflict``.
        """
        return sorted(p for p in self.explicit_disjoint
                      if self.derived_nondisjoint(*p))

    # -- derivation ---------------------------------------------------------

    def with_facts(self, disjoint: Iterable[tuple[str, str]] = (),
                   nondisjoint: Iterable[tuple[str, str]] = (),
                   inheritable_nondisjoint: Iterable[tuple[str, str]] = ()
                   ) -> "Taxonomy":
        """A new taxonomy with extra explicit pairs merged in, over this
        one's class graph."""
        return Taxonomy(self._graph,
                        self.explicit_disjoint.union(disjoint),
                        self.explicit_nondisjoint.union(nondisjoint),
                        self.explicit_inheritable.union(
                            inheritable_nondisjoint),
                        self.instance_facts)

    def with_axioms(self, axioms: Iterable[kif.Axiom]) -> "Taxonomy":
        """This taxonomy with the pair facts of ``axioms`` merged in, or
        itself when they hold none: the taxonomy of an ontology extended
        with ``axioms``. They may add no subclass or instance fact, since
        the class graph is not rebuilt for them."""
        _, edges, disjoint, nondisjoint, inheritable, instances = \
            _harvest(axioms)
        facts = ([f"($subclass {sub} {sup})" for sub, sup in sorted(edges)]
                 + [f"($instance {obj} {c})" for obj, c in sorted(instances)])
        if facts:
            raise TaxonomyError("added axioms may hold pair facts only, not "
                                + ", ".join(facts))
        if not (disjoint or nondisjoint or inheritable):
            return self
        return self.with_facts(disjoint, nondisjoint, inheritable)

    # -- exports ------------------------------------------------------------

    def to_edge_tsv(self) -> str:
        lines = sorted(f"{sub}\t{sup}" for sub, sup in self._graph.edges())
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dot(self) -> str:
        lines = ["digraph taxonomy {"]
        for c in sorted(self.classes):
            lines.append(f'  "{c}";')
        for sub in sorted(self.classes):
            for sup in sorted(self._graph.parents[sub]):
                lines.append(f'  "{sub}" -> "{sup}";')
        for pairs, style, label in (
                (self.explicit_disjoint, "dashed", "disjoint"),
                (self.explicit_nondisjoint, "dotted", "nonDisjoint"),
                (self.explicit_inheritable, "dotted", "inheritableNonDisjoint")):
            for a, b in sorted(pairs):
                lines.append(f'  "{a}" -> "{b}" [dir=none, style={style}, '
                             f'label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _harvest(axioms: Iterable[kif.Axiom]) -> tuple[set, ...]:
    """The ground structural facts of the unit clauses among ``axioms``:
    the classes they name, the subclass edges (a class's edge to itself
    included), the disjoint, nonDisjoint and inheritableNonDisjoint pairs,
    and the (object, class) instance facts."""
    classes: set[str] = set()
    edges: set[tuple[str, str]] = set()
    disjoint: set[tuple[str, str]] = set()
    nondisjoint: set[tuple[str, str]] = set()
    inheritable: set[tuple[str, str]] = set()
    instances: set[tuple[str, str]] = set()
    pair_sets = {"disjoint": disjoint, "nonDisjoint": nondisjoint,
                 "inheritableNonDisjoint": inheritable}

    def binary(atom: kif.Atom, ax: kif.Axiom) -> tuple[str, str]:
        if len(atom.args) != 2:
            raise TaxonomyError(
                f"{atom.predicate} takes 2 arguments, found {len(atom.args)} "
                f"(axiom {ax.id}, {ax.source})")
        return atom.args[0].name, atom.args[1].name

    for ax in axioms:
        atom = kif.ground_atom(ax.formula)
        if atom is None:
            continue
        relation = atom.predicate.removeprefix("$")
        if relation not in _STRUCTURAL:
            continue
        if relation == "subclass":
            sub, sup = binary(atom, ax)
            classes.update((sub, sup))
            edges.add((sub, sup))
        elif relation in pair_sets:
            a, b = binary(atom, ax)
            if a == b:
                raise TaxonomyError(
                    f"{atom.predicate} relates {a!r} to itself "
                    f"(axiom {ax.id}, {ax.source})")
            classes.update((a, b))
            pair_sets[relation].add(pair(a, b))
        elif relation == "instance":
            obj, cls = binary(atom, ax)
            classes.add(cls)
            instances.add((obj, cls))
        else:  # partition / disjointDecomposition
            if len(atom.args) < 2:
                raise TaxonomyError(
                    f"{atom.predicate} needs a class and its parts "
                    f"(axiom {ax.id}, {ax.source})")
            whole = atom.args[0].name
            parts = [t.name for t in atom.args[1:]]
            classes.add(whole)
            classes.update(parts)
            for i, a in enumerate(parts):
                for b in parts[i + 1:]:
                    if a == b:
                        raise TaxonomyError(
                            f"{atom.predicate} lists {a!r} twice "
                            f"(axiom {ax.id}, {ax.source})")
                    disjoint.add(pair(a, b))

    return classes, edges, disjoint, nondisjoint, inheritable, instances


def build_taxonomy(ontology: kif.Ontology) -> Taxonomy:
    """Harvest ground structural facts from unit clauses of an ontology."""
    classes, edges, *facts = _harvest(ontology)
    return Taxonomy(ClassGraph(classes, edges), *facts)
