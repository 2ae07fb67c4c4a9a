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

import warnings
from typing import Callable, Collection, Iterable, Iterator

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


class Taxonomy:
    """Immutable class graph; all queries are pure. Reachability and the
    sets of classes meeting each class are built eagerly."""

    def __init__(self, classes: Iterable[str],
                 subclass_edges: Iterable[tuple[str, str]] = (),
                 disjoint: Iterable[tuple[str, str]] = (),
                 nondisjoint: Iterable[tuple[str, str]] = (),
                 inheritable_nondisjoint: Iterable[tuple[str, str]] = (),
                 instance_facts: Iterable[tuple[str, str]] = ()):
        declared = set(classes)
        edges = {(sub, sup) for sub, sup in subclass_edges}
        mentioned = {c for e in edges for c in e}
        for pairs in (disjoint, nondisjoint, inheritable_nondisjoint):
            mentioned |= {c for p in pairs for c in p}
        mentioned |= {c for _, c in instance_facts}
        undeclared = mentioned - declared
        if undeclared:
            warnings.warn(
                "auto-declaring classes referenced by structural facts: "
                + ", ".join(sorted(undeclared)),
                stacklevel=2)
        self.classes = frozenset(declared | mentioned)

        def norm_pairs(pairs, label):
            out = set()
            for a, b in pairs:
                if a == b:
                    raise TaxonomyError(f"{label} pair relates {a!r} to itself")
                out.add(pair(a, b))
            return frozenset(out)

        self.explicit_disjoint = norm_pairs(disjoint, "disjoint")
        self.explicit_nondisjoint = norm_pairs(nondisjoint, "nonDisjoint")
        self.explicit_inheritable = norm_pairs(
            inheritable_nondisjoint, "inheritableNonDisjoint")
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
        self._instance_pairs = frozenset(
            (a, b) for cs in classes_of.values() for a in cs for b in cs
            if a < b)

        self._parents: dict[str, set[str]] = {c: set() for c in self.classes}
        self._children: dict[str, set[str]] = {c: set() for c in self.classes}
        for sub, sup in edges:
            if sub == sup:
                continue  # reflexivity is implicit
            self._parents[sub].add(sup)
            self._children[sup].add(sub)

        order = self._check_acyclic()
        self._down = self._close(order, self._children, lambda c: (c,))
        self._up = self._close(reversed(order), self._parents, lambda c: (c,))
        # the classes sharing a descendant with c: c's ancestors, and every
        # class meeting one of its direct subclasses
        self._met = self._close(order, self._children, self._up.__getitem__)

    def _check_acyclic(self) -> list[str]:
        """Every class in post-order: after all of its subclasses."""
        state: dict[str, int] = {}
        order: list[str] = []
        for root in self.classes:
            if state.get(root):
                continue
            stack = [(root, iter(sorted(self._children[root])))]
            state[root] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for child in it:
                    mark = state.get(child, 0)
                    if mark == 1:
                        raise SubclassCycleError(
                            f"subclass cycle through {child!r}")
                    if mark == 0:
                        state[child] = 1
                        stack.append((child, iter(sorted(self._children[child]))))
                        advanced = True
                        break
                if not advanced:
                    state[node] = 2
                    order.append(node)
                    stack.pop()
        return order

    @staticmethod
    def _close(order: Iterable[str], neighbors: dict[str, set[str]],
               seed: Callable[[str], Iterable[str]]
               ) -> dict[str, frozenset[str]]:
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

    # -- basic queries ------------------------------------------------------

    def _require(self, *names: str):
        for name in names:
            if name not in self.classes:
                raise UnknownClassError(f"unknown class: {name!r}")

    def down(self, c: str) -> frozenset[str]:
        """c plus every descendant."""
        self._require(c)
        return self._down[c]

    def up(self, c: str) -> frozenset[str]:
        """c plus every ancestor."""
        self._require(c)
        return self._up[c]

    def direct_subclasses(self, c: str) -> frozenset[str]:
        self._require(c)
        return frozenset(self._children[c])

    def subclass_closed(self, x: str, c: str) -> bool:
        """Reflexive-transitive subclass reachability."""
        self._require(x, c)
        return c in self._up[x]

    def sibling_pairs(self) -> Iterator[tuple[str, str]]:
        """Every unordered pair of distinct direct subclasses of one class,
        deduplicated, in lexicographic order."""
        seen: set[tuple[str, str]] = set()
        for c in sorted(self.classes):
            kids = sorted(self._children[c])
            for i, a in enumerate(kids):
                for b in kids[i + 1:]:
                    seen.add(pair(a, b))
        yield from sorted(seen)

    # -- pair queries -------------------------------------------------------
    #
    # Every derived pair status asks one question of a set of pairs: does
    # some pair have one member related to c1 and the other to c2? Only the
    # relation differs. A ``skip`` pair is left out of the set, so pruning
    # can ask about every other pair without copying the set per pair.

    def _has_pair(self, related, c1: str, c2: str,
                  pairs: Collection[tuple[str, str]],
                  skip: "tuple[str, str] | None") -> bool:
        self._require(c1, c2)
        if not pairs:
            return False
        r1, r2 = related(c1), related(c2)
        for a, b in pairs:
            if ((a in r1 and b in r2) or (a in r2 and b in r1)) \
                    and (a, b) != skip:
                return True
        return False

    def has_pair_above(self, c1: str, c2: str,
                       pairs: Collection[tuple[str, str]],
                       skip: "tuple[str, str] | None" = None) -> bool:
        """Some pair has one member at or above c1 and the other at or
        above c2: how disjointness descends to subclasses."""
        return self._has_pair(self._up.__getitem__, c1, c2, pairs, skip)

    def has_pair_below(self, c1: str, c2: str,
                       pairs: Collection[tuple[str, str]],
                       skip: "tuple[str, str] | None" = None) -> bool:
        """Some pair has one member at or below c1 and the other at or
        below c2: how non-disjointness rises to superclasses."""
        return self._has_pair(self._down.__getitem__, c1, c2, pairs, skip)

    def has_pair_meeting(self, c1: str, c2: str,
                         pairs: Collection[tuple[str, str]],
                         skip: "tuple[str, str] | None" = None) -> bool:
        """Some pair has one member sharing a descendant with c1 and the
        other sharing one with c2: how an inheritableNonDisjoint pair
        spreads."""
        return self._has_pair(self._met.__getitem__, c1, c2, pairs, skip)

    # -- derived relations --------------------------------------------------

    def derived_disjoint(self, c1: str, c2: str) -> bool:
        return self.has_pair_above(c1, c2, self.explicit_disjoint)

    def derived_nondisjoint(self, c1: str, c2: str) -> bool:
        self._require(c1, c2)
        return (not self._down[c1].isdisjoint(self._down[c2])
                or self.explicitly_nondisjoint(c1, c2))

    def explicitly_nondisjoint(self, c1: str, c2: str) -> bool:
        """Non-disjointness that follows from the explicit compatibility
        pairs or a shared instance, not merely from a shared descendant:
        what an external prover given those facts can also derive."""
        return (self.has_pair_below(c1, c2, self.explicit_nondisjoint)
                or self.has_pair_below(c1, c2, self._instance_pairs)
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

    def common_subclass_pairs(self, c: str) -> list[tuple[str, str]]:
        """Sibling pairs under c that share at least one descendant."""
        self._require(c)
        kids = sorted(self._children[c])
        out = []
        for i, a in enumerate(kids):
            for b in kids[i + 1:]:
                if self._down[a] & self._down[b]:
                    out.append(pair(a, b))
        return sorted(out)

    # -- derivation ---------------------------------------------------------

    def with_facts(self, disjoint: Iterable[tuple[str, str]] = (),
                   nondisjoint: Iterable[tuple[str, str]] = (),
                   inheritable_nondisjoint: Iterable[tuple[str, str]] = ()
                   ) -> "Taxonomy":
        """A new taxonomy with extra explicit pairs merged in."""
        edges = {(sub, sup) for sub in self.classes
                 for sup in self._parents[sub]}
        return Taxonomy(
            self.classes, edges,
            self.explicit_disjoint | {pair(*p) for p in disjoint},
            self.explicit_nondisjoint | {pair(*p) for p in nondisjoint},
            self.explicit_inheritable | {pair(*p) for p in inheritable_nondisjoint},
            self.instance_facts)

    # -- exports ------------------------------------------------------------

    def to_edge_tsv(self) -> str:
        lines = sorted(f"{sub}\t{sup}" for sub in self.classes
                       for sup in self._parents[sub])
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dot(self) -> str:
        lines = ["digraph taxonomy {"]
        for c in sorted(self.classes):
            lines.append(f'  "{c}";')
        for sub in sorted(self.classes):
            for sup in sorted(self._parents[sub]):
                lines.append(f'  "{sub}" -> "{sup}";')
        for a, b in sorted(self.explicit_disjoint):
            lines.append(f'  "{a}" -> "{b}" [dir=none, style=dashed, label="disjoint"];')
        for a, b in sorted(self.explicit_nondisjoint):
            lines.append(f'  "{a}" -> "{b}" [dir=none, style=dotted, label="nonDisjoint"];')
        for a, b in sorted(self.explicit_inheritable):
            lines.append(
                f'  "{a}" -> "{b}" [dir=none, style=dotted, label="inheritableNonDisjoint"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_taxonomy(ontology: kif.Ontology) -> Taxonomy:
    """Harvest ground structural facts from unit clauses of an ontology."""
    classes: set[str] = set()
    edges: set[tuple[str, str]] = set()
    disjoint: set[tuple[str, str]] = set()
    nondisjoint: set[tuple[str, str]] = set()
    inheritable: set[tuple[str, str]] = set()
    instances: set[tuple[str, str]] = set()

    def binary(atom: kif.Atom, ax: kif.Axiom) -> tuple[str, str]:
        if len(atom.args) != 2:
            raise TaxonomyError(
                f"{atom.predicate} takes 2 arguments, found {len(atom.args)} "
                f"(axiom {ax.id}, {ax.source})")
        a, b = atom.args[0].name, atom.args[1].name
        return a, b

    def unordered(atom: kif.Atom, ax: kif.Axiom) -> tuple[str, str]:
        a, b = binary(atom, ax)
        if a == b:
            raise TaxonomyError(
                f"{atom.predicate} relates {a!r} to itself "
                f"(axiom {ax.id}, {ax.source})")
        return pair(a, b)

    for ax in ontology:
        atom = kif.ground_atom(ax.formula)
        if atom is None:
            continue
        relation = atom.predicate.removeprefix("$")
        if relation not in _STRUCTURAL:
            continue
        if relation == "subclass":
            sub, sup = binary(atom, ax)
            classes.update((sub, sup))
            if sub != sup:
                edges.add((sub, sup))
        elif relation == "disjoint":
            p = unordered(atom, ax)
            classes.update(p)
            disjoint.add(p)
        elif relation == "nonDisjoint":
            p = unordered(atom, ax)
            classes.update(p)
            nondisjoint.add(p)
        elif relation == "inheritableNonDisjoint":
            p = unordered(atom, ax)
            classes.update(p)
            inheritable.add(p)
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

    return Taxonomy(classes, edges, disjoint, nondisjoint, inheritable,
                    instances)
