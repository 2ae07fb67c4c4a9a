"""Independent brute-force semantics used as a test oracle.

Everything here recomputes reachability from the raw direct edges and decides
pair questions by enumerating single-witness placements, so it shares no
derivation code with the library under test.
"""

from __future__ import annotations

import itertools
import random

from ontoclose.taxonomy import (
    CONFLICT, DISJOINT, NONDISJOINT, OPEN, ClassGraph, Taxonomy, pair,
)


def _raw_relations(tax: Taxonomy):
    classes = sorted(tax.classes)
    parents = {c: set() for c in classes}
    for sup in classes:
        for sub in tax.direct_subclasses(sup):
            parents[sub].add(sup)
    return classes, parents


def _closures(classes, neighbors):
    closed = {}

    def visit(c):
        if c in closed:
            return closed[c]
        acc = {c}
        for n in neighbors[c]:
            acc |= visit(n)
        closed[c] = acc
        return acc

    for c in classes:
        visit(c)
    return closed


def floyd_warshall_reachable(tax: Taxonomy) -> dict[tuple[str, str], bool]:
    """Reflexive-transitive reachability by the cubic closure algorithm."""
    classes, parents = _raw_relations(tax)
    reach = {(a, b): (a == b or b in parents[a]) for a in classes for b in classes}
    for k in classes:
        for i in classes:
            if not reach[(i, k)]:
                continue
            for j in classes:
                if reach[(k, j)]:
                    reach[(i, j)] = True
    return reach


def consistent_placements(tax: Taxonomy) -> list[frozenset[str]]:
    """All ancestor-closed class sets containing no explicitly disjoint pair.

    Each set is a possible 'membership profile' of one witness object.
    """
    classes, parents = _raw_relations(tax)
    ups = _closures(classes, parents)
    out = []
    for bits in itertools.product((False, True), repeat=len(classes)):
        members = {c for c, bit in zip(classes, bits) if bit}
        if any(not ups[c] <= members for c in members):
            continue
        if any(a in members and b in members for a, b in tax.explicit_disjoint):
            continue
        out.append(frozenset(members))
    return out


def witness_demands(tax: Taxonomy) -> list[tuple[str, str]]:
    """Pairs that every admissible world must give a shared witness:
    each class with itself, explicitly non-disjoint pairs, and every
    descendant combination of an inheritable pair."""
    classes, parents = _raw_relations(tax)
    children = {c: set() for c in classes}
    for sub, sups in parents.items():
        for sup in sups:
            children[sup].add(sub)
    downs = _closures(classes, children)
    demands = [(c, c) for c in classes]
    demands += list(tax.explicit_nondisjoint)
    for i1, i2 in tax.explicit_inheritable:
        for p in downs[i1]:
            for q in downs[i2]:
                demands.append((p, q))
    return demands


def brute_pair_status(tax: Taxonomy, c1: str, c2: str,
                      placements: "list[frozenset[str]] | None" = None,
                      demands: "list[tuple[str, str]] | None" = None) -> str:
    if placements is None:
        placements = consistent_placements(tax)
    if demands is None:
        demands = witness_demands(tax)
    joint = [s for s in placements if c1 in s and c2 in s]
    must_be_disjoint = not joint
    must_overlap = any(
        all(c1 in s and c2 in s for s in placements if a in s and b in s)
        for a, b in demands)
    if must_be_disjoint and must_overlap:
        return CONFLICT
    if must_be_disjoint:
        return DISJOINT
    if must_overlap:
        return NONDISJOINT
    return OPEN


class WitnessSemantics:
    """Precomputed form of the placement enumeration for all-pairs sweeps.

    For every demanded pair, stores the intersection of all consistent
    placements covering it (None when no placement covers it, which forces
    everything); a pair must overlap when some demand's intersection
    contains it, and must be disjoint when no placement covers it.
    """

    def __init__(self, tax: Taxonomy):
        placements = consistent_placements(tax)
        self._covered: set[tuple[str, str]] = set()
        for s in placements:
            members = sorted(s)
            for i, a in enumerate(members):
                for b in members[i:]:
                    self._covered.add((a, b))
        self._demand_cores: list["frozenset[str] | None"] = []
        for a, b in set(witness_demands(tax)):
            joint = [s for s in placements if a in s and b in s]
            core = frozenset.intersection(*joint) if joint else None
            self._demand_cores.append(core)

    def status(self, c1: str, c2: str) -> str:
        key = (c1, c2) if c1 <= c2 else (c2, c1)
        must_be_disjoint = key not in self._covered
        must_overlap = any(core is None or (c1 in core and c2 in core)
                           for core in self._demand_cores)
        if must_be_disjoint and must_overlap:
            return CONFLICT
        if must_be_disjoint:
            return DISJOINT
        if must_overlap:
            return NONDISJOINT
        return OPEN


def random_taxonomy(rng: random.Random, max_classes: int = 12,
                    p_disjoint: float = 0.3, p_nondisjoint: float = 0.15,
                    p_inheritable: float = 0.15) -> Taxonomy:
    """A conflict-free DAG taxonomy with random explicit facts."""
    n = rng.randint(2, max_classes)
    names = [f"C{i:02d}" for i in range(n)]
    edges = set()
    for i in range(1, n):
        for j in rng.sample(range(i), k=min(i, rng.choice((0, 1, 1, 2)))):
            edges.add((names[i], names[j]))
    parents = {c: set() for c in names}
    children = {c: set() for c in names}
    for sub, sup in edges:
        parents[sub].add(sup)
        children[sup].add(sub)
    ups = _closures(names, parents)
    downs = _closures(names, children)

    disjoint: set[tuple[str, str]] = set()

    def dis_derivable(a: str, b: str) -> bool:
        return any((d1 in ups[a] and d2 in ups[b])
                   or (d1 in ups[b] and d2 in ups[a])
                   for d1, d2 in disjoint)

    all_pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    rng.shuffle(all_pairs)
    for a, b in all_pairs:
        if rng.random() < p_disjoint and not (downs[a] & downs[b]) \
                and not dis_derivable(a, b):
            disjoint.add(pair(a, b))

    nondisjoint: set[tuple[str, str]] = set()
    inheritable: set[tuple[str, str]] = set()
    for a, b in all_pairs:
        roll = rng.random()
        if roll < p_inheritable:
            if all(not dis_derivable(p, q)
                   for p in downs[a] for q in downs[b]):
                inheritable.add(pair(a, b))
        elif roll < p_inheritable + p_nondisjoint:
            if not dis_derivable(a, b):
                nondisjoint.add(pair(a, b))

    return Taxonomy(ClassGraph(names, edges), disjoint, nondisjoint,
                    inheritable)
