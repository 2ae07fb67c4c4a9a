"""Closed-world augmentation of the structural fragment.

Three generators:

* ``complete_subclass`` closes the subclass relation per class: anything
  below a class equals it or sits below one of its direct subclasses.
* ``assume_disjointness`` asserts sibling pairs disjoint unless something
  already makes them compatible.
* ``assume_nondisjointness`` asserts sibling pairs compatible unless
  something already makes them disjoint, recursing where only some of
  their subclasses clash.

``apply_closure`` stitches these into the four ontology variants. Curated
facts are a separate input file of unit clauses, never invented here;
``suggest_curation`` only proposes candidates.

All pair reasoning (derived status, explicit compatibility, clashing
descendants, what pruning may drop) is asked of :class:`Taxonomy`; this
module only decides which pairs to ask about.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from . import kif
from .kif import Atom, Axiom, Equal, Forall, Implies, Or, Ontology, const, var
from .modes import (
    MODES, OWA, SUBCLASS_DISJOINT, SUBCLASS_NONDISJOINT, SUBCLASS_ONLY,
)
from .taxonomy import (
    NONDISJOINT, OPEN, PairSet, Taxonomy, build_taxonomy, pair, pair_set,
)


class ClosureError(kif.KifError):
    pass


class CurationError(ClosureError):
    """Invalid curation input."""


class CurationIncompleteError(ClosureError):
    """Sibling pairs are derivably compatible but carry no explicit fact an
    external prover could use; they need curation."""

    def __init__(self, pairs):
        self.pairs = tuple(pairs)
        listed = ", ".join(f"{a}/{b}" for a, b in self.pairs)
        super().__init__(f"curation incomplete for sibling pairs: {listed}")


class ClosureConflictError(ClosureError):
    """The (curation-merged) taxonomy derives both answers for some pair."""

    def __init__(self, pairs):
        self.pairs = tuple(pairs)
        listed = ", ".join(f"{a}/{b}" for a, b in self.pairs)
        super().__init__(f"conflicting pairs: {listed}")


# ---------------------------------------------------------------------------
# Curation files
# ---------------------------------------------------------------------------

# curation predicate (with or without "$") -> CurationFile field
_CURATION_PREDICATES = {
    "nonDisjoint": "nondisjoint",
    "inheritableNonDisjoint": "inheritable",
    "disjoint": "disjoint",
}


@dataclass(frozen=True)
class CurationFile:
    nondisjoint: frozenset[tuple[str, str]]
    inheritable: frozenset[tuple[str, str]]
    disjoint: frozenset[tuple[str, str]]

    @classmethod
    def empty(cls) -> "CurationFile":
        return cls(frozenset(), frozenset(), frozenset())

    @classmethod
    def from_pairs(cls, nondisjoint=(), inheritable=(), disjoint=()
                   ) -> "CurationFile":
        nd = pair_set(nondisjoint, "nonDisjoint", CurationError)
        ind = pair_set(inheritable, "inheritableNonDisjoint", CurationError)
        dis = pair_set(disjoint, "disjoint", CurationError)
        for left, right, what in ((nd, ind, "nonDisjoint/inheritableNonDisjoint"),
                                  (nd, dis, "nonDisjoint/disjoint"),
                                  (ind, dis, "inheritableNonDisjoint/disjoint")):
            clash = left & right
            if clash:
                raise CurationError(
                    f"pairs declared as both {what}: "
                    + ", ".join(f"{a}/{b}" for a, b in sorted(clash)))
        return cls(nd, ind, dis)


def load_curation(text: str, source_name: str = "<curation>") -> CurationFile:
    """Read a curation file: unit clauses over the three pair predicates."""
    ontology = kif.parse_kif(text, source_name)
    buckets = {"nondisjoint": [], "inheritable": [], "disjoint": []}
    for ax in ontology:
        atom = kif.ground_atom(ax.formula)
        kind = (_CURATION_PREDICATES.get(atom.predicate.removeprefix("$"))
                if atom else None)
        if atom is None or kind is None or len(atom.args) != 2:
            raise CurationError(
                f"curation entries must be ($nonDisjoint A B), "
                f"($inheritableNonDisjoint A B) or ($disjoint A B); "
                f"offending axiom at {ax.source}")
        buckets[kind].append((atom.args[0].name, atom.args[1].name))
    return CurationFile.from_pairs(**buckets)


def serialize_curation(curation: CurationFile) -> str:
    return kif.serialize_kif(
        Ontology(_curation_axioms(curation, disjoint_only=False)))


def _conflict_free(tax: Taxonomy) -> Taxonomy:
    conflicts = tax.find_conflicts()
    if conflicts:
        raise ClosureConflictError(conflicts)
    return tax


def _merge_curation(tax: Taxonomy, curation: CurationFile) -> Taxonomy:
    merged = tax.with_facts(
        disjoint=curation.disjoint, nondisjoint=curation.nondisjoint,
        inheritable_nondisjoint=curation.inheritable)
    undeclared = merged.classes - tax.classes
    if undeclared:
        # no stacklevel: all modes warn from this line, so a run shows it once
        warnings.warn("curation names classes the ontology does not declare: "
                      + ", ".join(sorted(undeclared)))
    return _conflict_free(merged)


# ---------------------------------------------------------------------------
# Support axioms
# ---------------------------------------------------------------------------

_SUPPORT_TEXTS = (
    """(forall (CLASS1 CLASS2)
         (=> ($nonDisjoint CLASS1 CLASS2)
             (not ($disjoint CLASS1 CLASS2))))""",
    """(forall (CLASS1 CLASS2)
         (=> ($inheritableNonDisjoint CLASS1 CLASS2)
             (not ($disjoint CLASS1 CLASS2))))""",
    """(forall (CLASS1 CLASS2)
         (=> ($inheritableNonDisjoint CLASS1 CLASS2)
             ($inheritableNonDisjoint CLASS2 CLASS1)))""",
    """(forall (CLASS1 CLASS2 SUBCLASS)
         (=> (and ($inheritableNonDisjoint CLASS1 CLASS2)
                  ($subclass SUBCLASS CLASS1))
             ($inheritableNonDisjoint SUBCLASS CLASS2)))""",
)


def support_axioms() -> list[Axiom]:
    """The fixed axiomatization of the two compatibility predicates:
    both imply non-disjointness; the inheritable one is symmetric and
    descends to subclasses of its first argument."""
    return [Axiom(id=f"sup_{i}", formula=kif.parse_formula_text(text),
                  provenance="support")
            for i, text in enumerate(_SUPPORT_TEXTS, start=1)]


# ---------------------------------------------------------------------------
# Subclass completion
# ---------------------------------------------------------------------------

def complete_subclass(tax: Taxonomy) -> list[Axiom]:
    """One axiom per class: anything below it equals it or sits below one
    of its direct subclasses. Only this direction is emitted; the converse
    already follows from the subclass facts. The axiom binds X, or ?X when
    it names a class X, which would read back as the variable."""
    axioms = []
    plain_x, marked_x = var("X"), var("?X")
    for c in sorted(tax.classes):
        children = sorted(tax.direct_subclasses(c))
        x = marked_x if c == "X" or "X" in children else plain_x
        term = const(c)
        antecedent = Atom("$subclass", (x, term))
        disjuncts: list[kif.Formula] = [Equal(x, term)]
        disjuncts += [Atom("$subclass", (x, const(child)))
                      for child in children]
        consequent = disjuncts[0] if len(disjuncts) == 1 else Or(tuple(disjuncts))
        formula = Forall((x.name,), Implies(antecedent, consequent))
        axioms.append(Axiom(id=f"comp_{c}", formula=formula,
                            provenance="completion"))
    return axioms


# ---------------------------------------------------------------------------
# Sibling pairs
# ---------------------------------------------------------------------------

def _curation_gaps(tax: Taxonomy) -> list[tuple[tuple[str, str], str]]:
    """Sibling pairs whose compatibility rests only on a shared subclass,
    with the curation predicate that would make it explicit."""
    gaps = []
    for a, b in tax.sibling_pairs():
        if tax.pair_status(a, b) != NONDISJOINT:
            continue
        if tax.subclass_closed(a, b) or tax.subclass_closed(b, a):
            continue
        if tax.explicitly_nondisjoint(a, b):
            continue
        if tax.has_pair_meeting(a, b, tax.explicit_disjoint):
            gaps.append(((a, b), "$nonDisjoint"))
        else:
            gaps.append(((a, b), "$inheritableNonDisjoint"))
    return gaps


def _unit(pred: str, p: tuple[str, str], prefix: str, provenance: str) -> Axiom:
    a, b = p
    # each "_" inside a name is written "_;", and no KIF symbol holds ";",
    # so the "_" between the two names tells any two pairs apart
    names = "_".join(name.replace("_", "_;") for name in p)
    return Axiom(id=f"{prefix}_{names}",
                 formula=Atom(pred, (const(a), const(b))),
                 provenance=provenance)


# ---------------------------------------------------------------------------
# Disjointness assumption
# ---------------------------------------------------------------------------

def assume_disjointness(tax: Taxonomy, curation: CurationFile,
                        prune: bool = True, strict: bool = False
                        ) -> list[Axiom]:
    """Assert every still-open sibling pair disjoint.

    Sibling pairs that are compatible only through a shared subclass are
    skipped and reported (warning, or :class:`CurationIncompleteError`
    under ``strict``): without a curated fact the augmented ontology
    cannot decide them either way.
    """
    merged = _merge_curation(tax, curation)
    gaps = _curation_gaps(merged)
    if gaps:
        if strict:
            raise CurationIncompleteError([p for p, _ in gaps])
        notes = "; ".join(f"({kind} {a} {b})" for (a, b), kind in gaps)
        warnings.warn(f"sibling pairs left undecided, consider curating: {notes}",
                      stacklevel=2)
    emitted = [p for p in merged.sibling_pairs()
               if merged.pair_status(*p) == OPEN]
    if prune:
        pool = PairSet(merged.explicit_disjoint.union(emitted))
        emitted = [p for p in emitted
                   if not merged.has_pair_above(*p, pool, skip=p)]
    return [_unit("$disjoint", p, "cwad", "cwa-disjoint") for p in emitted]


# ---------------------------------------------------------------------------
# Non-disjointness assumption
# ---------------------------------------------------------------------------

def assume_nondisjointness(tax: Taxonomy, curation: CurationFile,
                           prune: bool = True) -> list[Axiom]:
    """Assert every not-disjoint sibling pair compatible.

    A pair with no clashing descendants gets the inheritable predicate;
    otherwise the plain one, and its direct-subclass combinations are
    processed the same way, level by level.
    """
    merged = _merge_curation(tax, curation)
    inheritable: set[tuple[str, str]] = set()
    plain: set[tuple[str, str]] = set()
    visited: set[tuple[str, str]] = set()
    # a worklist, not recursion: chains can be deeper than the call stack;
    # each pair's outcome depends on the pair alone, not the visiting order
    pending = [p for p in merged.sibling_pairs()
               if not merged.derived_disjoint(*p)]
    while pending:
        p = pending.pop()
        if p in visited:
            continue
        visited.add(p)
        c1, c2 = p
        if not merged.has_pair_meeting(c1, c2, merged.explicit_disjoint):
            inheritable.add(p)
            continue
        plain.add(p)
        for x in merged.direct_subclasses(c1) | {c1}:
            for y in merged.direct_subclasses(c2) | {c2}:
                q = pair(x, y)
                if x != y and q != p and q not in visited \
                        and not merged.derived_disjoint(x, y):
                    pending.append(q)

    if prune:
        # prune only against facts the closed ontology holds: this mode
        # writes no curated compatibility facts, so those are not in it
        ind_pool = PairSet(inheritable | tax.explicit_inheritable)
        kept_ind = {p for p in inheritable
                    if not merged.has_pair_above(*p, ind_pool, skip=p)}
        ind_cover = PairSet(kept_ind | tax.explicit_inheritable)
        nd_pool = PairSet(plain | tax.explicit_nondisjoint)
        kept_nd = {p for p in plain
                   if not merged.has_pair_meeting(*p, ind_cover)
                   and not merged.has_pair_below(*p, nd_pool, skip=p)}
        inheritable, plain = kept_ind, kept_nd

    axioms = [_unit("$inheritableNonDisjoint", p, "cwan_ind", "cwa-nondisjoint")
              for p in sorted(inheritable)]
    axioms += [_unit("$nonDisjoint", p, "cwan_nd", "cwa-nondisjoint")
               for p in sorted(plain)]
    return axioms


# ---------------------------------------------------------------------------
# Curation suggestions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurationAdvice:
    """Proposed curation facts plus sibling pairs a curator should review."""
    candidates: CurationFile
    undecided: tuple[tuple[str, str], ...]


def suggest_curation(tax: Taxonomy, mode: str) -> CurationAdvice:
    """Automatable curation help for the two disjoint-closure modes.

    Disjointness mode: propose a compatibility fact for every sibling pair
    that shares a descendant (the plain predicate when some of their
    descendants clash, the inheritable one otherwise). Non-disjointness
    mode: nothing can be proposed automatically; report the sibling pairs
    the closure would default to compatible so a curator can pick out the
    genuinely disjoint ones. A conflicted taxonomy raises
    :class:`ClosureConflictError`, as the generators do.
    """
    if mode not in (SUBCLASS_DISJOINT, SUBCLASS_NONDISJOINT):
        raise ValueError(f"no curation advice for mode {mode!r}")
    _conflict_free(tax)
    if mode == SUBCLASS_DISJOINT:
        gaps = _curation_gaps(tax)
        nd = [p for p, kind in gaps if kind == "$nonDisjoint"]
        ind = [p for p, kind in gaps if kind == "$inheritableNonDisjoint"]
        return CurationAdvice(
            candidates=CurationFile.from_pairs(nondisjoint=nd, inheritable=ind),
            undecided=())
    undecided = tuple(p for p in tax.sibling_pairs()
                      if tax.pair_status(*p) == OPEN)
    return CurationAdvice(candidates=CurationFile.empty(), undecided=undecided)


# ---------------------------------------------------------------------------
# Putting it together
# ---------------------------------------------------------------------------

def _curation_axioms(curation: CurationFile, disjoint_only: bool) -> list[Axiom]:
    axioms = []
    if not disjoint_only:
        axioms += [_unit("$nonDisjoint", p, "cur_nd", "curation")
                   for p in sorted(curation.nondisjoint)]
        axioms += [_unit("$inheritableNonDisjoint", p, "cur_ind", "curation")
                   for p in sorted(curation.inheritable)]
    axioms += [_unit("$disjoint", p, "cur_dis", "curation")
               for p in sorted(curation.disjoint)]
    return axioms


def apply_closure(ontology: Ontology, mode: str,
                  curation: "CurationFile | None" = None,
                  prune: bool = True, strict: bool = False,
                  tax: "Taxonomy | None" = None) -> Ontology:
    """The requested closed-world variant of an ontology. Original axioms
    stay first and untouched; generated axioms follow in a deterministic
    order (support, completion, curation, assumption units). ``tax`` is
    ``build_taxonomy(ontology)``, for a caller that closes one ontology
    more than once; without it the taxonomy is built here."""
    if mode not in MODES:
        raise ValueError(f"unknown closure mode {mode!r}; expected one of {MODES}")
    curation = curation or CurationFile.empty()
    if mode == OWA:
        return ontology
    if tax is None:
        tax = build_taxonomy(ontology)
    additions = support_axioms() + complete_subclass(tax)
    if mode == SUBCLASS_DISJOINT:
        additions += _curation_axioms(curation, disjoint_only=False)
        additions += assume_disjointness(tax, curation, prune=prune,
                                         strict=strict)
    elif mode == SUBCLASS_NONDISJOINT:
        additions += _curation_axioms(curation, disjoint_only=True)
        additions += assume_nondisjointness(tax, curation, prune=prune)
    return ontology.extended(additions)
