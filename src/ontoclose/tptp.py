"""First-order form problem files for external provers.

A batch renders its axioms once, as an :class:`AxiomBlock` that all its
problems share. Ontology symbols become prover-legal lowercase
identifiers through the block's reversible table, and a problem's new
symbols through a table of its own laid over it: predicates get an
``s__`` prefix, constants ``c__``, with numeric suffixes on collisions.
Axiom names keep their provenance prefix (``orig_``, ``sup_``, ``comp_``,
``cwad_``, ``cwan_``, ``cur_``) so used-axiom lists read back from proofs
can be bucketed.
"""

from __future__ import annotations

import re
from collections import ChainMap
from typing import Callable

from . import kif
from .kif import (
    And, Atom, Equal, Exists, Forall, Formula, Iff, Implies, Not, Ontology, Or,
)


class UnsupportedConstructError(kif.KifError):
    """The formula cannot be rendered (open formulas, mainly)."""


_SANITIZE = re.compile(r"[^A-Za-z0-9_]")


class MangleTable:
    """Reversible symbol renaming for one emission run."""

    def __init__(self):
        # symbols only; every name claimed maps back to its symbol or id
        self._forward: dict[tuple[str, str], str] = {}
        self._backward: dict[str, str] = {}

    def _claim(self, original: str, candidate: str) -> str:
        chosen, n = candidate, 1
        while chosen in self._backward:
            n += 1
            chosen = f"{candidate}_{n}"
        self._backward[chosen] = original
        return chosen

    def _mangle(self, namespace: str, prefix: str, original: str) -> str:
        key = (namespace, original)
        name = self._forward.get(key)
        if name is None:
            base = (_SANITIZE.sub("_", original.lstrip("$")).lower().strip("_")
                    or "x")
            name = self._forward[key] = self._claim(original, prefix + base)
        return name

    def predicate(self, name: str) -> str:
        return self._mangle("predicate", "s__", name)

    def constant(self, name: str) -> str:
        return self._mangle("constant", "c__", name)

    def axiom_name(self, axiom_id: str) -> str:
        # every call claims a new name: ids are unique in an ontology, and
        # a conjecture named like an axiom must not take the axiom's name
        base = _SANITIZE.sub("_", axiom_id).lower().strip("_") or "ax"
        if not base[0].isalpha():
            base = "ax_" + base
        return self._claim(axiom_id, base)

    def demangle(self, mangled: str) -> "str | None":
        return self._backward.get(mangled)

    def _overlay(self) -> "MangleTable":
        """A table that starts with this one's names and records new ones
        only in itself, leaving this one unchanged."""
        child = MangleTable()
        child._forward = ChainMap({}, self._forward)
        child._backward = ChainMap({}, self._backward)
        return child


def _variable_namer(used: set[str]):
    def name_for(original: str) -> str:
        base = _SANITIZE.sub("_", original.lstrip("?")).upper().strip("_")
        if not base or not base[0].isalpha():
            base = "V" + base
        chosen, n = base, 1
        while chosen in used:
            n += 1
            chosen = f"{base}{n}"
        used.add(chosen)
        return chosen

    return name_for


_OPERATORS = {And: " & ", Or: " | ", Implies: " => ", Iff: " <=> "}


def to_fof(formula: Formula, table: "MangleTable | None" = None) -> str:
    """Render one closed formula in first-order form syntax."""
    return _render(formula, {}, table or MangleTable(), _variable_namer(set()))


# Module functions that take the table and the namer as arguments:
# nested functions that call each other would form a reference cycle per
# formula, and commands run with the cyclic garbage collector off.

def _term(t: kif.Term, env: dict[str, str], table: MangleTable) -> str:
    if t.kind == kif.VARIABLE:
        if t.name not in env:
            raise UnsupportedConstructError(
                f"cannot emit open formula; free variable {t.name!r}")
        return env[t.name]
    return table.constant(t.name)


def _render(f: Formula, env: dict[str, str], table: MangleTable,
            namer: Callable[[str], str]) -> str:
    if isinstance(f, Atom):
        pred = table.predicate(f.predicate)
        if not f.args:
            return pred
        return pred + "(" + ",".join(_term(t, env, table)
                                     for t in f.args) + ")"
    if isinstance(f, Equal):
        return f"({_term(f.left, env, table)} = {_term(f.right, env, table)})"
    if isinstance(f, Not):
        return "~ " + _wrap(f.body, _render(f.body, env, table, namer))
    op = _OPERATORS.get(type(f))
    if op:
        return "(" + op.join(_wrap(p, _render(p, env, table, namer))
                             for p in kif.children(f)) + ")"
    quant = "!" if isinstance(f, Forall) else "?"
    inner_env = dict(env)
    names = [namer(v) for v in f.variables]
    inner_env.update(zip(f.variables, names))
    body = _render(f.body, inner_env, table, namer)
    return f"{quant} [{','.join(names)}] : " + _wrap(f.body, body)


def _wrap(f: Formula, text: str) -> str:
    # everything else renders self-delimiting (atoms, ~ chains, or
    # already carries outer parentheses)
    if isinstance(f, (Forall, Exists)):
        return f"({text})"
    return text


class AxiomBlock:
    """An ontology's axioms as problem-file lines and the table that named
    their symbols; neither changes after construction."""

    def __init__(self, ontology: Ontology):
        self.table = table = MangleTable()
        self.text = "".join(f"fof({table.axiom_name(ax.id)}, axiom, "
                            f"{to_fof(ax.formula, table)}).\n"
                            for ax in ontology)


def emit_problem(block: AxiomBlock, test_formula: Formula,
                 metadata: "dict[str, str] | None" = None,
                 conjecture_name: str = "cq") -> str:
    """The text of one problem file: the block's axioms, then the test as
    the sole conjecture."""
    table = block.table._overlay()
    header = "".join(f"% {key}: {value}\n"
                     for key, value in sorted((metadata or {}).items()))
    name = table.axiom_name(conjecture_name)
    return (header + block.text
            + f"fof({name}, conjecture, {to_fof(test_formula, table)}).\n")
