"""First-order form problem files for external provers.

Ontology symbols become prover-legal lowercase identifiers through a
reversible per-run table: predicates get an ``s__`` prefix, constants
``c__``, with numeric suffixes on collisions. Axiom names keep their
provenance prefix (``orig_``, ``sup_``, ``comp_``, ``cwad_``, ``cwan_``,
``cur_``) so used-axiom lists read back from proofs can be bucketed.
"""

from __future__ import annotations

import re
import threading
import weakref
from collections import ChainMap
from dataclasses import dataclass, field

from . import kif
from .kif import (
    And, Atom, Equal, Exists, Forall, Formula, Iff, Implies, Not, Ontology, Or,
)


class TptpError(kif.KifError):
    pass


class UnsupportedConstructError(TptpError):
    """The formula cannot be rendered (open formulas, mainly)."""


_SANITIZE = re.compile(r"[^A-Za-z0-9_]")


class MangleTable:
    """Reversible symbol renaming for one emission run."""

    def __init__(self):
        self._forward: dict[tuple[str, str], str] = {}
        self._backward: dict[str, tuple[str, str]] = {}

    def _claim(self, namespace: str, original: str, candidate: str) -> str:
        chosen = candidate
        n = 1
        while chosen in self._backward:
            if self._backward[chosen] == (namespace, original):
                return chosen
            n += 1
            chosen = f"{candidate}_{n}"
        self._forward[(namespace, original)] = chosen
        self._backward[chosen] = (namespace, original)
        return chosen

    def _mangle(self, namespace: str, prefix: str, original: str) -> str:
        key = (namespace, original)
        if key in self._forward:
            return self._forward[key]
        base = _SANITIZE.sub("_", original.lstrip("$")).lower().strip("_")
        if not base:
            base = "x"
        return self._claim(namespace, original, prefix + base)

    def predicate(self, name: str) -> str:
        return self._mangle("predicate", "s__", name)

    def constant(self, name: str) -> str:
        return self._mangle("constant", "c__", name)

    def axiom_name(self, axiom_id: str) -> str:
        key = ("name", axiom_id)
        if key in self._forward:
            return self._forward[key]
        base = _SANITIZE.sub("_", axiom_id).lower().strip("_") or "ax"
        if not base[0].isalpha():
            base = "ax_" + base
        return self._claim("name", axiom_id, base)

    def demangle(self, mangled: str) -> "str | None":
        entry = self._backward.get(mangled)
        return entry[1] if entry else None

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


def to_fof(formula: Formula, table: "MangleTable | None" = None) -> str:
    """Render one closed formula in first-order form syntax."""
    if table is None:
        table = MangleTable()
    free = kif.free_variables(formula)
    if free:
        raise UnsupportedConstructError(
            "cannot emit open formula; free variables: "
            + ", ".join(sorted(free)))
    namer = _variable_namer(set())

    def term(t: kif.Term, env: dict[str, str]) -> str:
        if t.kind == kif.VARIABLE:
            if t.name not in env:
                raise UnsupportedConstructError(f"unbound variable {t.name!r}")
            return env[t.name]
        return table.constant(t.name)

    def render(f: Formula, env: dict[str, str]) -> str:
        if isinstance(f, Atom):
            pred = table.predicate(f.predicate)
            if not f.args:
                return pred
            return pred + "(" + ",".join(term(t, env) for t in f.args) + ")"
        if isinstance(f, Equal):
            return f"({term(f.left, env)} = {term(f.right, env)})"
        if isinstance(f, Not):
            return "~ " + _wrap(f.body, render(f.body, env))
        if isinstance(f, (And, Or)):
            op = " & " if isinstance(f, And) else " | "
            return "(" + op.join(_wrap(p, render(p, env)) for p in f.parts) + ")"
        if isinstance(f, (Implies, Iff)):
            op = " => " if isinstance(f, Implies) else " <=> "
            left = _wrap(f.left, render(f.left, env))
            right = _wrap(f.right, render(f.right, env))
            return f"({left}{op}{right})"
        quant = "!" if isinstance(f, Forall) else "?"
        inner_env = dict(env)
        names = [namer(v) for v in f.variables]
        inner_env.update(zip(f.variables, names))
        body = render(f.body, inner_env)
        return f"{quant} [{','.join(names)}] : " + _wrap(f.body, body)

    def _wrap(f: Formula, text: str) -> str:
        # everything else renders self-delimiting (atoms, ~ chains, or
        # already carries outer parentheses)
        if isinstance(f, (Forall, Exists)):
            return f"({text})"
        return text

    return render(formula, {})


@dataclass(frozen=True)
class TptpProblem:
    """One problem file: named axioms plus exactly one conjecture."""
    header: tuple[str, ...]
    axioms: tuple[tuple[str, str], ...]  # (name, formula text)
    conjecture: tuple[str, str]
    table: MangleTable = field(compare=False, repr=False, default_factory=MangleTable)

    @property
    def text(self) -> str:
        lines = list(self.header)
        lines += [f"fof({name}, axiom, {body})." for name, body in self.axioms]
        name, body = self.conjecture
        lines.append(f"fof({name}, conjecture, {body}).")
        return "\n".join(lines) + "\n"

    def axiom_id_for(self, fof_name: str) -> "str | None":
        return self.table.demangle(fof_name)


# Each ontology's rendered axioms and the table after them, held only as
# long as the ontology itself (ontologies are immutable).
_axiom_blocks: "weakref.WeakKeyDictionary[Ontology, tuple]" = \
    weakref.WeakKeyDictionary()
_axiom_blocks_lock = threading.Lock()


def _axiom_block(ontology: Ontology
                 ) -> tuple[MangleTable, tuple[tuple[str, str], ...]]:
    """The ontology's axioms as (name, formula text), rendered once, and
    the table that named them; the table is never changed afterwards."""
    with _axiom_blocks_lock:
        block = _axiom_blocks.get(ontology)
        if block is None:
            table = MangleTable()
            axioms = tuple((table.axiom_name(ax.id),
                            to_fof(ax.formula, table)) for ax in ontology)
            block = _axiom_blocks[ontology] = (table, axioms)
        return block


def emit_problem(ontology: Ontology, test_formula: Formula,
                 metadata: "dict[str, str] | None" = None,
                 conjecture_name: str = "cq") -> TptpProblem:
    """All ontology axioms in order, then the test as the sole conjecture.
    The axioms are rendered once per ontology; each problem names its
    conjecture's new symbols in a table of its own over that rendering."""
    base, axioms = _axiom_block(ontology)
    table = base._overlay()
    header = tuple(f"% {key}: {value}"
                   for key, value in sorted((metadata or {}).items()))
    conjecture = (table.axiom_name(conjecture_name),
                  to_fof(test_formula, table))
    return TptpProblem(header=header, axioms=axioms, conjecture=conjecture,
                       table=table)
