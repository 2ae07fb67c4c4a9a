"""S-expression ontology format: formula AST, parser, serializer, size metrics.

The surface syntax is parenthesized prefix notation with ``;`` line comments.
Connectives are ``and or not => <=> forall exists``; ``equal`` is built-in
equality; every other head symbol is a predicate. Variables are ``?``-prefixed
tokens anywhere, or fully-uppercase tokens when they appear in a quantifier
variable list (and references to them inside the quantifier body).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple, Union

VARIABLE = "variable"
CONSTANT = "constant"

PROVENANCES = (
    "original",
    "completion",
    "cwa-disjoint",
    "cwa-nondisjoint",
    "curation",
    "support",
)


class KifError(Exception):
    """Base error for this package's ontology handling."""


class KifSyntaxError(KifError):
    """Malformed source text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Term:
    kind: str  # VARIABLE or CONSTANT
    name: str

    def __post_init__(self):
        if self.kind not in (VARIABLE, CONSTANT):
            raise ValueError(f"bad term kind: {self.kind!r}")
        if not self.name:
            raise ValueError("empty term name")


def var(name: str) -> Term:
    return Term(VARIABLE, name)


def const(name: str) -> Term:
    return Term(CONSTANT, name)


@dataclass(frozen=True, slots=True)
class Atom:
    predicate: str
    args: tuple[Term, ...]

    def __post_init__(self):
        if not self.predicate:
            raise ValueError("empty predicate name")


@dataclass(frozen=True, slots=True)
class Equal:
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Not:
    body: "Formula"


@dataclass(frozen=True, slots=True)
class And:
    parts: tuple["Formula", ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("'and' needs at least two subformulas")


@dataclass(frozen=True, slots=True)
class Or:
    parts: tuple["Formula", ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("'or' needs at least two subformulas")


@dataclass(frozen=True, slots=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Forall:
    variables: tuple[str, ...]
    body: "Formula"

    def __post_init__(self):
        if not self.variables:
            raise ValueError("quantifier block binds no variables")


@dataclass(frozen=True, slots=True)
class Exists:
    variables: tuple[str, ...]
    body: "Formula"

    def __post_init__(self):
        if not self.variables:
            raise ValueError("quantifier block binds no variables")


Formula = Union[Atom, Equal, Not, And, Or, Implies, Iff, Forall, Exists]


@dataclass(frozen=True, slots=True)
class Axiom:
    id: str
    formula: Formula
    provenance: str
    source: str = "generated"

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance: {self.provenance!r}")


class Ontology:
    """Immutable ordered axiom collection with unique axiom ids."""

    def __init__(self, axioms: "list[Axiom] | tuple[Axiom, ...]" = ()):
        self._axioms = tuple(axioms)
        seen: set[str] = set()
        for ax in self._axioms:
            if ax.id in seen:
                raise KifError(f"duplicate axiom id: {ax.id}")
            seen.add(ax.id)

    @property
    def axioms(self) -> tuple[Axiom, ...]:
        return self._axioms

    def __len__(self) -> int:
        return len(self._axioms)

    def __iter__(self) -> Iterator[Axiom]:
        return iter(self._axioms)

    def extended(self, more: "list[Axiom] | tuple[Axiom, ...]") -> "Ontology":
        return Ontology(self._axioms + tuple(more))

    def structurally_equal(self, other: "Ontology") -> bool:
        if len(self) != len(other):
            return False
        return all(a.formula == b.formula for a, b in zip(self, other))


@dataclass(frozen=True)
class SizeStats:
    axiom_count: int = 0
    unit_clause_count: int = 0
    formula_count: int = 0
    atom_count: int = 0
    forall_block_count: int = 0
    exists_block_count: int = 0
    iff_count: int = 0
    implies_count: int = 0
    and_count: int = 0
    or_count: int = 0
    not_count: int = 0
    equality_count: int = 0

    def as_csv_row(self) -> str:
        return ",".join(str(getattr(self, f.name)) for f in fields(self))

    @classmethod
    def csv_header(cls) -> str:
        return ",".join(f.name.removesuffix("_count") for f in fields(cls))


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------

class _Shape(NamedTuple):
    head: Callable[[Formula], str]  # serialized head: "and", "forall (X Y)"
    # the terms of an atom or an equality, the subformulas of anything
    # else, in order
    parts: Callable[[Formula], tuple]
    rebuild: Callable[[Formula, list], Formula]  # the node with new parts


# The one place that knows each node type's shape.
_SHAPES: dict[type, _Shape] = {
    Atom: _Shape(attrgetter("predicate"), attrgetter("args"),
                 lambda f, args: Atom(f.predicate, tuple(args))),
    Equal: _Shape(lambda f: "equal", lambda f: (f.left, f.right),
                  lambda f, terms: Equal(*terms)),
    Not: _Shape(lambda f: "not", lambda f: (f.body,),
                lambda f, parts: Not(*parts)),
    And: _Shape(lambda f: "and", attrgetter("parts"),
                lambda f, parts: And(tuple(parts))),
    Or: _Shape(lambda f: "or", attrgetter("parts"),
               lambda f, parts: Or(tuple(parts))),
    Implies: _Shape(lambda f: "=>", lambda f: (f.left, f.right),
                    lambda f, parts: Implies(*parts)),
    Iff: _Shape(lambda f: "<=>", lambda f: (f.left, f.right),
                lambda f, parts: Iff(*parts)),
    Forall: _Shape(lambda f: f"forall ({' '.join(f.variables)})",
                   lambda f: (f.body,),
                   lambda f, parts: Forall(f.variables, *parts)),
    Exists: _Shape(lambda f: f"exists ({' '.join(f.variables)})",
                   lambda f: (f.body,),
                   lambda f, parts: Exists(f.variables, *parts)),
}
_TERM_NODES = (Atom, Equal)
_QUANTIFIERS = (Forall, Exists)


def children(formula: Formula) -> tuple[Formula, ...]:
    """The direct subformulas of a node, in order; none for an atom or an
    equality."""
    if isinstance(formula, _TERM_NODES):
        return ()
    return _SHAPES[type(formula)].parts(formula)


def _rebuild(formula: Formula, parts: list) -> Formula:
    return _SHAPES[type(formula)].rebuild(formula, parts)


def map_terms(formula: Formula, fn: Callable[[Term], Term]) -> Formula:
    """The formula with every term ``t`` replaced by ``fn(t)``, bound
    variables' occurrences included."""
    _, parts, rebuild = _SHAPES[type(formula)]
    if isinstance(formula, _TERM_NODES):
        return rebuild(formula, [fn(t) for t in parts(formula)])
    return rebuild(formula, [map_terms(p, fn) for p in parts(formula)])


def constant_filler(formula: Formula, names: frozenset[str]
                    ) -> Callable[[dict[str, str]], Formula]:
    """The formula compiled into a function of a table from each name in
    ``names`` that occurs as a constant to the constant to put in its
    place. The function returns what ``map_terms`` would with that
    renaming, but rebuilds only the nodes above a renamed constant and
    shares the others with ``formula``."""
    fill = _filler(formula, names)
    return (lambda table: formula) if fill is None else fill


def _filler(node: "Formula | Term", names: frozenset[str]):
    """``constant_filler`` of a node, or None when no constant named in
    ``names`` occurs in it."""
    if isinstance(node, Term):
        if node.kind != CONSTANT or node.name not in names:
            return None
        name = node.name
        return lambda table: Term(CONSTANT, table[name])
    _, parts_of, rebuild = _SHAPES[type(node)]
    parts = parts_of(node)
    fills = [_filler(part, names) for part in parts]
    if all(fill is None for fill in fills):
        return None
    getters = [fill or _shared(part) for part, fill in zip(parts, fills)]
    # one and two parts, the common cases, without a list comprehension:
    # it costs as much again as the node's own construction
    if len(getters) == 1:
        [get] = getters
        return lambda table: rebuild(node, (get(table),))
    if len(getters) == 2:
        get_left, get_right = getters
        return lambda table: rebuild(node, (get_left(table),
                                            get_right(table)))
    return lambda table: rebuild(node, [get(table) for get in getters])


def _shared(part: "Formula | Term"):
    return lambda table: part


def subformulas(formula: Formula) -> Iterator[Formula]:
    """Pre-order walk over the formula and all nested subformulas."""
    stack = [formula]
    while stack:
        f = stack.pop()
        yield f
        stack.extend(reversed(children(f)))


def free_variables(formula: Formula) -> set[str]:
    free: set[str] = set()
    _add_free_variables(formula, frozenset(), free)
    return free


def _add_free_variables(f: Formula, bound: frozenset[str],
                        free: set[str]) -> None:
    # a module function, not one nested in free_variables: a nested
    # function that calls itself is a reference cycle
    parts = _SHAPES[type(f)].parts(f)
    if isinstance(f, _TERM_NODES):
        for t in parts:
            if t.kind == VARIABLE and t.name not in bound:
                free.add(t.name)
        return
    if isinstance(f, _QUANTIFIERS):
        bound = bound | frozenset(f.variables)
    for part in parts:
        _add_free_variables(part, bound, free)


def is_unit_clause(formula: Formula) -> bool:
    """A bare or singly-negated atom with no quantifier."""
    if isinstance(formula, Not):
        formula = formula.body
    return isinstance(formula, _TERM_NODES)


def ground_atom(formula: Formula) -> "Atom | None":
    """The atom of an all-constant unit clause, or None."""
    if isinstance(formula, Atom) and all(t.kind == CONSTANT for t in formula.args):
        return formula
    return None


def rename_bound(formula: Formula, fresh: "Iterator[str] | None" = None,
                 mapping: "dict[str, str] | None" = None) -> Formula:
    """Rename bound variables to a canonical _v0, _v1, ... sequence."""
    if fresh is None:
        fresh = (f"_v{i}" for i in range(10 ** 9))
    mapping = mapping or {}
    if isinstance(formula, _TERM_NODES):
        if not mapping:
            return formula
        return map_terms(formula, lambda t: Term(VARIABLE, mapping[t.name])
                         if t.kind == VARIABLE and t.name in mapping else t)
    if isinstance(formula, _QUANTIFIERS):
        new_vars = tuple(next(fresh) for _ in formula.variables)
        inner = {**mapping, **dict(zip(formula.variables, new_vars))}
        return type(formula)(new_vars, rename_bound(formula.body, fresh, inner))
    return _rebuild(formula, [rename_bound(p, fresh, mapping)
                              for p in children(formula)])


def alpha_key(formula: Formula) -> str:
    """Serialized form with canonically renamed bound variables."""
    return serialize_formula(rename_bound(formula), width=10 ** 9)


def _sort_parts(f: Formula) -> Formula:
    """The formula with equality operands and and/or operands sorted."""
    if isinstance(f, Equal):
        return Equal(*sorted((f.left, f.right),
                             key=lambda t: (t.kind, t.name)))
    if isinstance(f, Atom):
        return f
    parts = [_sort_parts(p) for p in children(f)]
    if isinstance(f, (And, Or)):
        parts.sort(key=alpha_key)
    return _rebuild(f, parts)


def normalize(formula: Formula) -> Formula:
    """Canonical form: bound variables renamed, commutative connective
    operands sorted, then bound variables renamed again in the new order.
    Two formulas equal up to variable names and and/or/equal operand order
    normalize identically."""
    # renamed first to names that sort in binding order and differ from
    # alpha_key's, so that the operands sort alike whatever the original
    # names
    ordered = rename_bound(formula, (f"_n{i:09d}" for i in range(10 ** 9)))
    return rename_bound(_sort_parts(ordered))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_SYMBOL = r'[^ \t\r\n();"]+'
# every character starts one of: a whitespace run, a comment, a
# parenthesis, a string (the closing quote is missing only at the end of
# an unterminated one) or a symbol
_TOKEN = re.compile(r'[ \t\r\n]+|;[^\n]*|[()]|"[^"]*"?|' + _SYMBOL)
_CONSTANT_SYMBOL = re.compile(r"(?!\?)" + _SYMBOL)


def is_constant_symbol(name: str) -> bool:
    """Whether ``name`` is written and read back as one constant: a single
    symbol, holding no space, tab, CR, LF, parenthesis, ``;`` or ``"``,
    that does not start with ``?``."""
    return _CONSTANT_SYMBOL.fullmatch(name) is not None


class _SexpSymbol(str):
    """A symbol, a string or a closing parenthesis, with its 1-based line
    and column."""

    def __new__(cls, text: str, line: int, column: int):
        sym = super().__new__(cls, text)
        sym.line = line
        sym.column = column
        return sym


def _read_sexprs(text: str):
    """Group the text into nested lists of symbols in one scan. Each
    top-level form comes with its closing parenthesis (itself for a bare
    symbol)."""
    forms = []
    stack: list[list] = []
    open_positions: list[tuple[int, int]] = []
    # an unterminated string is reported before any unbalanced ')' found
    # earlier, as the error for the whole text
    unbalanced = None
    # line_start: offset of the newline ending the line before (or -1)
    line, line_start = 1, -1
    for m in _TOKEN.finditer(text):
        tok = m.group()
        ch = tok[0]
        column = m.start() - line_start
        if ch == "(":
            stack.append([])
            open_positions.append((line, column))
        elif ch == ")" and not stack:
            unbalanced = unbalanced or KifSyntaxError(
                "unbalanced ')'", line, column)
        elif ch == ")":
            done = stack.pop()
            open_positions.pop()
            if stack:
                stack[-1].append(done)
            else:
                forms.append((done, _SexpSymbol(ch, line, column)))
        elif ch not in " \t\r\n;":
            if ch == '"' and (len(tok) == 1 or tok[-1] != '"'):
                raise KifSyntaxError("unterminated string", line, column)
            sym = _SexpSymbol(tok, line, column)
            if stack:
                stack[-1].append(sym)
            else:
                forms.append((sym, sym))
        if "\n" in tok:  # only whitespace and strings span lines
            line += tok.count("\n")
            line_start = m.start() + tok.rindex("\n")
    if unbalanced:
        raise unbalanced
    if stack:
        raise KifSyntaxError("unbalanced '('", *open_positions[-1])
    return forms


def _is_variable_token(name: str) -> bool:
    return name.startswith("?")


def _is_uppercase_token(name: str) -> bool:
    return name.isupper() and any(c.isalpha() for c in name)


def _form_position(form, fallback: _SexpSymbol) -> tuple[int, int]:
    node = form
    while isinstance(node, list) and node:
        node = node[0]
    if isinstance(node, _SexpSymbol):
        return node.line, node.column
    return fallback.line, fallback.column


def _parse_term(form, bound: frozenset[str], close_tok: _SexpSymbol) -> Term:
    if isinstance(form, list):
        line, col = _form_position(form, close_tok)
        raise KifSyntaxError("expected a term, found a nested expression",
                             line, col)
    name = str(form)
    if _is_variable_token(name):
        return Term(VARIABLE, name)
    if _is_uppercase_token(name) and name in bound:
        return Term(VARIABLE, name)
    return Term(CONSTANT, name)


def _parse_formula(form, bound: frozenset[str], close_tok: _SexpSymbol) -> Formula:
    if not isinstance(form, list):
        raise KifSyntaxError(f"expected a formula, found bare symbol {form!r}",
                             form.line, form.column)
    if not form:
        line, col = close_tok.line, close_tok.column
        raise KifSyntaxError("empty expression", line, col)
    head = form[0]
    if isinstance(head, list):
        line, col = _form_position(head, close_tok)
        raise KifSyntaxError("expression head must be a connective or predicate",
                             line, col)
    name = str(head)
    args = form[1:]

    def need(count: int, what: str):
        if len(args) != count:
            raise KifSyntaxError(
                f"'{name}' takes {what}, found {len(args)} arguments",
                head.line, head.column)

    if name == "not":
        need(1, "exactly 1 subformula")
        return Not(_parse_formula(args[0], bound, close_tok))
    if name in ("and", "or"):
        if len(args) < 2:
            raise KifSyntaxError(
                f"'{name}' takes at least 2 subformulas, found {len(args)}",
                head.line, head.column)
        parts = tuple(_parse_formula(a, bound, close_tok) for a in args)
        return And(parts) if name == "and" else Or(parts)
    if name in ("=>", "<=>"):
        need(2, "exactly 2 subformulas")
        left = _parse_formula(args[0], bound, close_tok)
        right = _parse_formula(args[1], bound, close_tok)
        return Implies(left, right) if name == "=>" else Iff(left, right)
    if name in ("forall", "exists"):
        need(2, "a variable list and a body")
        var_list = args[0]
        if not isinstance(var_list, list) or not var_list:
            raise KifSyntaxError(f"'{name}' needs a parenthesized variable list",
                                 head.line, head.column)
        names = []
        for v in var_list:
            if isinstance(v, list):
                line, col = _form_position(v, close_tok)
                raise KifSyntaxError("variable list entries must be symbols",
                                     line, col)
            vname = str(v)
            if not (_is_variable_token(vname) or _is_uppercase_token(vname)):
                raise KifSyntaxError(
                    f"{vname!r} is not a variable (use ?name or UPPERCASE)",
                    v.line, v.column)
            names.append(vname)
        body = _parse_formula(args[1], bound | frozenset(names), close_tok)
        cls = Forall if name == "forall" else Exists
        return cls(tuple(names), body)
    if name == "equal":
        need(2, "exactly 2 terms")
        return Equal(_parse_term(args[0], bound, close_tok),
                     _parse_term(args[1], bound, close_tok))
    # anything else is an atom over terms
    return Atom(name, tuple(_parse_term(a, bound, close_tok) for a in args))


def parse_axioms(text: str, source_name: str = "<string>") -> list[Axiom]:
    """Every top-level S-expression as an original axiom, in text order,
    alpha-equivalent ones included. A syntax error names ``source_name``."""
    axioms = []
    try:
        for i, (form, close_tok) in enumerate(_read_sexprs(text), start=1):
            if not isinstance(form, list):
                raise KifSyntaxError(
                    f"top-level symbol {form!r} is not a formula",
                    form.line, form.column)
            line, _ = _form_position(form, close_tok)
            formula = _parse_formula(form, frozenset(), close_tok)
            axioms.append(Axiom(id=f"orig_{i}", formula=formula,
                                provenance="original",
                                source=f"{source_name}:{line}"))
    except KifSyntaxError as exc:
        exc.args = (f"{source_name}: {exc}",)
        raise
    return axioms


def parse_kif(text: str, source_name: str = "<string>") -> Ontology:
    """Parse top-level S-expressions into an ontology of original axioms;
    an axiom alpha-equivalent to an earlier one is dropped."""
    first: dict[Formula, Axiom] = {}
    for ax in parse_axioms(text, source_name):
        first.setdefault(rename_bound(ax.formula), ax)
    return Ontology(tuple(first.values()))


def parse_formula_text(text: str, source_name: str = "<string>") -> Formula:
    """Parse a single formula from text (convenience for tests and tools)."""
    ontology = parse_kif(text, source_name)
    if len(ontology) != 1:
        raise KifError(f"{source_name}: expected exactly one formula, "
                       f"found {len(ontology)}")
    return ontology.axioms[0].formula


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def serialize_formula(formula: Formula, width: int = 72, indent: int = 0) -> str:
    """Render one formula; nests onto new lines when the inline form is long."""
    out: list[str] = []
    _write_inline(formula, out)
    flat = "".join(out)
    if len(flat) + indent <= width or isinstance(formula, _TERM_NODES):
        return flat
    pad = "\n" + "  " * (indent // 2 + 1)
    inner = [serialize_formula(p, width, indent + 2) for p in children(formula)]
    head = _SHAPES[type(formula)].head(formula)
    return "(" + head + pad + pad.join(inner) + ")"


def _write_inline(formula: Formula, out: list[str]) -> None:
    """Append the one-line text of the formula to ``out`` in pieces, for
    the caller to join once (cheaper than a string per node)."""
    head, parts, _ = _SHAPES[type(formula)]
    out.append("(" + head(formula))
    if isinstance(formula, _TERM_NODES):
        for t in parts(formula):
            out.append(" " + t.name)
    else:
        for part in parts(formula):
            out.append(" ")
            _write_inline(part, out)
    out.append(")")


def serialize_kif(ontology: Ontology) -> str:
    """Text that re-parses to a structurally identical ontology."""
    if not len(ontology):
        return ""
    return "\n".join(serialize_formula(ax.formula) for ax in ontology) + "\n"


# ---------------------------------------------------------------------------
# Size metrics
# ---------------------------------------------------------------------------

def count_metrics(ontology: Ontology) -> SizeStats:
    formulas = [ax.formula for ax in ontology]
    nodes = Counter(type(sub) for f in formulas for sub in subformulas(f))
    units = sum(map(is_unit_clause, formulas))
    return SizeStats(
        axiom_count=len(formulas),
        unit_clause_count=units,
        formula_count=len(formulas) - units,
        atom_count=nodes[Atom] + nodes[Equal],
        forall_block_count=nodes[Forall],
        exists_block_count=nodes[Exists],
        iff_count=nodes[Iff],
        implies_count=nodes[Implies],
        and_count=nodes[And],
        or_count=nodes[Or],
        not_count=nodes[Not],
        equality_count=nodes[Equal],
    )
