"""S-expression ontology format: formula AST, parser, serializer, size metrics.

The surface syntax is parenthesized prefix notation with ``;`` line comments.
Connectives are ``and or not => <=> forall exists``; ``equal`` is built-in
equality; every other head symbol is a predicate. Variables are ``?``-prefixed
tokens anywhere, or fully-uppercase tokens when they appear in a quantifier
variable list (and references to them inside the quantifier body).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple, Union

VARIABLE = "variable"
CONSTANT = "constant"

PROVENANCES = ("original", "completion", "cwa-disjoint", "cwa-nondisjoint",
               "curation", "support")


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

    def __add__(self, other: "SizeStats") -> "SizeStats":
        """The metrics of two axiom lists joined."""
        return SizeStats(*(getattr(self, f.name) + getattr(other, f.name)
                           for f in fields(self)))

    def as_csv_row(self) -> str:
        return ",".join(str(getattr(self, f.name)) for f in fields(self))

    @classmethod
    def csv_header(cls) -> str:
        return ",".join(f.name.removesuffix("_count") for f in fields(cls))


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------

class _Shape(NamedTuple):
    # the terms of an atom or an equality, the subformulas of anything
    # else, in order
    parts: Callable[[Formula], tuple]
    rebuild: Callable[[Formula, list], Formula]  # the node with new parts


# The one place that knows each node type's parts.
_SHAPES: dict[type, _Shape] = {
    Atom: _Shape(attrgetter("args"),
                 lambda f, args: Atom(f.predicate, tuple(args))),
    Equal: _Shape(lambda f: (f.left, f.right), lambda f, terms: Equal(*terms)),
    Not: _Shape(lambda f: (f.body,), lambda f, parts: Not(*parts)),
    And: _Shape(attrgetter("parts"), lambda f, parts: And(tuple(parts))),
    Or: _Shape(attrgetter("parts"), lambda f, parts: Or(tuple(parts))),
    Implies: _Shape(lambda f: (f.left, f.right),
                    lambda f, parts: Implies(*parts)),
    Iff: _Shape(lambda f: (f.left, f.right), lambda f, parts: Iff(*parts)),
    Forall: _Shape(lambda f: (f.body,),
                   lambda f, parts: Forall(f.variables, *parts)),
    Exists: _Shape(lambda f: (f.body,),
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


def map_terms(formula: Formula, fn: Callable[[Term], Term]) -> Formula:
    """The formula with every term ``t`` replaced by ``fn(t)``, bound
    variables' occurrences included."""
    parts, rebuild = _SHAPES[type(formula)]
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
    parts_of, rebuild = _SHAPES[type(node)]
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
    if isinstance(formula, _TERM_NODES):
        # outside any quantifier, as most axioms are, an atom or an
        # equality is its own result: return before making any names
        if not mapping:
            return formula
        return map_terms(formula, lambda t: Term(VARIABLE, mapping[t.name])
                         if t.kind == VARIABLE and t.name in mapping else t)
    if fresh is None:
        fresh = (f"_v{i}" for i in range(10 ** 9))
    mapping = mapping or {}
    if isinstance(formula, _QUANTIFIERS):
        new_vars = tuple(next(fresh) for _ in formula.variables)
        inner = {**mapping, **dict(zip(formula.variables, new_vars))}
        return type(formula)(new_vars, rename_bound(formula.body, fresh, inner))
    return _SHAPES[type(formula)].rebuild(
        formula, [rename_bound(p, fresh, mapping) for p in children(formula)])


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_SYMBOL = r'[^ \t\r\n();"]+'
# the next token after any spaces, tabs, CRs and comments: a line feed, a
# parenthesis, a string (the closing quote is missing only at the end of
# an unterminated one) or a symbol. What a skip leaves starts one of
# these, so no text goes unread; at the end of the text the token is empty
_TOKEN = re.compile(
    r'(?:[ \t\r]+|;[^\n]*)*(\n|[()]|"[^"]*"?|' + _SYMBOL + r'|\Z)')
_CONSTANT_SYMBOL = re.compile(r"(?!\?)" + _SYMBOL)


def is_constant_symbol(name: str) -> bool:
    """Whether ``name`` is written and read back as one constant: a single
    symbol, holding no space, tab, CR, LF, parenthesis, ``;`` or ``"``,
    that does not start with ``?``."""
    return _CONSTANT_SYMBOL.fullmatch(name) is not None


class _SexpSymbol(str):
    """A token with its 1-based line and column, read only to word an
    error."""
    line: int
    column: int


class _Syntax(Exception):
    """A syntax error, as its message and the token it names; only
    ``parse_axioms`` words it, with the token's position."""


def _located_tokens(text: str) -> Iterator[_SexpSymbol]:
    """The ``_TOKEN`` tokens of the text, each with its position."""
    # line_start: offset of the newline ending the line before (or -1)
    line, line_start = 1, -1
    for m in _TOKEN.finditer(text):
        tok, start = m[1], m.start(1)
        sym = _SexpSymbol(tok)
        sym.line, sym.column = line, start - line_start
        yield sym
        if "\n" in tok:  # a line feed or a string that spans lines
            line += tok.count("\n")
            line_start = start + tok.rindex("\n")


def _read_sexprs(tokens):
    """Group the tokens of a text into nested lists of symbols in one pass.
    Each top-level form comes with the line of its first symbol and its
    closing parenthesis (itself for a bare symbol)."""
    forms = []
    form = None  # the list being read, or None at the top level
    # the lists that contain it, outermost first, each with the '(' that
    # opened the list read inside it
    enclosing: list = []
    # an unterminated string, always the last token, is reported before
    # any unbalanced ')' found earlier, as the error for the whole text
    unbalanced = None
    line = head_line = 1
    for tok in tokens:
        if tok == "(":
            if form is None:
                head_line = 0
            enclosing.append((form, tok))
            form = []
        elif tok == ")":
            if form is None:
                unbalanced = unbalanced or tok
                continue
            done = form
            form, _ = enclosing.pop()
            if form is None:
                forms.append((done, head_line, tok))
            else:
                form.append(done)
        elif tok == "\n":
            line += 1
        elif tok:  # the empty token ends the text
            if not head_line:
                head_line = line
            if form is None:
                forms.append((tok, line, tok))
            else:
                form.append(tok)
            if tok[0] == '"':
                if len(tok) == 1 or tok[-1] != '"':
                    raise _Syntax("unterminated string", tok)
                line += tok.count("\n")
    if unbalanced:
        raise _Syntax("unbalanced ')'", unbalanced)
    if form is not None:
        raise _Syntax("unbalanced '('", enclosing[-1][1])
    return forms


# the connectives but ``and`` and ``or``: the number of arguments each
# takes, and that number as its syntax error words it
_ARITY = {"not": (1, "exactly 1 subformula"), "equal": (2, "exactly 2 terms"),
          **dict.fromkeys(("=>", "<=>"), (2, "exactly 2 subformulas")),
          **dict.fromkeys(("forall", "exists"),
                          (2, "a variable list and a body"))}


def _first_symbol(form, fallback: str) -> str:
    node = form
    while isinstance(node, list) and node:
        node = node[0]
    return fallback if isinstance(node, list) else node


def _parse_term(form, bound: frozenset[str], close_tok: str,
                terms: dict) -> Term:
    if isinstance(form, list):
        raise _Syntax("expected a term, found a nested expression",
                      _first_symbol(form, close_tok))
    # every bound name is a variable token: ?name or uppercase
    key = (VARIABLE if form in bound or form[0] == "?" else CONSTANT, form)
    term = terms.get(key)
    if term is None:
        term = terms[key] = Term(key[0], str(form))
    return term


def _parse_formula(form, bound: frozenset[str], close_tok: str,
                   terms: dict) -> Formula:
    """The formula of a form; ``terms`` holds the terms made so far, for
    the whole text to share one object per term."""
    if not isinstance(form, list):
        raise _Syntax(f"expected a formula, found bare symbol {form!r}", form)
    if not form:
        raise _Syntax("empty expression", close_tok)
    head, *args = form
    if isinstance(head, list):
        raise _Syntax("expression head must be a connective or predicate",
                      _first_symbol(head, close_tok))
    name = str(head)
    if name == "and" or name == "or":
        if len(args) < 2:
            raise _Syntax(f"'{name}' takes at least 2 subformulas, "
                          f"found {len(args)}", head)
        parts = tuple([_parse_formula(a, bound, close_tok, terms)
                       for a in args])
        return And(parts) if name == "and" else Or(parts)
    if name not in _ARITY:  # an atom over terms
        return Atom(name, tuple([_parse_term(a, bound, close_tok, terms)
                                 for a in args]))
    count, what = _ARITY[name]
    if len(args) != count:
        raise _Syntax(f"'{name}' takes {what}, found {len(args)} arguments",
                      head)
    if name == "not":
        return Not(_parse_formula(args[0], bound, close_tok, terms))
    if name == "equal":
        return Equal(_parse_term(args[0], bound, close_tok, terms),
                     _parse_term(args[1], bound, close_tok, terms))
    if name == "forall" or name == "exists":
        var_list = args[0]
        if not isinstance(var_list, list) or not var_list:
            raise _Syntax(f"'{name}' needs a parenthesized variable list",
                          head)
        for v in var_list:
            if isinstance(v, list):
                raise _Syntax("variable list entries must be symbols",
                              _first_symbol(v, close_tok))
            if not (v[0] == "?" or v.isupper()
                    and any(c.isalpha() for c in v)):
                raise _Syntax(f"{str(v)!r} is not a variable "
                              f"(use ?name or UPPERCASE)", v)
        names = tuple(map(str, var_list))
        body = _parse_formula(args[1], bound | frozenset(names), close_tok,
                              terms)
        return (Forall if name == "forall" else Exists)(names, body)
    left = _parse_formula(args[0], bound, close_tok, terms)
    right = _parse_formula(args[1], bound, close_tok, terms)
    return Implies(left, right) if name == "=>" else Iff(left, right)


def _parse_forms(tokens, source_name: str) -> list[Axiom]:
    axioms: list[Axiom] = []
    terms: dict[tuple[str, str], Term] = {}
    for i, (form, line, close_tok) in enumerate(_read_sexprs(tokens),
                                                start=1):
        if not isinstance(form, list):
            raise _Syntax(f"top-level symbol {form!r} is not a formula", form)
        axioms.append(Axiom(
            id=f"orig_{i}",
            formula=_parse_formula(form, frozenset(), close_tok, terms),
            provenance="original", source=f"{source_name}:{line}"))
    return axioms


def parse_axioms(text: str, source_name: str = "<string>") -> list[Axiom]:
    """Every top-level S-expression as an original axiom, in text order,
    alpha-equivalent ones included. A syntax error names ``source_name``."""
    try:
        return _parse_forms(_TOKEN.findall(text), source_name)
    except _Syntax:
        pass
    # the tokens held no positions: the same reader and checks over the
    # same tokens with positions raise the same error at a located token
    try:
        _parse_forms(_located_tokens(text), source_name)
    except _Syntax as exc:
        message, token = exc.args
        raise KifSyntaxError(f"{source_name}: {message}", token.line,
                             token.column) from None
    raise AssertionError("a syntax error went unlocated")


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

def serialize_formula(f: Formula, width: int = 72, indent: int = 0) -> str:
    """The formula's text at ``indent``: its one-line text if that fits in
    ``width``, else its head and each part on a line of its own. Each node
    is built once, from its parts' texts. A node fits only if its parts
    do: each is shorter than the node by more than the two columns it is
    indented by further. So a node with a part laid out on lines, whose
    joined parts are longer still than its one-line text, fails the test."""
    kind = type(f)
    if kind is Atom:
        args = f.args  # most are binary: a format string is the fastest
        return (f"({f.predicate} {args[0].name} {args[1].name})"
                if len(args) == 2 else
                "(" + " ".join([f.predicate] + [t.name for t in args]) + ")")
    if kind is Equal:
        return f"(equal {f.left.name} {f.right.name})"
    inner = indent + 2
    if kind is And or kind is Or:
        head = "and" if kind is And else "or"
        texts = [serialize_formula(part, width, inner) for part in f.parts]
    elif kind is Implies or kind is Iff:
        head = "=>" if kind is Implies else "<=>"
        texts = [serialize_formula(f.left, width, inner),
                 serialize_formula(f.right, width, inner)]
    elif kind is Not:
        head, texts = "not", [serialize_formula(f.body, width, inner)]
    else:
        head = ("forall (" if kind is Forall else "exists (") \
            + " ".join(f.variables) + ")"
        texts = [serialize_formula(f.body, width, inner)]
    text = "(" + head + " " + " ".join(texts) + ")"
    if len(text) + indent <= width:
        return text
    pad = "\n" + "  " * (indent // 2 + 1)
    return "(" + head + pad + pad.join(texts) + ")"


def serialize_kif(ontology: Ontology) -> str:
    """Text that re-parses to a structurally identical ontology."""
    return "".join([serialize_formula(ax.formula) + "\n" for ax in ontology])


# ---------------------------------------------------------------------------
# Size metrics
# ---------------------------------------------------------------------------

def count_metrics(ontology: Ontology) -> SizeStats:
    nodes = dict.fromkeys(_SHAPES, 0)
    units = 0
    for ax in ontology:
        _count_nodes(ax.formula, nodes)
        units += is_unit_clause(ax.formula)
    return SizeStats(
        axiom_count=len(ontology),
        unit_clause_count=units,
        formula_count=len(ontology) - units,
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


def _count_nodes(f: Formula, nodes: dict[type, int]) -> None:
    """Add the formula's nodes to their type's count in ``nodes``."""
    kind = type(f)
    nodes[kind] += 1
    if kind is And or kind is Or:
        for part in f.parts:
            _count_nodes(part, nodes)
    elif kind is Implies or kind is Iff:
        _count_nodes(f.left, nodes)
        _count_nodes(f.right, nodes)
    elif kind is not Atom and kind is not Equal:
        _count_nodes(f.body, nodes)
