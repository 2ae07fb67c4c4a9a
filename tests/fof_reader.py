"""A reader for the first-order form that ``tptp.to_fof`` writes.

It reads the ``fof`` lines of a problem file back into KIF formulas,
naming each predicate and constant through a ``MangleTable``'s
``demangle`` and keeping each variable's FOF name. It reads only the
subset the writer emits: ``~``, fully parenthesised ``&``, ``|``, ``=>``
and ``<=>`` chains, ``!`` and ``?`` blocks whose body is one unit,
parenthesised equalities and atoms. Tests compare what it reads with the
source formulas up to bound-variable names, and evaluate it in
``witness_model``'s model.
"""

from __future__ import annotations

import re

from ontoclose import kif

_TOKEN = re.compile(r"\s*(<=>|=>|[A-Za-z0-9_]+|[~&|!?\[\],:()=])")
_LINE = re.compile(r"fof\(([a-z][A-Za-z0-9_]*), (axiom|conjecture), (.+)\)\.")
_CHAINS = {"&": kif.And, "|": kif.Or}
_BINARY = {"=>": kif.Implies, "<=>": kif.Iff}


def read_problem(text: str, demangle) -> list[tuple[str, str, kif.Formula]]:
    """(name, role, formula) of each ``fof`` line, in file order; comment
    and blank lines are skipped, and any other line raises
    ``ValueError``."""
    read = []
    for line in text.splitlines():
        if not line.strip() or line.startswith("%"):
            continue
        match = _LINE.fullmatch(line)
        if match is None:
            raise ValueError(f"not a fof line: {line!r}")
        name, role, body = match.groups()
        read.append((name, role, read_formula(body, demangle)))
    return read


def read_formula(text: str, demangle) -> kif.Formula:
    """The one formula ``text`` holds; ``demangle`` gives each predicate
    and constant its source name, or ``None`` for a name it does not
    know, which raises ``KeyError``."""
    tokens, end = [], 0
    for match in _TOKEN.finditer(text):
        if match.start() != end:
            break
        tokens.append(match.group(1))
        end = match.end()
    if text[end:].strip():
        raise ValueError(f"cannot read {text[end:]!r}")
    formula, at = _formula(tokens, 0, demangle)
    if at != len(tokens):
        raise ValueError(f"text after the formula: {tokens[at:]}")
    return formula


def _expect(tokens, at: int, token: str) -> int:
    if at >= len(tokens) or tokens[at] != token:
        raise ValueError(f"expected {token!r} at token {at} of {tokens}")
    return at + 1


def _name(token: str, demangle) -> str:
    name = demangle(token)
    if name is None:
        raise KeyError(f"{token!r} is not in the table")
    return name


def _term(token: str, demangle) -> kif.Term:
    # the writer names variables in upper case, constants with c__
    if token[0].isupper():
        return kif.var(token)
    return kif.const(_name(token, demangle))


def _formula(tokens, at: int, demangle) -> tuple[kif.Formula, int]:
    """The formula that starts at token ``at``, and the token after it."""
    token = tokens[at]
    if token == "~":
        body, at = _formula(tokens, at + 1, demangle)
        return kif.Not(body), at
    if token in ("!", "?"):
        at = _expect(tokens, at + 1, "[")
        names = [tokens[at]]
        while tokens[at + 1] == ",":
            names.append(tokens[at + 2])
            at += 2
        at = _expect(tokens, _expect(tokens, at + 1, "]"), ":")
        body, at = _formula(tokens, at, demangle)
        quantifier = kif.Forall if token == "!" else kif.Exists
        return quantifier(tuple(names), body), at
    if token == "(":
        if tokens[at + 2] == "=":
            equal = kif.Equal(_term(tokens[at + 1], demangle),
                              _term(tokens[at + 3], demangle))
            return equal, _expect(tokens, at + 4, ")")
        parts = []
        operator = None
        while True:
            part, at = _formula(tokens, at + 1, demangle)
            parts.append(part)
            if tokens[at] == ")":
                break
            if operator not in (None, tokens[at]):
                raise ValueError(f"{operator!r} and {tokens[at]!r} in one "
                                 "parenthesis")
            operator = tokens[at]
        if operator is None:  # a parenthesised quantifier
            return parts[0], at + 1
        if operator in _CHAINS:
            return _CHAINS[operator](tuple(parts)), at + 1
        if len(parts) != 2:
            raise ValueError(f"{operator!r} takes two operands")
        return _BINARY[operator](*parts), at + 1
    predicate = _name(token, demangle)
    if at + 1 == len(tokens) or tokens[at + 1] != "(":
        return kif.Atom(predicate, ()), at + 1
    args = [_term(tokens[at + 2], demangle)]
    at += 3
    while tokens[at] == ",":
        args.append(_term(tokens[at + 1], demangle))
        at += 2
    return kif.Atom(predicate, tuple(args)), _expect(tokens, at, ")")


# class names that collide once sanitized and lowercased (A-B, A_B and
# a_b; Birth and BIRTH) or that look like a mangled name (c__t)
ADVERSARIAL_NAMES = ("($subclass A-B T) ($subclass A_B T) ($subclass a_b A-B) "
                     "($subclass c__t A_B) ($subclass Birth a_b) "
                     "($subclass BIRTH c__t) ($disjoint A-B A_B)")
