"""Lexical inputs: synset relation pairs and the synset-to-class mapping.

Both inputs are plain TSV, UTF-8, with ``#`` comment lines. Relation files
hold two synset ids per row. Mapping files hold a synset id and a class
name carrying a trailing relation symbol: ``=`` equivalence, ``+``
subsumption, ``@`` instance. Synset ids are usually ``lemma#pos#sense``
(pos ``n`` or ``v``) but any opaque id without a space, tab, CR or LF is
accepted. A class name must be one KIF constant symbol.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import kif

HYPONYMY = "hyponymy"
ANTONYMY = "antonymy"
MERONYMY_PART = "meronymy-part"
MERONYMY_MEMBER = "meronymy-member"
MERONYMY_SUBSTANCE = "meronymy-substance"
PAIR_KINDS = (HYPONYMY, ANTONYMY, MERONYMY_PART, MERONYMY_MEMBER,
              MERONYMY_SUBSTANCE)

EQUIVALENCE = "equivalence"
SUBSUMPTION = "subsumption"
INSTANCE = "instance"
_RELATION_SYMBOLS = {"=": EQUIVALENCE, "+": SUBSUMPTION, "@": INSTANCE}

NOUN = "noun"
VERB = "verb"
_POS_CODES = {"n": NOUN, "v": VERB}
# a question corpus separates the two synset ids of its source header by
# a space, and reads lines at CR as well as LF
_ID_BREAK = re.compile(r"[ \t\r\n]")


class LexiconError(kif.KifError):
    """Malformed lexical input; message carries the file and line."""


@dataclass(frozen=True, slots=True)
class RelationPair:
    kind: str
    s1: str
    s2: str

    def __post_init__(self):
        if self.kind not in PAIR_KINDS:
            raise ValueError(f"unknown relation kind: {self.kind!r}")
        if self.s1 == self.s2:
            raise ValueError(f"pair relates {self.s1!r} to itself")


@dataclass(frozen=True, slots=True)
class MappingLink:
    synset: str
    concept: str
    relation: str

    def __post_init__(self):
        if self.relation not in _RELATION_SYMBOLS.values():
            raise ValueError(f"unknown mapping relation: {self.relation!r}")


def synset_pos(synset_id: str) -> str:
    """Part of speech from a ``lemma#pos#sense`` id (non-empty lemma, pos
    ``n`` or ``v``, sense at least 1); any other id is opaque: a noun."""
    parts = synset_id.split("#")
    if len(parts) != 3:
        return NOUN
    lemma, pos_code, sense_text = parts
    pos = _POS_CODES.get(pos_code)
    if not lemma or pos is None or not sense_text.isdecimal() \
            or int(sense_text) < 1:
        return NOUN
    return pos


def _rows(text: str, source_name: str):
    # each row's place (for errors) and fields; rows end at "\n" only;
    # strip() takes the "\r" of a CRLF file
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield f"{source_name}: line {lineno}", line.split("\t")


def _synset_id(where: str, text: str) -> str:
    synset = text.strip()
    if _ID_BREAK.search(synset):
        raise LexiconError(f"{where}: synset id {synset!r} holds a space, "
                           f"tab, CR or LF")
    return synset


def load_synset_relations(text: str, kind: str,
                          source_name: str = "<pairs>") -> list[RelationPair]:
    """Relation pairs from TSV rows ``s1<TAB>s2``, file order, deduplicated."""
    if kind not in PAIR_KINDS:
        raise LexiconError(f"unknown relation kind: {kind!r}")
    pairs: list[RelationPair] = []
    seen: set[tuple[str, str]] = set()
    for where, fields in _rows(text, source_name):
        if len(fields) != 2 or not fields[0].strip() or not fields[1].strip():
            raise LexiconError(
                f"{where}: expected 's1<TAB>s2', found {fields!r}")
        s1, s2 = _synset_id(where, fields[0]), _synset_id(where, fields[1])
        if s1 == s2:
            raise LexiconError(f"{where}: pair relates {s1!r} to itself")
        if (s1, s2) in seen:
            continue
        seen.add((s1, s2))
        pairs.append(RelationPair(kind=kind, s1=s1, s2=s2))
    return pairs


def load_mapping(text: str, source_name: str = "<mapping>"
                 ) -> list[MappingLink]:
    """Mapping links from TSV rows ``synset<TAB>Concept<symbol>``."""
    links: list[MappingLink] = []
    seen: set[tuple[str, str, str]] = set()
    for where, fields in _rows(text, source_name):
        if len(fields) != 2 or not fields[0].strip():
            raise LexiconError(
                f"{where}: expected 'synset<TAB>Concept<symbol>', "
                f"found {fields!r}")
        synset, tagged = _synset_id(where, fields[0]), fields[1].strip()
        if len(tagged) < 2:
            raise LexiconError(f"{where}: mapping entry too short: {tagged!r}")
        concept, symbol = tagged[:-1], tagged[-1]
        relation = _RELATION_SYMBOLS.get(symbol)
        if relation is None:
            raise LexiconError(
                f"{where}: unknown relation symbol {symbol!r} "
                f"(expected one of = + @)")
        if not kif.is_constant_symbol(concept):
            raise LexiconError(
                f"{where}: class name {concept!r} is not one KIF constant "
                f"symbol")
        key = (synset, concept, relation)
        if key in seen:
            continue
        seen.add(key)
        links.append(MappingLink(synset=synset, concept=concept,
                                 relation=relation))
    return links


class MappingIndex:
    """Read-only lookup from synset id to its mapping links."""

    def __init__(self, links: "list[MappingLink] | tuple[MappingLink, ...]"):
        by_synset: dict[str, list[MappingLink]] = {}
        for link in links:
            by_synset.setdefault(link.synset, []).append(link)
        self._by_synset = {
            sid: tuple(sorted(set(ls), key=lambda l: (l.concept, l.relation)))
            for sid, ls in by_synset.items()}

    def concepts_for(self, synset_id: str) -> tuple[MappingLink, ...]:
        """All links of a synset, lexicographic by concept; empty if unmapped."""
        return self._by_synset.get(synset_id, ())
