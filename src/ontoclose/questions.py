"""Competency questions: conjectures derived from lexical relation pairs.

Each question pattern is a ``QpTemplate``: a skeleton formula whose
placeholder constants ``C1`` and ``C2`` are filled in with the mapped
classes of a relation pair's two synsets, one conjecture per class
combination. The three built-in patterns are templates too. A question
is asked as two prover tests: the conjecture itself (truth test) and its
negation (falsity test). Pairs with an unmapped endpoint are skipped and
counted. Each question records its shape, the form by which the
structural oracle decides it: once per template for a generated
question, once on reading for a question read from a corpus.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import takewhile

from . import kif
from .kif import And, Atom, Equal, Exists, Forall, Implies, Not
from .lexicon import (
    ANTONYMY, EQUIVALENCE, HYPONYMY, INSTANCE, PAIR_KINDS, SUBSUMPTION, VERB,
    MappingIndex, RelationPair, synset_pos,
)

HYPO_NOUN_1 = "hypo-noun-1"
HYPO_NOUN_2 = "hypo-noun-2"
HYPO_VERB_1 = "hypo-verb-1"
HYPO_VERB_2 = "hypo-verb-2"
ANTONYMY_1 = "antonymy-1"

_TEMPLATE_NAME = re.compile(r"^[A-Za-z0-9_-]+$")
_PLACEHOLDERS = ("C1", "C2")


class QuestionError(kif.KifError):
    pass


class OpenFormulaError(QuestionError):
    """A conjecture left variables unbound."""


class TemplateError(QuestionError):
    """A question template is unusable as defined."""


class UnrecognizedShapeError(kif.KifError):
    """The oracle cannot decide this conjecture shape; use a prover."""


def _require_closed(formula: kif.Formula, what: str,
                    error: type[QuestionError]) -> None:
    free = kif.free_variables(formula)
    if free:
        raise error(f"{what} has free variables: " + ", ".join(sorted(free)))


@dataclass(frozen=True, slots=True)
class CompetencyQuestion:
    id: str
    pattern: str
    source_pair: RelationPair
    conjecture: kif.Formula
    # recognize_shape(conjecture), recorded when the question is generated
    # or read so that the oracle need not find it again; None when the
    # conjecture has none of the shapes or the question was built without
    # it. A copy with another conjecture must not keep this one's shape.
    shape: "tuple[str, str, str] | None" = None


@dataclass(frozen=True)
class GenerationResult:
    questions: tuple[CompetencyQuestion, ...]
    skipped_unmapped: tuple[RelationPair, ...]

    @property
    def skipped_count(self) -> int:
        return len(self.skipped_unmapped)


@dataclass(frozen=True)
class QpTemplate:
    """A question skeleton with ``C1``/``C2`` placeholder constants and
    optional mapping-relation guards per endpoint."""
    name: str
    pair_kind: str
    skeleton: kif.Formula
    s1_relations: "frozenset[str] | None" = None
    s2_relations: "frozenset[str] | None" = None

    def __post_init__(self):
        if not _TEMPLATE_NAME.match(self.name):
            raise TemplateError(f"bad template name: {self.name!r}")
        if self.pair_kind not in PAIR_KINDS:
            raise TemplateError(f"unknown pair kind: {self.pair_kind!r}")
        _require_closed(self.skeleton, "template skeleton", TemplateError)
        # a placeholder is used when renaming it changes the skeleton
        fill = self.filler()
        missing = [p for p in _PLACEHOLDERS
                   if fill({**_IDENTITY, p: p + "_"}) == self.skeleton]
        if missing:
            raise TemplateError(
                "template skeleton never uses placeholder(s): "
                + ", ".join(missing))

    @property
    def pattern(self) -> str:
        return f"template({self.name})"

    def filler(self):
        """The skeleton as a function of a table from ``C1`` and ``C2`` to
        the classes to put in their place: the one way a question's
        conjecture is built. Compile it once and call it per question;
        it rebuilds only the nodes above a placeholder."""
        return kif.constant_filler(self.skeleton, frozenset(_PLACEHOLDERS))


_IDENTITY = {p: p for p in _PLACEHOLDERS}


# The built-in patterns: the overlap and subset questions of hyponymy and
# the distinctness question of antonymy.
_OVERLAP = QpTemplate(
    "overlap", HYPONYMY, kif.parse_formula_text(
        "(exists (X) (and ($instance X C1) ($instance X C2)))"),
    s1_relations=frozenset({SUBSUMPTION, INSTANCE}))
_SUBSET = QpTemplate(
    "subset", HYPONYMY, kif.parse_formula_text(
        "(forall (X) (=> ($instance X C1) ($instance X C2)))"),
    s1_relations=frozenset({EQUIVALENCE}))
_DISTINCTNESS = QpTemplate(
    "distinctness", ANTONYMY, kif.parse_formula_text(
        "(forall (X Y) (=> (and ($instance X C1) ($instance Y C2))"
        " (not (equal X Y))))"))


def _generate(pairs, mapping: MappingIndex, template: QpTemplate,
              pattern_for, what: str) -> GenerationResult:
    """``template`` over each class combination of each pair, under the
    pattern name ``pattern_for(pair)``."""
    questions: list[CompetencyQuestion] = []
    seen: dict[str, tuple] = {}  # the (pair, classes) each id stands for
    skipped: list[RelationPair] = []
    s1_relations, s2_relations = template.s1_relations, template.s2_relations
    fill = template.filler()
    # the skeleton's shape, with the placeholders standing as classes: a
    # question's shape is this with its own classes in their place
    shape, c1, c2 = _shape_or_none(template.skeleton) or (None, None, None)
    # a class named like one of these would read back as the variable
    bound = {v for f in kif.subformulas(template.skeleton)
             if isinstance(f, (kif.Forall, kif.Exists)) for v in f.variables}
    for rel_pair in pairs:
        if rel_pair.kind != template.pair_kind:
            raise QuestionError(f"{what} expects {template.pair_kind} pairs, "
                                f"found kind {rel_pair.kind!r}")
        links1 = mapping.concepts_for(rel_pair.s1)
        links2 = mapping.concepts_for(rel_pair.s2)
        if not links1 or not links2:
            skipped.append(rel_pair)
            continue
        eligible1 = [l for l in links1
                     if s1_relations is None or l.relation in s1_relations]
        eligible2 = [l for l in links2
                     if s2_relations is None or l.relation in s2_relations]
        pattern = pattern_for(rel_pair)
        prefix = f"{pattern}:{rel_pair.s1}:{rel_pair.s2}:"
        for l1 in eligible1:
            for l2 in eligible2:
                qid = f"{prefix}{l1.concept}:{l2.concept}"
                combo = (rel_pair.s1, rel_pair.s2, l1.concept, l2.concept)
                first = seen.setdefault(qid, combo)
                if first != combo:
                    raise QuestionError(
                        "question id {!r} stands for pair {} {} ({}, {}) and "
                        "for pair {} {} ({}, {})".format(qid, *first, *combo))
                if first is not combo:  # reached through another relation
                    continue
                if l1.concept in bound or l2.concept in bound:
                    concept = l1.concept if l1.concept in bound else l2.concept
                    raise QuestionError(
                        f"class {concept!r} of pair {rel_pair.s1} "
                        f"{rel_pair.s2} is named like a variable that "
                        f"template {template.name!r} binds")
                table = {"C1": l1.concept, "C2": l2.concept}
                questions.append(CompetencyQuestion(
                    id=qid, pattern=pattern, source_pair=rel_pair,
                    conjecture=fill(table),
                    shape=shape and (shape, table.get(c1, c1),
                                     table.get(c2, c2))))
    return GenerationResult(tuple(questions), tuple(skipped))


def _by_pos(noun_pattern: str, verb_pattern: str):
    """The pattern name of a pair by its first synset's part of speech."""
    return lambda rel_pair: (verb_pattern if synset_pos(rel_pair.s1) == VERB
                             else noun_pattern)


def gen_hyponymy_qp1(pairs, mapping: MappingIndex) -> GenerationResult:
    """Existential overlap questions from hyponymy.

    When the narrower synset is mapped by subsumption or instance, both
    mapped class sets only bound its meaning from above, so all that can
    be conjectured is that the two classes share an instance.
    """
    return _generate(pairs, mapping, _OVERLAP,
                     _by_pos(HYPO_NOUN_1, HYPO_VERB_1), "gen_hyponymy_qp1")


def gen_hyponymy_qp2(pairs, mapping: MappingIndex) -> GenerationResult:
    """Subset questions from hyponymy.

    When the narrower synset is mapped by equivalence its class means
    exactly what it means, so the broader synset's classes must contain it:
    every instance of the first class is an instance of the second.
    """
    return _generate(pairs, mapping, _SUBSET,
                     _by_pos(HYPO_NOUN_2, HYPO_VERB_2), "gen_hyponymy_qp2")


def gen_antonymy_cqs(pairs, mapping: MappingIndex) -> GenerationResult:
    """Distinctness questions from antonymy: no instance of the first class
    is an instance of the second."""
    return _generate(pairs, mapping, _DISTINCTNESS,
                     lambda _pair: ANTONYMY_1, "gen_antonymy_cqs")


# ---------------------------------------------------------------------------
# Shapes the structural oracle decides
# ---------------------------------------------------------------------------

def _as_instance_atom(formula) -> "tuple[str, str] | None":
    """(variable, class) of an instance atom with a constant class."""
    if isinstance(formula, Atom) \
            and formula.predicate.removeprefix("$") == "instance" \
            and len(formula.args) == 2 \
            and formula.args[0].kind == kif.VARIABLE \
            and formula.args[1].kind == kif.CONSTANT:
        return formula.args[0].name, formula.args[1].name
    return None


def recognize_shape(conjecture) -> tuple[str, str, str]:
    """(shape, C1, C2) for the three graph-decidable conjecture forms."""
    if isinstance(conjecture, Exists) and len(conjecture.variables) == 1 \
            and isinstance(conjecture.body, And) \
            and len(conjecture.body.parts) == 2:
        v = conjecture.variables[0]
        atoms = [_as_instance_atom(p) for p in conjecture.body.parts]
        if all(a is not None and a[0] == v for a in atoms):
            return "overlap", atoms[0][1], atoms[1][1]
    if isinstance(conjecture, Forall) and len(conjecture.variables) == 1 \
            and isinstance(conjecture.body, Implies):
        v = conjecture.variables[0]
        left = _as_instance_atom(conjecture.body.left)
        right = _as_instance_atom(conjecture.body.right)
        if left and right and left[0] == v and right[0] == v:
            return "subset", left[1], right[1]
    if isinstance(conjecture, Forall) and len(conjecture.variables) == 2 \
            and isinstance(conjecture.body, Implies) \
            and isinstance(conjecture.body.left, And) \
            and len(conjecture.body.left.parts) == 2 \
            and isinstance(conjecture.body.right, Not) \
            and isinstance(conjecture.body.right.body, Equal):
        x, y = conjecture.variables
        atoms = [_as_instance_atom(p) for p in conjecture.body.left.parts]
        eq = conjecture.body.right.body
        eq_vars = {t.name for t in (eq.left, eq.right) if t.kind == kif.VARIABLE}
        if all(atoms) and {atoms[0][0], atoms[1][0]} == {x, y} == eq_vars \
                and atoms[0][0] != atoms[1][0]:
            by_var = {var_name: cls for var_name, cls in atoms}
            return "distinct", by_var[x], by_var[y]
    raise UnrecognizedShapeError(
        "conjecture is not one of the graph-decidable shapes")


def _shape_or_none(conjecture: kif.Formula) -> "tuple[str, str, str] | None":
    try:
        return recognize_shape(conjecture)
    except UnrecognizedShapeError:
        return None


# ---------------------------------------------------------------------------
# User-supplied templates
# ---------------------------------------------------------------------------

def load_template(text: str, source_name: str = "<template>") -> QpTemplate:
    """Read a template file: one skeleton formula under ``; key: value``
    comment headers naming the template, its pair kind and, optionally,
    comma-separated mapping relations per endpoint."""
    headers = _headers(text.split("\n"))
    if "template" not in headers or "kind" not in headers:
        raise TemplateError(
            f"{source_name}: template files need '; template: <name>' and "
            f"'; kind: <pair-kind>' header comments")

    def relations(key):
        if key not in headers:
            return None
        return frozenset(r.strip() for r in headers[key].split(",") if r.strip())

    return QpTemplate(
        name=headers["template"], pair_kind=headers["kind"],
        skeleton=kif.parse_formula_text(text, source_name),
        s1_relations=relations("s1-relations"),
        s2_relations=relations("s2-relations"))


def gen_template_cqs(pairs, mapping: MappingIndex,
                     template: QpTemplate) -> GenerationResult:
    """Instantiate a user-supplied skeleton over each class combination."""
    return _generate(pairs, mapping, template, lambda _pair: template.pattern,
                     f"template {template.name!r}")


# ---------------------------------------------------------------------------
# Corpus files
# ---------------------------------------------------------------------------

def _headers(lines) -> dict[str, str]:
    """Key and value of each ``; key: value`` comment line among ``lines``;
    the first line with a key gives its value."""
    headers: dict[str, str] = {}
    for line in lines:
        line = line.strip()
        if line.startswith(";") and ":" in line:
            key, value = line.lstrip("; ").split(":", 1)
            headers.setdefault(key.strip(), value.strip())
    return headers


def write_cq_corpus(questions) -> str:
    """Questions as commented conjecture entries, parseable as plain axioms."""
    blocks = []
    for cq in questions:
        blocks.append(
            f"; cq: {cq.id}\n"
            f"; pattern: {cq.pattern}\n"
            f"; kind: {cq.source_pair.kind}\n"
            f"; source: {cq.source_pair.s1} {cq.source_pair.s2}\n"
            + kif.serialize_formula(cq.conjecture))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def group_by_pattern(questions) -> dict[str, list[CompetencyQuestion]]:
    grouped: dict[str, list[CompetencyQuestion]] = {}
    for cq in questions:
        grouped.setdefault(cq.pattern, []).append(cq)
    return dict(sorted(grouped.items()))


def read_cq_corpus(text: str, source_name: str = "<corpus>"
                   ) -> list[CompetencyQuestion]:
    """Rebuild questions from a corpus file written by write_cq_corpus."""
    # line numbers in Axiom.source count "\n" only
    lines = text.split("\n")
    questions = []
    entry_of: dict[str, str] = {}  # where each question id was read
    for ax in kif.parse_axioms(text, source_name):
        start_line = int(ax.source.rsplit(":", 1)[1])
        # the comment lines right above the entry, nearest first
        above = (lines[i] for i in range(start_line - 2, -1, -1))
        headers = _headers(takewhile(
            lambda line: line.strip().startswith(";"), above))
        where = f"{source_name}:{start_line}"
        required = {"cq", "pattern", "kind", "source"}
        if not required <= headers.keys():
            raise QuestionError(
                f"{where}: corpus entry is missing headers "
                f"{sorted(required - headers.keys())}")
        synsets = headers["source"].split(" ")
        if len(synsets) != 2 or not all(synsets):
            raise QuestionError(
                f"{where}: '; source:' needs two synset ids separated by a "
                f"space, found {headers['source']!r}")
        try:
            source_pair = RelationPair(headers["kind"], *synsets)
        except ValueError as exc:
            raise QuestionError(f"{where}: {exc}") from None
        _require_closed(ax.formula, "conjecture", OpenFormulaError)
        first = entry_of.setdefault(headers["cq"], where)
        if first != where:
            raise QuestionError(f"{where}: question id {headers['cq']!r} "
                                f"is also the id of the entry at {first}")
        questions.append(CompetencyQuestion(
            id=headers["cq"], pattern=headers["pattern"],
            source_pair=source_pair, conjecture=ax.formula,
            shape=_shape_or_none(ax.formula)))
    return questions
