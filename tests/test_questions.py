import pytest

from ontoclose import kif
from ontoclose.lexicon import (
    ANTONYMY, EQUIVALENCE, HYPONYMY, MERONYMY_PART, MappingIndex, MappingLink,
    RelationPair, load_mapping,
)
from ontoclose.questions import (
    ANTONYMY_1, HYPO_NOUN_1, HYPO_NOUN_2, HYPO_VERB_1, HYPO_VERB_2,
    OpenFormulaError, QpTemplate, QuestionError,
    TemplateError, gen_antonymy_cqs, gen_hyponymy_qp1, gen_hyponymy_qp2,
    gen_template_cqs, group_by_pattern, load_template,
    UnrecognizedShapeError, read_cq_corpus, recognize_shape, write_cq_corpus,
)
from ontoclose.prover import oracle_verdict
from ontoclose.taxonomy import build_taxonomy

from normal_form import normalize


def index_of(text: str) -> MappingIndex:
    return MappingIndex(load_mapping(text))


LOBBY_MAPPING = index_of(
    "lobby#n#2\tPoliticalOrganization+\npeople#n#1\tGroupOfPeople+\n")
LOBBY_PAIR = RelationPair(HYPONYMY, "lobby#n#2", "people#n#1")

POISON_MAPPING = index_of(
    "poison#v#5\tPoisoning=\ndrug#v#1\tTherapeuticProcess+\n")
POISON_PAIR = RelationPair(HYPONYMY, "poison#v#5", "drug#v#1")

BIRTH_MAPPING = index_of("birth#n#2\tBirth=\ndeath#n#1\tDeath=\n")
BIRTH_PAIR = RelationPair(ANTONYMY, "birth#n#2", "death#n#1")


# ---------------------------------------------------------------------------
# Overlap questions (first hyponymy pattern)
# ---------------------------------------------------------------------------

def test_qp1_lobby_example():
    result = gen_hyponymy_qp1([LOBBY_PAIR], LOBBY_MAPPING)
    assert result.skipped_count == 0
    assert len(result.questions) == 1
    cq = result.questions[0]
    assert cq.pattern == HYPO_NOUN_1
    assert cq.id == ("hypo-noun-1:lobby#n#2:people#n#1:"
                     "PoliticalOrganization:GroupOfPeople")
    expected = kif.parse_formula_text("""
        (exists (X)
          (and ($instance X PoliticalOrganization)
               ($instance X GroupOfPeople)))""")
    assert normalize(cq.conjecture) == normalize(expected)


def test_qp1_verb_pairs_get_verb_pattern():
    mapping = index_of("run#v#1\tRunning+\nmove#v#1\tMotion+\n")
    result = gen_hyponymy_qp1(
        [RelationPair(HYPONYMY, "run#v#1", "move#v#1")], mapping)
    assert result.questions[0].pattern == HYPO_VERB_1


def test_qp1_skips_unmapped_pairs():
    result = gen_hyponymy_qp1(
        [RelationPair(HYPONYMY, "lobby#n#2", "ghost#n#1")], LOBBY_MAPPING)
    assert result.questions == ()
    assert result.skipped_count == 1
    assert result.skipped_unmapped[0].s2 == "ghost#n#1"


def test_qp1_excludes_equivalence_mapped_first_synset():
    mapping = index_of("birth#n#2\tBirth=\nevent#n#1\tProcess+\n")
    result = gen_hyponymy_qp1(
        [RelationPair(HYPONYMY, "birth#n#2", "event#n#1")], mapping)
    assert result.questions == ()
    assert result.skipped_count == 0  # guard exclusion, not an unmapped skip


def test_qp1_cartesian_product_of_concepts():
    mapping = index_of("s#n#1\tAlpha+\ns#n#1\tBeta+\nt#n#1\tGamma+\n")
    result = gen_hyponymy_qp1([RelationPair(HYPONYMY, "s#n#1", "t#n#1")], mapping)
    assert len(result.questions) == 2
    assert [cq.id.rsplit(":", 2)[-2] for cq in result.questions] == \
        ["Alpha", "Beta"]


def test_qp1_rejects_wrong_pair_kind():
    with pytest.raises(QuestionError):
        gen_hyponymy_qp1([BIRTH_PAIR], BIRTH_MAPPING)


# ---------------------------------------------------------------------------
# Subset questions (second hyponymy pattern)
# ---------------------------------------------------------------------------

def test_qp2_poison_example():
    result = gen_hyponymy_qp2([POISON_PAIR], POISON_MAPPING)
    assert len(result.questions) == 1
    cq = result.questions[0]
    assert cq.pattern == HYPO_VERB_2
    expected = kif.parse_formula_text("""
        (forall (X)
          (=> ($instance X Poisoning) ($instance X TherapeuticProcess)))""")
    assert normalize(cq.conjecture) == normalize(expected)


def test_qp2_excludes_subsumption_mapped_first_synset():
    result = gen_hyponymy_qp2([LOBBY_PAIR], LOBBY_MAPPING)
    assert result.questions == ()
    assert result.skipped_count == 0


def test_qp2_product_with_two_target_concepts():
    mapping = index_of("s#n#1\tExact=\nt#n#1\tUpper+\nt#n#1\tOther+\n")
    result = gen_hyponymy_qp2([RelationPair(HYPONYMY, "s#n#1", "t#n#1")], mapping)
    assert len(result.questions) == 2
    assert result.questions[0].pattern == HYPO_NOUN_2


# ---------------------------------------------------------------------------
# Distinctness questions (antonymy)
# ---------------------------------------------------------------------------

def test_antonymy_birth_death_example():
    result = gen_antonymy_cqs([BIRTH_PAIR], BIRTH_MAPPING)
    assert len(result.questions) == 1
    cq = result.questions[0]
    assert cq.pattern == ANTONYMY_1
    expected = kif.parse_formula_text("""
        (forall (X Y)
          (=> (and ($instance X Birth) ($instance Y Death))
              (not (equal X Y))))""")
    assert normalize(cq.conjecture) == normalize(expected)


def test_antonymy_skips_unmapped():
    result = gen_antonymy_cqs(
        [RelationPair(ANTONYMY, "phantom#n#1", "death#n#1")], BIRTH_MAPPING)
    assert result.questions == ()
    assert result.skipped_count == 1


def test_antonymy_two_by_two_product():
    mapping = index_of("a#n#1\tA1=\na#n#1\tA2+\nb#n#1\tB1=\nb#n#1\tB2+\n")
    result = gen_antonymy_cqs([RelationPair(ANTONYMY, "a#n#1", "b#n#1")], mapping)
    assert len(result.questions) == 4


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------

ANTONYMY_SKELETON = kif.parse_formula_text("""
    (forall (X Y)
      (=> (and ($instance X C1) ($instance Y C2))
          (not (equal X Y))))""")


def test_template_reproduces_antonymy_generator():
    template = QpTemplate(name="distinctness", pair_kind=ANTONYMY,
                          skeleton=ANTONYMY_SKELETON)
    direct = gen_antonymy_cqs([BIRTH_PAIR], BIRTH_MAPPING)
    templated = gen_template_cqs([BIRTH_PAIR], BIRTH_MAPPING, template)
    assert len(templated.questions) == len(direct.questions) == 1
    assert normalize(templated.questions[0].conjecture) == \
        normalize(direct.questions[0].conjecture)
    assert templated.questions[0].pattern == "template(distinctness)"


def test_template_empty_pair_list():
    template = QpTemplate(name="distinctness", pair_kind=ANTONYMY,
                          skeleton=ANTONYMY_SKELETON)
    result = gen_template_cqs([], BIRTH_MAPPING, template)
    assert result.questions == ()


def test_template_meronymy_part_shape():
    skeleton = kif.parse_formula_text("""
        (exists (X Y)
          (and ($instance X C1) ($instance Y C2) (part X Y)))""")
    template = QpTemplate(name="part-overlap", pair_kind=MERONYMY_PART,
                          skeleton=skeleton)
    mapping = index_of("wheel#n#1\tWheel+\ncar#n#1\tAutomobile+\n")
    result = gen_template_cqs(
        [RelationPair(MERONYMY_PART, "wheel#n#1", "car#n#1")], mapping, template)
    assert len(result.questions) == 1
    stats = kif.count_metrics(kif.Ontology(
        [kif.Axiom("cq", result.questions[0].conjecture, "original")]))
    assert stats.atom_count == 3


def test_each_question_carries_its_conjectures_shape():
    template = QpTemplate(name="distinctness", pair_kind=ANTONYMY,
                          skeleton=ANTONYMY_SKELETON)
    mapping = index_of("birth#n#2\tBirth=\ndeath#n#1\tDeath=\n"
                       "death#n#1\tC1+\n")
    questions = [*gen_template_cqs([BIRTH_PAIR], mapping, template).questions,
                 *_sample_questions()]
    assert {cq.shape[0] for cq in questions} == {
        "overlap", "subset", "distinct"}
    for cq in questions + read_cq_corpus(write_cq_corpus(questions)):
        assert cq.shape == recognize_shape(cq.conjecture), cq.id


def test_a_shape_the_oracle_cannot_decide_fails_when_asked():
    # generating and reading such questions works: a prover takes any shape
    skeleton = kif.parse_formula_text(
        "(exists (X) (and ($instance X C1) ($member X C2)))")
    template = QpTemplate(name="member", pair_kind=HYPONYMY, skeleton=skeleton)
    generated = gen_template_cqs([LOBBY_PAIR], LOBBY_MAPPING, template)
    questions = [*generated.questions,
                 *read_cq_corpus(write_cq_corpus(generated.questions))]
    tax = build_taxonomy(kif.parse_kif(
        "($subclass PoliticalOrganization GroupOfPeople)"))
    for cq in questions:
        assert cq.shape is None
        with pytest.raises(UnrecognizedShapeError):
            oracle_verdict(tax, cq)


def test_template_validation():
    with pytest.raises(TemplateError):
        QpTemplate(name="no placeholders", pair_kind=ANTONYMY,
                   skeleton=ANTONYMY_SKELETON)
    with pytest.raises(TemplateError):
        QpTemplate(name="missing-c2", pair_kind=ANTONYMY,
                   skeleton=kif.parse_formula_text(
                       "(forall (X) ($instance X C1))"))
    with pytest.raises(TemplateError, match=r"skeleton has free variables: \?x"):
        QpTemplate(name="open", pair_kind=ANTONYMY,
                   skeleton=kif.parse_formula_text("($instance ?x C1)"))
    with pytest.raises(TemplateError):
        QpTemplate(name="bad-kind", pair_kind="nope",
                   skeleton=ANTONYMY_SKELETON)


def test_load_template_reads_its_headers():
    body = "(exists (X) (and ($instance X C1) ($instance X C2)))\n"
    template = load_template(
        "; template: part-overlap\n; kind: meronymy-part\n"
        ";  s1-relations: equivalence, subsumption ,\n"
        "; a comment without a key\n; kind: antonymy\n" + body,
        "overlap.kif")
    assert template.name == "part-overlap"
    assert template.pair_kind == MERONYMY_PART  # the first kind line wins
    assert template.s1_relations == {EQUIVALENCE, "subsumption"}
    assert template.s2_relations is None
    assert template.skeleton == kif.parse_formula_text(body)
    with pytest.raises(TemplateError, match="^overlap.kif: .*; kind: "):
        load_template("; template: part-overlap\n" + body, "overlap.kif")


def test_template_rejects_wrong_pair_kind():
    template = QpTemplate(name="distinctness", pair_kind=ANTONYMY,
                          skeleton=ANTONYMY_SKELETON)
    with pytest.raises(QuestionError):
        gen_template_cqs([LOBBY_PAIR], BIRTH_MAPPING, template)


# ---------------------------------------------------------------------------
# Generated questions
# ---------------------------------------------------------------------------

def test_generated_questions_are_closed():
    for result in (gen_hyponymy_qp1([LOBBY_PAIR], LOBBY_MAPPING),
                   gen_hyponymy_qp2([POISON_PAIR], POISON_MAPPING),
                   gen_antonymy_cqs([BIRTH_PAIR], BIRTH_MAPPING)):
        for cq in result.questions:
            assert not kif.free_variables(cq.conjecture)


def test_generation_is_deterministic():
    first = gen_antonymy_cqs([BIRTH_PAIR], BIRTH_MAPPING)
    second = gen_antonymy_cqs([BIRTH_PAIR], BIRTH_MAPPING)
    assert [cq.id for cq in first.questions] == [cq.id for cq in second.questions]


@pytest.mark.parametrize("generate, kind, mapping, name, template", [
    (gen_antonymy_cqs, ANTONYMY, "a#n#1\tX=\nb#n#1\tDeath=\n", "X",
     "distinctness"),
    (gen_antonymy_cqs, ANTONYMY, "a#n#1\tBirth=\nb#n#1\tY=\n", "Y",
     "distinctness"),
    (gen_hyponymy_qp1, HYPONYMY, "a#n#1\tX+\nb#n#1\tDeath=\n", "X",
     "overlap"),
], ids=["antonymy-X", "antonymy-Y", "overlap-X"])
def test_a_class_named_like_a_bound_variable_is_refused(
        generate, kind, mapping, name, template):
    # written out, ($instance X X) would read back with the class X bound
    with pytest.raises(QuestionError) as err:
        generate([RelationPair(kind, "a#n#1", "b#n#1")], index_of(mapping))
    message = str(err.value)
    assert f"class {name!r}" in message
    assert f"template {template!r}" in message
    assert "a#n#1 b#n#1" in message
    # a class the skeleton does not bind is kept
    fine = mapping.replace(f"\t{name}", f"\t{name}y")
    assert generate([RelationPair(kind, "a#n#1", "b#n#1")],
                    index_of(fine)).questions


# ---------------------------------------------------------------------------
# Corpus round trip
# ---------------------------------------------------------------------------

def _sample_questions():
    questions = list(gen_antonymy_cqs([BIRTH_PAIR], BIRTH_MAPPING).questions)
    questions += gen_hyponymy_qp1([LOBBY_PAIR], LOBBY_MAPPING).questions
    questions += gen_hyponymy_qp2([POISON_PAIR], POISON_MAPPING).questions
    return questions


def test_corpus_round_trip():
    questions = _sample_questions()
    text = write_cq_corpus(questions)
    recovered = read_cq_corpus(text)
    assert [cq.id for cq in recovered] == [cq.id for cq in questions]
    assert [cq.pattern for cq in recovered] == [cq.pattern for cq in questions]
    for a, b in zip(recovered, questions):
        assert a.conjecture == b.conjecture
        assert a.source_pair == b.source_pair


def test_corpus_keeps_questions_with_the_same_conjecture():
    # two synset pairs mapped to the same classes ask one conjecture under
    # two ids; the corpus holds both
    mapping = index_of("birth#n#2\tBirth=\ndeath#n#1\tDeath=\n"
                       "birth#n#3\tBirth=\ndeath#n#2\tDeath=\n")
    pairs = [BIRTH_PAIR, RelationPair(ANTONYMY, "birth#n#3", "death#n#2")]
    questions = gen_antonymy_cqs(pairs, mapping).questions
    assert len(questions) == 2
    assert questions[0].conjecture == questions[1].conjecture
    recovered = read_cq_corpus(write_cq_corpus(questions))
    assert [cq.id for cq in recovered] == [cq.id for cq in questions]


def test_corpus_lines_break_at_newline_only():
    # str.splitlines also breaks at form feed and U+2028; the parser's
    # line numbers do not
    questions = _sample_questions()
    text = "; note\x0cmore\n" + write_cq_corpus(questions)
    assert [cq.id for cq in read_cq_corpus(text)] == [cq.id for cq in questions]
    odd = RelationPair(ANTONYMY, "birth\u2028#n#2", "death#n#1")
    mapping = MappingIndex([MappingLink(odd.s1, "Birth", EQUIVALENCE),
                            MappingLink(odd.s2, "Death", EQUIVALENCE)])
    questions = gen_antonymy_cqs([odd], mapping).questions
    recovered = read_cq_corpus(write_cq_corpus(questions))
    assert [cq.source_pair for cq in recovered] == [odd]


def test_one_question_id_never_stands_for_two_questions():
    # a ":" in a synset id made two combinations render one id, and the
    # second question was dropped without a word
    mapping = index_of("a:b\tBirth=\nc\tDeath=\na\tBirth=\nb:c\tDeath=\n")
    pairs = [RelationPair(ANTONYMY, "a:b", "c"),
             RelationPair(ANTONYMY, "a", "b:c")]
    with pytest.raises(QuestionError, match=r"'antonymy-1:a:b:c:Birth:Death' "
                       r"stands for pair a:b c \(Birth, Death\) and for "
                       r"pair a b:c \(Birth, Death\)$"):
        gen_antonymy_cqs(pairs, mapping)
    # one combination reached through two mapping relations is one question
    mapping = index_of("a#n#1\tBirth+\na#n#1\tBirth@\nb#n#1\tDeath=\n")
    result = gen_hyponymy_qp1([RelationPair(HYPONYMY, "a#n#1", "b#n#1")],
                              mapping)
    assert [cq.id for cq in result.questions] == \
        [f"{HYPO_NOUN_1}:a#n#1:b#n#1:Birth:Death"]


def test_corpus_refuses_a_repeated_question_id():
    # both entries were read: a run evaluated two questions, and a report
    # of its journal counted one
    entry = ("; cq: q1\n; pattern: antonymy-1\n; kind: antonymy\n"
             "; source: birth#n#2 death#n#1\n($disjoint Birth Death)\n")
    with pytest.raises(QuestionError, match="^cqs.kif:11: question id 'q1' "
                       "is also the id of the entry at cqs.kif:5$"):
        read_cq_corpus(entry + "\n" + entry, "cqs.kif")


def test_corpus_empty():
    assert write_cq_corpus([]) == ""
    assert read_cq_corpus("") == []


def test_corpus_requires_headers():
    with pytest.raises(QuestionError):
        read_cq_corpus("($disjoint A B)\n")
    # a bad kind or source header names its file and line, as a missing
    # one does
    for kind, source, message in (
            ("bogus", "a#n#1 b#n#1", "unknown relation kind: 'bogus'"),
            ("antonymy", "a#n#1 a#n#1", "relates 'a#n#1' to itself"),
            ("antonymy", "a#n#1", "needs two synset ids"),
            ("antonymy", "a#n#1 b#n#1 c#n#1", "needs two synset ids")):
        text = (f"; cq: x\n; pattern: antonymy-1\n; kind: {kind}\n"
                f"; source: {source}\n($disjoint A B)\n")
        with pytest.raises(QuestionError, match=f"^cqs.kif:5: .*{message}"):
            read_cq_corpus(text, "cqs.kif")


def test_corpus_rejects_open_formulas():
    text = ("; cq: open\n; pattern: antonymy-1\n; kind: antonymy\n"
            "; source: birth#n#2 death#n#1\n($instance ?x Birth)\n")
    with pytest.raises(OpenFormulaError, match="free variables"):
        read_cq_corpus(text)


def test_group_by_pattern():
    grouped = group_by_pattern(_sample_questions())
    assert sorted(grouped) == [ANTONYMY_1, HYPO_NOUN_1, HYPO_VERB_2]
