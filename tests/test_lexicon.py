import pytest

from ontoclose.lexicon import (
    ANTONYMY, EQUIVALENCE, HYPONYMY, INSTANCE, SUBSUMPTION,
    LexiconError, MappingIndex, MappingLink, RelationPair, load_mapping,
    load_synset_relations, synset_pos,
)


def test_load_hyponymy_pair():
    pairs = load_synset_relations("lobby#n#2\tpeople#n#1\n", HYPONYMY)
    assert pairs == [RelationPair(HYPONYMY, "lobby#n#2", "people#n#1")]


def test_load_verb_pair():
    pairs = load_synset_relations("poison#v#5\tdrug#v#1\n", HYPONYMY)
    assert len(pairs) == 1
    assert synset_pos(pairs[0].s1) == "verb"


def test_load_relations_empty_and_comments():
    assert load_synset_relations("", HYPONYMY) == []
    assert load_synset_relations("# header only\n\n", ANTONYMY) == []


def test_load_relations_preserves_order_and_dedupes():
    text = "b#n#1\ta#n#1\na#n#1\tc#n#1\nb#n#1\ta#n#1\n"
    pairs = load_synset_relations(text, ANTONYMY)
    assert [(p.s1, p.s2) for p in pairs] == [("b#n#1", "a#n#1"),
                                             ("a#n#1", "c#n#1")]


def test_load_relations_idempotent():
    text = "b#n#1\ta#n#1\na#n#1\tc#n#1\n"
    assert load_synset_relations(text, ANTONYMY) == \
        load_synset_relations(text, ANTONYMY)


@pytest.mark.parametrize("text,lineno", [
    ("only-one-column\n", 1),
    ("a#n#1\tb#n#1\tc#n#1\n", 1),
    ("a#n#1\ta#n#1\n", 1),
    ("good#n#1\tfine#n#1\nbroken row\n", 2),
])
def test_load_relations_malformed_rows(text, lineno):
    with pytest.raises(LexiconError, match=f"line {lineno}"):
        load_synset_relations(text, HYPONYMY)


def test_load_relations_unknown_kind():
    with pytest.raises(LexiconError):
        load_synset_relations("a#n#1\tb#n#1\n", "synonymy")


def test_mapping_link_refuses_an_unknown_relation():
    with pytest.raises(ValueError, match="unknown mapping relation: '\\*'"):
        MappingLink("birth#n#2", "Birth", "*")


def test_load_mapping_symbols():
    text = ("birth#n#2\tBirth=\n"
            "lobby#n#2\tPoliticalOrganization+\n"
            "everest#n#1\tMountain@\n")
    links = load_mapping(text)
    assert links == [
        MappingLink("birth#n#2", "Birth", EQUIVALENCE),
        MappingLink("lobby#n#2", "PoliticalOrganization", SUBSUMPTION),
        MappingLink("everest#n#1", "Mountain", INSTANCE),
    ]


def test_load_mapping_empty():
    assert load_mapping("") == []


def test_load_mapping_accumulates_per_synset():
    # a repeated link is read once
    text = ("s#n#1\tAlpha+\ns#n#1\tBeta+\nother#n#1\tGamma=\n"
            "s#n#1\tAlpha+\n")
    assert len(load_mapping(text)) == 3
    index = MappingIndex(load_mapping(text))
    links = index.concepts_for("s#n#1")
    assert [l.concept for l in links] == ["Alpha", "Beta"]
    assert index.concepts_for("unmapped#n#9") == ()
    assert index.concepts_for("other#n#1")


def test_rows_break_at_newline_only():
    # U+2028, U+0085 and form feed end a line for str.splitlines, not a row
    links = load_mapping("birth\u2028#n#2\tBirth=\nx\x85#n#1\tX+\n")
    assert links == [MappingLink("birth\u2028#n#2", "Birth", EQUIVALENCE),
                     MappingLink("x\x85#n#1", "X", SUBSUMPTION)]
    pairs = load_synset_relations("lobby\u2028#n#2\tpeople\x0c#n#1\n",
                                  HYPONYMY)
    assert pairs == [RelationPair(HYPONYMY, "lobby\u2028#n#2",
                                  "people\x0c#n#1")]
    # reported line numbers count "\n" only
    with pytest.raises(LexiconError, match="line 2"):
        load_mapping("a\u2028b#n#1\tA=\nbroken\n")
    with pytest.raises(LexiconError, match="line 2"):
        load_synset_relations("a\x0cb#n#1\tc#n#1\nbroken\n", HYPONYMY)


def test_crlf_rows_load():
    assert load_mapping("birth#n#2\tBirth=\r\nlobby#n#2\tLobby+\r\n") == [
        MappingLink("birth#n#2", "Birth", EQUIVALENCE),
        MappingLink("lobby#n#2", "Lobby", SUBSUMPTION)]
    assert load_synset_relations("lobby#n#2\tpeople#n#1\r\n", HYPONYMY) == [
        RelationPair(HYPONYMY, "lobby#n#2", "people#n#1")]


def test_mapping_index_order_is_lexicographic():
    text = "s#n#1\tZeta+\ns#n#1\tAlpha=\n"
    index = MappingIndex(load_mapping(text))
    assert [l.concept for l in index.concepts_for("s#n#1")] == ["Alpha", "Zeta"]


@pytest.mark.parametrize("text,lineno", [
    ("s#n#1\tConcept\n", 1),      # no relation symbol
    ("s#n#1\tX*\n", 1),           # unknown symbol
    ("s#n#1\n", 1),               # missing column
    ("s#n#1\t=\n", 1),            # no class name
    ("ok#n#1\tFine=\n\tBad=\n", 2),
])
def test_load_mapping_malformed_rows(text, lineno):
    with pytest.raises(LexiconError, match=f"line {lineno}"):
        load_mapping(text)


def test_class_name_must_be_one_constant_symbol():
    # such a class made a question corpus that read back as another
    # conjecture or not at all
    for concept in ("Bir th", "Bi(rth", "Bi;rth", "?Birth", '"Birth"'):
        with pytest.raises(LexiconError,
                           match="^map.tsv: line 2: class name .* constant"):
            load_mapping(f"ok#n#1\tFine=\nbad#n#1\t{concept}=\n", "map.tsv")


def test_synset_id_must_hold_no_space():
    # a corpus's "; source:" header separates the two ids by a space
    with pytest.raises(LexiconError, match="^map.tsv: line 1: synset id"):
        load_mapping("a b#n#1\tBirth=\n", "map.tsv")
    for row in ("a b#n#1\tc#n#1\n", "c#n#1\ta b#n#1\n", "c#n#1\ta\rb#n#1\n"):
        with pytest.raises(LexiconError,
                           match="^pairs.tsv: line 2: synset id"):
            load_synset_relations("x#n#1\ty#n#1\n" + row, HYPONYMY,
                                  "pairs.tsv")


def test_parse_synset_id():
    assert synset_pos("birth#n#2") == "noun"
    assert synset_pos("poison#v#5") == "verb"
    # a sense in any decimal digits int() reads: Arabic-Indic three
    assert synset_pos("x#v#\u0663") == "verb"
    # opaque ids are nouns, whatever pos code they carry; a superscript
    # two is a digit to str.isdigit but not a number to int()
    for opaque in ("02345678-n", "bad#x#1", "bad#n#0", "bad#v#0", "#v#1",
                   "x#v#", "x#v#one", "x#v#-1", "x#v#1#2", "x#v",
                   "x#v#\u00b2"):
        assert synset_pos(opaque) == "noun", opaque
