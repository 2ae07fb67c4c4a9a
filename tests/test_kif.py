import operator
import random
import re
import warnings
from dataclasses import astuple

import pytest

from ontoclose import kif
from ontoclose.closure import apply_closure
from ontoclose.kif import Atom, Forall, KifSyntaxError, SizeStats, const, var
from ontoclose.lexicon import ANTONYMY, SUBSUMPTION, MappingLink, RelationPair
from ontoclose.modes import MODES
from ontoclose.prover import GAVE_UP, ProverOutcome, Verdict

from conftest import DATA_DIR, antonymy_cq
from normal_form import normalize, structurally_equal


SUPPORT_SHAPE = """
(forall (CLASS1 CLASS2)
  (=> ($inheritableNonDisjoint CLASS1 CLASS2)
      (not ($disjoint CLASS1 CLASS2))))
"""


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_unit_clause():
    ontology = kif.parse_kif("($disjoint Birth Death)")
    assert len(ontology) == 1
    ax = ontology.axioms[0]
    assert ax.provenance == "original"
    assert ax.formula == Atom("$disjoint", (const("Birth"), const("Death")))
    assert kif.is_unit_clause(ax.formula)


def test_parse_empty_input():
    assert len(kif.parse_kif("")) == 0
    assert len(kif.parse_kif("; only a comment\n")) == 0


def test_parse_quantified_support_shape():
    formula = kif.parse_formula_text(SUPPORT_SHAPE)
    stats = kif.count_metrics(kif.Ontology(
        [kif.Axiom("shape", formula, "original")]))
    assert isinstance(formula, Forall)
    assert formula.variables == ("CLASS1", "CLASS2")
    assert stats.forall_block_count == 1
    assert stats.implies_count == 1
    assert stats.not_count == 1
    assert stats.atom_count == 2
    assert stats.equality_count == 0


def test_uppercase_tokens_are_variables_only_when_bound():
    formula = kif.parse_formula_text(
        "(forall (X) (=> ($instance X Birth) ($instance X OrganismProcess)))")
    assert isinstance(formula, Forall)
    atom = formula.body.left
    assert atom.args[0] == var("X")
    assert atom.args[1] == const("Birth")
    # unbound uppercase token stays a constant
    unit = kif.parse_formula_text("($subclass BIRTH OrganismProcess)")
    assert unit.args[0] == const("BIRTH")


def test_question_mark_tokens_are_always_variables():
    formula = kif.parse_formula_text("($subclass ?x OrganismProcess)")
    assert formula.args[0] == var("?x")
    assert kif.free_variables(formula) == {"?x"}


def test_variable_shadowing():
    formula = kif.parse_formula_text(
        "(forall (X) (exists (X) ($instance X X)))")
    renamed = kif.rename_bound(formula)
    inner = renamed.body
    assert renamed.variables != inner.variables


@pytest.mark.parametrize("text,line", [
    ("($disjoint Birth Death", 1),
    ("\n($disjoint A B))", 2),
    ("(not ($p A) ($p B))", 1),
    ("(=> ($p A))", 1),
    ("(and ($p A))", 1),
    ("(forall X ($p X))", 1),
    ("(forall (lower) ($p lower))", 1),
    ("(forall (?X) banana)", 1),
    ("($p ($q A) B)", 1),
    ("(($p A) B)", 1),
    ("bare-symbol", 1),
    ("()", 1),
])
def test_syntax_errors_carry_position(text, line):
    with pytest.raises(KifSyntaxError) as err:
        kif.parse_kif(text)
    assert err.value.line == line
    assert err.value.column >= 1


@pytest.mark.parametrize("text,message,line,column", [
    # columns after a string that spans lines count from its last line
    ('($p "a\nb" )x', "top-level symbol 'x'", 2, 5),
    ('($p "a\n\nbc"\n  ) )', "unbalanced ')'", 4, 5),
    # the whole text is scanned before any ')' is matched
    ('($p A)) "open\n', "unterminated string", 1, 9),
    ("\r\n\t(($p A))", "expression head", 2, 4),
    # an error in a later axiom, after a string that spans lines
    ('($p "a\nb\nc")\n($q A)\n(not ($p A) ($q B))',
     "'not' takes exactly 1 subformula, found 2 arguments", 5, 2),
    ('($p "a\n(b;")\n  (forall (x) ($p x))', "'x' is not a variable", 3, 12),
    # an error after a comment that holds a parenthesis
    ("($p A) ; closes ) and opens (\n(and ($p A))",
     "'and' takes at least 2 subformulas, found 1", 2, 2),
    ("; (\n($p A)))", "unbalanced ')'", 2, 7),
    ("; )\n(($p A) ; (\n B)", "expression head", 2, 3),
    ("(forall ((X)) ($p X))", "variable list entries must be symbols", 1, 11),
])
def test_syntax_error_positions(text, message, line, column):
    with pytest.raises(KifSyntaxError) as err:
        kif.parse_kif(text)
    assert message in str(err.value)
    assert (err.value.line, err.value.column) == (line, column)


def test_only_space_tab_cr_and_lf_separate_symbols():
    atom = kif.parse_formula_text("($p a\x0bb c\x0c \u00a0)")
    assert atom.args == (const("a\x0bb"), const("c\x0c"), const("\u00a0"))


def test_constant_symbol_reads_back_as_itself():
    for name in ("Birth", "a?b", "a\x0bb", "\u00a0"):
        assert kif.is_constant_symbol(name), name
        atom = Atom("$p", (const(name),))
        assert kif.parse_formula_text(kif.serialize_formula(atom)) == atom
    for name in ("Bir th", "Bi(rth", "Bi)rth", "Bi;rth", '"Birth"',
                 "Bi\rrth", "Birth\n", "?Birth", ""):
        assert not kif.is_constant_symbol(name), name


def test_axiom_source_is_the_line_of_the_first_symbol():
    ontology = kif.parse_kif('; c\n($p "x\ny")\n\n(\n  $q A)', "f.kif")
    assert [ax.source for ax in ontology] == ["f.kif:2", "f.kif:6"]


def test_comments_and_strings():
    ontology = kif.parse_kif(
        '; header\n($documentation Birth "a birth event") ; trailing\n')
    assert len(ontology) == 1
    atom = ontology.axioms[0].formula
    assert atom.args[1] == const('"a birth event"')


def test_duplicate_formulas_same_provenance_dropped():
    ontology = kif.parse_kif(
        "(forall (?X) ($p ?X))\n(forall (Y) ($p Y))\n($q A)")
    assert len(ontology) == 2


def test_duplicate_axiom_ids_are_refused():
    axioms = kif.parse_kif("($p A)\n($q B)").axioms
    twin = kif.Axiom(id=axioms[0].id, formula=Atom("$r", ()),
                     provenance="original")
    with pytest.raises(kif.KifError, match="duplicate axiom id: orig_1"):
        kif.Ontology(axioms + (twin,))
    with pytest.raises(kif.KifError, match="duplicate axiom id: orig_1"):
        kif.Ontology(axioms).extended([twin])


def test_constant_named_like_a_renamed_variable_is_no_duplicate():
    # both render as (forall (_v0) ($p _v0 _v0)) once X is renamed
    ontology = kif.parse_kif(
        "(forall (X) ($p X _v0))\n(forall (X) ($p _v0 X))")
    assert len(ontology) == 2


@pytest.mark.parametrize("text,found", [
    ("", 0), ("; only a comment\n", 0), ("($p A)\n($q B)", 2)])
def test_parse_formula_text_takes_exactly_one_formula(text, found):
    with pytest.raises(kif.KifError,
                       match=f"expected exactly one formula, found {found}"):
        kif.parse_formula_text(text)


@pytest.mark.parametrize("build,message", [
    (lambda: kif.Term("function", "f"), "bad term kind: 'function'"),
    (lambda: kif.Term(kif.CONSTANT, ""), "empty term name"),
    (lambda: Atom("", ()), "empty predicate name"),
    (lambda: kif.And((Atom("$p", ()),)), "'and' needs at least two"),
    (lambda: kif.Or((Atom("$p", ()),)), "'or' needs at least two"),
    (lambda: Forall((), Atom("$p", ())), "binds no variables"),
    (lambda: kif.Exists((), Atom("$p", ())), "binds no variables"),
    (lambda: kif.Axiom("a", Atom("$p", ()), "imported"),
     "unknown provenance: 'imported'"),
])
def test_ast_nodes_refuse_malformed_fields(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# ---------------------------------------------------------------------------
# Serialization and round trips
# ---------------------------------------------------------------------------

def test_serialize_unit_clause_single_line():
    ontology = kif.parse_kif("($disjoint Birth Death)")
    assert kif.serialize_kif(ontology) == "($disjoint Birth Death)\n"


def test_serialize_empty_ontology():
    assert kif.serialize_kif(kif.Ontology()) == ""


def _random_formula(rng: random.Random, depth: int, bound=()) -> kif.Formula:
    """A formula over all nine node kinds, with zero-argument atoms and
    quantifiers that may shadow an enclosing variable. Uppercase variables
    occur only where bound, as the parser reads them."""

    def term() -> kif.Term:
        if bound and rng.random() < 0.5:
            return var(rng.choice(bound))
        return rng.choice((const("a"), const("Birth"), const("K9"),
                           const("_v0"), var("?z")))

    kinds = ["atom", "equal"]
    if depth:
        kinds += ["not", "and", "or", "=>", "<=>", "forall", "exists"]
    kind = rng.choice(kinds)
    if kind == "atom":
        return Atom(rng.choice(("$p", "q", "$r-s")),
                    tuple(term() for _ in range(rng.randrange(4))))
    if kind == "equal":
        return kif.Equal(term(), term())
    if kind in ("forall", "exists"):
        names = tuple(rng.sample(("X", "Y", "?w"), rng.randrange(1, 3)))
        body = _random_formula(rng, depth - 1, bound + names)
        return (Forall if kind == "forall" else kif.Exists)(names, body)
    parts = [_random_formula(rng, depth - 1, bound)
             for _ in range(1 if kind == "not" else
                            2 if kind in ("=>", "<=>") else
                            rng.randrange(2, 5))]
    if kind == "not":
        return kif.Not(parts[0])
    if kind in ("and", "or"):
        return (kif.And if kind == "and" else kif.Or)(tuple(parts))
    return (kif.Implies if kind == "=>" else kif.Iff)(*parts)


@pytest.mark.parametrize("name", [
    "organism_process.kif", "shapes.kif", "agent.kif", "blood_cell.kif",
    "sound_process.kif", "random",
])
def test_round_trip_identity(name):
    if name == "random":
        rng = random.Random(0)
        formulas = [_random_formula(rng, 4) for _ in range(300)]
        kinds = {type(sub) for f in formulas for sub in kif.subformulas(f)}
        assert len(kinds) == 9
    else:
        text = (DATA_DIR / name).read_text()
        ontology = kif.parse_kif(text)
        reparsed = kif.parse_kif(kif.serialize_kif(ontology))
        assert structurally_equal(reparsed, ontology)
        formulas = [ax.formula for ax in ontology]
    for formula in formulas:
        assert kif.map_terms(formula, lambda t: t) == formula
        for width in (10, 40, 72, 10 ** 9):
            again = kif.parse_formula_text(kif.serialize_formula(formula, width))
            assert again == formula
            assert kif.rename_bound(again) == kif.rename_bound(formula)
            assert normalize(again) == normalize(formula)


def test_constant_filler_renames_as_map_terms_does():
    rng = random.Random(5)
    names = frozenset({"a", "K9"})
    table = {"a": "Filled", "K9": "Other"}
    for _ in range(300):
        formula = _random_formula(rng, 4)
        filled = kif.constant_filler(formula, names)(table)
        assert filled == kif.map_terms(
            formula, lambda t: const(table[t.name])
            if t.kind == kif.CONSTANT and t.name in names else t)
        # the subformulas with nothing to rename are shared, not rebuilt
        untouched = [f for f in kif.subformulas(formula)
                     if not names & {t.name for g in kif.subformulas(f)
                                     if isinstance(g, (Atom, kif.Equal))
                                     for t in ((g.left, g.right)
                                               if isinstance(g, kif.Equal)
                                               else g.args)}]
        shared = {id(f) for f in kif.subformulas(filled)}
        assert all(id(f) in shared for f in untouched)


# the separators the reader must skip between two tokens: runs of space,
# tab, CR and LF, and comments, which may hold parentheses and quotes
_SEPARATORS = (" ", "\t", "\r\n", "\n", " \r ", "\n\n\t ",
               " ; a ) comment (\n", ';"(\r\n', "\t;;)\n  ")
# string constants, which may hold what elsewhere ends a symbol
_STRINGS = ('"a ; b"', '"(;)"', '"two\nlines ; ("', '""')
_SEPARATED_TOKEN = re.compile(r'"[^"]*"|[()]|[^\s()"]+')


def _with_strings(rng: random.Random, formula: kif.Formula) -> kif.Formula:
    return kif.map_terms(formula, lambda t: const(rng.choice(_STRINGS))
                         if t.kind == kif.CONSTANT and rng.random() < 0.3
                         else t)


def test_reader_skips_any_separators_and_counts_lines():
    rng = random.Random(3)
    for _ in range(40):
        formulas = [_with_strings(rng, _random_formula(rng, 3))
                    for _ in range(rng.randrange(1, 8))]
        pieces, lines = [rng.choice(("", *_SEPARATORS))], []
        for formula in formulas:
            tokens = _SEPARATED_TOKEN.findall(kif.serialize_formula(formula))
            # an axiom's line is that of its first symbol, the token after
            # its opening parenthesis
            for i, token in enumerate(tokens):
                if i == 1:
                    lines.append("".join(pieces).count("\n") + 1)
                pieces += [token, rng.choice(_SEPARATORS)]
        axioms = kif.parse_axioms("".join(pieces), "f")
        assert [ax.formula for ax in axioms] == formulas
        assert [ax.source for ax in axioms] == [f"f:{n}" for n in lines]


def _reference_serialize(formula: kif.Formula, width: int = 72,
                         indent: int = 0) -> str:
    """The writer as it was before each node's one-line text was built
    once: it renders each subtree again at every enclosing level."""
    flat = _reference_inline(formula)
    if len(flat) + indent <= width or isinstance(formula, (Atom, kif.Equal)):
        return flat
    pad = "\n" + "  " * (indent // 2 + 1)
    inner = [_reference_serialize(p, width, indent + 2)
             for p in kif.children(formula)]
    return "(" + _reference_head(formula) + pad + pad.join(inner) + ")"


def _reference_head(f: kif.Formula) -> str:
    if isinstance(f, Atom):
        return f.predicate
    if isinstance(f, (Forall, kif.Exists)):
        kind = "forall" if isinstance(f, Forall) else "exists"
        return f"{kind} ({' '.join(f.variables)})"
    return {kif.Equal: "equal", kif.Not: "not", kif.And: "and", kif.Or: "or",
            kif.Implies: "=>", kif.Iff: "<=>"}[type(f)]


def _reference_inline(f: kif.Formula) -> str:
    if isinstance(f, (Atom, kif.Equal)):
        terms = f.args if isinstance(f, Atom) else (f.left, f.right)
        parts = [t.name for t in terms]
    else:
        parts = [_reference_inline(p) for p in kif.children(f)]
    return "(" + " ".join([_reference_head(f), *parts]) + ")"


def test_writer_equals_the_reference_writer():
    rng = random.Random(11)
    long_names = {"a": "a" * 30, "Birth": "Birth" + "X" * 60}
    for _ in range(300):
        formula = _random_formula(rng, 4)
        if rng.random() < 0.5:
            formula = kif.map_terms(formula, lambda t: const(
                long_names.get(t.name, t.name)) if t.kind == kif.CONSTANT
                else t)
        for width in (10, 40, 72, 10 ** 9):
            for indent in (0, 2, 4):
                assert kif.serialize_formula(formula, width, indent) == \
                    _reference_serialize(formula, width, indent)


# shapes.kif declares a pair both disjoint and non-disjoint: no closure
@pytest.mark.parametrize("name", [
    "organism_process.kif", "agent.kif", "blood_cell.kif",
    "sound_process.kif",
])
def test_closed_fixtures_serialize_as_the_reference_writer_does(name):
    ontology = kif.parse_kif((DATA_DIR / name).read_text())
    for mode in MODES:
        with warnings.catch_warnings():  # undecided sibling pairs
            warnings.simplefilter("ignore", UserWarning)
            closed = apply_closure(ontology, mode)
        assert kif.serialize_kif(closed) == "".join(
            _reference_serialize(ax.formula) + "\n" for ax in closed)


def test_round_trip_is_stable():
    text = (DATA_DIR / "shapes.kif").read_text()
    once = kif.serialize_kif(kif.parse_kif(text))
    twice = kif.serialize_kif(kif.parse_kif(once))
    assert once == twice


# ---------------------------------------------------------------------------
# Size metrics
# ---------------------------------------------------------------------------

def test_count_metrics_nondisjoint_support_axiom():
    text = """
    (forall (CLASS1 CLASS2)
      (=> ($nonDisjoint CLASS1 CLASS2) (not ($disjoint CLASS1 CLASS2))))
    """
    stats = kif.count_metrics(kif.parse_kif(text))
    assert stats.forall_block_count == 1
    assert stats.implies_count == 1
    assert stats.not_count == 1
    assert stats.atom_count == 2
    assert stats.equality_count == 0
    assert stats.unit_clause_count == 0
    assert stats.formula_count == 1


def test_count_metrics_counts_a_negated_atom_as_a_unit_clause():
    text = ("(not ($disjoint Birth Death))\n"
            "(not (not ($disjoint Birth Death)))\n")
    stats = kif.count_metrics(kif.parse_kif(text))
    assert stats.unit_clause_count == 1
    assert stats.formula_count == 1
    assert stats.not_count == 3
    assert stats.atom_count == 2
    assert _independent_recount(text)["units"] == 1


def test_count_metrics_empty():
    assert kif.count_metrics(kif.Ontology()) == SizeStats()


def test_count_metrics_of_a_joined_list_is_the_sum():
    axioms = list(kif.parse_kif((DATA_DIR / "organism_process.kif").read_text()))
    for cut in (0, 7, len(axioms)):
        assert kif.count_metrics(axioms[:cut]) + kif.count_metrics(
            axioms[cut:]) == kif.count_metrics(kif.Ontology(axioms))


def _independent_recount(text: str) -> dict:
    """Tiny second implementation of the counting rules, used as an oracle."""
    clean_lines = [line.split(";", 1)[0] for line in text.splitlines()]
    tokens = " ".join(clean_lines).replace("(", " ( ").replace(")", " ) ").split()

    def read(pos):
        assert tokens[pos] == "("
        pos += 1
        items = []
        while tokens[pos] != ")":
            if tokens[pos] == "(":
                node, pos = read(pos)
            else:
                node, pos = tokens[pos], pos + 1
            items.append(node)
        return items, pos + 1

    forms, pos = [], 0
    while pos < len(tokens):
        node, pos = read(pos)
        forms.append(node)

    counts = dict(axioms=0, units=0, formulas=0, atoms=0, foralls=0,
                  existss=0, iffs=0, impls=0, ands=0, ors=0, nots=0, eqs=0)

    def walk(node):
        head = node[0]
        if head == "forall":
            counts["foralls"] += 1
            walk(node[2])
        elif head == "exists":
            counts["existss"] += 1
            walk(node[2])
        elif head == "not":
            counts["nots"] += 1
            walk(node[1])
        elif head in ("and", "or"):
            counts["ands" if head == "and" else "ors"] += 1
            for sub in node[1:]:
                walk(sub)
        elif head in ("=>", "<=>"):
            counts["impls" if head == "=>" else "iffs"] += 1
            walk(node[1])
            walk(node[2])
        else:
            counts["atoms"] += 1
            if head == "equal":
                counts["eqs"] += 1

    for form in forms:
        counts["axioms"] += 1
        body = form
        if body[0] == "not":
            body = body[1]
        if body[0] in ("forall", "exists", "and", "or", "=>", "<=>", "not"):
            counts["formulas"] += 1
        else:
            counts["units"] += 1
        walk(form)
    return counts


def test_fixture_hand_counts_match_metrics_and_recount():
    text = (DATA_DIR / "organism_process.kif").read_text()
    stats = kif.count_metrics(kif.parse_kif(text))
    expected = SizeStats(
        axiom_count=16, unit_clause_count=10, formula_count=6,
        atom_count=24, forall_block_count=6, exists_block_count=2,
        iff_count=1, implies_count=3, and_count=4, or_count=0,
        not_count=1, equality_count=1,
    )
    assert stats == expected
    recount = _independent_recount(text)
    assert recount == dict(
        axioms=16, units=10, formulas=6, atoms=24, foralls=6, existss=2,
        iffs=1, impls=3, ands=4, ors=0, nots=1, eqs=1,
    )


def test_metrics_additivity():
    a = kif.parse_kif((DATA_DIR / "organism_process.kif").read_text())
    b = kif.parse_kif((DATA_DIR / "shapes.kif").read_text())
    combined = kif.parse_kif(
        (DATA_DIR / "organism_process.kif").read_text()
        + (DATA_DIR / "shapes.kif").read_text())
    summed = map(operator.add, astuple(kif.count_metrics(a)),
                 astuple(kif.count_metrics(b)))
    assert kif.count_metrics(combined) == SizeStats(*summed)


def test_axiom_count_is_units_plus_formulas():
    for name in ("organism_process.kif", "shapes.kif"):
        stats = kif.count_metrics(kif.parse_kif((DATA_DIR / name).read_text()))
        assert stats.axiom_count == stats.unit_clause_count + stats.formula_count
        assert stats.atom_count >= stats.equality_count


def test_stats_csv_row():
    stats = SizeStats(axiom_count=2, unit_clause_count=1, formula_count=1,
                      atom_count=3, forall_block_count=1, equality_count=1)
    assert kif.SizeStats.csv_header() == (
        "axiom,unit_clause,formula,atom,forall_block,exists_block,iff,"
        "implies,and,or,not,equality")
    assert stats.as_csv_row() == "2,1,1,3,1,0,0,0,0,0,0,1"


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def _shuffled_operands(rng: random.Random, f: kif.Formula) -> kif.Formula:
    """The formula with and/or operands shuffled and equality operands
    swapped at random."""
    if isinstance(f, kif.Equal):
        return kif.Equal(f.right, f.left) if rng.random() < 0.5 else f
    if isinstance(f, Atom):
        return f
    parts = [_shuffled_operands(rng, p) for p in kif.children(f)]
    if isinstance(f, (kif.And, kif.Or)):
        rng.shuffle(parts)
        return type(f)(tuple(parts))
    if isinstance(f, (Forall, kif.Exists)):
        return type(f)(f.variables, *parts)
    return type(f)(*parts)


def test_normalize_ignores_variable_names_and_or_order():
    pairs = [
        ("(forall (?x) (or ($p ?x A) ($q ?x B) (equal ?x C)))",
         "(forall (VAR) (or (equal VAR C) ($q VAR B) ($p VAR A)))"),
        # equality operands sorted by the renamed variables, not by the
        # original names
        ("(forall (Y X) (equal X Y))", "(forall (A B) (equal B A))"),
        # the bound variables of reordered operands renamed in the new
        # order
        ("(and (forall (X) ($p X)) (exists (Y) ($q Y)))",
         "(and (exists (Y) ($q Y)) (forall (X) ($p X)))"),
        # operands that differ only in which outer variable is where
        ("(forall (X) (and (forall (Z) ($p Z X)) (forall (W) ($p X W))))",
         "(forall (X) (and (forall (W) ($p X W)) (forall (Z) ($p Z X))))"),
    ]
    for a, b in pairs:
        assert normalize(kif.parse_formula_text(a)) == \
            normalize(kif.parse_formula_text(b)), a
    rng = random.Random(0)
    for _ in range(300):
        formula = _random_formula(rng, 4)
        names = iter(f"Q{i}" for i in rng.sample(range(1000), 100))
        variant = _shuffled_operands(rng, kif.rename_bound(formula, names))
        assert normalize(variant) == normalize(formula), formula
    a = kif.parse_formula_text(pairs[0][0])
    c = kif.parse_formula_text("(forall (?x) (or ($p ?x A) ($q ?x B)))")
    assert normalize(a) != normalize(c)


def test_normalize_keeps_implication_direction():
    a = kif.parse_formula_text("(=> ($p A) ($q B))")
    b = kif.parse_formula_text("(=> ($q B) ($p A))")
    assert normalize(a) != normalize(b)


def test_free_variables_and_closedness():
    open_formula = kif.parse_formula_text("($subclass ?x Birth)")
    assert kif.free_variables(open_formula)
    closed = kif.parse_formula_text("(forall (?x) ($subclass ?x Birth))")
    assert not kif.free_variables(closed)


# ---------------------------------------------------------------------------
# Memory layout
# ---------------------------------------------------------------------------

def test_one_per_node_classes_have_no_instance_dict():
    # a run holds one of these per formula node, axiom, question, mapping
    # link or verdict: slots keep each one small
    formula = kif.parse_formula_text(
        "(forall (?X) (=> (and ($p ?X) ($q ?X)) (or (not (equal ?X c))"
        " (<=> ($r ?X) (exists (?Y) ($s ?Y))))))")
    nodes = [formula, formula.body, formula.body.left, formula.body.right,
             formula.body.right.parts[0], formula.body.right.parts[0].body,
             formula.body.right.parts[0].body.left,
             formula.body.right.parts[1],
             formula.body.right.parts[1].right]
    assert {type(n).__name__ for n in nodes} == {
        "Forall", "Implies", "And", "Or", "Not", "Equal", "Term", "Iff",
        "Exists"}
    outcome = ProverOutcome(status=GAVE_UP, wall_time=0.0)
    instances = nodes + [
        formula.body.left.parts[0],  # Atom
        kif.parse_kif("($p c)").axioms[0],
        antonymy_cq("A", "B"),
        RelationPair(ANTONYMY, "a#n#1", "b#n#1"),
        MappingLink("a#n#1", "A", SUBSUMPTION),
        outcome,
        Verdict(cq_id="q", truth=outcome, falsity=outcome)]
    for instance in instances:
        assert not hasattr(instance, "__dict__"), type(instance).__name__
