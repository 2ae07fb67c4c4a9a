import gc
import re
import weakref

import pytest

from ontoclose import kif
from ontoclose.tptp import (
    MangleTable, TptpProblem, UnsupportedConstructError, emit_problem, to_fof,
)



FOF_LINE = re.compile(
    r"^fof\([a-z][A-Za-z0-9_]*, (axiom|conjecture), .+\)\.$")
LEGAL_CHARS = re.compile(r"^[A-Za-z0-9_,()\[\]:=<>~&|!. ?-]+$")


def check_problem_text(text: str) -> None:
    conjectures = 0
    for line in text.splitlines():
        if not line.strip() or line.startswith("%"):
            continue
        assert FOF_LINE.match(line), f"not a fof line: {line}"
        assert LEGAL_CHARS.match(line), f"illegal characters: {line}"
        assert line.count("(") == line.count(")"), f"unbalanced: {line}"
        assert line.count("[") == line.count("]"), f"unbalanced: {line}"
        if ", conjecture, " in line:
            conjectures += 1
    assert conjectures == 1


# ---------------------------------------------------------------------------
# Formula rendering
# ---------------------------------------------------------------------------

def test_unit_clause_rendering():
    formula = kif.parse_formula_text("($disjoint Birth Death)")
    assert to_fof(formula) == "s__disjoint(c__birth,c__death)"


def test_distinctness_question_rendering():
    formula = kif.parse_formula_text("""
        (forall (X Y)
          (=> (and ($instance X Birth) ($instance Y Death))
              (not (equal X Y))))""")
    text = to_fof(formula)
    assert text == ("! [X,Y] : ((s__instance(X,c__birth) & "
                    "s__instance(Y,c__death)) => ~ (X = Y))")


def test_negated_conjecture_rendering():
    formula = kif.parse_formula_text(
        "(not (forall (X) ($instance X Birth)))")
    assert to_fof(formula) == "~ (! [X] : s__instance(X,c__birth))"


def test_existential_and_iff_rendering():
    formula = kif.parse_formula_text("""
        (forall (?X ?Y)
          (<=> ($disjoint ?X ?Y)
               (not (exists (?O) (and ($instance ?O ?X) ($instance ?O ?Y))))))""")
    text = to_fof(formula)
    assert text.startswith("! [X,Y] : (s__disjoint(X,Y) <=> ~ (? [O] : ")
    assert "(s__instance(O,X) & s__instance(O,Y))" in text


def test_variable_name_clashes_get_suffixes():
    formula = kif.parse_formula_text(
        "(forall (?x) (exists (X) (and ($p ?x) ($q X))))")
    text = to_fof(formula)
    assert "! [X] :" in text
    assert "? [X2] :" in text


def test_open_formula_is_rejected():
    with pytest.raises(UnsupportedConstructError):
        to_fof(kif.parse_formula_text("($instance ?x Birth)"))


# ---------------------------------------------------------------------------
# Mangling
# ---------------------------------------------------------------------------

def test_mangling_round_trip_over_fixture(organism_process):
    table = MangleTable()
    names = set()
    for ax in organism_process:
        for sub in kif.subformulas(ax.formula):
            if isinstance(sub, kif.Atom):
                names.add(("predicate", sub.predicate))
                names.update(("constant", t.name) for t in sub.args
                             if t.kind == kif.CONSTANT)
            elif isinstance(sub, kif.Equal):
                names.update(("constant", t.name)
                             for t in (sub.left, sub.right)
                             if t.kind == kif.CONSTANT)
    for namespace, original in sorted(names):
        mangled = (table.predicate(original) if namespace == "predicate"
                   else table.constant(original))
        assert table.demangle(mangled) == original


def test_mangling_is_injective_under_collisions():
    table = MangleTable()
    a = table.predicate("$subclass")
    b = table.predicate("subclass")
    assert a == "s__subclass"
    assert a != b
    assert table.demangle(b) == "subclass"
    c1 = table.constant("Birth")
    c2 = table.constant("BIRTH")
    c3 = table.constant("birth")
    assert len({c1, c2, c3}) == 3
    # repeated requests are stable
    assert table.constant("Birth") == c1


def test_axiom_names_keep_provenance_prefix():
    table = MangleTable()
    assert table.axiom_name("comp_OrganismProcess") == "comp_organismprocess"
    assert table.axiom_name("cwad_Birth_Death") == "cwad_birth_death"
    assert table.axiom_name("orig_1") == "orig_1"


# ---------------------------------------------------------------------------
# Problem emission
# ---------------------------------------------------------------------------

def test_emit_problem_line_structure(organism_process):
    test_formula = kif.parse_formula_text("""
        (forall (X Y)
          (=> (and ($instance X Birth) ($instance Y Death))
              (not (equal X Y))))""")
    problem = emit_problem(organism_process, test_formula,
                           metadata={"cq": "antonymy-1:birth:death",
                                     "polarity": "truth"})
    text = problem.text
    check_problem_text(text)
    lines = [l for l in text.splitlines() if l and not l.startswith("%")]
    assert len(lines) == len(organism_process) + 1
    assert lines[-1].startswith("fof(cq, conjecture, ")
    assert "% cq: antonymy-1:birth:death" in text
    assert "% polarity: truth" in text


def test_emit_problem_empty_ontology():
    tautology = kif.parse_formula_text("(forall (?x) (equal ?x ?x))")
    problem = emit_problem(kif.Ontology(), tautology)
    check_problem_text(problem.text)
    lines = [l for l in problem.text.splitlines() if l.strip()]
    assert lines == ["fof(cq, conjecture, ! [X] : (X = X))."]


def test_emit_problem_deterministic(organism_process):
    formula = kif.parse_formula_text("($disjoint Birth Death)")
    one = emit_problem(organism_process, formula, {"mode": "owa"}).text
    two = emit_problem(organism_process, formula, {"mode": "owa"}).text
    assert one == two


def test_emit_problem_axiom_ids_recoverable(organism_process):
    formula = kif.parse_formula_text("($disjoint Birth Death)")
    problem = emit_problem(organism_process, formula)
    for name, _ in problem.axioms:
        assert problem.axiom_id_for(name) is not None
    assert problem.axiom_id_for(problem.axioms[0][0]) == "orig_1"


def test_emitted_closure_problem_is_well_formed(organism_process):
    from ontoclose.closure import SUBCLASS_DISJOINT, apply_closure
    closed = apply_closure(organism_process, SUBCLASS_DISJOINT)
    formula = kif.parse_formula_text("($disjoint Birth Death)")
    problem = emit_problem(closed, formula, {"mode": SUBCLASS_DISJOINT})
    check_problem_text(problem.text)
    names = [name for name, _ in problem.axioms]
    assert any(name.startswith("comp_") for name in names)
    assert any(name.startswith("cwad_") for name in names)
    assert any(name.startswith("sup_") for name in names)


def _fresh_problem(ontology, formula, metadata, conjecture_name):
    """The problem rendered from scratch: one table for the whole file."""
    table = MangleTable()
    axioms = tuple((table.axiom_name(ax.id), to_fof(ax.formula, table))
                   for ax in ontology)
    conjecture = (table.axiom_name(conjecture_name), to_fof(formula, table))
    header = tuple(f"% {k}: {v}" for k, v in sorted(metadata.items()))
    return TptpProblem(header=header, axioms=axioms, conjecture=conjecture,
                       table=table)


def test_emission_reusing_the_axiom_block_equals_a_fresh_render(
        organism_process, sound_process_ontology):
    # Unicorn is no symbol of either ontology; BIRTH sanitizes to the name
    # of Birth and so takes a suffix, as plain instance does next to
    # $instance
    tests = [kif.parse_formula_text(text) for text in (
        "(exists (X) (and ($instance X Birth) ($instance X Unicorn)))",
        "(forall (X) (=> ($instance X BIRTH) (instance X Death)))",
        "($disjoint Birth Death)")]
    rounds = [organism_process, sound_process_ontology, organism_process,
              sound_process_ontology]
    for ontology in rounds:
        for i, formula in enumerate(tests):
            metadata = {"cq": f"q{i}", "polarity": "truth"}
            got = emit_problem(ontology, formula, metadata, "cq_truth")
            want = _fresh_problem(ontology, formula, metadata, "cq_truth")
            assert got.text == want.text
            names = set(want.table._backward) | {"c__unicorn", "c__birth_2"}
            for name in names:
                assert got.axiom_id_for(name) == want.axiom_id_for(name), name
    birth_2 = emit_problem(organism_process, tests[1], {}, "cq")
    assert "c__birth_2" in birth_2.text
    assert birth_2.axiom_id_for("c__birth_2") == "BIRTH"
    # a problem's new names stay its own
    plain = emit_problem(organism_process, tests[2], {}, "cq")
    assert plain.axiom_id_for("c__unicorn") is None
    assert plain.axiom_id_for("c__birth_2") is None


def test_axiom_block_memo_lets_go_of_a_deleted_ontology():
    from ontoclose import tptp
    ontology = kif.parse_kif("($subclass Birth OrganismProcess)\n")
    formula = kif.parse_formula_text("($disjoint Birth Death)")
    emit_problem(ontology, formula)
    assert ontology in tptp._axiom_blocks
    ref = weakref.ref(ontology)
    del ontology
    gc.collect()
    assert ref() is None
