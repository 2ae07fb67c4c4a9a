import os
import re
import sys
import threading

import pytest

from ontoclose import kif
from ontoclose.tptp import (
    AxiomBlock, MangleTable, UnsupportedConstructError, emit_problem, to_fof,
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

AXIOM_NAME = re.compile(r"^fof\(([a-z][A-Za-z0-9_]*), axiom, ", re.M)


def test_emit_problem_line_structure(organism_process):
    test_formula = kif.parse_formula_text("""
        (forall (X Y)
          (=> (and ($instance X Birth) ($instance Y Death))
              (not (equal X Y))))""")
    text = emit_problem(AxiomBlock(organism_process), test_formula,
                        metadata={"cq": "antonymy-1:birth:death",
                                  "polarity": "truth"})
    check_problem_text(text)
    lines = [l for l in text.splitlines() if l and not l.startswith("%")]
    assert len(lines) == len(organism_process) + 1
    assert lines[-1].startswith("fof(cq, conjecture, ")
    assert "% cq: antonymy-1:birth:death" in text
    assert "% polarity: truth" in text


def test_emit_problem_empty_ontology():
    tautology = kif.parse_formula_text("(forall (?x) (equal ?x ?x))")
    text = emit_problem(AxiomBlock(kif.Ontology()), tautology)
    check_problem_text(text)
    lines = [l for l in text.splitlines() if l.strip()]
    assert lines == ["fof(cq, conjecture, ! [X] : (X = X))."]


def test_emit_problem_deterministic(organism_process):
    formula = kif.parse_formula_text("($disjoint Birth Death)")
    one = emit_problem(AxiomBlock(organism_process), formula,
                       {"mode": "owa"})
    two = emit_problem(AxiomBlock(organism_process), formula,
                       {"mode": "owa"})
    assert one == two


def test_emit_problem_axiom_ids_recoverable(organism_process):
    formula = kif.parse_formula_text("($disjoint Birth Death)")
    block = AxiomBlock(organism_process)
    names = AXIOM_NAME.findall(emit_problem(block, formula))
    assert len(names) == len(organism_process)
    for name in names:
        assert block.table.demangle(name) is not None
    assert block.table.demangle(names[0]) == "orig_1"


def test_emitted_closure_problem_is_well_formed(organism_process):
    from ontoclose.closure import SUBCLASS_DISJOINT, apply_closure
    closed = apply_closure(organism_process, SUBCLASS_DISJOINT)
    formula = kif.parse_formula_text("($disjoint Birth Death)")
    text = emit_problem(AxiomBlock(closed), formula,
                        {"mode": SUBCLASS_DISJOINT})
    check_problem_text(text)
    names = AXIOM_NAME.findall(text)
    assert any(name.startswith("comp_") for name in names)
    assert any(name.startswith("cwad_") for name in names)
    assert any(name.startswith("sup_") for name in names)


def _fresh_problem(ontology, formula, metadata, conjecture_name):
    """The problem rendered from scratch, with one table for the whole
    file: its text and that table."""
    table = MangleTable()
    lines = [f"% {k}: {v}" for k, v in sorted(metadata.items())]
    lines += [f"fof({table.axiom_name(ax.id)}, axiom, "
              f"{to_fof(ax.formula, table)})." for ax in ontology]
    lines.append(f"fof({table.axiom_name(conjecture_name)}, conjecture, "
                 f"{to_fof(formula, table)}).")
    return "".join(line + "\n" for line in lines), table


# Unicorn is no symbol of the fixture ontologies; BIRTH sanitizes to the
# name of Birth and so takes a suffix, as plain instance does next to
# $instance
SHARED_BLOCK_TESTS = (
    "(exists (X) (and ($instance X Birth) ($instance X Unicorn)))",
    "(forall (X) (=> ($instance X BIRTH) (instance X Death)))",
    "($disjoint Birth Death)",
)


def _check_against_fresh(block, ontology, formula, metadata):
    """A problem emitted over the shared block reads as a fresh render, the
    block's table demangles its axiom names as a fresh render's does, and
    the emission leaves that table unchanged."""
    names = dict(block.table._backward)
    got = emit_problem(block, formula, metadata, "cq_truth")
    want_text, want_table = _fresh_problem(ontology, formula, metadata,
                                           "cq_truth")
    assert got == want_text
    for name in AXIOM_NAME.findall(want_text):
        assert block.table.demangle(name) == want_table.demangle(name), name
    assert block.table._backward == names


def test_emission_reusing_the_axiom_block_equals_a_fresh_render(
        organism_process, sound_process_ontology):
    tests = [kif.parse_formula_text(text) for text in SHARED_BLOCK_TESTS]
    blocks = {id(ontology): AxiomBlock(ontology)
              for ontology in (organism_process, sound_process_ontology)}
    rounds = [organism_process, sound_process_ontology, organism_process,
              sound_process_ontology]
    for ontology in rounds:
        for i, formula in enumerate(tests):
            _check_against_fresh(blocks[id(ontology)], ontology, formula,
                                 {"cq": f"q{i}", "polarity": "truth"})
    block = blocks[id(organism_process)]
    assert "c__birth_2" in emit_problem(block, tests[1], {}, "cq")
    # a problem's new names stay its own
    assert "c__unicorn" in emit_problem(block, tests[0], {}, "cq")
    assert block.table.demangle("c__unicorn") is None
    assert block.table.demangle("c__birth_2") is None


def test_one_axiom_block_under_many_threads(organism_process):
    # more threads than cores, switching as often as the interpreter
    # allows, all emitting over one block
    tests = [kif.parse_formula_text(text) for text in SHARED_BLOCK_TESTS]
    block = AxiomBlock(organism_process)
    threads_wanted = len(os.sched_getaffinity(0)) + 3
    failures = []

    def work(index):
        try:
            for round_ in range(20):
                i = (index + round_) % len(tests)
                _check_against_fresh(block, organism_process, tests[i],
                                     {"cq": f"q{index}", "polarity": "truth"})
                own = emit_problem(block, tests[i], {}, "cq")
                # only the problem that met Unicorn or BIRTH names them
                assert ("c__unicorn" in own) == (i == 0)
                assert ("c__birth_2" in own) == (i == 1)
        except Exception as exc:  # reported by the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,))
                   for n in range(threads_wanted)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[0]
    # the block's own table took none of the problems' names
    assert block.table.demangle("c__unicorn") is None
    assert block.table.demangle("c__birth_2") is None
