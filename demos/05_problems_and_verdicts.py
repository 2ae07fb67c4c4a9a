"""Emit prover problems, interrogate the structural oracle, and build the
report tables.

Without an external prover installed, the oracle decides the graph-shaped
questions directly; the harness itself is demonstrated with a scripted
stand-in prover. The same question moves from unknown to passing or
non-passing depending on which closed-world variant answers it.
"""

import sys
import tempfile
import textwrap
from pathlib import Path

from ontoclose import kif
from ontoclose.closure import MODES, apply_closure
from ontoclose.lexicon import ANTONYMY, MappingIndex, load_mapping, load_synset_relations
from ontoclose.prover import (
    ProverConfig, load_journal, oracle_run_batch, run_prover,
)
from ontoclose.questions import gen_antonymy_cqs
from ontoclose.reports import (
    competency_report, efficiency_report, proved_keys,
    render_competency_text, render_efficiency_text, tally,
)
from ontoclose.taxonomy import build_taxonomy
from ontoclose.tptp import AxiomBlock, emit_problem

ONTOLOGY_TEXT = """
($subclass Birth OrganismProcess)
($subclass Death OrganismProcess)
($subclass Breathing OrganismProcess)
"""

ontology = kif.parse_kif(ONTOLOGY_TEXT)
mapping = MappingIndex(load_mapping("birth#n#2\tBirth=\ndeath#n#1\tDeath=\n"))
pairs = load_synset_relations("birth#n#2\tdeath#n#1\n", ANTONYMY)
questions = list(gen_antonymy_cqs(pairs, mapping).questions)
cq = questions[0]

# ---------------------------------------------------------------------------
# A problem file is the whole ontology as named axioms plus one conjecture:
# the question's own for the truth test, its negation for the falsity test.
# The axioms are rendered once, as a block that every problem shares.
problem = emit_problem(AxiomBlock(ontology), cq.conjecture,
                       metadata={"cq": cq.id, "polarity": "truth"})
print("problem file:")
print(problem)

# ---------------------------------------------------------------------------
# The harness is exercised here with a scripted prover that answers
# CounterSatisfiable to everything and parses like the real thing.
workdir = Path(tempfile.mkdtemp(prefix="ontoclose-demo-"))
stub = workdir / "stub.py"
stub.write_text(textwrap.dedent("""
    import sys
    print("% SZS status CounterSatisfiable for " + sys.argv[1])
"""))
config = ProverConfig(command=f"{sys.executable} {stub} {{problem}}",
                      time_limit=10)
path = workdir / "truth.p"
path.write_text(problem)
outcome = run_prover(path, config)
print(f"stub prover outcome: {outcome.status} (SZS {outcome.szs}) "
      f"in {outcome.wall_time:.3f}s")

# ---------------------------------------------------------------------------
# The oracle answers the graph-shaped questions without any prover. The
# same question resolves differently across the four variants.
print("\nbirth/death question across the variants:")
journals = {}
for mode in MODES:
    closed = apply_closure(ontology, mode)
    journal = workdir / f"journal_{mode.replace('+', '_')}.jsonl"
    verdicts = oracle_run_batch(build_taxonomy(closed), questions, journal)
    journals[mode] = journal
    print(f"  {mode:28} -> {verdicts[0].value}")

# ---------------------------------------------------------------------------
# Reports are pure functions of the journals: competency counts proved
# truth/falsity tests per pattern, efficiency averages inverse solve times.
outcomes = load_journal(journals["subclass+disjointness"])
baseline_proved = proved_keys(load_journal(journals["owa"]))
print("\ncompetency (vs the open-world baseline, exclusives in brackets):")
print(render_competency_text(
    competency_report(tally(outcomes), baseline_proved=baseline_proved,
                      expected_cqs=questions)))
print("efficiency:")
print(render_efficiency_text(efficiency_report(tally(outcomes))))
