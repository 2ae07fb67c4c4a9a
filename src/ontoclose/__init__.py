"""Closed-world augmentation and competency evaluation for first-order
SUMO-style ontologies."""

from .kif import (
    Atom, Axiom, And, Equal, Exists, Forall, Iff, Implies, KifError,
    KifSyntaxError, Not, Ontology, Or, SizeStats, Term, const, count_metrics,
    normalize, parse_formula_text, parse_kif, serialize_formula,
    serialize_kif, var,
)
from .taxonomy import (
    CONFLICT, DISJOINT, NONDISJOINT, OPEN, SubclassCycleError, Taxonomy,
    TaxonomyError, UnknownClassError, build_taxonomy,
)
from .closure import (
    MODES, OWA, SUBCLASS_DISJOINT, SUBCLASS_NONDISJOINT, SUBCLASS_ONLY,
    ClosureConflictError, CurationError, CurationFile,
    CurationIncompleteError, apply_closure, assume_disjointness,
    assume_nondisjointness, complete_subclass, load_curation,
    serialize_curation, suggest_curation, support_axioms,
)
from .lexicon import (
    LexiconError, MappingIndex, MappingLink, RelationPair, Synset,
    load_mapping, load_synset_relations,
)
from .questions import (
    CompetencyQuestion, GenerationResult, OpenFormulaError, QpTemplate,
    TemplateError, gen_antonymy_cqs, gen_hyponymy_qp1, gen_hyponymy_qp2,
    gen_template_cqs, make_tests, read_cq_corpus, write_cq_corpus,
)
from .tptp import MangleTable, TptpProblem, emit_problem, to_fof
from .prover import (
    InconsistencyError, ProverConfig, ProverError, ProverOutcome, Verdict,
    oracle_run_batch, oracle_verdict, run_batch, run_prover,
    vampire_reference_config,
)
from .reports import competency_report, efficiency_report

__version__ = "0.1.0"
