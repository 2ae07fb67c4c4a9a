import contextlib
import inspect
import pathlib
import sys

import pytest

from ontoclose import kif

DATA_DIR = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> pathlib.Path:
    return DATA_DIR


@contextlib.contextmanager
def call_depth_limit(frames: int):
    """Allow at most ``frames`` more nested Python calls than the caller
    has, so code that recurses once per taxonomy level fails on a shallow
    chain instead of only on one deeper than the default limit."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def subclass_chain(top: str, prefix: str, depth: int) -> str:
    """KIF text of the chain prefix1 < top, prefix2 < prefix1, and so on."""
    names = [top] + [f"{prefix}{i}" for i in range(1, depth + 1)]
    return "".join(f"($subclass {sub} {sup})\n"
                   for sup, sub in zip(names, names[1:]))


def load_ontology(name: str) -> kif.Ontology:
    path = DATA_DIR / name
    return kif.parse_kif(path.read_text(), source_name=name)


@pytest.fixture(scope="session")
def organism_process() -> kif.Ontology:
    return load_ontology("organism_process.kif")


@pytest.fixture(scope="session")
def agent_ontology() -> kif.Ontology:
    return load_ontology("agent.kif")


@pytest.fixture(scope="session")
def blood_cell_ontology() -> kif.Ontology:
    return load_ontology("blood_cell.kif")


@pytest.fixture(scope="session")
def sound_process_ontology() -> kif.Ontology:
    return load_ontology("sound_process.kif")


ORGANISM_SUBCLASSES = (
    "Birth", "Breathing", "Death", "Digesting", "Excretion", "Ingesting",
    "LayingEggs", "Mating", "RecoveringFromIllness", "Replication",
)


def _build_cq(pattern: str, kind: str, c1: str, c2: str, text: str):
    from ontoclose.lexicon import RelationPair
    from ontoclose.questions import CompetencyQuestion
    source = RelationPair(kind, f"{c1.lower()}#n#1", f"{c2.lower()}#n#2")
    return CompetencyQuestion.build(pattern, source, c1, c2,
                                    kif.parse_formula_text(text))


def antonymy_cq(c1: str, c2: str):
    """Distinctness question over two classes."""
    return _build_cq("antonymy-1", "antonymy", c1, c2, f"""
        (forall (X Y)
          (=> (and ($instance X {c1}) ($instance Y {c2}))
              (not (equal X Y))))""")


def overlap_cq(c1: str, c2: str):
    """Shared-instance question over two classes."""
    return _build_cq("hypo-noun-1", "hyponymy", c1, c2, f"""
        (exists (X) (and ($instance X {c1}) ($instance X {c2})))""")


def subset_cq(c1: str, c2: str):
    """Containment question over two classes."""
    return _build_cq("hypo-noun-2", "hyponymy", c1, c2, f"""
        (forall (X) (=> ($instance X {c1}) ($instance X {c2})))""")
