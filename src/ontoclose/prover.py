"""External prover harness, verdicts, and a prover-free structural oracle.

Each test runs as one external process with a wall-clock kill at the
configured limit plus a grace period, and an address-space cap. Prover
results are read from ``SZS status`` lines; axiom names cited in proofs are
collected so reports can count them. The oracle decides the graph-shaped
conjectures (instance overlap, subset, distinctness) straight from the
taxonomy, which is what the test suite runs against when no prover is
installed.
"""

from __future__ import annotations

import json
import logging
import os
import re
import resource
import shlex
import signal
import subprocess
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

from . import kif, tptp
from .kif import And, Atom, Equal, Exists, Forall, Implies, Not, Ontology
from .questions import CompetencyQuestion
from .taxonomy import Taxonomy

PROVED = "proved"
COUNTER_SATISFIABLE = "counter-satisfiable"
TIMEOUT = "timeout"
GAVE_UP = "gave-up"
ERROR = "error"

TRUTH = "truth"
FALSITY = "falsity"

PASSING = "passing"
NON_PASSING = "non-passing"
UNKNOWN = "unknown"
CONTRADICTORY = "contradictory"

logger = logging.getLogger(__name__)

_SZS_RE = re.compile(r"SZS\s+status\s+([A-Za-z]+)")
_FILE_CITE_RE = re.compile(r"file\([^,()]*,\s*([A-Za-z0-9_]+)\s*\)")
_FOF_AXIOM_RE = re.compile(r"fof\(\s*([A-Za-z0-9_]+)\s*,\s*axiom\b")

_SZS_TO_STATUS = {
    "Theorem": PROVED,
    "Unsatisfiable": PROVED,
    "ContradictoryAxioms": PROVED,
    "CounterSatisfiable": COUNTER_SATISFIABLE,
    "Satisfiable": COUNTER_SATISFIABLE,
    "Timeout": TIMEOUT,
    "ResourceOut": TIMEOUT,
    "MemoryOut": TIMEOUT,
    "GaveUp": GAVE_UP,
    "Unknown": GAVE_UP,
    "Incomplete": GAVE_UP,
}


class ProverError(kif.KifError):
    pass


class InconsistencyError(kif.KifError):
    """Both tests of a question proved: the ontology cannot be consistent."""

    def __init__(self, cq_ids):
        self.cq_ids = tuple(cq_ids)
        super().__init__(
            "contradictory verdicts (truth and falsity both proved) for: "
            + ", ".join(self.cq_ids))


class UnrecognizedShapeError(kif.KifError):
    """The oracle cannot decide this conjecture shape; use a prover."""


@dataclass(frozen=True)
class ProverConfig:
    """How to launch the external prover.

    ``command`` must contain exactly one ``{problem}`` placeholder; any
    prover-side limit flags are part of the command text. ``time_limit``
    drives the harness-level kill at ``time_limit + grace`` seconds.
    """
    command: str
    time_limit: float = 300.0
    memory_limit_mib: int = 2048
    workers: int = 1
    grace: float = 5.0

    def __post_init__(self):
        if self.command.count("{problem}") != 1:
            raise ProverError(
                "prover command needs exactly one {problem} placeholder")
        if self.time_limit <= 0 or self.memory_limit_mib <= 0:
            raise ProverError("prover limits must be positive")
        if self.workers < 1:
            raise ProverError("worker count must be at least 1")


def vampire_reference_config(executable: str = "vampire",
                             time_limit: float = 300.0,
                             memory_limit_mib: int = 2048,
                             workers: int = 1) -> ProverConfig:
    """The documented reference invocation for Vampire-style provers."""
    command = (f"{executable} --proof tptp --output_axiom_names on "
               f"--mode casc -t {int(time_limit)} -m {memory_limit_mib} "
               "{problem}")
    return ProverConfig(command=command, time_limit=time_limit,
                        memory_limit_mib=memory_limit_mib, workers=workers)


@dataclass(frozen=True)
class ProverOutcome:
    status: str
    wall_time: float
    used: tuple[str, ...] = ()
    szs: "str | None" = None
    detail: str = ""

    def __post_init__(self):
        if self.wall_time < 0:
            raise ValueError("negative wall time")
        if self.status != PROVED and self.used:
            object.__setattr__(self, "used", ())

    @property
    def proved(self) -> bool:
        return self.status == PROVED


def parse_prover_output(output: str) -> tuple["str | None", tuple[str, ...]]:
    """SZS status token and cited axiom names from prover output."""
    match = _SZS_RE.search(output)
    szs = match.group(1) if match else None
    cites = list(dict.fromkeys(_FILE_CITE_RE.findall(output)))
    if not cites:
        cites = list(dict.fromkeys(_FOF_AXIOM_RE.findall(output)))
    return szs, tuple(cites)


def run_prover(problem_path: "str | Path", config: ProverConfig) -> ProverOutcome:
    """One external prover process on one problem file."""
    argv = [part.replace("{problem}", str(problem_path))
            for part in shlex.split(config.command)]
    limit_bytes = config.memory_limit_mib * 1024 * 1024

    def cap_resources():
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

    start = time.perf_counter()
    try:
        process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            encoding="utf-8", errors="replace", start_new_session=True,
            preexec_fn=cap_resources)
    except OSError as exc:
        return ProverOutcome(status=ERROR, wall_time=time.perf_counter() - start,
                             detail=f"spawn failed: {exc}")
    killed = False
    try:
        stdout, stderr = process.communicate(
            timeout=config.time_limit + config.grace)
    except subprocess.TimeoutExpired:
        killed = True
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        stdout, stderr = process.communicate()
    wall = time.perf_counter() - start
    output = (stdout or "") + "\n" + (stderr or "")
    if killed:
        return ProverOutcome(status=TIMEOUT, wall_time=wall,
                             detail="killed at time limit plus grace")
    szs, used = parse_prover_output(output)
    if szs is None:
        detail = output.strip()[:2000] or f"exit code {process.returncode}, no output"
        return ProverOutcome(status=ERROR, wall_time=wall,
                             detail=f"no SZS status line; output: {detail}")
    status = _SZS_TO_STATUS.get(szs)
    if status is None:
        return ProverOutcome(status=ERROR, wall_time=wall, szs=szs,
                             detail=f"unrecognized SZS status {szs!r}")
    return ProverOutcome(status=status, wall_time=wall, szs=szs, used=used)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    cq_id: str
    value: str
    truth: "ProverOutcome | None"
    falsity: "ProverOutcome | None"


def classify(truth_proved: bool, falsity_proved: bool) -> str:
    if truth_proved and falsity_proved:
        return CONTRADICTORY
    if truth_proved:
        return PASSING
    if falsity_proved:
        return NON_PASSING
    return UNKNOWN


def _demangle_used(problem: tptp.TptpProblem,
                   outcome: ProverOutcome) -> ProverOutcome:
    if not outcome.used:
        return outcome
    return replace(outcome, used=tuple(problem.axiom_id_for(name) or name
                                       for name in outcome.used))


def write_problem(ontology: Ontology, cq: CompetencyQuestion, polarity: str,
                  workdir: "str | Path", mode_label: str = ""
                  ) -> tuple[Path, tptp.TptpProblem]:
    """Write the problem of one test of a question (the ontology's axioms,
    then the test as the conjecture ``cq_<polarity>``) to
    ``<workdir>/<first 16 hex digits of sha256(cq.id)>_<polarity>.p``, so
    distinct questions never share a file; return the path and problem."""
    # imported here: hashlib loads OpenSSL, about 3.5 MiB of resident
    # memory that oracle-only runs need not pay
    import hashlib

    formula = cq.truth_test if polarity == TRUTH else cq.falsity_test
    problem = tptp.emit_problem(
        ontology, formula,
        metadata={"cq": cq.id, "pattern": cq.pattern,
                  "polarity": polarity, "mode": mode_label},
        conjecture_name=f"cq_{polarity}")
    digest = hashlib.sha256(cq.id.encode("utf-8")).hexdigest()[:16]
    path = Path(workdir) / f"{digest}_{polarity}.p"
    path.write_text(problem.text, encoding="utf-8")
    return path, problem


# ---------------------------------------------------------------------------
# Results journal
# ---------------------------------------------------------------------------

def journal_record(cq_id: str, polarity: str, outcome: ProverOutcome) -> dict:
    return {"cq": cq_id, "polarity": polarity, "status": outcome.status,
            "seconds": round(outcome.wall_time, 6), "used": list(outcome.used)}


def verdict_records(verdicts) -> Iterator[dict]:
    """The journal record of every test the verdicts ran, truth before
    falsity, in verdict order."""
    for v in verdicts:
        for polarity, outcome in ((TRUTH, v.truth), (FALSITY, v.falsity)):
            if outcome is not None:
                yield journal_record(v.cq_id, polarity, outcome)


def append_journal(path: "str | Path", records) -> None:
    """Append records to the journal, one JSON line each, through one
    open file."""
    with open(path, "a", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def load_journal(path: "str | Path") -> dict[tuple[str, str], dict]:
    """The journal's records by (question, polarity). An unterminated last
    line, torn by a kill mid-append, is skipped."""
    records: dict[tuple[str, str], dict] = {}
    path = Path(path)
    if not path.exists():
        return records
    lines = path.read_text().split("\n")[:-1]
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProverError(f"{path}:{lineno}: bad journal line: {exc}")
        records[(record["cq"], record["polarity"])] = record
    return records


def _drop_torn_tail(path: "str | Path") -> None:
    """Cut an unterminated last line off the journal, so that the next
    record appended starts a line of its own."""
    try:
        handle = open(path, "r+b")
    except FileNotFoundError:
        return
    with handle:
        data = handle.read()
        if not data.endswith(b"\n"):
            handle.truncate(data.rfind(b"\n") + 1)


def _outcome_from_record(record: dict) -> ProverOutcome:
    return ProverOutcome(status=record["status"], wall_time=record["seconds"],
                         used=tuple(record.get("used", ())))


def _verdict(cq_id: str, truth: "ProverOutcome | None",
             falsity: "ProverOutcome | None") -> Verdict:
    value = classify(bool(truth and truth.proved),
                     bool(falsity and falsity.proved))
    return Verdict(cq_id=cq_id, value=value, truth=truth, falsity=falsity)


def _raise_on_contradiction(verdicts: list[Verdict]) -> None:
    contradictory = [v.cq_id for v in verdicts if v.value == CONTRADICTORY]
    if contradictory:
        raise InconsistencyError(contradictory)


def run_batch(ontology: Ontology, cqs, config: ProverConfig,
              journal_path: "str | Path", workdir: "str | Path",
              short_circuit: bool = True,
              mode_label: str = "") -> list[Verdict]:
    """Evaluate many questions with a fixed-size worker pool.

    Results append to the journal as they complete, keyed by question and
    polarity, so an interrupted run resumes where it stopped.
    """
    done = load_journal(journal_path)
    _drop_torn_tail(journal_path)
    lock = threading.Lock()

    def run_test(cq: CompetencyQuestion, polarity: str) -> ProverOutcome:
        path, problem = write_problem(ontology, cq, polarity, workdir,
                                      mode_label)
        outcome = _demangle_used(problem, run_prover(path, config))
        if outcome.status == ERROR:
            logger.warning("prover error on %s %s test: %s",
                           cq.id, polarity, outcome.detail)
        with lock:
            append_journal(journal_path,
                           [journal_record(cq.id, polarity, outcome)])
        return outcome

    def evaluate(cq: CompetencyQuestion) -> Verdict:
        outcomes: dict[str, ProverOutcome | None] = {TRUTH: None, FALSITY: None}
        for polarity in (TRUTH, FALSITY):
            record = done.get((cq.id, polarity))
            outcome = (_outcome_from_record(record) if record is not None
                       else run_test(cq, polarity))
            outcomes[polarity] = outcome
            if polarity == TRUTH and short_circuit and outcome.proved:
                break
        return _verdict(cq.id, outcomes[TRUTH], outcomes[FALSITY])

    Path(workdir).mkdir(parents=True, exist_ok=True)
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        verdicts = list(pool.map(evaluate, cqs))
    executed = [o for v in verdicts for o in (v.truth, v.falsity) if o]
    if executed and all(o.status == ERROR for o in executed):
        raise ProverError("every prover invocation failed; check the command")
    _raise_on_contradiction(verdicts)
    return verdicts


# ---------------------------------------------------------------------------
# Structural oracle
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


def _oracle_routes(tax: Taxonomy, conjecture) -> tuple[bool, bool]:
    shape, c1, c2 = recognize_shape(conjecture)
    if c1 not in tax.classes or c2 not in tax.classes:
        return False, False
    if shape == "overlap":
        return tax.derived_nondisjoint(c1, c2), tax.derived_disjoint(c1, c2)
    if shape == "subset":
        return tax.subclass_closed(c1, c2), tax.derived_disjoint(c1, c2)
    return tax.derived_disjoint(c1, c2), tax.derived_nondisjoint(c1, c2)


def oracle_verdict(tax: Taxonomy, cq: CompetencyQuestion) -> Verdict:
    """Verdict-shaped oracle answer; both routes firing (possible only on a
    conflicted taxonomy) surfaces as a contradictory verdict."""
    truth, falsity = _oracle_routes(tax, cq.conjecture)

    def outcome(flag: bool) -> ProverOutcome:
        return ProverOutcome(status=PROVED if flag else GAVE_UP, wall_time=0.0)

    return Verdict(cq_id=cq.id, value=classify(truth, falsity),
                   truth=outcome(truth), falsity=outcome(falsity))


def oracle_run_batch(tax: Taxonomy, cqs,
                     journal_path: "str | Path | None" = None) -> list[Verdict]:
    """Sequential oracle evaluation with the same journal format. Every
    verdict is recomputed, so the journal is rewritten with this run's
    records."""
    verdicts = [oracle_verdict(tax, cq) for cq in cqs]
    if journal_path:
        Path(journal_path).unlink(missing_ok=True)
        append_journal(journal_path, verdict_records(verdicts))
    _raise_on_contradiction(verdicts)
    return verdicts
