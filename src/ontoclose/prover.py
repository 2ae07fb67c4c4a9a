"""External prover harness, verdicts, and a prover-free structural oracle.

Each test runs as one external process with a wall-clock kill at the
configured limit plus a fixed grace period, and an address-space cap. Prover
results are read from ``SZS status`` lines; axiom names cited in proofs are
collected so reports can count them. The oracle decides the graph-shaped
conjectures (instance overlap, subset, distinctness) straight from the
taxonomy, which is what the test suite runs against when no prover is
installed.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

from . import kif
from .kif import Not, Ontology
from .questions import CompetencyQuestion, recognize_shape
from .taxonomy import Taxonomy

PROVED = "proved"
COUNTER_SATISFIABLE = "counter-satisfiable"
TIMEOUT = "timeout"
GAVE_UP = "gave-up"
ERROR = "error"

# seconds a prover may run past its time limit before it is killed
KILL_GRACE = 5.0
# Popen.communicate waits at most 2**31 - 1 ms (poll takes an int of
# milliseconds), about 24.8 days; a time limit of at most a million
# seconds plus the grace stays within it
MAX_TIME_LIMIT = 1_000_000
# resource.prlimit takes the address-space cap in bytes as a C long
MAX_MEMORY_LIMIT_MIB = sys.maxsize // (1024 * 1024)

TRUTH = "truth"
FALSITY = "falsity"

PASSING = "passing"
NON_PASSING = "non-passing"
UNKNOWN = "unknown"
CONTRADICTORY = "contradictory"

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


@dataclass(frozen=True)
class ProverConfig:
    """How to launch the external prover.

    ``command`` must contain exactly one ``{problem}`` placeholder; any
    prover-side limit flags are part of the command text. ``time_limit``
    drives the harness-level kill at ``time_limit + KILL_GRACE`` seconds
    and must be finite and at most ``MAX_TIME_LIMIT``.
    ``memory_limit_mib`` caps the prover's address space and is at most
    ``MAX_MEMORY_LIMIT_MIB``. The defaults here are the only ones: the
    ``run`` options and ``pipeline`` keys left out take them.
    """
    command: str
    time_limit: float = 300.0
    memory_limit_mib: int = 2048
    workers: int = 1

    def __post_init__(self):
        if self.command.count("{problem}") != 1:
            raise ProverError(
                "prover command needs exactly one {problem} placeholder")
        # written so that a NaN limit fails too
        if not (self.time_limit > 0 and self.memory_limit_mib > 0):
            raise ProverError("prover limits must be positive")
        if not self.time_limit <= MAX_TIME_LIMIT:
            raise ProverError("prover time limit must be finite and at most "
                              f"{MAX_TIME_LIMIT} seconds")
        if self.memory_limit_mib > MAX_MEMORY_LIMIT_MIB:
            raise ProverError("prover memory limit must be at most "
                              f"{MAX_MEMORY_LIMIT_MIB} MiB")
        if self.workers < 1:
            raise ProverError("worker count must be at least 1")


@dataclass(frozen=True, slots=True)
class ProverOutcome:
    status: str
    wall_time: float
    used: tuple[str, ...] = ()
    szs: "str | None" = None
    detail: str = ""

    def __post_init__(self):
        # written so that a NaN wall time fails too
        if not 0 <= self.wall_time < math.inf:
            raise ValueError("wall time must be finite and non-negative")
        # the journal's precision, so that an outcome reads the same as
        # its journal line does
        object.__setattr__(self, "wall_time", round(self.wall_time, 6))
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


def _kill_session(process) -> None:
    """Kill every process in the session a ``Popen`` started."""
    import signal

    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_prover(problem_path: "str | Path", config: ProverConfig) -> ProverOutcome:
    """One external prover process on one problem file.

    The address-space cap is set on the child with ``prlimit`` (Linux) as
    soon as ``Popen`` returns, not by Python code run in the forked child:
    without such code, CPython spawns through ``vfork``, which is much
    cheaper per test and safe under ``run_batch``'s threads. The cost is a short window in
    which the prover runs uncapped, between its ``exec`` and the
    ``prlimit`` call. The child is not reaped before ``communicate``, so
    its pid cannot be reused in that window. A cap that cannot be set
    (say, above the inherited hard limit) kills the child's session and
    fails this test with an error outcome.
    """
    # imported here, as are the batch's threads and the problem renderer:
    # oracle runs use none of them
    import resource
    import shlex
    import subprocess

    argv = [part.replace("{problem}", str(problem_path))
            for part in shlex.split(config.command)]
    limit_bytes = config.memory_limit_mib * 1024 * 1024

    start = time.perf_counter()
    try:
        process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            encoding="utf-8", errors="replace", start_new_session=True)
    except OSError as exc:
        return ProverOutcome(status=ERROR, wall_time=time.perf_counter() - start,
                             detail=f"spawn failed: {exc}")
    try:
        resource.prlimit(process.pid, resource.RLIMIT_AS,
                         (limit_bytes, limit_bytes))
    except (OSError, ValueError) as exc:
        _kill_session(process)
        process.communicate()
        return ProverOutcome(
            status=ERROR, wall_time=time.perf_counter() - start,
            detail=f"cannot cap the prover's address space at "
                   f"{config.memory_limit_mib} MiB: {exc}")
    killed = False
    try:
        stdout, stderr = process.communicate(
            timeout=config.time_limit + KILL_GRACE)
    except subprocess.TimeoutExpired:
        killed = True
        _kill_session(process)
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

@dataclass(frozen=True, slots=True)
class Verdict:
    cq_id: str
    truth: "ProverOutcome | None"
    falsity: "ProverOutcome | None"

    @property
    def value(self) -> str:
        """What the two outcomes say; a test not run proves nothing."""
        return classify(bool(self.truth and self.truth.proved),
                        bool(self.falsity and self.falsity.proved))


def classify(truth_proved: bool, falsity_proved: bool) -> str:
    if truth_proved and falsity_proved:
        return CONTRADICTORY
    if truth_proved:
        return PASSING
    if falsity_proved:
        return NON_PASSING
    return UNKNOWN


def write_problem(block: tptp.AxiomBlock, cq: CompetencyQuestion,
                  polarity: str, workdir: "str | Path", mode_label: str = ""
                  ) -> Path:
    """Write the problem of one test of a question (the block's axioms,
    then the test as the conjecture ``cq_<polarity>``) to
    ``<workdir>/<first 16 hex digits of sha256(cq.id)>_<polarity>.p``, so
    distinct questions never share a file; return the path."""
    # imported here: hashlib loads OpenSSL, about 3.5 MiB of resident
    # memory that oracle-only runs need not pay
    import hashlib

    from . import tptp

    formula = cq.conjecture if polarity == TRUTH else Not(cq.conjecture)
    text = tptp.emit_problem(
        block, formula,
        metadata={"cq": cq.id, "pattern": cq.pattern,
                  "polarity": polarity, "mode": mode_label},
        conjecture_name=f"cq_{polarity}")
    digest = hashlib.sha256(cq.id.encode("utf-8")).hexdigest()[:16]
    path = Path(workdir) / f"{digest}_{polarity}.p"
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Results journal
# ---------------------------------------------------------------------------

def verdict_tests(verdicts) -> Iterator[tuple[str, str, ProverOutcome]]:
    """(question id, polarity, outcome) of every test the verdicts ran,
    truth before falsity, in verdict order."""
    for v in verdicts:
        if v.truth is not None:
            yield v.cq_id, TRUTH, v.truth
        if v.falsity is not None:
            yield v.cq_id, FALSITY, v.falsity


_quote = json.encoder.encode_basestring_ascii


def _journal_tail(outcome: ProverOutcome) -> str:
    """The end of the journal line of a test with this outcome, from the
    separator after its polarity to the newline."""
    used = ", ".join(map(_quote, outcome.used))
    return (f', "seconds": {outcome.wall_time!r}, '
            f'"status": {_quote(outcome.status)}, "used": [{used}]}}\n')


def append_journal(path: "str | Path", tests) -> None:
    """Append one journal line per (question id, polarity, outcome) test,
    through one open file. Each line is rendered field by field: the keys
    ``cq``, ``polarity``, ``seconds`` (the wall time's ``repr``),
    ``status`` and ``used`` in that order, with the separators and ASCII
    escapes of ``json.dumps``, then a newline. The part after the
    polarity is rendered once per distinct outcome."""
    # by id, holding each outcome so that its id is not reused
    tails: dict[int, tuple[ProverOutcome, str]] = {}
    with open(path, "a", encoding="utf-8") as handle:
        for cq_id, polarity, outcome in tests:
            entry = tails.get(id(outcome))
            if entry is None:
                entry = tails[id(outcome)] = (outcome, _journal_tail(outcome))
            handle.write(f'{{"cq": {_quote(cq_id)}, '
                         f'"polarity": {_quote(polarity)}{entry[1]}')


# the largest number of seconds a report can take as a float
_MAX_SECONDS = sys.float_info.max


def _index_records(path: Path, numbered
                   ) -> dict[tuple[str, str], ProverOutcome]:
    """Journal outcomes by (question, polarity), from (line number, decoded
    line) pairs, equal records sharing one outcome; the first line that is
    not a record raises :class:`ProverError` naming it."""
    outcomes, shared = {}, {}
    for lineno, record in numbered:
        try:
            cq_id, polarity = record["cq"], record["polarity"]
            status, seconds = record["status"], record["seconds"]
            used = record.get("used", [])
        except (KeyError, TypeError):
            cq_id = None
        # type() rather than isinstance(): the decoder makes no subclass,
        # and a bool is not a number of seconds
        if not (type(cq_id) is str and type(polarity) is str
                and type(status) is str
                and (type(seconds) is float or type(seconds) is int)
                and 0 <= seconds <= _MAX_SECONDS
                and type(used) is list
                and (not used or all(type(name) is str for name in used))):
            raise ProverError(
                f"{path}:{lineno}: journal line is not a record with string "
                "cq, polarity and status, a finite non-negative number of "
                "seconds and, if any, a list of strings as used")
        key = (status, seconds, tuple(used))
        outcome = shared.get(key)
        if outcome is None:
            outcome = shared[key] = ProverOutcome(*key)
        outcomes[cq_id, polarity] = outcome
    return outcomes


# one JSON value at the start of a string, and the index after it
_decode_value = json.JSONDecoder().raw_decode


def _streamed_records(path: Path, lines):
    """(line number, decoded line) of each line but blank ones and a last
    one with no newline (torn by a kill mid-append); the first other line
    that is not one JSON value raises :class:`ProverError` naming it."""
    for lineno, line in enumerate(lines, start=1):
        try:
            record, end = _decode_value(line)
        except json.JSONDecodeError:
            end = len(line)
        if line[end:] != "\n":
            if not line.strip() or line[-1] != "\n":
                continue
            # surrounding whitespace (say, the CR of a CRLF line) is
            # accepted; anything else raises the decoder's own message
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ProverError(
                    f"{path}:{lineno}: bad journal line: {exc}") from None
        yield lineno, record


def load_journal(path: "str | Path"
                 ) -> dict[tuple[str, str], ProverOutcome]:
    """The outcome of each test in the journal, by (question, polarity),
    streamed a line at a time with each line decoded once. Blank lines,
    and an unterminated last line torn by a kill mid-append, are skipped;
    the first other line that is not one JSON object with string ``cq``,
    ``polarity`` and ``status``, a finite non-negative number ``seconds``
    (not a bool) and, if any, a list of strings ``used`` raises
    :class:`ProverError` naming it, as do bytes that are not UTF-8. A
    missing journal raises ``FileNotFoundError``, as ``open`` does."""
    path = Path(path)
    with open(path, encoding="utf-8", newline="\n") as handle:
        try:
            return _index_records(path, _streamed_records(path, handle))
        except UnicodeDecodeError as exc:
            raise ProverError(
                f"{path}: journal is not UTF-8 text: {exc}") from None


def _drop_torn_tail(path: "str | Path") -> None:
    """Cut an unterminated last line off the journal, so that the next
    record appended starts a line of its own."""
    with open(path, "r+b") as handle:
        data = handle.read()
        if not data.endswith(b"\n"):
            handle.truncate(data.rfind(b"\n") + 1)


def _raise_on_contradiction(verdicts: list[Verdict]) -> None:
    contradictory = [v.cq_id for v in verdicts if v.value == CONTRADICTORY]
    if contradictory:
        raise InconsistencyError(contradictory)


def run_batch(ontology: Ontology, cqs, config: ProverConfig,
              journal_path: "str | Path", workdir: "str | Path",
              short_circuit: bool = True,
              mode_label: str = "") -> list[Verdict]:
    """Evaluate many questions with a fixed-size worker pool.

    The ontology's axioms are rendered once, and every test's problem
    shares them. Results append to the journal as they complete, keyed by
    question and polarity, so an interrupted run resumes where it stopped;
    a missing journal means no test has run yet, and the run starts it.
    """
    import logging
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from . import tptp

    try:
        done = load_journal(journal_path)
    except FileNotFoundError:
        done = {}
    else:
        _drop_torn_tail(journal_path)
    lock = threading.Lock()
    block = tptp.AxiomBlock(ontology)

    def run_test(cq: CompetencyQuestion, polarity: str) -> ProverOutcome:
        path = write_problem(block, cq, polarity, workdir, mode_label)
        outcome = run_prover(path, config)
        # proofs cite the block's axioms and the conjecture, whose name is
        # its id
        used = tuple(block.table.demangle(n) or n for n in outcome.used)
        outcome = replace(outcome, used=used) if used else outcome
        if outcome.status == ERROR:
            logging.getLogger(__name__).warning(
                "prover error on %s %s test: %s", cq.id, polarity,
                outcome.detail)
        with lock:
            append_journal(journal_path, [(cq.id, polarity, outcome)])
        return outcome

    def evaluate(cq: CompetencyQuestion) -> Verdict:
        outcomes: dict[str, ProverOutcome | None] = {TRUTH: None, FALSITY: None}
        for polarity in (TRUTH, FALSITY):
            outcome = done.get((cq.id, polarity))
            if outcome is None:
                outcome = run_test(cq, polarity)
            outcomes[polarity] = outcome
            if polarity == TRUTH and short_circuit and outcome.proved:
                break
        return Verdict(cq.id, outcomes[TRUTH], outcomes[FALSITY])

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

def _oracle_routes(tax: Taxonomy, cq: CompetencyQuestion
                   ) -> tuple[bool, bool]:
    shape, c1, c2 = cq.shape or recognize_shape(cq.conjecture)
    if c1 not in tax.classes or c2 not in tax.classes:
        return False, False
    if shape == "overlap":
        return tax.derived_nondisjoint(c1, c2), tax.derived_disjoint(c1, c2)
    if shape == "subset":
        return tax.subclass_closed(c1, c2), tax.derived_disjoint(c1, c2)
    return tax.derived_disjoint(c1, c2), tax.derived_nondisjoint(c1, c2)


# outcomes are frozen, so every oracle verdict shares these two
_ORACLE_OUTCOMES = {True: ProverOutcome(status=PROVED, wall_time=0.0),
                    False: ProverOutcome(status=GAVE_UP, wall_time=0.0)}


def oracle_verdict(tax: Taxonomy, cq: CompetencyQuestion) -> Verdict:
    """Verdict-shaped oracle answer; both routes firing (possible only on a
    conflicted taxonomy) surfaces as a contradictory verdict."""
    truth, falsity = _oracle_routes(tax, cq)
    return Verdict(cq.id, _ORACLE_OUTCOMES[truth], _ORACLE_OUTCOMES[falsity])


def oracle_run_batch(tax: Taxonomy, cqs,
                     journal_path: "str | Path") -> list[Verdict]:
    """Sequential oracle evaluation with the same journal format. Every
    verdict is recomputed, so the journal is rewritten with this run's
    records."""
    verdicts = [oracle_verdict(tax, cq) for cq in cqs]
    Path(journal_path).unlink(missing_ok=True)
    append_journal(journal_path, verdict_tests(verdicts))
    _raise_on_contradiction(verdicts)
    return verdicts
