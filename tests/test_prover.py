import io
import json
import os
import random
import re
import subprocess
import sys
import textwrap
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from ontoclose import kif
from ontoclose.closure import (
    OWA, SUBCLASS_DISJOINT, SUBCLASS_NONDISJOINT, SUBCLASS_ONLY, apply_closure,
)
from ontoclose.prover import (
    CONTRADICTORY, COUNTER_SATISFIABLE, ERROR, FALSITY, GAVE_UP,
    MAX_MEMORY_LIMIT_MIB, MAX_TIME_LIMIT, NON_PASSING, PASSING, PROVED,
    TIMEOUT, TRUTH, UNKNOWN,
    InconsistencyError, ProverConfig, ProverError, ProverOutcome, Verdict,
    _ORACLE_OUTCOMES, append_journal, classify, load_journal,
    oracle_run_batch, oracle_verdict, parse_prover_output, run_batch,
    run_prover, write_problem,
)
from ontoclose.questions import UnrecognizedShapeError, recognize_shape
from ontoclose.taxonomy import build_taxonomy
from ontoclose.tptp import AxiomBlock

from conftest import antonymy_cq, load_ontology, overlap_cq, subset_cq
import stub_provers
import witness_oracle


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ProverError):
        ProverConfig(command="prover file.p")  # no placeholder
    with pytest.raises(ProverError):
        ProverConfig(command="prover {problem} {problem}")
    with pytest.raises(ProverError):
        ProverConfig(command="prover {problem}", time_limit=0)
    with pytest.raises(ProverError):
        ProverConfig(command="prover {problem}", time_limit=float("nan"))
    with pytest.raises(ProverError):
        ProverConfig(command="prover {problem}", workers=0)
    # Popen.communicate cannot wait that long: inf overflows int(), and
    # 3e6 s overflows poll's int of milliseconds
    for limit in (float("inf"), 3e6, MAX_TIME_LIMIT + 1):
        with pytest.raises(ProverError,
                           match=f"at most {MAX_TIME_LIMIT} seconds"):
            ProverConfig(command="prover {problem}", time_limit=limit)
    # resource.prlimit takes the cap's bytes as a C long: run_prover used
    # to raise OverflowError and leave its prover unreaped
    for mib in (10**14, MAX_MEMORY_LIMIT_MIB + 1, float("inf")):
        with pytest.raises(ProverError,
                           match=f"at most {MAX_MEMORY_LIMIT_MIB} MiB"):
            ProverConfig(command="prover {problem}", memory_limit_mib=mib)
    for mib in (0, float("nan")):
        with pytest.raises(ProverError, match="must be positive"):
            ProverConfig(command="prover {problem}", memory_limit_mib=mib)
    assert ProverConfig(command="prover {problem}",
                        memory_limit_mib=MAX_MEMORY_LIMIT_MIB)


def test_a_run_at_the_time_limit_cap_waits_for_its_prover(tmp_path,
                                                          problem_file):
    config = stub_provers.stub_config(
        tmp_path, stub_provers.COUNTER_SATISFIABLE, time_limit=MAX_TIME_LIMIT)
    assert run_prover(problem_file, config).status == COUNTER_SATISFIABLE


# ---------------------------------------------------------------------------
# Output parsing
# ---------------------------------------------------------------------------

def test_parse_output_prefers_file_citations():
    output = """
    % SZS status Theorem for x
    fof(f12, axiom, p, file('/tmp/x.p', orig_3)).
    fof(f13, plain, q, inference(resolution, [], [f12])).
    """
    szs, used = parse_prover_output(output)
    assert szs == "Theorem"
    assert used == ("orig_3",)


def test_parse_output_falls_back_to_fof_axiom_names():
    output = "% SZS status Theorem for x\nfof(orig_1, axiom, $true).\n" \
             "fof(orig_1, axiom, $true).\n"
    szs, used = parse_prover_output(output)
    assert used == ("orig_1",)


def test_parse_output_without_status():
    szs, used = parse_prover_output("nothing to see here")
    assert szs is None and used == ()


# ---------------------------------------------------------------------------
# Running stubs
# ---------------------------------------------------------------------------

@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.p"
    path.write_text("fof(orig_1, axiom, p).\nfof(cq, conjecture, p).\n")
    return path


def test_theorem_stub(tmp_path, problem_file):
    config = stub_provers.stub_config(tmp_path, stub_provers.THEOREM)
    outcome = run_prover(problem_file, config)
    assert outcome.status == PROVED
    assert outcome.szs == "Theorem"
    assert outcome.used == ("orig_1",)
    assert outcome.wall_time > 0


def test_counter_satisfiable_stub(tmp_path, problem_file):
    config = stub_provers.stub_config(tmp_path, stub_provers.COUNTER_SATISFIABLE)
    outcome = run_prover(problem_file, config)
    assert outcome.status == COUNTER_SATISFIABLE
    assert outcome.used == ()


def test_sleeper_stub_is_killed(tmp_path, problem_file, monkeypatch):
    # the kill lands at the time limit plus the grace
    monkeypatch.setattr("ontoclose.prover.KILL_GRACE", 0.4)
    config = stub_provers.stub_config(tmp_path, stub_provers.SLEEPER,
                                      time_limit=0.4)
    start = time.perf_counter()
    outcome = run_prover(problem_file, config)
    elapsed = time.perf_counter() - start
    assert outcome.status == TIMEOUT
    assert elapsed < 5.0
    assert outcome.wall_time >= 0.4


def test_garbage_stub(tmp_path, problem_file):
    config = stub_provers.stub_config(tmp_path, stub_provers.GARBAGE)
    outcome = run_prover(problem_file, config)
    assert outcome.status == ERROR
    assert "thermal anomaly" in outcome.detail


def test_unknown_status_stub(tmp_path, problem_file):
    config = stub_provers.stub_config(tmp_path, stub_provers.WRONG_STATUS)
    outcome = run_prover(problem_file, config)
    assert outcome.status == ERROR
    assert "Telepathy" in outcome.detail


def test_non_utf8_output_stub(tmp_path, problem_file):
    config = stub_provers.stub_config(tmp_path, stub_provers.NON_UTF8)
    outcome = run_prover(problem_file, config)
    assert outcome.status == PROVED
    assert outcome.szs == "Theorem"


def test_spawn_failure(problem_file):
    config = ProverConfig(command="/no/such/prover {problem}")
    outcome = run_prover(problem_file, config)
    assert outcome.status == ERROR
    assert "spawn failed" in outcome.detail


def test_the_address_space_cap_reaches_the_prover(tmp_path, problem_file):
    config = stub_provers.stub_config(tmp_path, stub_provers.capped_at(512),
                                      memory_limit_mib=512)
    assert run_prover(problem_file, config).status == PROVED


def test_run_batch_caps_every_prover(tmp_path, organism_process):
    config = stub_provers.stub_config(tmp_path, stub_provers.capped_at(512),
                                      memory_limit_mib=512, workers=2)
    cqs = [antonymy_cq("Birth", "Death"), overlap_cq("Breathing", "Mating"),
           subset_cq("Birth", "Unicorn"), antonymy_cq("Mating", "Replication")]
    verdicts = run_batch(organism_process, cqs, config, tmp_path / "j.jsonl",
                         tmp_path / "work")
    assert [v.truth.status for v in verdicts] == [PROVED] * len(cqs)


def test_run_prover_spawns_without_preexec_fn(tmp_path, problem_file,
                                              monkeypatch):
    # without a preexec_fn CPython spawns through vfork, not a full fork
    spawns = []
    real_popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        spawns.append(kwargs)
        return real_popen(*args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    config = stub_provers.stub_config(tmp_path, stub_provers.THEOREM)
    assert run_prover(problem_file, config).status == PROVED
    assert len(spawns) == 1 and "preexec_fn" not in spawns[0]


# Run in a child interpreter whose hard address-space limit is 6 GiB, so a
# prover cap of 8 GiB cannot be set.
_CAP_ABOVE_HARD_LIMIT = """
import json
import resource
import sys
import time
from pathlib import Path

import stub_provers
from conftest import antonymy_cq, load_ontology
from ontoclose.prover import ProverError, run_batch, run_prover

hard = 6 * 1024 ** 3
resource.setrlimit(resource.RLIMIT_AS, (hard, hard))
try:
    resource.setrlimit(resource.RLIMIT_AS, (hard, hard + 1))
except (OSError, ValueError):
    pass
else:
    print(json.dumps({"privileged": True}))
    raise SystemExit
tmp = Path(sys.argv[1])
problem = tmp / "problem.p"
problem.write_text("fof(cq, conjecture, p).\\n")
config = stub_provers.stub_config(tmp, stub_provers.SLEEPER,
                                  memory_limit_mib=8192, time_limit=30.0,
                                  workers=2)
start = time.monotonic()
outcome = run_prover(problem, config)
elapsed = time.monotonic() - start
try:
    run_batch(load_ontology("organism_process.kif"),
              [antonymy_cq("Birth", "Death"), antonymy_cq("Mating", "Death")],
              config, tmp / "j.jsonl", tmp / "work")
    batch = "no error"
except ProverError as exc:
    batch = str(exc)
errors = (tmp / "j.jsonl").read_text().count('"status": "error"')
print(json.dumps({"status": outcome.status, "detail": outcome.detail,
                  "elapsed": elapsed, "batch": batch, "errors": errors}))
"""


def test_a_cap_above_the_hard_limit_fails_the_test_not_the_harness(tmp_path):
    tests_dir = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests_dir.parent / "src"), str(tests_dir)]))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c",
         textwrap.dedent(_CAP_ABOVE_HARD_LIMIT), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    if result.get("privileged"):
        pytest.skip("this process may raise its hard address-space limit")
    assert result["status"] == ERROR
    assert "8192 MiB" in result["detail"]
    # the sleeping stub was killed, not waited for
    assert result["elapsed"] < 10.0
    assert result["batch"] == "every prover invocation failed; check the command"
    assert result["errors"] == 4
    # every child was reaped: -X dev reports one that was not
    assert "ResourceWarning" not in done.stderr
    assert "Exception ignored" not in done.stderr


def test_trivial_entailment_stub(tmp_path, organism_process):
    """A conjecture that is literally one of the axioms must be proved,
    and the proof must cite that axiom."""
    from ontoclose import tptp
    config = stub_provers.stub_config(tmp_path, stub_provers.TRIVIAL_ENTAILMENT)
    conjecture = kif.parse_formula_text("($subclass Birth OrganismProcess)")
    block = tptp.AxiomBlock(organism_process)
    path = tmp_path / "trivial.p"
    path.write_text(tptp.emit_problem(block, conjecture))
    outcome = run_prover(path, config)
    assert outcome.status == PROVED
    assert block.table.demangle(outcome.used[0]) == "orig_1"


def test_outcome_invariant_used_only_when_proved():
    outcome = ProverOutcome(status=GAVE_UP, wall_time=1.0, used=("a",))
    assert outcome.used == ()


@pytest.mark.parametrize("wall_time", [-1.0, float("nan"), float("inf")])
def test_outcome_refuses_a_wall_time_no_journal_can_hold(wall_time):
    # a NaN passed the old "< 0" check, and the journal then held NaN
    with pytest.raises(ValueError, match="wall time"):
        ProverOutcome(GAVE_UP, wall_time)


def test_outcome_holds_its_wall_time_at_the_journals_precision(tmp_path):
    # so that reports of a run's own outcomes read what reports of its
    # journal read
    outcome = replace(ProverOutcome(PROVED, 0.1234565001), used=("a",))
    assert outcome.wall_time == 0.123457
    written = ProverOutcome(PROVED, 2 / 3)
    journal = tmp_path / "journal.jsonl"
    append_journal(journal, [("q", TRUTH, written)])
    assert load_journal(journal) == {("q", TRUTH): written}


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

def test_classify_matrix():
    assert classify(True, False) == PASSING
    assert classify(False, True) == NON_PASSING
    assert classify(False, False) == UNKNOWN
    assert classify(True, True) == CONTRADICTORY


def test_a_verdicts_value_comes_from_its_outcomes():
    # a test not run (short-circuited, say) proves nothing
    proved, open_ = ProverOutcome(PROVED, 0.0), ProverOutcome(GAVE_UP, 0.0)
    for truth, falsity, value in ((proved, None, PASSING),
                                  (open_, proved, NON_PASSING),
                                  (proved, proved, CONTRADICTORY),
                                  (open_, None, UNKNOWN)):
        assert Verdict("q", truth, falsity).value == value


def test_run_batch_short_circuits(tmp_path, organism_process):
    config = stub_provers.stub_config(tmp_path, stub_provers.THEOREM)
    cq = antonymy_cq("Birth", "Death")
    [verdict] = run_batch(organism_process, [cq], config,
                          tmp_path / "j.jsonl", tmp_path / "work")
    assert verdict.value == PASSING
    assert verdict.truth.proved
    assert verdict.falsity is None  # skipped after the truth test proved


def test_run_batch_detects_contradiction(tmp_path, organism_process):
    config = stub_provers.stub_config(tmp_path, stub_provers.THEOREM)
    cqs = [antonymy_cq("Birth", "Death"), overlap_cq("Birth", "Death")]
    with pytest.raises(InconsistencyError) as err:
        run_batch(organism_process, cqs, config, tmp_path / "j.jsonl",
                  tmp_path / "work", short_circuit=False)
    # every contradictory question of the batch is named, not only the first
    assert err.value.cq_ids == tuple(cq.id for cq in cqs)


def test_run_batch_unknown(tmp_path, organism_process):
    config = stub_provers.stub_config(tmp_path, stub_provers.COUNTER_SATISFIABLE)
    cq = antonymy_cq("Birth", "Death")
    [verdict] = run_batch(organism_process, [cq], config,
                          tmp_path / "j.jsonl", tmp_path / "work")
    assert verdict.value == UNKNOWN
    assert verdict.truth.status == COUNTER_SATISFIABLE
    assert verdict.falsity.status == COUNTER_SATISFIABLE


# ---------------------------------------------------------------------------
# Journal and batches
# ---------------------------------------------------------------------------

def test_journal_round_trip(tmp_path):
    journal = tmp_path / "results.jsonl"
    outcome = ProverOutcome(status=PROVED, wall_time=1.25, used=("orig_1",))
    append_journal(journal, [("cq-1", TRUTH, outcome)])
    append_journal(journal, [("cq-1", FALSITY, ProverOutcome(GAVE_UP, 0.5))])
    assert load_journal(journal) == {("cq-1", TRUTH): outcome,
                                     ("cq-1", FALSITY): ProverOutcome(
                                         GAVE_UP, 0.5)}


def test_load_journal_missing_file(tmp_path):
    # only a resuming run reads a missing journal as an empty one
    with pytest.raises(FileNotFoundError):
        load_journal(tmp_path / "absent.jsonl")


GOOD_LINE = ('{"cq": "q", "polarity": "truth", "seconds": 0.5, '
             '"status": "proved"}')


def test_load_journal_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.jsonl"
    for line in ("not json", "5", '{"cq": "a"}', '{"cq": "a", "polarity": 1}',
                 '["a", "truth"]',
                 '{"cq": "a", "polarity": "truth"}, '
                 '{"cq": "b", "polarity": "truth"}',
                 # two records whose decode spans lines 3 and 4
                 '{"cq": "a", "polarity": "truth"}, '
                 '{"cq": "b", "polarity": "truth", "x": [1\n2]}',
                 # two good records on a line, the second one ending on
                 # the next line, which starts with "{" (or else holds no
                 # "{"): a decode of more than one line would take them
                 '{"cq": "a", "polarity": "truth", "seconds": 1, '
                 '"status": "proved"}, {"cq": "b", "polarity": "truth", '
                 '"seconds": 1, "status": "proved", "x": "\n{"}',
                 '{"cq": "a", "polarity": "truth", "seconds": 1, '
                 '"status": "proved"}, {"cq": "b", "seconds": 1, '
                 '"status": "proved"\n"polarity": "truth"}',
                 # fields that reports and resumed runs read
                 '{"cq": "a", "polarity": "truth", "status": "proved"}',
                 '{"cq": "a", "polarity": "truth", "seconds": 1}',
                 '{"cq": "a", "polarity": "truth", "seconds": 1, '
                 '"status": 1}',
                 *(f'{{"cq": "a", "polarity": "truth", "seconds": {seconds}, '
                   '"status": "proved"}'
                   for seconds in ('"fast"', "true", "null", "-0.5", "NaN",
                                   "Infinity", "1e400", "1" + "0" * 400)),
                 *('{"cq": "a", "polarity": "truth", "seconds": 1, '
                   f'"status": "proved", "used": {used}}}'
                   for used in ('"ax"', "null", '["ax", 1]', '[["ax"]]'))):
        # the bad line follows a record, and a blank line or none
        for blank, lineno in (("\n", 3), ("", 2)):
            bad.write_text(f"{GOOD_LINE}\n{blank}{line}\n{GOOD_LINE}\n",
                           encoding="utf-8")
            with pytest.raises(ProverError,
                               match=re.escape(f"{bad}:{lineno}:")):
                load_journal(bad)
    bad.write_bytes(GOOD_LINE.encode() + b"\n\xff\xfe\n")
    with pytest.raises(ProverError, match=re.escape(f"{bad}: ") + ".*UTF-8"):
        load_journal(bad)


def test_load_journal_skips_blank_lines_and_a_torn_tail(tmp_path):
    journal = tmp_path / "journal.jsonl"
    other = GOOD_LINE.replace('"q"', '"r"')
    journal.write_text(f"\n{GOOD_LINE}\n  \n{other}\n{{\"cq\": ",
                       encoding="utf-8")
    outcomes = load_journal(journal)
    assert sorted(outcomes) == [("q", TRUTH), ("r", TRUTH)]
    # equal records share one outcome
    assert outcomes[("r", TRUTH)] is outcomes[("q", TRUTH)]
    assert outcomes[("r", TRUTH)] == ProverOutcome(PROVED, 0.5)


def test_load_journal_reads_a_line_longer_than_its_read_buffer(tmp_path):
    journal = tmp_path / "journal.jsonl"
    long = ProverOutcome(PROVED, 0.5, used=tuple(
        f"axiom_{i}" for i in range(10_000)))
    append_journal(journal, [("q", TRUTH, long), ("q", FALSITY, long),
                             ("r", TRUTH, ProverOutcome(GAVE_UP, 1.0))])
    assert len(journal.read_text().split("\n")[0]) > 10 * io.DEFAULT_BUFFER_SIZE
    assert load_journal(journal) == {("q", TRUTH): long,
                                     ("q", FALSITY): long,
                                     ("r", TRUTH): ProverOutcome(GAVE_UP, 1.0)}


def test_load_journal_ends_lines_at_newline_only(tmp_path):
    # a raw U+2028 in a string ends a line for str.splitlines, not for the
    # journal; a CR before the newline is whitespace around the record
    journal = tmp_path / "journal.jsonl"
    separated = GOOD_LINE.replace('"q"', '"a\u2028b"')
    journal.write_bytes(f"{separated}\n{GOOD_LINE}\r\n\r\n".encode()
                        + b'{"cq": "c"}\r\n')
    with pytest.raises(ProverError, match=re.escape(f"{journal}:4:")):
        load_journal(journal)
    journal.write_bytes(f"{separated}\n{GOOD_LINE}\r\n\r\n".encode())
    assert load_journal(journal) == {("a\u2028b", TRUTH): ProverOutcome(
        PROVED, 0.5), ("q", TRUTH): ProverOutcome(PROVED, 0.5)}


def test_load_journal_rejects_a_late_byte_that_is_not_utf8(tmp_path):
    journal = tmp_path / "journal.jsonl"
    journal.write_bytes((GOOD_LINE + "\n").encode() * 100_000
                        + b'{"cq": "\xff"}\n' + (GOOD_LINE + "\n").encode())
    with pytest.raises(ProverError, match=re.escape(
            f"{journal}: journal is not UTF-8 text: ")):
        load_journal(journal)


def _load_line_by_line(path):
    """What load_journal should return, with the number of distinct
    records it holds, or the line it should name."""
    records = {}
    for lineno, line in enumerate(path.read_text().split("\n")[:-1], 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            return lineno
        if not isinstance(record, dict):
            return lineno
        seconds, used = record.get("seconds"), record.get("used", [])
        if not (all(isinstance(record.get(key), str)
                    for key in ("cq", "polarity", "status"))
                and type(seconds) in (int, float)
                and 0 <= seconds <= sys.float_info.max
                and isinstance(used, list)
                and all(isinstance(name, str) for name in used)):
            return lineno
        records[record["cq"], record["polarity"]] = (
            record["status"], seconds, tuple(used))
    outcomes = {key: ProverOutcome(*fields) for key, fields in records.items()}
    return outcomes, len(set(records.values()))


def test_load_journal_equals_a_line_by_line_load(tmp_path):
    # the streamed load must give what decoding each line of the whole
    # text gives, on journals with braces and commas in strings, several
    # records on a line, records across lines, blank lines, torn tails
    rng = random.Random(7)
    names = ["q", "{", "}", "{}", "a,b", 'x"}\n{"y', "\u2028", ""]

    def record():
        name = rng.choice(names) if rng.random() < 0.2 else "q"
        fields = {"cq": name + str(rng.randrange(4)),
                  "polarity": rng.choice([TRUTH, FALSITY]),
                  "seconds": rng.choice([0.0, 1, 2.5]),
                  "status": rng.choice([PROVED, GAVE_UP]),
                  "used": (rng.sample(names, rng.randrange(3))
                           if rng.random() < 0.2 else ["ax"])}
        for key in rng.sample(list(fields), rng.choice([0] * 20 + [1])):
            del fields[key]
        return json.dumps(fields, sort_keys=rng.random() < 0.5)

    def line():
        kind = rng.randrange(24)
        if kind == 0:
            return rng.choice(["", "  "])
        if kind == 1:
            return record() + ", " + record()
        if kind == 2:
            text = record()
            cut = rng.randrange(1, len(text))
            return text[:cut] + "\n" + text[cut:]
        if kind == 3:
            return rng.choice(["{}", "[{}]", "{", '{"cq": {"a": 1}}'])
        return record()

    journal = tmp_path / "journal.jsonl"
    for trial in range(400):
        text = "".join(line() + "\n" for _ in range(rng.randrange(6)))
        if rng.random() < 0.3:
            text += record()[:rng.randrange(1, 20)]
        journal.write_text(text, encoding="utf-8")
        expected = _load_line_by_line(journal)
        if isinstance(expected, int):
            with pytest.raises(ProverError,
                               match=re.escape(f"{journal}:{expected}:")):
                load_journal(journal)
        else:
            outcomes, distinct = expected
            loaded = load_journal(journal)
            assert loaded == outcomes, text
            # equal records share one outcome
            assert len(set(map(id, loaded.values()))) == distinct, text


ADVERSARIAL_NAMES = [
    "", "plain", 'quote"d', "back\\slash", "\\\"", "tab\tnew\nline\r",
    "".join(map(chr, range(32))) + "\x7f", "\u2028\u2029", "caf\u00e9",
    "\u65e5\u672c", "\U0001f600 astral \U0010ffff", "\ud800 lone",
    "x" * 5000, "{\"cq\": 1}",
]


def journal_record(cq_id, polarity, outcome):
    """The fields of a test's journal line, which is their json.dumps with
    sorted keys."""
    return {"cq": cq_id, "polarity": polarity, "status": outcome.status,
            "seconds": round(outcome.wall_time, 6), "used": list(outcome.used)}


def test_journal_lines_are_json_dumps_of_the_record(tmp_path):
    journal = tmp_path / "journal.jsonl"
    shared = ProverOutcome(PROVED, 0.25, used=tuple(ADVERSARIAL_NAMES))
    outcomes = [shared, shared, _ORACLE_OUTCOMES[True],
                _ORACLE_OUTCOMES[False], _ORACLE_OUTCOMES[True],
                ProverOutcome(PROVED, 0.25, used=tuple(ADVERSARIAL_NAMES)),
                ProverOutcome(PROVED, 1.0, used=("only",)),
                ProverOutcome(PROVED, 2.0, used=tuple(
                    f"ax_{i}" for i in range(2000))),
                ProverOutcome(GAVE_UP, 3.0, used=("dropped",)),
                ProverOutcome(ERROR, 300, detail="no SZS status line")]
    outcomes += [ProverOutcome(status, seconds)
                 for status in (PROVED, TIMEOUT, "odd \"status\"\u2028")
                 for seconds in (0, 0.0, 1e-7, 5e-7, 123.4567891, 0.1 + 0.2,
                                 1e16, 1e300, 7)]
    tests = [(cq_id, polarity, outcome)
             for cq_id, outcome in zip(ADVERSARIAL_NAMES * 3, outcomes)
             for polarity in (TRUTH, FALSITY, "polar\\ity")]
    append_journal(journal, tests)
    append_journal(journal, [])
    append_journal(journal, iter(tests[:1]))
    expected = "".join(json.dumps(journal_record(*test), sort_keys=True)
                       + "\n" for test in tests + tests[:1])
    assert journal.read_bytes() == expected.encode("utf-8")


def test_run_batch_resumes(tmp_path, organism_process):
    config = stub_provers.stub_config(tmp_path, stub_provers.COUNTER_SATISFIABLE,
                                      workers=2)
    journal = tmp_path / "journal.jsonl"
    cqs = [antonymy_cq("Birth", "Death"), antonymy_cq("Breathing", "Mating")]
    verdicts = run_batch(organism_process, cqs, config, journal,
                         tmp_path / "problems")
    assert [v.value for v in verdicts] == [UNKNOWN, UNKNOWN]
    size_after_first = journal.stat().st_size
    assert len(load_journal(journal)) == 4
    verdicts = run_batch(organism_process, cqs, config, journal,
                         tmp_path / "problems")
    assert journal.stat().st_size == size_after_first  # nothing re-run
    assert [v.value for v in verdicts] == [UNKNOWN, UNKNOWN]


def test_run_batch_resumes_after_a_torn_last_line(tmp_path, organism_process):
    config = stub_provers.stub_config(tmp_path, stub_provers.COUNTER_SATISFIABLE)
    journal = tmp_path / "journal.jsonl"
    cqs = [antonymy_cq("Birth", "Death"), antonymy_cq("Breathing", "Mating")]
    run_batch(organism_process, cqs, config, journal, tmp_path / "problems")
    whole = journal.read_text()
    # a kill mid-append leaves part of the last record and no newline
    journal.write_text(whole[:-10])
    assert len(load_journal(journal)) == 3
    verdicts = run_batch(organism_process, cqs, config, journal,
                         tmp_path / "problems")
    assert [v.value for v in verdicts] == [UNKNOWN, UNKNOWN]
    lines = journal.read_text().splitlines()
    assert len(lines) == 4  # the torn record was run again, on a line of its own
    assert len(load_journal(journal)) == 4


def test_run_batch_aborts_on_contradiction(tmp_path, organism_process):
    config = stub_provers.stub_config(tmp_path, stub_provers.THEOREM)
    cq = antonymy_cq("Birth", "Death")
    journal = tmp_path / "j.jsonl"
    with pytest.raises(InconsistencyError) as err:
        run_batch(organism_process, [cq], config, journal,
                  tmp_path / "problems", short_circuit=False)
    assert cq.id in err.value.cq_ids
    # both proved records are journaled before the run aborts
    outcomes = load_journal(journal)
    assert {polarity: outcomes[(cq.id, polarity)].status
            for polarity in (TRUTH, FALSITY)} == {TRUTH: PROVED,
                                                  FALSITY: PROVED}


def test_run_batch_problem_files_are_distinct_per_question(tmp_path,
                                                          organism_process):
    # ids that differ only in characters a file-name slug would flatten
    classes = {"antonymy-1:a#n#1:b#n#1:A:B": ("Birth", "Death"),
               "antonymy-1:a_n_1:b_n_1:A:B": ("Breathing", "Mating")}
    cqs = [replace(antonymy_cq(c1, c2), id=cq_id)
           for cq_id, (c1, c2) in classes.items()]
    config = stub_provers.stub_config(tmp_path, stub_provers.COUNTER_SATISFIABLE,
                                      workers=2)
    problems = tmp_path / "problems"
    run_batch(organism_process, cqs, config, tmp_path / "j.jsonl", problems,
              short_circuit=False)
    files = sorted(problems.glob("*.p"))
    assert len(files) == 4
    tests = set()
    for path in files:
        lines = path.read_text().splitlines()
        cq_id = lines[0].removeprefix("% cq: ")
        tests.add((cq_id, lines[3].removeprefix("% polarity: ")))
        conjecture = next(line for line in lines if ", conjecture, " in line)
        for name in classes[cq_id]:
            assert f"c__{name.lower()}" in conjecture, (path, cq_id)
    assert tests == {(cq_id, polarity) for cq_id in classes
                     for polarity in (TRUTH, FALSITY)}


def test_falsity_problem_negates_the_truth_conjecture(tmp_path,
                                                     organism_process):
    cq = antonymy_cq("Birth", "Death")
    block = AxiomBlock(organism_process)
    problems = {}
    for polarity in (TRUTH, FALSITY):
        path = write_problem(block, cq, polarity, tmp_path)
        problems[polarity] = path.read_text(encoding="utf-8").splitlines()
    truth, falsity = (
        [line for line in problems[polarity] if ", conjecture, " in line]
        for polarity in (TRUTH, FALSITY))
    [body] = [line.removeprefix("fof(cq_truth, conjecture, ").removesuffix(").")
              for line in truth]
    assert body.startswith("! [")
    assert falsity == [f"fof(cq_falsity, conjecture, ~ ({body}))."]
    # the axioms and every header but the polarity are shared
    differ = [(t, f) for t, f in zip(*problems.values()) if t != f]
    assert differ == [("% polarity: truth", "% polarity: falsity"),
                      (truth[0], falsity[0])]


def test_run_batch_flags_total_failure(tmp_path, organism_process):
    config = ProverConfig(command="/no/such/prover {problem}")
    with pytest.raises(ProverError):
        run_batch(organism_process, [antonymy_cq("Birth", "Death")], config,
                  tmp_path / "j.jsonl", tmp_path / "problems")


# ---------------------------------------------------------------------------
# Structural oracle
# ---------------------------------------------------------------------------

def test_recognize_shapes():
    assert recognize_shape(overlap_cq("A", "B").conjecture) == ("overlap", "A", "B")
    assert recognize_shape(subset_cq("A", "B").conjecture) == ("subset", "A", "B")
    assert recognize_shape(antonymy_cq("A", "B").conjecture) == ("distinct", "A", "B")
    assert recognize_shape(kif.parse_formula_text(
        "(forall (X) (=> (instance X A) (instance X B)))")) == \
        ("subset", "A", "B")
    with pytest.raises(UnrecognizedShapeError):
        recognize_shape(kif.parse_formula_text(
            "(exists (X Y) (and ($instance X A) (part X Y)))"))
    with pytest.raises(UnrecognizedShapeError):
        recognize_shape(kif.parse_formula_text(
            "(exists (X) (and ($instance X A) ($p X B)))"))


def test_oracle_overlap_with_explicit_compatibility():
    tax = build_taxonomy(kif.parse_kif(
        "($inheritableNonDisjoint PoliticalOrganization GroupOfPeople)"))
    cq = overlap_cq("PoliticalOrganization", "GroupOfPeople")
    assert oracle_verdict(tax, cq).value == PASSING


def test_oracle_overlap_through_a_shared_instance():
    tax = build_taxonomy(kif.parse_kif(
        "($subclass A Top)\n($subclass B Top)\n"
        "($instance o A)\n($instance o B)"))
    assert oracle_verdict(tax, overlap_cq("A", "B")).value == PASSING


def test_oracle_decides_plain_instance_spelling():
    tax = build_taxonomy(kif.parse_kif("($subclass Birth OrganismProcess)"))
    cq = replace(subset_cq("Birth", "OrganismProcess"),
                 conjecture=kif.parse_formula_text(
                     "(forall (X) (=> (instance X Birth) "
                     "(instance X OrganismProcess)))"))
    assert oracle_verdict(tax, cq).value == PASSING


def test_oracle_subset_with_edge():
    tax = build_taxonomy(kif.parse_kif(
        "($subclass Poisoning TherapeuticProcess)"))
    assert oracle_verdict(
        tax, subset_cq("Poisoning", "TherapeuticProcess")).value == PASSING
    assert oracle_verdict(
        tax, subset_cq("TherapeuticProcess", "Poisoning")).value == UNKNOWN


def test_oracle_distinctness_unknown_without_facts(organism_process):
    tax = build_taxonomy(organism_process)
    assert oracle_verdict(tax, antonymy_cq("Birth", "Death")).value == UNKNOWN


def test_oracle_unknown_classes_stay_unknown(organism_process):
    tax = build_taxonomy(organism_process)
    assert oracle_verdict(tax, antonymy_cq("Ghost", "Spirit")).value == UNKNOWN


def test_oracle_trichotomy_over_modes(organism_process):
    cq = antonymy_cq("Birth", "Death")
    expectations = {
        OWA: UNKNOWN,
        SUBCLASS_ONLY: UNKNOWN,
        SUBCLASS_DISJOINT: PASSING,
        SUBCLASS_NONDISJOINT: NON_PASSING,
    }
    for mode, expected in expectations.items():
        closed = apply_closure(organism_process, mode)
        verdict = oracle_verdict(build_taxonomy(closed), cq)
        assert verdict.value == expected, mode


def test_oracle_verdict_contradictory_on_conflicted_taxonomy():
    tax = build_taxonomy(kif.parse_kif(
        "($disjoint A B)\n($subclass C A)\n($subclass C B)"))
    verdict = oracle_verdict(tax, antonymy_cq("A", "B"))
    assert verdict.value == CONTRADICTORY


def test_oracle_run_batch_journals_and_aborts(tmp_path, organism_process):
    closed = apply_closure(organism_process, SUBCLASS_DISJOINT)
    tax = build_taxonomy(closed)
    journal = tmp_path / "oracle.jsonl"
    cqs = [antonymy_cq("Birth", "Death"), overlap_cq("Birth", "OrganismProcess")]
    verdicts = oracle_run_batch(tax, cqs, journal)
    assert [v.value for v in verdicts] == [PASSING, PASSING]
    assert len(load_journal(journal)) == 4
    bad_tax = build_taxonomy(kif.parse_kif(
        "($disjoint A B)\n($subclass C A)\n($subclass C B)"))
    with pytest.raises(InconsistencyError):
        oracle_run_batch(bad_tax, [antonymy_cq("A", "B")],
                         tmp_path / "bad.jsonl")


def test_oracle_run_batch_rewrites_its_journal(tmp_path):
    journal = tmp_path / "oracle.jsonl"
    cq = antonymy_cq("Birth", "Death")
    disjoint = build_taxonomy(kif.parse_kif("($disjoint Birth Death)"))
    [first] = oracle_run_batch(disjoint, [cq], journal)
    assert first.value == PASSING
    compatible = build_taxonomy(kif.parse_kif("($nonDisjoint Birth Death)"))
    [second] = oracle_run_batch(compatible, [cq], journal)
    assert second.value == NON_PASSING
    assert len(journal.read_text().splitlines()) == 2
    outcomes = load_journal(journal)
    assert outcomes[(cq.id, TRUTH)].status == GAVE_UP
    assert outcomes[(cq.id, FALSITY)].status == PROVED


def test_oracle_agrees_with_witness_enumeration_on_random_dags():
    rng = random.Random(8080)
    for _ in range(10):
        tax = witness_oracle.random_taxonomy(rng, max_classes=8)
        placements = witness_oracle.consistent_placements(tax)
        demands = witness_oracle.witness_demands(tax)
        ordered = sorted(tax.classes)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                semantic = witness_oracle.brute_pair_status(
                    tax, a, b, placements, demands)
                answer = oracle_verdict(tax, antonymy_cq(a, b)).value
                if semantic == "disjoint":
                    assert answer == PASSING
                elif semantic == "nondisjoint":
                    assert answer == NON_PASSING
                else:
                    assert answer == UNKNOWN


def test_oracle_monotone_under_closure(organism_process):
    cqs = [antonymy_cq("Birth", "Death"),
           overlap_cq("Birth", "OrganismProcess"),
           subset_cq("Birth", "OrganismProcess")]
    base_tax = build_taxonomy(organism_process)
    base_resolved = {cq.id for cq in cqs
                     if oracle_verdict(base_tax, cq).value != UNKNOWN}
    for mode in (SUBCLASS_ONLY, SUBCLASS_DISJOINT, SUBCLASS_NONDISJOINT):
        tax = build_taxonomy(apply_closure(organism_process, mode))
        resolved = {cq.id for cq in cqs
                    if oracle_verdict(tax, cq).value != UNKNOWN}
        assert base_resolved <= resolved


def test_run_batch_renders_the_axioms_once(tmp_path, organism_process,
                                           monkeypatch):
    # every problem of a batch, in either worker, shares one rendering of
    # the axioms; each test renders only its own conjecture
    from ontoclose import tptp
    renders = Counter()
    real_to_fof = tptp.to_fof

    def counting_to_fof(formula, table=None):
        renders[id(formula)] += 1
        return real_to_fof(formula, table)

    monkeypatch.setattr(tptp, "to_fof", counting_to_fof)
    config = stub_provers.stub_config(tmp_path, stub_provers.COUNTER_SATISFIABLE,
                                      workers=2)
    cqs = [antonymy_cq("Birth", "Death"), overlap_cq("Breathing", "Mating"),
           subset_cq("Birth", "Unicorn")]
    run_batch(organism_process, cqs, config, tmp_path / "j.jsonl",
              tmp_path / "problems", short_circuit=False)
    tests = 2 * len(cqs)
    assert len(list((tmp_path / "problems").glob("*.p"))) == tests
    assert [renders[id(ax.formula)] for ax in organism_process] == \
        [1] * len(organism_process)
    assert sum(renders.values()) == len(organism_process) + tests


def test_run_batch_workers_write_the_same_problem_files(tmp_path,
                                                       organism_process):
    # questions over classes the ontology lacks name new constants per problem
    cqs = [antonymy_cq(c1, c2) for c1, c2 in (
        ("Birth", "Death"), ("Unicorn", "Griffin"), ("Birth", "BIRTH"),
        ("Griffin", "Mating"), ("Phoenix", "Unicorn"), ("Death", "DEATH"))]
    contents = []
    for workers in (1, 4):
        config = stub_provers.stub_config(
            tmp_path, stub_provers.COUNTER_SATISFIABLE, workers=workers)
        problems = tmp_path / f"problems{workers}"
        run_batch(organism_process, cqs, config,
                  tmp_path / f"j{workers}.jsonl", problems,
                  short_circuit=False)
        contents.append({path.name: path.read_bytes()
                         for path in problems.glob("*.p")})
    assert len(contents[0]) == 2 * len(cqs)
    assert contents[0] == contents[1]
