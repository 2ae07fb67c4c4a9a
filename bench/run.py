"""Benchmark of the ``ontoclose pipeline`` batch run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark makes the workload's inputs from the seed (bench/gen.py),
then runs ``python -m ontoclose.cli pipeline CONFIG`` as a child process
again and again for S seconds, each sample in a fresh directory. The
program sees only the generated files. Every sample's output passes the
gate in bench/gate.py, or all of that sample's tests count as failed.

With ``--trace 0`` it reports the end-to-end metrics as means over the
samples; ``setup_s`` is the mean over fresh interpreters that import the
CLI, build its parser and exit, one after each sample. (The CPU speed of
a shared machine can switch between two levels every few seconds; a
sample median then jumps with the level, the mean moves with the share
of time spent at each.) With ``--trace 1`` it alternates an untraced
sample with a traced one (bench/tracer.py: the same pipeline in one
process, with timing wrappers around each layer) and reports the
per-layer metrics, medians over the traced samples, plus the tracing
overhead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
Progress and diagnostics go to standard error. Exit code 2 means the
benchmark could not run (for example, no ``src/ontoclose`` to run).
Scratch files live under ``.bench_work/`` in the checkout; the spans of
the last traced sample stay there as ``trace-WORKLOAD-SEED.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402

ALL_MODES = ("owa", "subclass-only", "subclass+disjointness",
             "subclass+nondisjointness")

# Spans every workload must produce; a workload adds its own below.
COMMON_SPANS = ("kif.parse", "kif.serialize", "kif.metrics", "taxonomy.build",
                "closure.apply", "closure.completion", "lexicon.load",
                "questions.generate", "questions.write_corpus",
                "prover.journal_append", "prover.journal_load",
                "reports.render", "cli.pipeline")


@dataclass(frozen=True)
class Workload:
    modes: tuple
    oracle: bool
    spans: tuple


WORKLOADS = {
    # Closure does most of the work: non-disjointness recursion and
    # pruning, curation gaps, four taxonomy builds. The oracle does little.
    "closure-sweep": Workload(
        modes=ALL_MODES, oracle=True,
        spans=("taxonomy.with_facts", "closure.disjointness",
               "closure.nondisjointness", "prover.oracle")),
    # The paper's question scale (10^4 questions, 5k classes): parsing,
    # question generation, oracle queries, journal appends and reports.
    "corpus-oracle": Workload(
        modes=("owa", "subclass-only"), oracle=True,
        spans=("prover.oracle",)),
    # Problem emission, prover spawns, output parsing and the threaded
    # journal, with the benchmark's own scripted prover.
    "stub-prover": Workload(
        modes=("subclass-only", "subclass+disjointness"), oracle=False,
        spans=("taxonomy.with_facts", "closure.disjointness", "tptp.emit",
               "prover.batch", "prover.run")),
}

STUB_TIME_LIMIT = 5
SETUP_SAMPLES = 9
MIN_SAMPLES = 3
SAMPLE_TIMEOUT = 150.0

END_TO_END = {"pipeline_s": "s", "tests_per_s": "1/s", "setup_s": "s",
              "peak_rss_mib": "MiB", "out_mib": "MiB"}

# Self time of a span name, summed over calls.
SPAN_METRICS = {
    "kif.parse_s": "kif.parse", "kif.serialize_s": "kif.serialize",
    "kif.metrics_s": "kif.metrics", "taxonomy.build_s": "taxonomy.build",
    "taxonomy.with_facts_s": "taxonomy.with_facts",
    "closure.apply_s": "closure.apply",
    "closure.completion_s": "closure.completion",
    "closure.disjointness_s": "closure.disjointness",
    "closure.nondisjointness_s": "closure.nondisjointness",
    "lexicon.load_s": "lexicon.load",
    "questions.generate_s": "questions.generate",
    "questions.write_corpus_s": "questions.write_corpus",
    "tptp.emit_s": "tptp.emit", "prover.batch_s": "prover.batch",
    "prover.run_s": "prover.run", "prover.oracle_s": "prover.oracle",
    "prover.journal_append_s": "prover.journal_append",
    "prover.journal_load_s": "prover.journal_load",
    "reports.render_s": "reports.render", "cli.self_s": "cli.pipeline",
}
COUNT_METRICS = (
    "kif.axioms_parsed", "taxonomy.builds", "taxonomy.classes",
    "closure.disjoint_units", "closure.nondisjoint_units",
    "closure.curation_gaps", "closure.disjointness_unpruned_s",
    "closure.nondisjointness_unpruned_s", "closure.unpruned_units",
    "lexicon.pairs", "questions.cqs", "tptp.problems", "prover.calls",
    "prover.status.proved", "prover.status.gave-up",
    "prover.status.counter-satisfiable", "prover.status.timeout",
    "prover.status.error", "prover.oracle_verdicts", "prover.journal_records",
)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_kib"):
        return "KiB"
    return "count"


# Which end-to-end figure each layer should move, and where:
#   kif.*, lexicon.*, questions.*, prover.oracle_*, prover.journal_*,
#     reports.render_s                  -> pipeline_s on corpus-oracle
#   taxonomy.*                          -> pipeline_s on closure-sweep (one
#                                          build per mode), peak_rss_mib on
#                                          corpus-oracle
#   closure.*                           -> pipeline_s on closure-sweep; no
#                                          change on corpus-oracle
#   tptp.*                              -> pipeline_s, tests_per_s, out_mib
#                                          on stub-prover; no change on the
#                                          oracle workloads
#   prover.batch_s, run_s, calls, status.*, pool_busy_ratio
#                                       -> pipeline_s on stub-prover
PER_LAYER = tuple(SPAN_METRICS) + COUNT_METRICS + (
    "closure.prune_kept_ratio", "tptp.problem_kib", "prover.pool_busy_ratio",
    "cli.pipeline_s", "trace.overhead_s")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


@dataclass
class Sample:
    wall: float
    rss_mib: float
    out_mib: float
    tests: int
    failed: int
    ok: bool
    layers: dict = field(default_factory=dict)
    post_s: float = 0.0


class Bench:
    """One benchmark run: a workload, its generated inputs and a scratch
    directory inside the checkout."""

    def __init__(self, root: Path, workload: str, seed: int, scale: str):
        self.root = root
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.inputs = gen.generate(workload, seed, scale)
        self.work = Path(tempfile.mkdtemp(
            prefix=f"{workload}-{seed}-", dir=self._scratch_root()))
        self.input_dir = self.work / "inputs"
        self.input_dir.mkdir()
        for kind in ("ontology", "curation", "mapping", "hyponymy",
                     "antonymy"):
            (self.input_dir / f"{kind}.txt").write_text(
                getattr(self.inputs, kind), encoding="utf-8")
        recorded = json.loads((BENCH / "digests.json").read_text())
        self.expected_digest = (recorded.get(workload, {}).get(str(seed))
                                if scale == "full" else None)
        self.first_digest: "str | None" = None
        self.expected_tests = self._expected_tests()

    def _scratch_root(self) -> Path:
        path = self.root / ".bench_work"
        path.mkdir(exist_ok=True)
        return path

    def _expected_tests(self) -> int:
        per_mode = 2 * len(self.inputs.questions)
        if not self.workload.oracle:
            per_mode -= sum(gen.class_index(c1) % gen.STUB_MODULUS == 0
                            for c1, _ in self.inputs.questions)
        return per_mode * len(self.workload.modes)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    # -- child processes ---------------------------------------------------

    def _env(self, sample_dir: Path) -> dict:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("ONTOCLOSE_") and k != "PYTHONPATH"}
        for key, sub in (("HOME", "home"), ("TMPDIR", "tmp"),
                         ("XDG_CACHE_HOME", "cache")):
            path = sample_dir / sub
            path.mkdir(exist_ok=True)
            env[key] = str(path)
        env["PYTHONPATH"] = str(self.root / "src")
        return env

    def _spawn(self, argv, sample_dir: Path):
        """Run a child to completion; (exit code, wall s, peak RSS MiB)."""
        with open(sample_dir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=sample_dir,
                                    env=self._env(sample_dir),
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    start_new_session=True)

            def kill():
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

            watchdog = threading.Timer(SAMPLE_TIMEOUT, kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024

    def setup_probe(self) -> float:
        """Wall time of a fresh interpreter that imports the CLI, builds its
        argument parser and exits."""
        setup_dir = self.work / "setup"
        setup_dir.mkdir(exist_ok=True)
        probe = ("import ontoclose.cli as cli, sys; cli.build_parser(); "
                 "sys.exit(0 if cli.__file__.startswith(sys.argv[1]) else 9)")
        argv = [sys.executable, "-c", probe, str(self.root / "src")]
        code, wall, _ = self._spawn(argv, setup_dir)
        if code != 0:
            raise SystemExit(
                f"cannot import ontoclose.cli from {self.root / 'src'}: "
                + (setup_dir / "stderr.txt").read_text()[-2000:])
        return wall

    def sample(self, traced: bool) -> Sample:
        sample_dir = Path(tempfile.mkdtemp(prefix="sample-", dir=self.work))
        try:
            return self._sample(sample_dir, traced)
        finally:
            shutil.rmtree(sample_dir, ignore_errors=True)

    def _config(self, sample_dir: Path, out: Path) -> Path:
        d = self.input_dir
        lines = [f"ontology={d / 'ontology.txt'}",
                 f"curation={d / 'curation.txt'}",
                 f"mapping={d / 'mapping.txt'}",
                 f"pairs.hyponymy={d / 'hyponymy.txt'}",
                 f"pairs.antonymy={d / 'antonymy.txt'}",
                 f"out={out}",
                 f"modes={','.join(self.workload.modes)}",
                 f"oracle={'true' if self.workload.oracle else 'false'}"]
        if not self.workload.oracle:
            workers = min(2, len(os.sched_getaffinity(0)))
            lines += [f"prover.command=sh {BENCH / 'stub_prover.sh'} {{problem}}",
                      f"prover.workers={workers}",
                      f"prover.time_limit={STUB_TIME_LIMIT}"]
        path = sample_dir / "pipeline.conf"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def _sample(self, sample_dir: Path, traced: bool) -> Sample:
        out = sample_dir / "out"
        config = self._config(sample_dir, out)
        if traced:
            spans_path = sample_dir / "spans.json"
            argv = [sys.executable, str(BENCH / "tracer.py"), str(config),
                    str(spans_path)]
        else:
            argv = [sys.executable, "-m", "ontoclose.cli", "pipeline",
                    str(config)]
        code, wall, rss = self._spawn(argv, sample_dir)
        out_bytes = sum(p.stat().st_size for p in out.rglob("*")
                        if p.is_file()) if out.exists() else 0
        ok, tests, failed = self._check(out, code, sample_dir)
        sample = Sample(wall=wall, rss_mib=rss, out_mib=out_bytes / 2 ** 20,
                        tests=tests, failed=failed, ok=ok)
        if traced and spans_path.exists():
            trace = json.loads(spans_path.read_text())
            sample.post_s = trace["post_s"]
            sample.layers = layer_metrics(trace, out, self.workload)
            shutil.copy(spans_path, self.root / ".bench_work" /
                        f"trace-{self.name}-{self.seed}.json")
        return sample

    def _check(self, out: Path, code: int, sample_dir: Path):
        """Gate one sample: (ok, tests attempted, tests failed)."""
        if code != 0:
            log(f"pipeline exited with {code}: "
                + (sample_dir / "stderr.txt").read_text()[-2000:])
            return False, self.expected_tests, self.expected_tests
        try:
            journals = {m: gate.read_journal(gate.mode_dir(out, m)
                                             / "journal.jsonl")
                        for m in self.workload.modes}
        except (ValueError, KeyError) as exc:
            log(f"gate: unreadable journal: {exc}")
            return False, self.expected_tests, self.expected_tests
        tests = sum(len(records) for records in journals.values())
        failed = sum(r["status"] in gate.FAILED_STATUSES
                     for records in journals.values() for r in records)
        errors = gate.independent_errors(self.inputs, journals,
                                         scripted=not self.workload.oracle)
        digest = gate.combined(gate.digests(out, self.workload.modes, journals))
        want = self.expected_digest or self.first_digest
        if want is None:
            self.first_digest = digest
        elif digest != want:
            errors.append(f"output digest {digest} differs from {want}")
        if tests != self.expected_tests:
            errors.append(f"{tests} tests run, expected {self.expected_tests}")
        for error in errors[:20]:
            log(f"gate: {error}")
        if errors:
            return False, max(tests, 1), max(tests, 1)
        return True, tests, failed


def layer_metrics(trace: dict, out: Path, workload: Workload) -> dict:
    """Per-layer metrics of one traced sample. Spans the workload should
    produce but never recorded are left out, and named on standard error."""
    spans, counts = trace["spans"], trace["counts"]
    selfs = tracer.self_times(spans)
    seen = set(selfs)
    missing = [s for s in COMMON_SPANS + workload.spans if s not in seen]
    if missing:
        log("missing spans: " + ", ".join(missing))
    metrics = {}
    for metric, span in SPAN_METRICS.items():
        if span in missing:
            continue
        metrics[metric] = selfs.get(span, 0.0)
    for key in COUNT_METRICS:
        metrics[key] = counts.get(key, 0)
    unpruned = counts.get("closure.unpruned_units", 0)
    kept = counts.get("closure.disjoint_units", 0) + \
        counts.get("closure.nondisjoint_units", 0)
    metrics["closure.prune_kept_ratio"] = kept / unpruned if unpruned else 0.0
    problems = [p.stat().st_size for p in out.glob("*/problems/*.p")]
    metrics["tptp.problem_kib"] = (sum(problems) / len(problems) / 1024
                                   if problems else 0.0)
    capacity = counts.get("prover.batch_capacity_s", 0)
    run_total = sum(end - start for _, name, start, end, _, _ in spans
                    if name == "prover.run")
    metrics["prover.pool_busy_ratio"] = run_total / capacity if capacity else 0.0
    if "cli.pipeline" not in missing:
        metrics["cli.pipeline_s"] = sum(end - start for _, name, start, end, _, _
                                        in spans if name == "cli.pipeline")
    return metrics


def run(args) -> dict:
    root = Path.cwd()
    if not (root / "src" / "ontoclose" / "cli.py").is_file():
        raise SystemExit(f"no src/ontoclose/cli.py under {root}; run from "
                         "the root of an ontoclose checkout")
    bench = Bench(root, args.workload, args.seed, args.scale)
    try:
        bench.setup_probe()  # compiles byte code; not timed
        log(f"{args.workload} seed {args.seed}: {bench.inputs.counts}")
        plain: list[Sample] = []
        traced: list[Sample] = []
        setup: list[float] = []
        deadline = time.perf_counter() + args.seconds
        while True:
            started = time.perf_counter()
            plain.append(bench.sample(traced=False))
            if args.trace:
                traced.append(bench.sample(traced=True))
            else:
                # Set-up probes spread over the run, not bunched at its start.
                setup.append(bench.setup_probe())
            last = time.perf_counter() - started
            log(f"sample {len(plain)}: {plain[-1].wall:.3f} s"
                + (f", traced {traced[-1].wall:.3f} s" if args.trace else ""))
            enough = len(plain) >= (1 if args.trace else MIN_SAMPLES)
            if enough and time.perf_counter() + last / 2 > deadline:
                break
        while not args.trace and len(setup) < SETUP_SAMPLES:
            setup.append(bench.setup_probe())
    finally:
        bench.close()

    samples = plain + traced
    result = {"correct": all(s.ok for s in samples),
              "attempted": sum(s.tests for s in samples),
              "failed": sum(s.failed for s in samples)}
    med, mean = statistics.median, statistics.fmean
    if args.trace:
        metrics = {}
        for name in PER_LAYER:
            values = [s.layers[name] for s in traced if name in s.layers]
            if values:
                metrics[name] = med(values)
        metrics["trace.overhead_s"] = (med(s.wall - s.post_s for s in traced)
                                       - med(s.wall for s in plain))
        result["metrics"] = {k: {"value": v, "unit": unit_of(k)}
                             for k, v in metrics.items()}
    else:
        values = {
            "pipeline_s": mean(s.wall for s in plain),
            "tests_per_s": sum(s.tests for s in plain) / sum(s.wall for s in plain),
            "setup_s": mean(setup),
            "peak_rss_mib": mean(s.rss_mib for s in plain),
            "out_mib": mean(s.out_mib for s in plain),
        }
        result["metrics"] = {k: {"value": v, "unit": END_TO_END[k]}
                             for k, v in values.items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="input size; toy is for the smoke test")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            log(f"bench: {exc.code}")
            return 2
        raise
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
