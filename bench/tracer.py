"""Per-layer timing of one ``ontoclose pipeline`` run, from outside.

The program itself carries no instrumentation. This module wraps the
layer functions the pipeline reaches (see ``install``; every binding of
each, so ``from x import f`` names are wrapped too) in timing wrappers,
records one span per call (id, name, start, end, parent span, thread) and
a few counts in memory, and writes them out when the run ends.

Run it as a script to make one traced run:

    python tracer.py CONFIG SPANS_JSON

It installs the wrappers, calls ``ontoclose.cli.main(["pipeline", CONFIG])``
in this process, then times ``assume_disjointness`` and
``assume_nondisjointness`` again with ``prune=False`` on the inputs the
pipeline gave them (untraced), and writes SPANS_JSON. The exit code is
the pipeline's.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
import warnings


class Recorder:
    """Spans and counts of one traced run, held in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self.replays: list[tuple] = []
        self.batch_parent: "int | None" = None
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def maximum(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = max(self.counts.get(key, 0), value)

    def wrap(self, name, fn, after=None, batch=False):
        """A wrapper that records a span called ``name`` per call and then
        calls ``after(result, args, kwargs, seconds)``; with ``name`` None
        it records no span and only calls ``after``. Spans opened in a
        thread with no open span of its own (the worker threads of a batch)
        take the open ``batch`` span as their parent."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            if name is None:
                result = fn(*args, **kwargs)
                after(result, args, kwargs, 0.0)
                return result
            stack = rec._stack()
            parent = stack[-1] if stack else rec.batch_parent
            sid = next(rec._ids)
            stack.append(sid)
            if batch:
                outer, rec.batch_parent = rec.batch_parent, sid
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if batch:
                    rec.batch_parent = outer
                rec.spans.append((sid, name, start, end, parent,
                                  threading.get_ident()))
            if after is not None:
                after(result, args, kwargs, end - start)
            return result

        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


def _rebind(original, wrapper) -> int:
    """Point every ontoclose binding of ``original`` at ``wrapper``, so a
    name imported with ``from x import f`` is wrapped too."""
    found = 0
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("ontoclose"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
                found += 1
    return found


def install(rec: Recorder) -> None:
    """Wrap every layer function the pipeline reaches."""
    from ontoclose import (closure, kif, lexicon, prover, questions, reports,
                           taxonomy, tptp)

    def function(module, attr, name, after=None, batch=False):
        original = getattr(module, attr)
        if not _rebind(original, rec.wrap(name, original, after, batch)):
            raise RuntimeError(f"no binding of {module.__name__}.{attr}")

    def method(cls, attr, name):
        setattr(cls, attr, rec.wrap(name, cls.__dict__[attr]))

    def count(key, size=len):
        return lambda result, args, kwargs, seconds: rec.add(key, size(result))

    def replay(key):
        def after(result, args, kwargs, seconds):
            rec.add(key, len(result))
            rec.replays.append((key, args, kwargs))
        return after

    def built(result, args, kwargs, seconds):
        rec.add("taxonomy.builds")
        rec.maximum("taxonomy.classes", len(result.classes))

    def prover_call(result, args, kwargs, seconds):
        rec.add("prover.calls")
        rec.add(f"prover.status.{result.status}")

    batch_signature = inspect.signature(prover.run_batch)

    def batch_done(result, args, kwargs, seconds):
        config = batch_signature.bind(*args, **kwargs).arguments["config"]
        rec.add("prover.batch_capacity_s", seconds * config.workers)

    function(kif, "parse_kif", "kif.parse", count("kif.axioms_parsed"))
    function(kif, "parse_formula_text", "kif.parse")
    function(kif, "serialize_kif", "kif.serialize")
    function(kif, "count_metrics", "kif.metrics")
    function(taxonomy, "build_taxonomy", "taxonomy.build", built)
    method(taxonomy.Taxonomy, "with_facts", "taxonomy.with_facts")
    function(closure, "apply_closure", "closure.apply")
    function(closure, "complete_subclass", "closure.completion")
    function(closure, "assume_disjointness", "closure.disjointness",
             replay("closure.disjoint_units"))
    function(closure, "assume_nondisjointness", "closure.nondisjointness",
             replay("closure.nondisjoint_units"))
    function(closure, "_curation_gaps", None, count("closure.curation_gaps"))
    function(lexicon, "load_mapping", "lexicon.load")
    function(lexicon, "load_synset_relations", "lexicon.load",
             count("lexicon.pairs"))
    method(lexicon.MappingIndex, "__init__", "lexicon.load")
    for attr in ("gen_hyponymy_qp1", "gen_hyponymy_qp2", "gen_antonymy_cqs"):
        function(questions, attr, "questions.generate",
                 count("questions.cqs", lambda r: len(r.questions)))
    function(questions, "write_cq_corpus", "questions.write_corpus")
    function(tptp, "emit_problem", "tptp.emit",
             count("tptp.problems", lambda r: 1))
    function(prover, "run_batch", "prover.batch", batch_done, batch=True)
    function(prover, "run_prover", "prover.run", prover_call)
    function(prover, "oracle_run_batch", "prover.oracle",
             count("prover.oracle_verdicts"))
    function(prover, "append_journal", "prover.journal_append",
             count("prover.journal_records", lambda r: 1))
    function(prover, "load_journal", "prover.journal_load")
    for attr in ("competency_report", "efficiency_report",
                 "render_competency_csv", "render_competency_text",
                 "render_efficiency_csv", "render_efficiency_text",
                 "render_size_stats_csv"):
        function(reports, attr, "reports.render")
    from ontoclose import cli
    function(cli, "cmd_pipeline", "cli.pipeline")


def replay_unpruned(rec: Recorder) -> None:
    """Time each recorded assumption call again with ``prune=False``."""
    from ontoclose import closure

    rec.enabled = False
    functions = {"closure.disjoint_units": ("closure.disjointness",
                                            closure.assume_disjointness),
                 "closure.nondisjoint_units": ("closure.nondisjointness",
                                               closure.assume_nondisjointness)}
    for key, args, kwargs in rec.replays:
        name, fn = functions[key]
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.arguments["prune"] = False
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            start = time.perf_counter()
            result = fn(*bound.args, **bound.kwargs)
            rec.add(f"{name}_unpruned_s", time.perf_counter() - start)
        rec.add("closure.unpruned_units", len(result))


def self_times(spans) -> dict[str, float]:
    """Self time per span name, summed over calls: each span's duration
    minus the part of it that its child spans cover (children running in
    parallel threads are counted once)."""
    children: dict = {}
    for sid, name, start, end, parent, thread in spans:
        children.setdefault(parent, []).append((start, end))
    totals: dict[str, float] = {}
    for sid, name, start, end, parent, thread in spans:
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children.get(sid, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, min(child_end, end))
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals


def main(argv) -> int:
    config, spans_path = argv
    from ontoclose import cli

    rec = Recorder()
    install(rec)
    code = cli.main(["pipeline", config])
    post_start = time.perf_counter()
    replay_unpruned(rec)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"exit": code, "spans": rec.spans, "counts": rec.counts,
                   "post_s": time.perf_counter() - post_start}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
