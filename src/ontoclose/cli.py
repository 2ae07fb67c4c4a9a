"""Command-line pipeline: parse, close, generate, emit, run, report.

Every stage is its own subcommand; ``pipeline`` chains them from a flat
``key=value`` config file. Exit codes: 0 ok, 2 usage, 3 data error,
4 prover error, 5 inconsistency detected.

A command imports only the library modules it runs: at module level this
file imports the standard library and ``modes``, which is all the
argument parser needs, and each command and helper imports the rest.
"""

from __future__ import annotations

import argparse
import gc
import sys
from collections import Counter, namedtuple
from pathlib import Path

from .modes import MODES, OWA, SUBCLASS_DISJOINT, SUBCLASS_NONDISJOINT

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_PROVER = 4
EXIT_INCONSISTENT = 5

_GENERATED = "generated {} questions; skipped {} unmapped pairs"

def _read(path: str) -> str:
    from . import kif

    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise kif.KifError(f"cannot read {path}: {exc}") from None


def _number(convert, text: str, where: str):
    """``text`` as ``convert`` reads it; an error names ``where``."""
    from . import kif

    try:
        return convert(text)
    except ValueError:
        raise kif.KifError(
            f"{where}: expected {convert.__name__}, got {text!r}") from None


def _write(path: "str | Path", text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_or_print(path: "str | None", text: str) -> None:
    """Write ``text`` to ``path``, or to standard output without one."""
    if path:
        _write(path, text)
    else:
        sys.stdout.write(text)


def _load_ontology(path: str) -> kif.Ontology:
    from . import kif

    return kif.parse_kif(_read(path), source_name=path)


def _load_curation(path: "str | None") -> closure.CurationFile:
    from . import closure

    if not path:
        return closure.CurationFile.empty()
    return closure.load_curation(_read(path), source_name=path)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_parse(args) -> int:
    from . import kif, taxonomy

    ontology = _load_ontology(args.ontology)
    _write_or_print(args.out, kif.serialize_kif(ontology))
    if args.dot or args.edges:
        tax = taxonomy.build_taxonomy(ontology)
        if args.dot:
            _write(args.dot, tax.to_dot())
        if args.edges:
            _write(args.edges, tax.to_edge_tsv())
    return EXIT_OK


def cmd_stats(args) -> int:
    from . import closure, kif, reports, taxonomy

    ontology = _load_ontology(args.ontology)
    labeled = [("original", kif.count_metrics(ontology))]
    if args.mode and args.mode != OWA:
        curation = _load_curation(args.curation)
        tax = taxonomy.build_taxonomy(ontology)
        for prune in (True, False):
            closed = closure.apply_closure(ontology, args.mode, curation,
                                           prune=prune, tax=tax)
            label = f"{args.mode} ({'pruned' if prune else 'unpruned'})"
            labeled.append((label, kif.count_metrics(closed)))
    text = reports.render_size_stats_csv(labeled)
    if args.csv:
        _write(args.csv, text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_close(args) -> int:
    from . import closure, kif

    ontology = _load_ontology(args.ontology)
    curation = _load_curation(args.curation)
    closed = closure.apply_closure(ontology, args.mode, curation,
                                   prune=not args.no_prune,
                                   strict=args.strict)
    _write_or_print(args.out, kif.serialize_kif(closed))
    return EXIT_OK


def cmd_suggest_curation(args) -> int:
    from . import closure, taxonomy

    tax = taxonomy.build_taxonomy(_load_ontology(args.ontology))
    advice = closure.suggest_curation(tax, args.mode)
    text = closure.serialize_curation(advice.candidates)
    if advice.undecided:
        listing = "".join(f"; undecided: {a} {b}\n"
                          for a, b in advice.undecided)
        text = listing + text
    _write_or_print(args.out, text)
    return EXIT_OK


def _generate_questions(mapping_path: str, hyponymy: "str | None",
                        antonymy: "str | None", templates=()
                        ) -> tuple[list[questions.CompetencyQuestion], int]:
    """Questions from the relation pair files, in corpus order (hyponymy
    QP1 and QP2, antonymy, then one template at a time), and the number of
    pairs skipped because a synset is unmapped. ``templates`` holds
    ``TEMPLATE_FILE:PAIRS_FILE`` specs."""
    from . import lexicon, questions

    mapping = lexicon.MappingIndex(
        lexicon.load_mapping(_read(mapping_path), mapping_path))
    results: list[questions.GenerationResult] = []
    if hyponymy:
        pairs = lexicon.load_synset_relations(_read(hyponymy),
                                              lexicon.HYPONYMY, hyponymy)
        results.append(questions.gen_hyponymy_qp1(pairs, mapping))
        results.append(questions.gen_hyponymy_qp2(pairs, mapping))
    if antonymy:
        pairs = lexicon.load_synset_relations(_read(antonymy),
                                              lexicon.ANTONYMY, antonymy)
        results.append(questions.gen_antonymy_cqs(pairs, mapping))
    for spec in templates:
        template_path, _, pairs_path = spec.partition(":")
        if not pairs_path:
            raise questions.TemplateError(
                "--template takes TEMPLATE_FILE:PAIRS_FILE")
        template = questions.load_template(_read(template_path),
                                            template_path)
        pairs = lexicon.load_synset_relations(_read(pairs_path),
                                              template.pair_kind, pairs_path)
        results.append(questions.gen_template_cqs(pairs, mapping, template))
    return ([cq for result in results for cq in result.questions],
            sum(result.skipped_count for result in results))


def cmd_gen_cqs(args) -> int:
    from . import questions

    all_questions, skipped = _generate_questions(
        args.mapping, args.hyponymy, args.antonymy, args.template or ())
    if args.split_dir:
        for pattern, group in questions.group_by_pattern(all_questions).items():
            safe = pattern.replace("(", "_").replace(")", "")
            _write(Path(args.split_dir) / f"{safe}.kif",
                   questions.write_cq_corpus(group))
    _write_or_print(args.out, questions.write_cq_corpus(all_questions))
    print(_GENERATED.format(len(all_questions), skipped), file=sys.stderr)
    return EXIT_OK


def cmd_emit(args) -> int:
    from . import prover, questions, tptp

    ontology = _load_ontology(args.ontology)
    cqs = questions.read_cq_corpus(_read(args.cqs), args.cqs)
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    block = tptp.AxiomBlock(ontology)
    for cq in cqs:
        for polarity in (prover.TRUTH, prover.FALSITY):
            prover.write_problem(block, cq, polarity, args.out_dir,
                                 args.mode_label)
    print(f"emitted {2 * len(cqs)} problems to {args.out_dir}",
          file=sys.stderr)
    return EXIT_OK


def _prover_config(command: "str | None", **limits) -> prover.ProverConfig:
    """Prover settings from ``run``'s options or ``pipeline``'s prover.*
    keys, their one source; a limit or worker count given as ``None`` or
    not at all takes the ``ProverConfig`` default."""
    from . import prover

    if not command:
        raise prover.ProverError("no prover command (set --prover-cmd for "
                                 "run, prover.command for pipeline)")
    return prover.ProverConfig(command=command, **{
        key: value for key, value in limits.items() if value is not None})


def _evaluate(ontology, cqs, journal: "str | Path", config,
              workdir: "str | Path | None" = None, tax=None, **options) -> list:
    """Verdicts on ``cqs``, journalled in ``journal``: without a prover
    ``config`` the oracle's, asked of ``tax`` (or ``ontology``'s taxonomy),
    else ``prover.run_batch``'s with ``options``, asked of ``ontology`` with
    problem files in ``workdir`` (or ``problems`` beside the journal)."""
    from . import prover, taxonomy

    Path(journal).parent.mkdir(parents=True, exist_ok=True)
    if config is None:
        return prover.oracle_run_batch(
            tax or taxonomy.build_taxonomy(ontology), cqs, journal)
    return prover.run_batch(ontology, cqs, config, journal,
                            workdir or Path(journal).parent / "problems",
                            **options)


def cmd_run(args) -> int:
    from . import questions

    config = None if args.oracle else _prover_config(
        args.prover_cmd, time_limit=args.time_limit,
        memory_limit_mib=args.memory_limit, workers=args.workers)
    ontology = _load_ontology(args.ontology)
    cqs = questions.read_cq_corpus(_read(args.cqs), args.cqs)
    verdicts = _evaluate(ontology, cqs, args.journal, config, args.problems,
                         short_circuit=not args.no_short_circuit)
    counts = Counter(verdict.value for verdict in verdicts)
    summary = ", ".join(f"{value}: {counts[value]}" for value in sorted(counts))
    print(f"evaluated {len(verdicts)} questions ({summary})", file=sys.stderr)
    return EXIT_OK


def _write_reports(tallied, baseline_proved, expected_cqs, efficiency,
                   out_dir: "str | Path | None") -> dict[str, str]:
    """Competency and efficiency tables of a tally of outcomes as CSV and
    text, by file name, written under ``out_dir`` when one is given;
    ``efficiency`` holds the tally's efficiency rows."""
    from . import reports

    competency = reports.competency_report(
        tallied, baseline_proved=baseline_proved, expected_cqs=expected_cqs)
    tables = {
        "competency.csv": reports.render_competency_csv(competency),
        "competency.txt": reports.render_competency_text(competency),
        "efficiency.csv": reports.render_efficiency_csv(efficiency),
        "efficiency.txt": reports.render_efficiency_text(efficiency),
    }
    if out_dir:
        for name, text in tables.items():
            _write(Path(out_dir) / name, text)
    return tables


def cmd_report(args) -> int:
    from . import prover, questions, reports

    outcomes = prover.load_journal(args.journal)
    baseline_proved = (reports.proved_keys(prover.load_journal(args.baseline))
                       if args.baseline else None)
    expected = (questions.read_cq_corpus(_read(args.cqs), args.cqs)
                if args.cqs else None)
    tallied = reports.tally(outcomes, expected or ())
    tables = _write_reports(tallied, baseline_proved, expected,
                            reports.efficiency_report(tallied), args.out_dir)
    sys.stdout.write(tables["competency.txt"] + "\n"
                     + tables["efficiency.txt"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def load_config(path: str) -> dict[str, str]:
    """The config's ``key=value`` settings, each key set once. A ``#``
    that starts a line or follows whitespace starts a comment, which runs
    to the end of the line."""
    import re

    from . import kif

    config: dict[str, str] = {}
    # lines end at "\n" only, as in every other input; strip() takes the
    # "\r" of a CRLF file
    for lineno, raw in enumerate(_read(path).split("\n"), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise kif.KifError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in config:
            raise kif.KifError(f"{path}:{lineno}: key {key!r} set twice")
        config[key] = value
    return config


_Pass = namedtuple("_Pass", "tax journal proved tallied efficiency")


def cmd_pipeline(args) -> int:
    import shutil

    from . import (closure, kif, lexicon, prover, questions, reports,
                   taxonomy)

    config = load_config(args.config)
    known = {"ontology", "curation", "mapping", "out", "modes", "oracle",
             "prover.command", "prover.time_limit", "prover.memory_limit",
             "prover.workers",
             *(f"pairs.{kind}" for kind in lexicon.PAIR_KINDS)}
    for key in config:
        if key not in known:
            raise kif.KifError(f"{args.config}: unknown key {key!r}")
    for required in ("ontology", "mapping", "out"):
        if not config.get(required):
            raise kif.KifError(f"{args.config}: needs a path in '{required}='")
    out = Path(config["out"])
    modes = [m.strip() for m in config.get("modes", ",".join(MODES)).split(",")
             if m.strip()]
    if not modes:
        raise kif.KifError(f"{args.config}: 'modes=' names no mode")
    for i, mode in enumerate(modes):
        if mode not in MODES:
            raise kif.KifError(f"{args.config}: unknown mode {mode!r}")
        if mode in modes[:i]:
            raise kif.KifError(f"{args.config}: mode {mode!r} named twice")
    for kind in lexicon.PAIR_KINDS:
        if kind not in (lexicon.HYPONYMY, lexicon.ANTONYMY) \
                and config.get(f"pairs.{kind}"):
            raise kif.KifError(
                f"{kind} pairs need a template; generate their questions "
                "with gen-cqs --template")
    oracle = config.get("oracle", "true")
    if oracle.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise kif.KifError(f"{args.config}: oracle: expected 1/true/yes or "
                           f"0/false/no, found {oracle!r}")
    prover_config = None
    if oracle.lower() not in ("1", "true", "yes"):
        limits = {field: _number(convert, config[key], f"{args.config}: {key}")
                  for convert, key, field in (
                      (float, "prover.time_limit", "time_limit"),
                      (int, "prover.memory_limit", "memory_limit_mib"),
                      (int, "prover.workers", "workers"))
                  if key in config}
        prover_config = _prover_config(config.get("prover.command"), **limits)
    ontology = _load_ontology(config["ontology"])
    curation = _load_curation(config.get("curation"))
    cqs, skipped = _generate_questions(config["mapping"],
                                       config.get(f"pairs.{lexicon.HYPONYMY}"),
                                       config.get(f"pairs.{lexicon.ANTONYMY}"))
    _write(out / "cqs.kif", questions.write_cq_corpus(cqs))
    print(_GENERATED.format(len(cqs), skipped), file=sys.stderr)

    # one taxonomy serves every mode's closure and, with the pair facts
    # each closure appends, its oracle
    tax = taxonomy.build_taxonomy(ontology)
    input_text = kif.serialize_kif(ontology)
    input_stats = kif.count_metrics(ontology)
    labeled_stats = []
    baseline = last = None  # last: the last pass (tax None on a prover)
    for mode in modes:
        mode_dir = out / mode.replace("+", "_")
        closed = closure.apply_closure(ontology, mode, curation, tax=tax)
        additions = closed.axioms[len(ontology):]
        _write(mode_dir / "closed.kif", input_text + kif.serialize_kif(additions))
        labeled_stats.append((mode, input_stats + kif.count_metrics(additions)))
        journal = mode_dir / "journal.jsonl"
        oracle_tax = None if prover_config else tax.with_axioms(additions)
        if oracle_tax is not None and oracle_tax is getattr(last, "tax", None):
            # additions without pair facts leave the taxonomy, so every
            # verdict and the efficiency rows, as the last pass found them
            shutil.copyfile(last.journal, journal)
        else:
            last = None  # hold one pass's results at a time
            verdicts = _evaluate(closed, cqs, journal, prover_config,
                                 tax=oracle_tax, mode_label=mode)
            # a resumed journal can hold records of questions no longer
            # in the corpus: a prover pass reports this run's verdicts only
            outcomes = None if oracle_tax else {
                (cq_id, polarity): outcome for cq_id, polarity, outcome
                in prover.verdict_tests(verdicts)}
            del verdicts
            if outcomes is None:
                # bench/run.py times reading the oracle's journal back
                outcomes = prover.load_journal(journal)
            tallied = reports.tally(outcomes, cqs)
            last = _Pass(oracle_tax, journal, reports.proved_keys(outcomes),
                         tallied, reports.efficiency_report(tallied))
            del outcomes, tallied
        _write_reports(last.tallied, baseline, cqs, last.efficiency, mode_dir)
        if baseline is None:
            baseline = last.proved
        # free this mode's ontology before the next closure
        del closed, additions
    _write(out / "stats.csv", reports.render_size_stats_csv(labeled_stats))
    print(f"pipeline complete; outputs in {out}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontoclose",
        description="Closed-world augmentation and competency evaluation "
                    "for first-order ontologies.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate and canonicalize an ontology")
    p.add_argument("ontology")
    p.add_argument("--out")
    p.add_argument("--dot", help="write the taxonomy as a DOT graph")
    p.add_argument("--edges", help="write the subclass edges as TSV")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("stats", help="size metrics, optionally after closure")
    p.add_argument("ontology")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--curation")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("close", help="write a closed-world ontology variant")
    p.add_argument("ontology")
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--curation")
    p.add_argument("--no-prune", action="store_true")
    p.add_argument("--strict", action="store_true",
                   help="fail instead of warning on curation gaps")
    p.add_argument("--out")
    p.set_defaults(func=cmd_close)

    p = sub.add_parser("suggest-curation",
                       help="propose curation facts / review lists")
    p.add_argument("ontology")
    p.add_argument("--mode", default=SUBCLASS_DISJOINT,
                   choices=[SUBCLASS_DISJOINT, SUBCLASS_NONDISJOINT])
    p.add_argument("--out")
    p.set_defaults(func=cmd_suggest_curation)

    p = sub.add_parser("gen-cqs", help="generate competency questions")
    p.add_argument("--mapping", required=True)
    p.add_argument("--hyponymy")
    p.add_argument("--antonymy")
    p.add_argument("--template", action="append",
                   metavar="TEMPLATE_FILE:PAIRS_FILE")
    p.add_argument("--out")
    p.add_argument("--split-dir", help="also write one corpus per pattern")
    p.set_defaults(func=cmd_gen_cqs)

    p = sub.add_parser("emit", help="write prover problem files")
    p.add_argument("ontology")
    p.add_argument("--cqs", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--mode-label", default="")
    p.set_defaults(func=cmd_emit)

    p = sub.add_parser("run", help="evaluate questions (prover or oracle)")
    p.add_argument("ontology")
    p.add_argument("--cqs", required=True)
    p.add_argument("--journal", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="use the structural oracle instead of a prover")
    p.add_argument("--problems", help="directory for emitted problem files")
    p.add_argument("--prover-cmd",
                   help="command template with a {problem} placeholder")
    # a limit left out takes the ProverConfig default
    p.add_argument("--time-limit", type=float)
    p.add_argument("--memory-limit", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--no-short-circuit", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="competency and efficiency tables")
    p.add_argument("--journal", required=True)
    p.add_argument("--baseline")
    p.add_argument("--cqs", help="corpus for completeness checking")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("pipeline", help="run every stage from a config file")
    p.add_argument("config")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A run holds hundreds of thousands of small objects, which the cyclic
    # collector would rescan again and again. The code builds no reference
    # cycles (tests/test_cli.py's cycle guard checks), so reference
    # counting frees all it allocates.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except Exception as exc:
        # imported on failure only, as the command may not have run them
        from .kif import KifError
        from .prover import InconsistencyError, ProverError

        if isinstance(exc, InconsistencyError):
            print(f"ontoclose: inconsistency: {exc}", file=sys.stderr)
            return EXIT_INCONSISTENT
        if isinstance(exc, ProverError):
            print(f"ontoclose: prover error: {exc}", file=sys.stderr)
            return EXIT_PROVER
        # a file-system fault names its path: a data error too
        if isinstance(exc, (KifError, ValueError, OSError)):
            print(f"ontoclose: {args.command}: {exc}", file=sys.stderr)
            return EXIT_DATA
        raise
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
