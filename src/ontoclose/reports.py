"""Competency and efficiency tables over test outcomes.

Reports are pure functions of the outcomes of a run's tests, keyed by
(question, polarity) as ``prover.load_journal`` returns them: the same
outcomes always render byte-identical CSV and text. Efficiency follows the
inverse-time convention: a cell's ``mE`` is 1000 times the mean of
``1/wall_time`` over its proved tests, so faster proofs score higher.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal
from operator import attrgetter, itemgetter

from .prover import FALSITY, PROVED, TRUTH, ProverOutcome

_MIN_SECONDS = 1e-9  # instant answers (the oracle) would otherwise divide by zero


def round2(value: float) -> str:
    return str(Decimal(repr(value)).quantize(Decimal("0.01"),
                                             rounding=ROUND_HALF_EVEN))


@dataclass(frozen=True)
class CompetencyRow:
    pattern: str
    count: int
    truth_proved: int
    falsity_proved: int
    truth_exclusive: "int | None" = None
    falsity_exclusive: "int | None" = None

    @property
    def resolved_pct(self) -> float:
        if not self.count:
            return 0.0
        return 100.0 * (self.truth_proved + self.falsity_proved) / self.count


@dataclass(frozen=True)
class EfficiencyRow:
    pattern: str
    polarity: str  # "+" or "-"
    t: float       # mean seconds over proved tests
    mE: float      # 1000 x mean inverse seconds over proved tests
    N: int         # distinct axioms used across proofs
    A: float       # mean axioms per proof


def proved_keys(outcomes: dict[tuple[str, str], ProverOutcome]
                ) -> set[tuple[str, str]]:
    """The (question, polarity) keys of the proved tests among outcomes:
    all that a baseline run contributes to a competency report."""
    return {key for key, outcome in outcomes.items()
            if outcome.status == PROVED}


@dataclass(frozen=True)
class Tally:
    """What both reports read of a run's outcomes, found in one pass: each
    question id's pattern and the proved tests by polarity, each as its
    question id and outcome, in the outcomes' order. Build it once with
    ``tally`` and give it to both reports."""
    pattern: dict[str, str]
    proved: dict[str, list[tuple[str, ProverOutcome]]]


def tally(outcomes: dict[tuple[str, str], ProverOutcome]) -> Tally:
    proved = {TRUTH: [], FALSITY: []}
    for (cq_id, polarity), outcome in outcomes.items():
        if outcome.status == PROVED and polarity in proved:
            proved[polarity].append((cq_id, outcome))
    return Tally(_pattern_by_id({cq_id for cq_id, _ in outcomes}), proved)


def _pattern_by_id(cq_ids) -> dict[str, str]:
    """Each question id's pattern: the id up to its first colon, or the
    whole id if it has none."""
    return {cq_id: cq_id.partition(":")[0] for cq_id in cq_ids}


def competency_report(tallied: Tally, *,
                      baseline_proved: "set[tuple[str, str]] | None" = None,
                      expected_cqs=None) -> list[CompetencyRow]:
    """Per-pattern counts of proved truth and falsity tests, with a Total
    row; exclusive counts are tests proved here whose (question, polarity)
    key is not in ``baseline_proved`` (see ``proved_keys``)."""
    pattern = tallied.pattern
    if expected_cqs is not None:
        missing = {cq.id for cq in expected_cqs} - pattern.keys()
        if missing:
            warnings.warn("journal incomplete; missing questions: "
                          + ", ".join(sorted(missing)), stacklevel=2)
            pattern = {**pattern, **_pattern_by_id(missing)}
    counts = Counter(pattern.values())
    # per polarity, proved tests and those of them the baseline lacks,
    # by pattern
    proved, exclusive = {}, {}
    for polarity, tests in tallied.proved.items():
        proved[polarity] = Counter(pattern[cq_id] for cq_id, _ in tests)
        if baseline_proved is not None:
            exclusive[polarity] = Counter(
                pattern[cq_id] for cq_id, _ in tests
                if (cq_id, polarity) not in baseline_proved)

    def row(name: str, count: int, count_of) -> CompetencyRow:
        return CompetencyRow(
            pattern=name, count=count, truth_proved=count_of(proved[TRUTH]),
            falsity_proved=count_of(proved[FALSITY]),
            truth_exclusive=(None if baseline_proved is None
                             else count_of(exclusive[TRUTH])),
            falsity_exclusive=(None if baseline_proved is None
                               else count_of(exclusive[FALSITY])))

    rows = [row(name, counts[name], itemgetter(name))
            for name in sorted(counts)]
    rows.append(row("Total", len(pattern), Counter.total))
    return rows


def _efficiency_cell(pattern: str, polarity_label: str,
                     proved: list[ProverOutcome]) -> EfficiencyRow:
    if not proved:
        return EfficiencyRow(pattern, polarity_label, 0.0, 0.0, 0, 0.0)
    # max(wall time, _MIN_SECONDS), for the numbers a journal holds
    times = [s if s >= _MIN_SECONDS else _MIN_SECONDS
             for s in map(attrgetter("wall_time"), proved)]
    t = sum(times) / len(times)
    me = 1000.0 * sum([1.0 / s for s in times]) / len(times)
    proofs = [outcome.used for outcome in proved if outcome.used]
    distinct = set().union(*proofs)
    a = sum(map(len, proofs)) / len(proofs) if proofs else 0.0
    return EfficiencyRow(pattern, polarity_label, t, me, len(distinct), a)


def efficiency_report(tallied: Tally) -> list[EfficiencyRow]:
    """Per pattern and polarity: mean time, scaled mean inverse time, and
    used-axiom counts over the proved tests, plus Total rows."""
    pattern = tallied.pattern
    patterns = sorted(set(pattern.values()))
    rows = {}
    for polarity, label in ((TRUTH, "+"), (FALSITY, "-")):
        # every cell, the Total one too, sums its times in question order,
        # the order that sorting it by (question, polarity) gives
        tests = sorted(tallied.proved[polarity], key=itemgetter(0))
        cells = {name: [] for name in patterns}
        for cq_id, outcome in tests:
            cells[pattern[cq_id]].append(outcome)
        for name, cell in cells.items():
            rows[name, label] = _efficiency_cell(name, label, cell)
        rows["Total", label] = _efficiency_cell(
            "Total", label, list(map(itemgetter(1), tests)))
    return [rows[name, label] for name in patterns + ["Total"]
            for label in "+-"]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_competency_csv(rows: list[CompetencyRow]) -> str:
    lines = ["pattern,count,truth_proved,truth_exclusive,"
             "falsity_proved,falsity_exclusive,resolved_pct"]
    for row in rows:
        tx = "" if row.truth_exclusive is None else str(row.truth_exclusive)
        fx = "" if row.falsity_exclusive is None else str(row.falsity_exclusive)
        lines.append(f"{row.pattern},{row.count},{row.truth_proved},{tx},"
                     f"{row.falsity_proved},{fx},{round2(row.resolved_pct)}")
    return "\n".join(lines) + "\n"


def render_competency_text(rows: list[CompetencyRow]) -> str:
    header = ("pattern", "count", "(+)", "(-)", "resolved")
    table = [header]
    for row in rows:
        plus = str(row.truth_proved)
        minus = str(row.falsity_proved)
        if row.truth_exclusive is not None:
            plus += f" ({row.truth_exclusive})"
        if row.falsity_exclusive is not None:
            minus += f" ({row.falsity_exclusive})"
        table.append((row.pattern, str(row.count), plus, minus,
                      round2(row.resolved_pct) + " %"))
    return _align(table)


def render_efficiency_csv(rows: list[EfficiencyRow]) -> str:
    lines = ["pattern,polarity,t,mE,N,A"]
    for row in rows:
        lines.append(f"{row.pattern},{row.polarity},{round2(row.t)},"
                     f"{round2(row.mE)},{row.N},{round2(row.A)}")
    return "\n".join(lines) + "\n"


def render_efficiency_text(rows: list[EfficiencyRow]) -> str:
    table = [("pattern", "", "t", "mE", "N", "A")]
    for row in rows:
        table.append((row.pattern, f"({row.polarity})", round2(row.t),
                      round2(row.mE), str(row.N), round2(row.A)))
    return _align(table)


def render_size_stats_csv(labeled_stats) -> str:
    """Rows of (label, SizeStats) as CSV in the standard metric order."""
    from .kif import SizeStats
    lines = ["label," + SizeStats.csv_header()]
    for label, stats in labeled_stats:
        lines.append(f"{label},{stats.as_csv_row()}")
    return "\n".join(lines) + "\n"


def _align(table) -> str:
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    lines = []
    for row in table:
        lines.append("  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"
