"""Competency and efficiency tables over result journals.

Reports are pure functions of journal records: the same journal always
renders byte-identical CSV and text. Efficiency follows the inverse-time
convention: a cell's ``mE`` is 1000 times the mean of ``1/seconds`` over
its proved tests, so faster proofs score higher.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal
from itertools import repeat
from operator import itemgetter

from .prover import FALSITY, PROVED, TRUTH

_MIN_SECONDS = 1e-9  # instant answers (the oracle) would otherwise divide by zero


def pattern_of(cq_id: str) -> str:
    return cq_id.partition(":")[0]


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


def proved_keys(records: dict[tuple[str, str], dict]
                ) -> set[tuple[str, str]]:
    """The (question, polarity) keys of the proved tests among journal
    records: all that a baseline run contributes to a competency report."""
    return {key for key, record in records.items()
            if record["status"] == PROVED}


def _proved_tests(records: dict[tuple[str, str], dict]
                ) -> dict[str, list[tuple[str, dict]]]:
    """The question id and record of each proved test, by polarity."""
    proved = {TRUTH: [], FALSITY: []}
    for (cq_id, polarity), record in records.items():
        if record["status"] == PROVED and polarity in proved:
            proved[polarity].append((cq_id, record))
    return proved


def _pattern_by_id(cq_ids) -> dict[str, str]:
    """``pattern_of`` of each question id, inlined: a call per id would cost
    half as much again."""
    return {cq_id: cq_id.partition(":")[0] for cq_id in cq_ids}


def competency_report(records: dict[tuple[str, str], dict], *,
                      baseline_proved: "set[tuple[str, str]] | None" = None,
                      expected_cqs=None) -> list[CompetencyRow]:
    """Per-pattern counts of proved truth and falsity tests, with a Total
    row; exclusive counts are tests proved here whose (question, polarity)
    key is not in ``baseline_proved`` (see ``proved_keys``)."""
    ids = {cq_id for cq_id, _ in records}
    if expected_cqs is not None:
        missing = {cq.id for cq in expected_cqs} - ids
        if missing:
            warnings.warn("journal incomplete; missing questions: "
                          + ", ".join(sorted(missing)), stacklevel=2)
            ids |= missing
    pattern = _pattern_by_id(ids)
    counts = Counter(pattern.values())
    # per polarity, proved tests and those of them the baseline lacks,
    # by pattern
    proved, exclusive = {}, {}
    for polarity, tests in _proved_tests(records).items():
        proved[polarity] = Counter(pattern[cq_id] for cq_id, _ in tests)
        if baseline_proved is not None:
            exclusive[polarity] = Counter(
                pattern[cq_id] for cq_id, _ in tests
                if (cq_id, polarity) not in baseline_proved)

    def row(name: str, count: int, tally) -> CompetencyRow:
        return CompetencyRow(
            pattern=name, count=count, truth_proved=tally(proved[TRUTH]),
            falsity_proved=tally(proved[FALSITY]),
            truth_exclusive=(None if baseline_proved is None
                             else tally(exclusive[TRUTH])),
            falsity_exclusive=(None if baseline_proved is None
                               else tally(exclusive[FALSITY])))

    rows = [row(name, counts[name], itemgetter(name))
            for name in sorted(counts)]
    rows.append(row("Total", len(ids), Counter.total))
    return rows


def _efficiency_cell(pattern: str, polarity_label: str,
                     proved_records: list[dict]) -> EfficiencyRow:
    if not proved_records:
        return EfficiencyRow(pattern, polarity_label, 0.0, 0.0, 0, 0.0)
    # max(seconds, _MIN_SECONDS), for the numbers a journal holds
    times = [s if s >= _MIN_SECONDS else _MIN_SECONDS
             for s in map(itemgetter("seconds"), proved_records)]
    t = sum(times) / len(times)
    me = 1000.0 * sum([1.0 / s for s in times]) / len(times)
    proofs = list(filter(None, map(dict.get, proved_records,
                                   repeat("used"))))
    distinct = set().union(*proofs)
    a = sum(map(len, proofs)) / len(proofs) if proofs else 0.0
    return EfficiencyRow(pattern, polarity_label, t, me, len(distinct), a)


def efficiency_report(records: dict[tuple[str, str], dict]
                      ) -> list[EfficiencyRow]:
    """Per pattern and polarity: mean time, scaled mean inverse time, and
    used-axiom counts over the proved tests, plus Total rows."""
    pattern = _pattern_by_id({cq_id for cq_id, _ in records})
    patterns = sorted(set(pattern.values()))
    rows = {}
    proved = _proved_tests(records)
    for polarity, label in ((TRUTH, "+"), (FALSITY, "-")):
        # every cell, the Total one too, sums its times in question order,
        # the order that sorting it by (question, polarity) gives
        tests = sorted(proved[polarity], key=itemgetter(0))
        cells = {name: [] for name in patterns}
        for cq_id, record in tests:
            cells[pattern[cq_id]].append(record)
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
