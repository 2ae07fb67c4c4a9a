"""Competency and efficiency tables over result journals.

Reports are pure functions of journal records: the same journal always
renders byte-identical CSV and text. Efficiency follows the inverse-time
convention: a cell's ``mE`` is 1000 times the mean of ``1/seconds`` over
its proved tests, so faster proofs score higher.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal

from .prover import FALSITY, PROVED, TRUTH

_MIN_SECONDS = 1e-9  # instant answers (the oracle) would otherwise divide by zero


def pattern_of(cq_id: str) -> str:
    return cq_id.split(":", 1)[0]


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


def competency_report(records: dict[tuple[str, str], dict], *,
                      baseline_proved: "set[tuple[str, str]] | None" = None,
                      expected_cqs=None) -> list[CompetencyRow]:
    """Per-pattern counts of proved truth and falsity tests, with a Total
    row; exclusive counts are tests proved here whose (question, polarity)
    key is not in ``baseline_proved`` (see ``proved_keys``)."""
    journal_ids = {cq for cq, _ in records}
    if expected_cqs is not None:
        expected_ids = {cq.id for cq in expected_cqs}
        missing = sorted(expected_ids - journal_ids)
        if missing:
            warnings.warn("journal incomplete; missing questions: "
                          + ", ".join(missing), stacklevel=2)
        all_ids = expected_ids | journal_ids
    else:
        all_ids = journal_ids

    by_pattern: dict[str, list[str]] = {}
    for cq_id in sorted(all_ids):
        by_pattern.setdefault(pattern_of(cq_id), []).append(cq_id)

    proved = proved_keys(records)
    rows = []
    for pattern in sorted(by_pattern):
        ids = by_pattern[pattern]
        truth = [(i, TRUTH) for i in ids if (i, TRUTH) in proved]
        falsity = [(i, FALSITY) for i in ids if (i, FALSITY) in proved]
        truth_x = falsity_x = None
        if baseline_proved is not None:
            truth_x = sum(key not in baseline_proved for key in truth)
            falsity_x = sum(key not in baseline_proved for key in falsity)
        rows.append(CompetencyRow(pattern=pattern, count=len(ids),
                                  truth_proved=len(truth),
                                  falsity_proved=len(falsity),
                                  truth_exclusive=truth_x,
                                  falsity_exclusive=falsity_x))
    total = CompetencyRow(
        pattern="Total",
        count=sum(r.count for r in rows),
        truth_proved=sum(r.truth_proved for r in rows),
        falsity_proved=sum(r.falsity_proved for r in rows),
        truth_exclusive=(sum(r.truth_exclusive for r in rows)
                         if baseline_proved is not None else None),
        falsity_exclusive=(sum(r.falsity_exclusive for r in rows)
                           if baseline_proved is not None else None))
    rows.append(total)
    return rows


def _efficiency_cell(pattern: str, polarity_label: str,
                     proved_records: list[dict]) -> EfficiencyRow:
    if not proved_records:
        return EfficiencyRow(pattern, polarity_label, 0.0, 0.0, 0, 0.0)
    times = [max(r["seconds"], _MIN_SECONDS) for r in proved_records]
    t = sum(times) / len(times)
    me = 1000.0 * sum(1.0 / s for s in times) / len(times)
    proofs = [r["used"] for r in proved_records if r.get("used")]
    distinct = set()
    for used in proofs:
        distinct.update(used)
    a = sum(len(u) for u in proofs) / len(proofs) if proofs else 0.0
    return EfficiencyRow(pattern, polarity_label, t, me, len(distinct), a)


def efficiency_report(records: dict[tuple[str, str], dict]
                      ) -> list[EfficiencyRow]:
    """Per pattern and polarity: mean time, scaled mean inverse time, and
    used-axiom counts over the proved tests, plus Total rows."""
    cells: dict[tuple[str, str], list[dict]] = {}
    patterns = sorted({pattern_of(cq) for cq, _ in records})
    for (cq_id, polarity), record in records.items():
        if record["status"] != PROVED:
            continue
        cells.setdefault((pattern_of(cq_id), polarity), []).append(record)

    rows = []
    for pattern in patterns:
        for polarity, label in ((TRUTH, "+"), (FALSITY, "-")):
            cell = sorted(cells.get((pattern, polarity), ()),
                          key=lambda r: (r["cq"], r["polarity"]))
            rows.append(_efficiency_cell(pattern, label, cell))
    for polarity, label in ((TRUTH, "+"), (FALSITY, "-")):
        merged = sorted(
            (record for (_, pol), cell in cells.items() if pol == polarity
             for record in cell),
            key=lambda r: (r["cq"], r["polarity"]))
        rows.append(_efficiency_cell("Total", label, merged))
    return rows


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
