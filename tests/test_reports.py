import math
import random
import warnings
from types import SimpleNamespace

import pytest

from ontoclose.prover import FALSITY, TRUTH, ProverOutcome
from ontoclose.reports import (
    CompetencyRow, EfficiencyRow, competency_report, efficiency_report,
    proved_keys, render_competency_csv, render_competency_text,
    render_efficiency_csv, render_size_stats_csv, round2, tally,
)

from conftest import antonymy_cq


def record(cq, polarity, status, seconds=1.0, used=()):
    """A test's key and outcome, as a loaded journal holds them."""
    return (cq, polarity), ProverOutcome(status, seconds, tuple(used))


def journal(*records):
    return dict(records)


def test_pattern_extraction():
    ids = ["antonymy-1:a#n#1:b#n#1:A:B",
           "template(part-overlap):a#n#1:b#n#1:A:B", "solo"]
    assert tally(journal(*(record(cq, TRUTH, "gave-up") for cq in ids))
                 ).pattern == dict(zip(ids, ["antonymy-1",
                                             "template(part-overlap)",
                                             "solo"]))


# ---------------------------------------------------------------------------
# Competency
# ---------------------------------------------------------------------------

def test_competency_resolved_percentage():
    rows = competency_report(tally(journal(
        record("antonymy-1:a:b:A:B", TRUTH, "proved"),
        record("antonymy-1:a:b:A:B", FALSITY, "gave-up"),
        record("antonymy-1:c:d:C:D", TRUTH, "proved"),
        record("antonymy-1:c:d:C:D", FALSITY, "gave-up"),
        record("antonymy-1:e:f:E:F", TRUTH, "gave-up"),
        record("antonymy-1:e:f:E:F", FALSITY, "gave-up"),
    )))
    row = rows[0]
    assert row.pattern == "antonymy-1"
    assert (row.count, row.truth_proved, row.falsity_proved) == (3, 2, 0)
    assert round2(row.resolved_pct) == "66.67"
    total = rows[-1]
    assert total.pattern == "Total"
    assert total.count == 3


def test_competency_exclusive_counts_self_baseline():
    data = journal(
        record("hypo-noun-1:a:b:A:B", TRUTH, "proved"),
        record("hypo-noun-1:a:b:A:B", FALSITY, "gave-up"),
    )
    rows = competency_report(tally(data), baseline_proved=proved_keys(data))
    assert rows[0].truth_exclusive == 0
    assert rows[0].falsity_exclusive == 0


def test_competency_exclusive_counts_against_weaker_baseline():
    baseline = journal(
        record("hypo-noun-1:a:b:A:B", TRUTH, "gave-up"),
    )
    current = journal(
        record("hypo-noun-1:a:b:A:B", TRUTH, "proved"),
        record("hypo-noun-1:c:d:C:D", FALSITY, "proved"),
    )
    rows = competency_report(tally(current),
                             baseline_proved=proved_keys(baseline))
    assert rows[0].truth_exclusive == 1
    assert rows[0].falsity_exclusive == 1


def test_competency_warns_on_incomplete_journal():
    expected = [antonymy_cq("A", "B"), antonymy_cq("C", "D")]
    data = journal(record(expected[0].id, TRUTH, "proved"))
    with pytest.warns(UserWarning, match="journal incomplete"):
        rows = competency_report(tally(data), expected_cqs=expected)
    assert rows[0].count == 2


def test_competency_percentages_consistent_with_counts():
    data = journal(
        record("hypo-noun-1:a:b:A:B", TRUTH, "proved"),
        record("hypo-noun-2:c:d:C:D", TRUTH, "proved"),
        record("hypo-noun-2:e:f:E:F", FALSITY, "proved"),
    )
    for row in competency_report(tally(data)):
        expected = (100.0 * (row.truth_proved + row.falsity_proved) / row.count
                    if row.count else 0.0)
        assert math.isclose(row.resolved_pct, expected, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# Efficiency
# ---------------------------------------------------------------------------

def test_efficiency_inverse_time_formula():
    data = journal(
        record("antonymy-1:a:b:A:B", TRUTH, "proved", seconds=2.0),
        record("antonymy-1:c:d:C:D", TRUTH, "proved", seconds=4.0),
    )
    rows = {(r.pattern, r.polarity): r for r in efficiency_report(tally(data))}
    cell = rows[("antonymy-1", "+")]
    assert math.isclose(cell.t, 3.0, rel_tol=1e-9)
    assert math.isclose(cell.mE, 375.0, rel_tol=1e-9)


def test_efficiency_single_proof_axiom_counts():
    data = journal(
        record("antonymy-1:a:b:A:B", TRUTH, "proved", seconds=1.0,
               used=["a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8"]),
    )
    cell = efficiency_report(tally(data))[0]
    assert cell.N == 8
    assert math.isclose(cell.A, 8.0)


def test_efficiency_distinct_axioms_across_proofs():
    data = journal(
        record("antonymy-1:a:b:A:B", TRUTH, "proved", used=["a", "b", "c"]),
        record("antonymy-1:c:d:C:D", TRUTH, "proved", used=["b", "c", "d"]),
    )
    cell = efficiency_report(tally(data))[0]
    assert cell.N == 4
    assert math.isclose(cell.A, 3.0)
    assert cell.N >= cell.A


def test_efficiency_ignores_unproved_and_handles_empty_cells():
    data = journal(
        record("antonymy-1:a:b:A:B", TRUTH, "timeout", seconds=300.0),
        record("antonymy-1:a:b:A:B", FALSITY, "proved", seconds=2.0),
    )
    rows = {(r.pattern, r.polarity): r for r in efficiency_report(tally(data))}
    plus = rows[("antonymy-1", "+")]
    assert (plus.t, plus.mE, plus.N, plus.A) == (0.0, 0.0, 0, 0.0)
    minus = rows[("antonymy-1", "-")]
    assert math.isclose(minus.t, 2.0)


def test_efficiency_proofs_without_axiom_lists():
    data = journal(
        record("antonymy-1:a:b:A:B", TRUTH, "proved", seconds=0.0, used=[]),
    )
    cell = efficiency_report(tally(data))[0]
    assert cell.N == 0 and cell.A == 0.0
    assert cell.mE > 0  # instant answers still count as resolved


def test_efficiency_totals_pool_patterns():
    data = journal(
        record("antonymy-1:a:b:A:B", TRUTH, "proved", seconds=2.0),
        record("hypo-noun-1:c:d:C:D", TRUTH, "proved", seconds=4.0),
    )
    rows = efficiency_report(tally(data))
    total_plus = next(r for r in rows
                      if r.pattern == "Total" and r.polarity == "+")
    assert math.isclose(total_plus.t, 3.0)
    assert math.isclose(total_plus.mE, 375.0)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def test_render_competency_csv_and_text():
    rows = [CompetencyRow("antonymy-1", 3, 2, 0, 1, 0),
            CompetencyRow("Total", 3, 2, 0, 1, 0)]
    csv_text = render_competency_csv(rows)
    assert csv_text.splitlines()[0] == \
        "pattern,count,truth_proved,truth_exclusive," \
        "falsity_proved,falsity_exclusive,resolved_pct"
    assert "antonymy-1,3,2,1,0,0,66.67" in csv_text
    text = render_competency_text(rows)
    assert "2 (1)" in text
    assert "66.67 %" in text


def test_render_without_baseline_leaves_exclusive_blank():
    rows = [CompetencyRow("antonymy-1", 1, 1, 0)]
    assert "antonymy-1,1,1,,0,,100.00" in render_competency_csv(rows)


def test_render_efficiency_csv():
    data = journal(
        record("antonymy-1:a:b:A:B", TRUTH, "proved", seconds=2.0,
               used=["x", "y"]),
    )
    text = render_efficiency_csv(efficiency_report(tally(data)))
    assert text.splitlines()[0] == "pattern,polarity,t,mE,N,A"
    assert "antonymy-1,+,2.00,500.00,2,2.00" in text


def test_render_size_stats_csv(organism_process):
    from ontoclose import kif
    stats = kif.count_metrics(organism_process)
    text = render_size_stats_csv([("original", stats)])
    lines = text.splitlines()
    assert lines[0].startswith("label,axiom,unit_clause,formula,atom,forall")
    assert lines[1].startswith("original,16,10,6,24,6,2,1,3,4,0,1,1")


def test_rendering_is_deterministic():
    data = journal(
        record("hypo-noun-1:a:b:A:B", TRUTH, "proved", seconds=1.5),
        record("antonymy-1:c:d:C:D", FALSITY, "proved", seconds=2.5),
    )
    assert render_efficiency_csv(efficiency_report(tally(data))) == \
        render_efficiency_csv(efficiency_report(tally(data)))
    assert render_competency_csv(competency_report(tally(data))) == \
        render_competency_csv(competency_report(tally(data)))


def test_round2_is_half_even():
    assert round2(66.666666) == "66.67"
    assert round2(0.125) == "0.12"
    assert round2(0.135) == "0.14"
    assert round2(375.0) == "375.00"


# ---------------------------------------------------------------------------
# Both reports against a plain reference
# ---------------------------------------------------------------------------

def _reference_competency(records, baseline_proved, expected_ids):
    ids = {cq for cq, _ in records} | set(expected_ids or ())
    rows = []
    for pattern in sorted({cq.split(":", 1)[0] for cq in ids}):
        mine = [cq for cq in ids if cq.split(":", 1)[0] == pattern]
        proved = {polarity: [(cq, polarity) for cq in mine
                             if (cq, polarity) in records
                             and records[cq, polarity].status == "proved"]
                  for polarity in (TRUTH, FALSITY)}
        exclusive = {polarity: (None if baseline_proved is None else
                                sum(key not in baseline_proved
                                    for key in keys))
                     for polarity, keys in proved.items()}
        rows.append(CompetencyRow(pattern, len(mine), len(proved[TRUTH]),
                                  len(proved[FALSITY]), exclusive[TRUTH],
                                  exclusive[FALSITY]))

    def total(field):
        values = [getattr(row, field) for row in rows]
        return None if None in values else sum(values)

    rows.append(CompetencyRow("Total", len(ids), total("truth_proved"),
                              total("falsity_proved"),
                              total("truth_exclusive"),
                              total("falsity_exclusive")))
    return rows


def _reference_efficiency_cell(pattern, label, cell):
    if not cell:
        return EfficiencyRow(pattern, label, 0.0, 0.0, 0, 0.0)
    times = [max(outcome.wall_time, 1e-9) for outcome in cell]
    proofs = [outcome.used for outcome in cell if outcome.used]
    axioms = set()
    for used in proofs:
        axioms.update(used)
    return EfficiencyRow(
        pattern, label, sum(times) / len(times),
        1000.0 * sum(1.0 / s for s in times) / len(times), len(axioms),
        sum(len(used) for used in proofs) / len(proofs) if proofs else 0.0)


def _reference_efficiency(records):
    proved = sorted((key, outcome) for key, outcome in records.items()
                    if outcome.status == "proved")
    rows = []
    patterns = sorted({cq.split(":", 1)[0] for cq, _ in records})
    for pattern in patterns + ["Total"]:
        for polarity, label in ((TRUTH, "+"), (FALSITY, "-")):
            rows.append(_reference_efficiency_cell(pattern, label, [
                outcome for (cq, pol), outcome in proved if pol == polarity
                and pattern in ("Total", cq.split(":", 1)[0])]))
    return rows


def test_reports_equal_a_plain_reference_on_random_journals():
    rng = random.Random(3)
    # "a" and "a-b" sort one way as patterns and the other way in ids;
    # "solo" ids have no colon at all
    prefixes = ["a:", "a-b:", "hypo-noun-1:", "template(x):", "solo", "z:"]
    axioms = [f"ax_{i}" for i in range(12)]
    for trial in range(150):
        ids = sorted({rng.choice(prefixes) + str(rng.randrange(40))
                      for _ in range(rng.randrange(60))})
        data = {}
        for cq in ids:
            for polarity in (TRUTH, FALSITY, "other"):
                if rng.random() < (0.05 if polarity == "other" else 0.8):
                    status = rng.choice(
                        ["proved", "proved", "gave-up", "timeout"])
                    seconds = rng.choice([0.0, 1e-10, 3, round(
                        rng.expovariate(2.0), 6)])
                    used = rng.sample(axioms, rng.randrange(5))
                    if rng.random() < 0.2:
                        used = ()  # a journal line without "used"
                    data.update([record(cq, polarity, status, seconds, used)])
        keys = list(data)
        rng.shuffle(keys)
        data = {key: data[key] for key in keys}
        baseline = (None if rng.random() < 0.4 else
                    {key for key in data if rng.random() < 0.5}
                    | {("elsewhere:1", TRUTH)})
        expected = (None if rng.random() < 0.4 else
                    [SimpleNamespace(id=cq) for cq in ids
                     if rng.random() < 0.9]
                    + [SimpleNamespace(id=f"a:missing{trial}")])
        expected_ids = None if expected is None else [cq.id for cq in expected]
        # one pre-pass for both reports, as the command line makes it:
        # the questions missing from the journal leave it as it was
        tallied = tally(data)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = competency_report(tallied, baseline_proved=baseline,
                                     expected_cqs=expected)
        assert rows == _reference_competency(data, baseline, expected_ids)
        assert efficiency_report(tallied) == _reference_efficiency(data)
