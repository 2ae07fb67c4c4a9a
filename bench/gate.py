"""Output gate: is a sample's output what it should be?

Two checks, both on every sample:

* sha256 digests of the outputs that carry no timings (``cqs.kif``,
  ``stats.csv``, and per mode ``closed.kif``, ``competency.csv`` and the
  journal as a sorted set of (cq, polarity, status, used) with
  ``seconds`` dropped), combined into one digest and compared with the
  digest recorded for that workload and seed (``digests.json``);
* an independent check from what the generator planted: every question
  it expects is in every journal, antonymy questions on the sibling pairs
  it left open read unknown / unknown / passing / non-passing across the
  four modes, and with the scripted prover every verdict follows the
  prover's rule.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

import gen

PASSING, NON_PASSING, UNKNOWN = "passing", "non-passing", "unknown"

# What an antonymy question on a planted open sibling pair reads per mode.
PLANTED_OPEN = {"owa": UNKNOWN, "subclass-only": UNKNOWN,
                "subclass+disjointness": PASSING,
                "subclass+nondisjointness": NON_PASSING}

FAILED_STATUSES = ("error", "timeout")


def mode_dir(out: Path, mode: str) -> Path:
    return out / mode.replace("+", "_")


def read_journal(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha(path: Path) -> str:
    return _sha(path.read_bytes()) if path.exists() else "missing"


def digests(out: Path, modes, journals) -> dict[str, str]:
    """sha256 of each timing-free output, by file name."""
    found = {}
    for name in ("cqs.kif", "stats.csv"):
        found[name] = _file_sha(out / name)
    for mode in modes:
        base = mode_dir(out, mode)
        for name in ("closed.kif", "competency.csv"):
            found[f"{mode}/{name}"] = _file_sha(base / name)
        entries = sorted({json.dumps([r["cq"], r["polarity"], r["status"],
                                      r.get("used", [])])
                          for r in journals[mode]})
        found[f"{mode}/journal"] = _sha("\n".join(entries).encode())
    return found


def combined(found: dict[str, str]) -> str:
    return _sha("".join(f"{k}\0{v}\n" for k, v in sorted(found.items()))
                .encode())


def verdicts(records) -> dict[str, str]:
    """Verdict per question id, read from journal records."""
    proved: dict[str, set] = {}
    for r in records:
        polarities = proved.setdefault(r["cq"], set())
        if r["status"] == "proved":
            polarities.add(r["polarity"])
    out = {}
    for cq, polarities in proved.items():
        if polarities == {"truth", "falsity"}:
            out[cq] = "contradictory"
        elif "truth" in polarities:
            out[cq] = PASSING
        elif "falsity" in polarities:
            out[cq] = NON_PASSING
        else:
            out[cq] = UNKNOWN
    return out


def _classes(cq_id: str) -> tuple[str, str, str]:
    """(pattern, C1, C2) of a question id ``pattern:s1:s2:C1:C2``."""
    pattern, _s1, _s2, c1, c2 = cq_id.split(":")
    return pattern, c1, c2


def independent_errors(inputs: gen.Inputs, journals, scripted: bool
                       ) -> list[str]:
    """Disagreements between the journals and what the generator knows."""
    errors = []
    expected_questions = Counter(inputs.questions)
    planted = set(inputs.planted_open)
    for mode, records in journals.items():
        by_cq = verdicts(records)
        seen = Counter(_classes(cq)[1:] for cq in by_cq)
        if seen != expected_questions:
            errors.append(f"{mode}: questions differ from the generated ones "
                          f"({sum(seen.values())} vs "
                          f"{sum(expected_questions.values())})")
        for cq, verdict in sorted(by_cq.items()):
            pattern, c1, c2 = _classes(cq)
            if scripted:
                proves = gen.class_index(c1) % gen.STUB_MODULUS == 0
                want = PASSING if proves else UNKNOWN
            elif pattern == "antonymy-1" and (c1, c2) in planted:
                want = PLANTED_OPEN[mode]
            else:
                continue
            if verdict != want:
                errors.append(f"{mode}: {cq} reads {verdict}, expected {want}")
        if scripted:
            statuses = Counter(r["status"] for r in records)
            if set(statuses) - {"proved", "gave-up"}:
                errors.append(f"{mode}: unexpected prover statuses {statuses}")
    return errors
