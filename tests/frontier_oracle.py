"""Reference frontier reader that the tests compare ``bforage.experiment`` against.

``read_frontier_csv`` here is the package's reader before it split text
with ``str.split`` and audited whole columns: every file goes through
``csv.reader``, and every row through one audit that parses its fields in
header order and then checks them. It raises :class:`OracleError` with the
message and line that the package's ``SchemaError`` must carry. The
package reads only the dialect it writes (``\\n`` line ends, nothing
quoted, no CR), where ``csv.reader``'s rows are the physical lines split
at commas, so the two agree only on such text, and the tests give them
no other. The record types come from the package, so the records compare
with ``==``.
"""

from __future__ import annotations

import csv
import io

from bforage.engines import EngineKind
from bforage.errors import ConfigError
from bforage.experiment import FRONTIER_HEADER, SolutionRecord
from bforage.problem import (
    LOWER_BOUNDS,
    UPPER_BOUNDS,
    DecisionVector,
    ObjectiveVector,
    WeightVector,
    aggregate,
)

_BOUNDS = tuple(zip("ABCD", LOWER_BOUNDS.tolist(), UPPER_BOUNDS.tolist()))


class OracleError(Exception):
    """A fault in the file: ``message`` and ``line`` as the package reports them."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line


def frontier_record(row: list[str]) -> SolutionRecord:
    """One row's record, audited field by field; raises ``ValueError`` or ``ConfigError``."""
    engine = EngineKind(row[0])
    weights = WeightVector(*map(float, row[1:5]))
    run_id = int(row[5])
    seed = int(row[6])
    a, b, c, d, f1, f2, f3, f4, F, rate = map(float, row[7:])
    if run_id < 0:
        raise ValueError(f"run_id={run_id} is negative")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed={seed} outside [0, 2**64)")
    objectives = ObjectiveVector(f1, f2, f3, f4)
    recomputed = aggregate(objectives, weights)
    if not abs(recomputed - F) <= 1e-9:
        raise ValueError(f"aggregate mismatch: stored F={F!r}, recomputed {recomputed!r}")
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"aer={rate!r} outside [0, 1]")
    decision = DecisionVector(a, b, c, d)
    for value, (name, lo, hi) in zip(decision, _BOUNDS):
        if not lo <= value <= hi:
            raise ValueError(f"decision {name}={value} outside [{lo}, {hi}]")
    return SolutionRecord(engine, weights, run_id, seed, decision, objectives, F, rate)


def read_frontier_text(text: str) -> list[SolutionRecord]:
    """The audited records of a frontier CSV's decoded ``text``."""
    rows = csv.reader(io.StringIO(text, newline=""))
    try:
        first = next(rows, None)
        if first is None:
            raise OracleError("empty file", 1)
        if first != FRONTIER_HEADER:
            missing = [c for c in FRONTIER_HEADER if c not in first]
            if missing:
                raise OracleError(f"missing column {missing[0]!r}", 1)
            raise OracleError(f"unexpected header {first!r}", 1)
        records = []
        start = rows.line_num + 1
        for row in rows:
            line, start = start, rows.line_num + 1
            if not row:
                continue
            if len(row) != len(FRONTIER_HEADER):
                raise OracleError(f"expected {len(FRONTIER_HEADER)} fields, got {len(row)}", line)
            try:
                records.append(frontier_record(row))
            except (ValueError, ConfigError) as exc:
                raise OracleError(str(exc), line) from exc
    except csv.Error as exc:
        raise OracleError(f"unreadable CSV ({exc})", rows.line_num) from None
    return records
