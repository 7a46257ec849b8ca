"""Metrics records and CSV emission with a fixed column schema.

``MetricsRecord``'s fields, in order, are the CSV columns. Each field
declares its cell kind, which fixes its text form and its column name;
emission and parsing are both derived from that schema.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields
from typing import Any, Callable, NamedTuple

__all__ = ["MetricsRecord", "COLUMNS", "TIMING_COLUMNS", "emit_report", "parse_report"]


class _Cell(NamedTuple):
    encode: Callable[[Any], str]
    decode: Callable[[str], Any]
    suffix: str = ""


_STR = _Cell(str, str)
_INT = _Cell(str, int)
_FLOAT = _Cell(lambda v: repr(float(v)), float)
_SHARE = _Cell(lambda v: f"{v:.6f}", float)
_NS = _Cell(lambda v: str(int(round(v * 1e9))), lambda c: int(c) / 1e9, "_ns")
_BOOL = _Cell(lambda v: "1" if v else "0", lambda c: c == "1")


def _col(cell: _Cell, default=None):
    return field(default=default, metadata={"cell": cell})


@dataclass
class MetricsRecord:
    """One row of benchmark output; absent metrics stay None.

    Times are seconds internally and nanosecond integers in the CSV;
    proportions carry six decimals. An empty cell parses back to the
    field's default.
    """

    run: str = _col(_STR, "")
    seed: int = _col(_INT, 0)
    step: int | None = _col(_INT)
    param: str | None = _col(_STR)
    value: float | None = _col(_FLOAT)
    accuracy: float | None = _col(_SHARE)
    tpr: float | None = _col(_SHARE)
    tnr: float | None = _col(_SHARE)
    support_count: int | None = _col(_INT)
    query_time_proxy: float | None = _col(_NS)
    query_time_oracle: float | None = _col(_NS)
    update_time: float | None = _col(_NS)
    plan_time: float | None = _col(_NS)
    verify_time: float | None = _col(_NS)
    repair_time: float | None = _col(_NS)
    oracle_calls: int | None = _col(_INT)
    route: str | None = _col(_STR)
    certified: bool | None = _col(_BOOL)
    plan_found: bool | None = _col(_BOOL)


_SCHEMA = tuple((f.name, f.metadata["cell"], f.default) for f in fields(MetricsRecord))
COLUMNS = tuple(name + cell.suffix for name, cell, _ in _SCHEMA)
TIMING_COLUMNS = frozenset(name + cell.suffix for name, cell, _ in _SCHEMA if cell is _NS)


def _record(row: list[str]) -> MetricsRecord:
    return MetricsRecord(**{
        name: default if text == "" else cell.decode(text)
        for (name, cell, default), text in zip(_SCHEMA, row, strict=True)
    })


def emit_report(records, path, summary_rows=None) -> None:
    """Write records as CSV with the fixed column order.

    ``summary_rows`` (param, value, name -> mean pairs) additionally go to
    ``<path>.summary.dat`` in gnuplot-friendly whitespace format.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for rec in records:
            writer.writerow("" if (v := getattr(rec, name)) is None else cell.encode(v)
                            for name, cell, _ in _SCHEMA)
    if summary_rows:
        names = sorted({k for _, _, stats in summary_rows for k in stats})
        with open(f"{path}.summary.dat", "w", encoding="utf-8") as fh:
            fh.write("# param value " + " ".join(names) + "\n")
            for param, value, stats in summary_rows:
                cells = [param, repr(float(value))]
                cells += [
                    ("nan" if stats.get(n) is None else repr(float(stats[n]))) for n in names
                ]
                fh.write(" ".join(cells) + "\n")


def parse_report(path) -> list[MetricsRecord]:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != COLUMNS:
            raise ValueError(f"{path}: unexpected CSV header")
        return [_record(row) for row in reader]
