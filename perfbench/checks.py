"""Summary statistics and the report-comparison rule of the benchmark."""
from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

ABS_TOL = 1e-9
NUMERIC_CELLS = slice(1, 8)   # t, R, r, d, lhs, rhs, slack
FLAG_CELLS = slice(8, None)   # valid, pass


@dataclass(frozen=True)
class Summary:
    """Median and quartiles of ``n`` samples (quartiles as in
    ``statistics.quantiles(values, n=4)``; one sample is its own quartiles)."""

    median: float
    q1: float
    q3: float
    n: int

    def describe(self, unit: str) -> str:
        return (f"{self.median:.6g} {unit} "
                f"(q1 {self.q1:.6g}, q3 {self.q3:.6g}, n={self.n})")


def summarize(values: Sequence[float]) -> Summary:
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no samples to summarize")
    med = statistics.median(values)
    if len(values) == 1:
        return Summary(med, med, med, 1)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return Summary(med, q1, q3, len(values))


def _cell_matches(got: str, want: str) -> bool:
    if got == "" or want == "":
        return got == want
    g, w = float(got), float(want)
    if g != g or w != w:          # nan only matches nan
        return g != g and w != w
    return abs(g - w) <= ABS_TOL


def row_matches(got: str, want: str) -> bool:
    """One CSV row against its reference: same theorem and flags, numeric
    cells within ``ABS_TOL`` (the rule of the golden-file regression test)."""
    g, w = got.split(","), want.split(",")
    if len(g) != len(w) or g[0] != w[0] or g[FLAG_CELLS] != w[FLAG_CELLS]:
        return False
    try:
        return all(_cell_matches(a, b) for a, b in zip(g[NUMERIC_CELLS], w[NUMERIC_CELLS]))
    except ValueError:
        return False


def failed_rows(got_csv: str, want_csv: str) -> list:
    """Indices (0-based, header excluded) of reference rows that the output
    disagrees with, or that are valid and do not pass.  A different header or
    row count fails every row."""
    got = got_csv.splitlines()
    want = want_csv.splitlines()
    n_rows = len(want) - 1
    if len(got) != len(want) or got[0] != want[0]:
        return list(range(n_rows))
    bad = []
    for i, want_row in enumerate(want[1:]):
        got_row = got[i + 1]
        if not row_matches(got_row, want_row):
            bad.append(i)
            continue
        valid, passed = got_row.split(",")[FLAG_CELLS]
        if valid == "true" and passed != "true":
            bad.append(i)
    return bad
