"""An independent whole-table oracle for the benchmark's queries.

It answers COUNT(*), SUM(value) and AVG(value) over an inclusive
``x0``/``x1`` box with plain numpy over the generated columns, sharing
no code with the program's aggregates, partials, merges or
``ExactEngine.ground_truth``.  Rows are kept sorted by ``x0`` so a query
masks only the rows inside its ``x0`` interval; appended rows (the
ingest workload) live in an unsorted tail whose visible prefix is
chosen per query, so each read is checked against the rows it could see.

The generators in :mod:`perfbench.inputs` never emit NaN or infinity,
so the NaN zone-map defect (ROADMAP open item 4) lies outside this data.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

#: Exact answers must match the oracle within this relative tolerance;
#: partition-wise float sums differ from one whole-table sum only in the
#: last bits.
EXACT_RTOL = 1e-9


class Oracle:
    def __init__(self, columns: Dict[str, np.ndarray]) -> None:
        order = np.argsort(columns["x0"], kind="stable")
        self._x0 = np.ascontiguousarray(columns["x0"][order])
        self._x1 = np.ascontiguousarray(columns["x1"][order])
        self._value = np.ascontiguousarray(columns["value"][order])
        self._tail: List[Dict[str, np.ndarray]] = []
        self._tail_cat = None

    @property
    def tail_rows(self) -> int:
        return sum(len(chunk["x0"]) for chunk in self._tail)

    def append(self, columns: Dict[str, np.ndarray]) -> None:
        self._tail.append({k: np.asarray(columns[k]) for k in ("x0", "x1", "value")})
        self._tail_cat = None

    def _tail_arrays(self):
        if self._tail_cat is None:
            self._tail_cat = tuple(
                np.concatenate([c[k] for c in self._tail]) if self._tail else np.empty(0)
                for k in ("x0", "x1", "value")
            )
        return self._tail_cat

    def answer(self, kind: str, lows: Sequence[float], highs: Sequence[float],
               tail_rows: int = 0) -> float:
        lo0, lo1 = lows
        hi0, hi1 = highs
        first = int(np.searchsorted(self._x0, lo0, side="left"))
        last = int(np.searchsorted(self._x0, hi0, side="right"))
        x1 = self._x1[first:last]
        inside = (x1 >= lo1) & (x1 <= hi1)
        count = int(np.count_nonzero(inside))
        total = float(np.sum(self._value[first:last][inside])) if kind != "count" else 0.0
        if tail_rows:
            tx0, tx1, tv = (a[:tail_rows] for a in self._tail_arrays())
            tail = (tx0 >= lo0) & (tx0 <= hi0) & (tx1 >= lo1) & (tx1 <= hi1)
            count += int(np.count_nonzero(tail))
            if kind != "count":
                total += float(np.sum(tv[tail]))
        if kind == "count":
            return float(count)
        if kind == "sum":
            return total
        return total / count if count else 0.0


def relative_error(answer: float, truth: float) -> float:
    """|answer - truth| relative to max(|truth|, 1)."""
    return abs(answer - truth) / max(abs(truth), 1.0)


def exact_matches(answer: float, truth: float) -> bool:
    return abs(answer - truth) <= EXACT_RTOL * max(abs(truth), 1.0)
