"""Seeded inputs: tables, query streams and append batches.

The benchmark owns its generators, so a change to the program's own
data or workload generators cannot change what the benchmark measures.
Tables are clustered points in ``[0, 100]^2`` with a smooth ``value``
column (a Gaussian mixture, like the paper's sensor data); queries are
inclusive ``x0``/``x1`` boxes.  Nothing here emits NaN or infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

DOMAIN = (0.0, 100.0)
AGGREGATE_SQL = {"count": "COUNT(*)", "sum": "SUM(value)", "avg": "AVG(value)"}


class Mixture:
    """Clustered points with a smooth ``value`` surface plus noise."""

    N_COMPONENTS, SPREAD = 4, 6.0

    def __init__(self, rng: np.random.Generator) -> None:
        lo, hi = DOMAIN
        self.centers = rng.uniform(lo + self.SPREAD, hi - self.SPREAD,
                                   size=(self.N_COMPONENTS, 2))
        self.weights = rng.uniform(-1.0, 1.0, size=2)
        self.slope = rng.uniform(0.0, 0.5, size=2)

    def columns(self, points: np.ndarray, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        points = np.clip(points, *DOMAIN)
        value = (np.sin(points @ self.weights / 25.0) * 10.0 + points @ self.slope
                 + rng.normal(scale=1.0, size=len(points)))
        return {"x0": points[:, 0].copy(), "x1": points[:, 1].copy(), "value": value}

    def draw(self, n_rows: int, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        assignment = rng.integers(len(self.centers), size=n_rows)
        points = self.centers[assignment] + rng.normal(scale=self.SPREAD, size=(n_rows, 2))
        return self.columns(points, rng)

    def near(self, point, scale: float, n_rows: int,
             rng: np.random.Generator) -> Dict[str, np.ndarray]:
        return self.columns(point + rng.normal(scale=scale, size=(n_rows, 2)), rng)


def clustered_table(n_rows: int, seed: int) -> Tuple[Mixture, Dict[str, np.ndarray]]:
    """A workload's fixed table, sorted by ``x0`` so zone maps can prune."""
    rng = np.random.default_rng(seed)
    mixture = Mixture(rng)
    columns = mixture.draw(n_rows, rng)
    order = np.argsort(columns["x0"], kind="stable")
    return mixture, {name: values[order] for name, values in columns.items()}


@dataclass(frozen=True)
class Query:
    kind: str  # "count" | "sum" | "avg"
    lows: Tuple[float, float]
    highs: Tuple[float, float]

    def sql(self) -> str:
        (lo0, lo1), (hi0, hi1) = self.lows, self.highs
        return (f"SELECT {AGGREGATE_SQL[self.kind]} FROM data "
                f"WHERE x0 BETWEEN {lo0!r} AND {hi0!r} AND x1 BETWEEN {lo1!r} AND {hi1!r}")


def box(kind: str, center, half) -> Query:
    return Query(kind, (float(center[0] - half[0]), float(center[1] - half[1])),
                 (float(center[0] + half[0]), float(center[1] + half[1])))


class HotspotQueries:
    """Analysts circling a few hotspots placed on data points, asking AVG.

    ``placement`` picks the hotspots and ``rng`` draws the queries, so a
    workload keeps one scenario (table and hotspots) and the seed only
    chooses which sample of its queries a run sees.

    Every ``explore_every``-th query is exploratory instead: a box four
    times wider, around a random row of the table, unlike anything the
    agent learned, so a converged agent falls back to exact execution on
    a steady share of the stream.  Continuous draws never repeat a query.
    """

    N_HOTSPOTS = 8
    #: How far query centres scatter around a hotspot, and the range of
    #: box half-widths.
    SCALE, EXTENT = 2.5, (3.0, 8.0)

    def __init__(self, columns: Dict[str, np.ndarray], placement: np.random.Generator,
                 rng: np.random.Generator, explore_every: int = 0) -> None:
        self.points = np.stack([columns["x0"], columns["x1"]], axis=1)
        picks = placement.choice(len(self.points), size=self.N_HOTSPOTS, replace=False)
        self.hotspots = self.points[picks]
        self.rng = rng
        self.explore_every = explore_every
        self.drawn = 0
        self.explored_last = False

    def next(self) -> Query:
        self.drawn += 1
        rng = self.rng
        half = rng.uniform(*self.EXTENT, size=2)
        self.explored_last = bool(self.explore_every) and self.drawn % self.explore_every == 0
        if self.explored_last:
            return box("avg", self.points[int(rng.integers(len(self.points)))], 4.0 * half)
        hotspot = self.hotspots[int(rng.integers(len(self.hotspots)))]
        return box("avg", hotspot + rng.normal(scale=self.SCALE, size=2), half)


class ScanQueries:
    """Mixed COUNT/SUM/AVG boxes from narrow to wide.

    Half-widths are log-uniform, so on a table clustered by ``x0`` narrow
    boxes skip most partitions and wide ones cover some whole; half of
    the boxes span all of ``x1`` so covered partitions can answer from
    their synopses.
    """

    KINDS = ("count", "sum", "avg")
    #: Narrowest and widest half-width.
    WIDTHS = (1.0, 60.0)

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.log_range = tuple(np.log(self.WIDTHS))

    def next(self) -> Query:
        rng = self.rng
        center = rng.uniform(*DOMAIN, size=2)
        half = np.exp(rng.uniform(*self.log_range, size=2))
        kind = self.KINDS[int(rng.integers(3))]
        query = box(kind, center, half)
        if rng.random() < 0.5:
            query = Query(kind, (query.lows[0], DOMAIN[0] - 1.0), (query.highs[0], DOMAIN[1] + 1.0))
        return query
