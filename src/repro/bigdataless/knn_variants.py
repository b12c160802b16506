"""kNN query variants (RT2.1): reverse kNN and approximate kNN.

"kNN query processing (and its variants, such as Reverse kNN, kNN joins,
all-pair and approximate kNN, etc.)"

* :class:`ReverseKNN` — all points p whose own k nearest neighbours
  include the query point q.  Exact for 2-d data via the classic
  six-sector pruning (Stanoi et al.): in the plane, only the k nearest
  points to q *within each 60-degree sector around q* can possibly have q
  among their k nearest — at most ``6k`` candidates — and each candidate
  is then verified with one surgical kNN probe.
* :class:`ApproximateKNN` — kNN with a bounded approximation: the first
  candidate fetch is *not* widened when it under-covers; instead the best
  available candidates are returned along with a certified distance bound
  (every returned distance is exact; missed true neighbours, if any, lie
  beyond the searched radius).  Cuts the widening round trips the exact
  operator pays in sparse regions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.accounting import CostMeter, CostReport
from repro.common.validation import require
from repro.cluster.storage import DistributedStore
from repro.data.tabular import Table
from repro.engine.coordinator import CoordinatorEngine
from repro.bigdataless.index import DistributedGridIndex
from repro.bigdataless.knn import CoordinatorKNN


def reverse_knn_reference(
    table: Table, columns: Sequence[str], point, k: int
) -> List[int]:
    """Ground truth: rows whose k nearest *other* rows include ``point``.

    ``point`` is treated as an extra, external point: row p is a reverse
    neighbour if fewer than k stored rows (excluding p itself) are closer
    to p than ``point`` is.
    """
    points = table.matrix(columns)
    q = np.asarray(point, dtype=float).ravel()
    out = []
    for i, p in enumerate(points):
        d_pq = float(np.linalg.norm(p - q))
        diff = points - p
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        closer = int((dist < d_pq).sum()) - (1 if d_pq > 0 else 0)
        # Exclude p itself (distance 0 counts as "closer" unless p == q).
        closer = int(np.sum((dist < d_pq)) - 1)
        if closer < k:
            out.append(i)
    return sorted(out)


class ReverseKNN:
    """Exact 2-d reverse-kNN via six-sector candidates + surgical checks."""

    def __init__(self, store: DistributedStore, index: DistributedGridIndex) -> None:
        require(index.is_built, "grid index must be built first")
        require(
            len(index.columns) == 2,
            "the six-sector RkNN algorithm is defined for 2-d data",
        )
        self.store = store
        self.index = index
        self.columns = index.columns
        self._knn = CoordinatorKNN(store, index)
        self._coordinator = CoordinatorEngine(store)

    def query(
        self, table_name: str, point, k: int
    ) -> Tuple[List[int], CostReport]:
        """Global row ids of the reverse k-nearest neighbours of ``point``."""
        require(k >= 1, "k must be >= 1")
        require(
            table_name == self.index.table_name,
            f"index covers {self.index.table_name!r}",
        )
        q = np.asarray(point, dtype=float).ravel()
        meter = CostMeter()
        stored = self.store.table(table_name)
        offsets = {}
        running = 0
        for idx, partition in enumerate(stored.partitions):
            offsets[idx] = running
            running += partition.n_rows
        candidates = self._sector_candidates(stored, q, k, meter, offsets)
        results: List[int] = []
        for global_id, candidate in candidates:
            if self._q_in_knn_of(stored, candidate, q, k, meter):
                results.append(global_id)
        return sorted(results), meter.freeze()

    # Candidate generation ----------------------------------------------------
    def _sector_candidates(self, stored, q, k, meter, offsets):
        """k nearest points to q per 60-degree sector (<= 6k candidates).

        Fetched via expanding rings of grid cells around q; a sector's
        candidate list is final once it holds k points nearer than the
        next unexplored ring can offer.
        """
        n_sectors = 6
        per_sector: List[List[Tuple[float, int, np.ndarray]]] = [
            [] for _ in range(n_sectors)
        ]
        cell_width = float((self.index._span / self.index.cells_per_dim).max())
        center_cell = self.index._cell_of(q)
        seen_cells = set()
        for ring in range(self.index.cells_per_dim + 1):
            lo = np.maximum(center_cell - ring, 0)
            hi = np.minimum(center_cell + ring, self.index.cells_per_dim - 1)
            ring_keys = [
                key
                for key in self.index.cells_for_box(
                    self.index._lows + lo / self.index.cells_per_dim * self.index._span,
                    self.index._lows
                    + (hi + 1) / self.index.cells_per_dim * self.index._span,
                )
                if key not in seen_cells
            ]
            seen_cells.update(ring_keys)
            if ring_keys:
                rows = self.index.rows_for_cells(ring_keys)
                data, _ = self._coordinator.fetch_rows(
                    stored, rows, meter, charge_stack=False
                )
                ids = [
                    offsets[part_idx] + row_idx
                    for part_idx in sorted(rows)
                    for row_idx in rows[part_idx]
                ]
                points = data.matrix(self.columns)
                for global_id, p in zip(ids, points):
                    d = float(np.linalg.norm(p - q))
                    sector = self._sector_of(p - q, n_sectors)
                    per_sector[sector].append((d, int(global_id), p))
            # Stop once every sector's k-th candidate beats the next ring.
            ring_floor = ring * cell_width
            done = all(
                len(sector) >= k
                and sorted(item[0] for item in sector)[k - 1] <= ring_floor
                for sector in per_sector
            )
            if done or len(seen_cells) >= len(self.index._stats):
                break
        candidates = []
        for sector in per_sector:
            sector.sort(key=lambda item: item[0])
            for d, global_id, p in sector[:k]:
                candidates.append((global_id, p))
        return candidates

    @staticmethod
    def _sector_of(offset: np.ndarray, n_sectors: int) -> int:
        angle = float(np.arctan2(offset[1], offset[0]))  # [-pi, pi]
        fraction = (angle + np.pi) / (2 * np.pi)
        return min(n_sectors - 1, int(fraction * n_sectors))

    # Verification -----------------------------------------------------------
    def _q_in_knn_of(self, stored, candidate, q, k, meter) -> bool:
        """Is q among the k nearest points to ``candidate``?

        Surgical check: count stored points strictly closer to the
        candidate than q is (the candidate itself excluded).
        """
        d_cq = float(np.linalg.norm(candidate - q))
        if d_cq == 0.0:
            return True
        keys = [
            key
            for key in self.index.cells_for_box(
                candidate - d_cq, candidate + d_cq
            )
            if self.index._cell_box_distance(key, candidate) <= d_cq
        ]
        rows = self.index.rows_for_cells(keys)
        data, _ = self._coordinator.fetch_rows(
            stored, rows, meter, charge_stack=False
        )
        points = data.matrix(self.columns)
        diff = points - candidate
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        closer = int((dist < d_cq).sum())
        # The candidate itself is among the fetched points at distance 0.
        closer -= 1
        return closer < k


class AllPairKNN:
    """All-pair (self-join) kNN: every stored row's k nearest other rows.

    The "all-pair kNN" of RT2.1 — a kNN join of the table with itself,
    with self-matches excluded.  Implemented on top of the surgical
    machinery: the grid index's cell cache makes each row's probe share
    reads with its neighbours, so the whole pass reads each cell once.
    """

    def __init__(self, store: DistributedStore, index: DistributedGridIndex) -> None:
        require(index.is_built, "grid index must be built first")
        self.store = store
        self.index = index
        self.columns = index.columns
        self._coordinator = CoordinatorEngine(store)

    def query(
        self, table_name: str, k: int
    ) -> Tuple[Dict[int, List[int]], CostReport]:
        """global_row -> sorted ids of its k nearest *other* rows."""
        require(k >= 1, "k must be >= 1")
        require(
            table_name == self.index.table_name,
            f"index covers {self.index.table_name!r}",
        )
        from repro.bigdataless.spatial import IndexedKNNJoin

        # Self-join with k+1 (each row finds itself first), then drop self.
        join = IndexedKNNJoin(self.store, self.index)
        raw, report = join.query(table_name, table_name, k + 1)
        stored = self.store.table(table_name)
        points = stored.full_table().matrix(self.columns)
        results: Dict[int, List[int]] = {}
        for row_id, neighbour_ids in raw.items():
            own = points[row_id]
            ranked = sorted(
                neighbour_ids,
                key=lambda j: float(np.linalg.norm(points[j] - own)),
            )
            trimmed = [j for j in ranked if j != row_id][:k]
            results[row_id] = sorted(trimmed)
        return results, report


class ApproximateKNN:
    """Single-round kNN with a certified search-radius bound."""

    def __init__(self, store: DistributedStore, index: DistributedGridIndex) -> None:
        require(index.is_built, "grid index must be built first")
        self.store = store
        self.index = index
        self.columns = index.columns
        self._coordinator = CoordinatorEngine(store)

    def query(
        self, table_name: str, point, k: int, inflation: float = 1.5
    ) -> Tuple[Table, float, CostReport]:
        """One-shot kNN: returns (rows, certified_radius, cost).

        The returned rows are the exact nearest neighbours *within*
        ``certified_radius`` of the query point; true neighbours beyond it
        (possible only when the single fetch under-covered) are traded for
        the saved widening rounds.
        """
        require(k >= 1, "k must be >= 1")
        require(
            table_name == self.index.table_name,
            f"index covers {self.index.table_name!r}",
        )
        q = np.asarray(point, dtype=float).ravel()
        meter = CostMeter()
        stored = self.store.table(table_name)
        radius = self.index.estimate_knn_radius(q, k, inflation=inflation)
        keys = [
            key
            for key in self.index.cells_for_box(q - radius, q + radius)
            if self.index._cell_box_distance(key, q) <= radius
        ]
        rows = self.index.rows_for_cells(keys)
        data, _ = self._coordinator.fetch_rows(stored, rows, meter)
        if data.n_rows == 0:
            return data.with_column("_dist", np.empty(0)), radius, meter.freeze()
        points = data.matrix(self.columns)
        diff = points - q
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        order = np.argsort(dist)[:k]
        result = data.take(order).with_column("_dist", dist[order])
        return result, radius, meter.freeze()
