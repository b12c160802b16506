"""Zone-map scan planning: which partitions a query must actually read.

Before an engine fans a job out over a stored table, the query's
cached ``Selection.box()`` is intersected with every partition's
:class:`~repro.cluster.synopsis.PartitionSynopsis`:

* **skip** — the box is provably disjoint from the partition's zone map
  (exact float comparisons): the partition is never read, never charged,
  and its node is never engaged.
* **synopsis** — the partition is *fully covered* by a box-exact
  selection (``RangeSelection``) and the aggregate is decomposable from
  the stored statistics: the partial is emitted straight from the
  synopsis (a metadata read, zero scan bytes) and is bitwise identical
  to what a full scan of the partition would have produced.
* **scan** — everything else: the partition is read exactly as the
  unpruned path would.

The resulting :class:`ScanPlan` is what
:meth:`~repro.engine.mapreduce.MapReduceEngine.run` consumes; answers
are bit-identical to the unpruned execution in every case (DESIGN §7
spells out the invariants).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.synopsis import PartitionSynopsis
from repro.queries.aggregates import (
    Aggregate,
    Count,
    Max,
    Mean,
    Min,
    Std,
    Sum,
    Variance,
)
from repro.queries.selections import Selection

SCAN = "scan"
SKIP = "skip"
SYNOPSIS = "synopsis"


@dataclass
class ScanPlan:
    """Per-partition actions for one job over one stored table."""

    actions: List[str]
    # partition index -> precomputed map-output pairs (synopsis partitions)
    pairs: Dict[int, List[Tuple[Any, Any]]] = field(default_factory=dict)
    # partition index -> synopsis footprint charged for the metadata read
    synopsis_bytes: Dict[int, int] = field(default_factory=dict)

    @property
    def n_scanned(self) -> int:
        return sum(1 for a in self.actions if a == SCAN)

    @property
    def n_skipped(self) -> int:
        return sum(1 for a in self.actions if a == SKIP)

    @property
    def n_covered(self) -> int:
        return sum(1 for a in self.actions if a == SYNOPSIS)

    @property
    def prunes_nothing(self) -> bool:
        return all(a == SCAN for a in self.actions)

    def action(self, index: int) -> str:
        return self.actions[index]

    @staticmethod
    def scan_everything(n_partitions: int) -> "ScanPlan":
        return ScanPlan(actions=[SCAN] * n_partitions)


def synopsis_partial(aggregate: Aggregate, synopsis: PartitionSynopsis):
    """(supported, partial) of ``aggregate`` over a fully selected partition.

    Each branch reproduces the aggregate's ``partial_from_mask`` with an
    all-true mask *bitwise*, because the synopsis stored the identical
    numpy reductions at build time.  Unsupported aggregates (holistic or
    cross-column) return ``(False, None)`` and fall back to a scan.
    """
    kind = type(aggregate)
    if kind is Count:
        return True, float(synopsis.n_rows)
    column = getattr(aggregate, "column", None)
    if column is None or column not in synopsis.columns:
        return False, None
    stats = synopsis.columns[column]
    if kind is Sum:
        return True, stats.total
    if kind is Mean:
        return True, (stats.total, synopsis.n_rows)
    # A scan's min/max propagates NaN, which the zone map leaves out.
    if kind is Min and not stats.has_nan:
        return True, stats.minimum
    if kind is Max and not stats.has_nan:
        return True, stats.maximum
    if kind is Std or kind is Variance:
        return True, (stats.ftotal, stats.fsumsq, synopsis.n_rows)
    return False, None


def plan_scan(
    synopses: Sequence[PartitionSynopsis],
    selection: Selection,
    aggregate: Optional[Aggregate] = None,
    emit_key: Any = 0,
) -> ScanPlan:
    """Classify every partition of a table for one (selection, aggregate).

    ``emit_key`` is the map-output key synopsis partials are emitted
    under (the exact engine's single-reducer convention uses ``0``).
    With ``aggregate=None`` only skip-vs-scan pruning applies — the mode
    used when the caller needs the matching *rows*, not a partial.
    """
    lows, highs = selection.box()
    columns = selection.columns
    covering = aggregate is not None and selection.box_is_exact
    actions: List[str] = []
    pairs: Dict[int, List[Tuple[Any, Any]]] = {}
    synopsis_bytes: Dict[int, int] = {}
    for index, synopsis in enumerate(synopses):
        if synopsis.disjoint(columns, lows, highs):
            actions.append(SKIP)
            continue
        if covering and synopsis.covered_by(columns, lows, highs):
            supported, partial = synopsis_partial(aggregate, synopsis)
            if supported:
                actions.append(SYNOPSIS)
                pairs[index] = [(emit_key, partial)]
                synopsis_bytes[index] = synopsis.n_bytes
                continue
        actions.append(SCAN)
    return ScanPlan(actions=actions, pairs=pairs, synopsis_bytes=synopsis_bytes)


def prune_row_plan(
    synopses: Sequence[PartitionSynopsis],
    rows_by_partition: Dict[int, Sequence[int]],
    selection: Selection,
    dirty: Optional[AbstractSet[int]] = None,
) -> Tuple[Dict[int, Sequence[int]], int]:
    """Drop row-fetch requests against partitions disjoint from the box.

    Returns ``(kept_plan, n_pruned_partitions)``.  Safe only for callers
    that filter the fetched rows by ``selection`` afterwards — the
    dropped rows provably cannot satisfy it.  ``dirty`` partitions
    (staged delta writes the base synopsis does not describe) are never
    pruned.
    """
    lows, highs = selection.box()
    columns = selection.columns
    kept: Dict[int, Sequence[int]] = {}
    pruned = 0
    for index, rows in rows_by_partition.items():
        synopsis = synopses[index] if 0 <= index < len(synopses) else None
        if (
            synopsis is not None
            and (dirty is None or index not in dirty)
            and synopsis.disjoint(columns, lows, highs)
        ):
            pruned += 1
            continue
        kept[index] = rows
    return kept, pruned
