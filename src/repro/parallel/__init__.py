"""Multicore parallel scan execution (morsel queue + deterministic merge).

See :mod:`repro.parallel.executor` for the thread-safety contract and
the byte-identity invariants (DESIGN §9).
"""

from repro.parallel.executor import Morsel, ScanExecutor, partition_morsels

__all__ = ["Morsel", "ScanExecutor", "partition_morsels"]
