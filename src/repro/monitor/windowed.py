"""Windowed online monitoring: bounded-cost certification under load.

:class:`~repro.monitor.online.ConsistencyMonitor` keeps the full
dependency graph forever, so its per-commit check grows linearly with
run length — fine for replaying a bench, unusable against a service
that commits millions of transactions.  :class:`WindowedMonitor` keeps
only the last ``window`` committed transactions as graph nodes and
garbage-collects everything older, which bounds both memory and the
per-commit cycle test by the window size.

Garbage collection is *sound within the window*: eviction only removes
nodes older than the window together with their incident edges, and
never touches an edge between two retained transactions.  Hence any
violating cycle whose transactions all lie within one window is still
detected, at the same commit as the full monitor would flag
(``tests/monitor/test_windowed.py`` proves this against the full
monitor on adversarial streams).  The price is cycles *spanning* more
than a window: a cycle involving a transaction evicted before the
cycle closes is missed, so the window must be chosen larger than the
anomaly horizon of interest (for the MVCC engines: the maximum number
of commits overlapping any transaction's lifetime).

Eviction is also local: evicting a transaction walks only its own
adjacency in the checker's edge store (and, for SI, the composed edges
it witnesses as a middle node), then its own entries in the per-object
reader and writer indexes.  One eviction costs O(degree), not
O(retained edges).

Version attribution survives eviction: the per-object value table
keeps the attribution of each object's *current* version even when its
writer has been evicted (a later reader of that version is then placed
after the eviction frontier — it gains anti-dependencies to all
retained overwriters, but no WR edge to the dead node).  A *superseded*
version's attribution is kept until the transaction that overwrote it
is itself evicted: what bounds a read's staleness is how long ago the
version was *overwritten*, not how long ago it was written (an
in-flight snapshot can legitimately return a version whose writer left
the window long ago, as long as the overwrite is recent).  Only once
the overwriter has also aged out of the window is the attribution
dropped; in strict mode a read of such a version is reported as
unattributable rather than silently misclassified.  Retained stale
attributions are bounded by the number of in-window overwrites, so
memory stays O(window + objects).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from ..core.events import Obj, Op, Value
from .online import ConsistencyMonitor, MonitorError, Violation


class WindowedMonitor(ConsistencyMonitor):
    """A :class:`ConsistencyMonitor` with transaction-window GC.

    Args:
        window: how many of the most recent committed transactions to
            retain as dependency-graph nodes (at least 2).
        model, initial_values, strict_values, init_tid, checker: as for
            :class:`ConsistencyMonitor`.  With the default
            ``checker="incremental"`` eviction is pure bookkeeping —
            removing nodes and edges never invalidates the maintained
            topological order, so no re-check or reorder happens.
    """

    def __init__(
        self,
        window: int,
        model: str = "SI",
        initial_values: Optional[Dict[Obj, Value]] = None,
        strict_values: bool = True,
        init_tid: str = "t_init",
        checker: str = "incremental",
    ):
        if window < 2:
            raise MonitorError(
                f"window must be at least 2 transactions, got {window}"
            )
        super().__init__(
            model=model,
            initial_values=initial_values,
            strict_values=strict_values,
            init_tid=init_tid,
            checker=checker,
        )
        self.window = window
        self.evicted_count = 0
        self._evicted: Set[str] = set()
        # Per retained commit: the (obj, value) attributions its writes
        # superseded — dropped from the value table when *it* is
        # evicted (see the module docstring on staleness horizons).
        self._superseded_by: Dict[str, List[tuple]] = {}

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def observe_commit(
        self, tid: str, session: str, events: Sequence[Op]
    ) -> Optional[Violation]:
        """Feed one committed transaction, then evict beyond the window."""
        if tid in self._evicted:
            raise MonitorError(
                f"transaction {tid!r} observed twice (first occurrence "
                f"already garbage-collected)"
            )
        previous = {
            op.obj: self._latest_value[op.obj]
            for op in events
            if op.is_write and op.obj in self._latest_value
        }
        violation = super().observe_commit(tid, session, events)
        superseded = [
            (obj, value)
            for obj, value in previous.items()
            if self._latest_value.get(obj) != value
        ]
        if superseded:
            self._superseded_by[tid] = superseded
        while len(self._commit_order) > self.window:
            self._evict(self._commit_order.popleft())
        self._prune_evicted_set()
        return violation

    # ------------------------------------------------------------------
    # Hook overrides (attribution across the eviction frontier)
    # ------------------------------------------------------------------

    def _in_graph(self, tid: str) -> bool:
        return super()._in_graph(tid) and tid not in self._evicted

    def _overwriters_of(self, obj: Obj, writer: str) -> List[str]:
        if writer in self._evicted:
            # The evicted writer preceded every retained writer of the
            # object (eviction follows commit order), so all of them
            # overwrote its version.  The seeded initialisation writer
            # is not an overwriter — it precedes everything.
            return [
                t
                for t in self._writers.get(obj, [])
                if t != self.init_tid
            ]
        return super()._overwriters_of(obj, writer)

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    def _evict(self, old: str) -> None:
        """Remove ``old`` and its incident edges, in O(its degree)."""
        record = self._records.pop(old)
        self._evicted.add(old)
        self.evicted_count += 1
        self._checker.remove_node(old)
        session_tids = self._sessions.get(record.session)
        if session_tids is not None:
            if old in session_tids:
                session_tids.remove(old)
            if not session_tids:
                del self._sessions[record.session]
        for obj in record.txn.external_read_objects:
            readers = self._readers.get(obj)
            if readers is not None:
                readers.pop(old, None)
                if not readers:
                    del self._readers[obj]
        for obj in record.txn.written_objects:
            seq = self._writers.get(obj)
            if seq and old in seq:
                seq.remove(old)
        # The versions ``old`` overwrote have now been stale for a full
        # window: no attributable read can still return them.  (The
        # versions ``old`` *wrote* stay attributed until their own
        # overwriters are evicted.)
        for obj, value in self._superseded_by.pop(old, ()):
            table = self._value_writer.get(obj, {})
            if value in table and self._latest_value.get(obj) != value:
                del table[value]
                self._attributions -= 1

    def _prune_evicted_set(self) -> None:
        """Forget evicted tids nothing references any more, keeping the
        tombstone set (and so total memory) bounded by the window."""
        if len(self._evicted) <= self.window + self._attributions:
            return
        referenced = {
            version
            for readers in self._readers.values()
            for version in readers.values()
        }
        for table in self._value_writer.values():
            # Every retained attribution (current or superseded-but-
            # still-readable) keeps its writer's tombstone: a later
            # read of that value must see the writer as evicted, not
            # as an unknown live node.
            referenced.update(table.values())
        self._evicted &= referenced

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def commit_count(self) -> int:
        """Number of commits observed (including evicted ones)."""
        return len(self._commit_order) + self.evicted_count

    @property
    def retained_count(self) -> int:
        """Number of transactions currently in the graph."""
        return len(self._commit_order)

    def state_size(self) -> Dict[str, int]:
        """Sizes of the GC-bounded structures (for tests and benches)."""
        return {
            **super().state_size(),
            "evicted_tombstones": len(self._evicted),
        }
