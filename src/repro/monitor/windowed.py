"""Windowed online monitoring: bounded-cost certification under load.

:class:`~repro.monitor.online.ConsistencyMonitor` keeps the full
dependency graph forever, so its per-commit check grows with run
length — unusable against a service that commits millions of
transactions.  :class:`WindowedMonitor` keeps only the last ``window``
committed transactions as graph nodes and garbage-collects everything
older, which bounds memory and the per-commit check by the window.

Garbage collection is *sound within the window*: eviction removes only
nodes older than the window with their incident edges, so a violating
cycle whose transactions all lie within one window is still detected,
at the same commit as the full monitor would flag
(``tests/monitor/test_windowed.py``).  A cycle involving a transaction
evicted before the cycle closes is missed, so the window must exceed
the anomaly horizon of interest (for the MVCC engines: the most
commits overlapping any transaction's lifetime).

Storing SO and WW as covering pairs (:mod:`repro.monitor.online`) stays
sound: eviction follows commit order, so the intermediates of a chain
between two retained transactions, which committed between them, are
retained too, and every retained pair of the paper's ``SO ∪ WR ∪ WW``
stays joined by stored edges.  A session's last retained transaction is
forgotten when it is evicted, so no edge leaves an evicted node.  RW is
not reduced: a stale reader's edges to overwriters ``w1 < w2`` cannot
be replaced by ``reader -> w1`` and the WW chain, because ``w1`` may
precede the reader and be evicted first, taking that path with it.

Eviction is also local: it walks only the evicted transaction's own
adjacency in the checker's edge store (for SI, also the composed edges
it witnesses as a middle node) and its own reader and writer index
entries — O(degree), not O(retained edges).

Version attribution survives eviction: the value table keeps each
object's *current* version attributed even when its writer has been
evicted (a later reader of it gains anti-dependencies to all retained
overwriters, but no WR edge to the dead node).  A *superseded*
version's attribution is kept until its overwriter is itself evicted:
a read's staleness is bounded by how long ago the version was
*overwritten*, not written (an in-flight snapshot can return a version
whose writer left the window long ago).  After that, strict mode
reports a read of the version as unattributable rather than
misclassifying it.  Retained stale attributions are bounded by the
in-window overwrites, so memory stays O(window + objects).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

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
        self._superseded_by: Dict[str, List[Tuple[Obj, Value]]] = {}

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
        violation = super().observe_commit(tid, session, events)
        while len(self._commit_order) > self.window:
            self._evict(self._commit_order.popleft())
        self._prune_evicted_set()
        return violation

    # ------------------------------------------------------------------
    # Hook overrides (attribution across the eviction frontier)
    # ------------------------------------------------------------------

    def _superseded(self, tid: str, obj: Obj, value: Value) -> None:
        self._superseded_by.setdefault(tid, []).append((obj, value))

    def _unattributable(self, tid: str, obj: Obj, value: Value) -> str:
        return (
            f"{tid}: read of {obj}={value!r} matches no write attributed "
            f"within the window of {self.window} commits; the write may "
            f"have committed, since a superseded version's attribution is "
            f"dropped once its overwriter leaves the window (use a wider "
            f"window)"
        )

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
        if self._sessions.get(record.session) == old:
            del self._sessions[record.session]
        for obj in record.read_objects:
            readers = self._readers.get(obj)
            if readers is not None:
                readers.pop(old, None)
                if not readers:
                    del self._readers[obj]
        for obj in record.written_objects:
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
