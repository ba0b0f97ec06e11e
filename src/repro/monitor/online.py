"""Online consistency monitoring (the §7 application of Theorem 9).

The paper notes that dependency-graph specifications are what run-time
monitors need: a monitor sees committed transactions (their reads and
writes) and must decide whether the accumulated behaviour is still
explainable by the claimed consistency model — *without* guessing
implementation internals like snapshot timestamps.

:class:`ConsistencyMonitor` does exactly that.  It observes commits in
commit order, incrementally maintains the dependency graph —

* **SO** and **WW** as covering pairs: one edge from the session's
  previous transaction, and one from the object's previous writer in
  the observed commit order (Definition 5 with CO = real commit order);
* **WR** by attributing each external read to the writer of the value
  (per object, which committed transaction wrote each value; ambiguous
  duplicates are rejected in strict mode);
* **RW** derived incrementally: when ``T`` overwrites a version, every
  earlier reader of that object (found through a per-object readers
  index) gains an anti-dependency to ``T``; when ``T`` reads a version
  that was already overwritten, ``T`` gains anti-dependencies to the
  overwriters —

and after every commit re-checks the model's graph condition
(Theorem 9 for SI, Theorem 8 for SER, Theorem 21 for PSI), reporting
the offending cycle on a violation.  SO and each object's WW are total
orders, so the stored ``D′`` lies in the paper's ``D = SO ∪ WR ∪ WW``
and has the same transitive closure: every cycle of ``D ; RW?`` (or
``D ∪ RW``, ``D⁺ ; RW?``) maps to one over ``D′`` and back.  The
verdicts are the paper's, but a witness may run through the
intermediate transactions of a session or of an object's write order.
RW is not reduced (:mod:`repro.monitor.windowed` says why).

The edges live in one labelled store owned by the certification
back-end (:class:`~repro.monitor.incremental.EdgeStore`), chosen by the
``checker`` knob:

* ``"incremental"`` (the default) certifies each commit's edge deltas
  under a dynamic topological order (:mod:`repro.monitor.incremental`).
  A cycle-closing edge is reported and dropped from certification (the
  store still lists it), so each violation is flagged once, at the
  commit that closes it.
* ``"rebuild"`` re-derives the whole condition on each commit —
  ``O(V+E)`` for SI/SER, a transitive closure for PSI — and is the
  differential-testing oracle (``tests/monitor/test_parity.py``); once
  a cycle exists it is re-flagged at every subsequent commit.

For sustained production load use
:class:`~repro.monitor.windowed.WindowedMonitor`, which garbage-collects
transactions outside a sliding commit window so memory stays bounded
too (at the price of missing cycles that span more than a window).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from ..core.errors import ReproError
from ..core.events import Obj, Op, OpKind, Value
from ..mvcc.engine import BaseEngine
from .incremental import SO, WR, WW, Edge, LabelledEdge, make_checker


_WRITE = OpKind.WRITE


class MonitorError(ReproError):
    """Misuse of the monitor (duplicate tids, unattributable reads, ...)."""


@dataclass(frozen=True)
class Violation:
    """A detected consistency violation.

    Attributes:
        model: the model whose condition failed.
        tid: the transaction whose commit triggered the detection.
        cycle: a witness cycle, as a list of tids (first == last).
        message: human-readable explanation.
    """

    model: str
    tid: str
    cycle: List[str]
    message: str

    def __str__(self) -> str:
        return self.message


@dataclass
class _TxnRecord:
    """What eviction needs of a retained commit."""

    session: str
    read_objects: Tuple[Obj, ...]
    written_objects: Tuple[Obj, ...]


def summarise(
    events: Sequence[Op],
) -> Tuple[Dict[Obj, Value], Dict[Obj, Value]]:
    """A transaction's §2 judgements, in one pass over its events.

    Returns ``(reads, writes)``: ``reads[x] = n`` iff ``T ⊢ read(x, n)``
    (the first access to ``x`` is a read of ``n``) and ``writes[x] = n``
    iff ``T ⊢ write(x, n)`` (the last write to ``x`` writes ``n``).
    """
    reads: Dict[Obj, Value] = {}
    writes: Dict[Obj, Value] = {}
    for op in events:
        if op.kind is _WRITE:
            writes[op.obj] = op.value
        elif op.obj not in writes and op.obj not in reads:
            reads[op.obj] = op.value
    return reads, writes


class ConsistencyMonitor:
    """Online checker for SI / SER / PSI over an observed commit stream.

    Args:
        model: ``"SI"`` (default), ``"SER"`` or ``"PSI"``.
        initial_values: object → initial value; an implicit initialisation
            transaction owns these versions.
        strict_values: reject runs in which a read value cannot be
            attributed to a unique writer (the default); with ``False``
            the most recent writer of the value wins.
        init_tid: the tid used for the implicit initialisation writer.
        checker: ``"incremental"`` (default — dynamic-topological-order
            certification, amortised per-commit cost) or ``"rebuild"``
            (full per-commit recheck, the differential-testing oracle).
    """

    MODELS = ("SI", "SER", "PSI")
    CHECKERS = ("incremental", "rebuild")

    def __init__(
        self,
        model: str = "SI",
        initial_values: Optional[Dict[Obj, Value]] = None,
        strict_values: bool = True,
        init_tid: str = "t_init",
        checker: str = "incremental",
    ):
        if model not in self.MODELS:
            raise MonitorError(
                f"unknown model {model!r}; expected one of {self.MODELS}"
            )
        if checker not in self.CHECKERS:
            raise MonitorError(
                f"unknown checker {checker!r}; expected one of "
                f"{self.CHECKERS}"
            )
        self.model = model
        self.checker = checker
        self.strict_values = strict_values
        self.init_tid = init_tid
        self._records: Dict[str, _TxnRecord] = {}
        self._commit_order: Deque[str] = deque()
        # Per session: its last retained transaction.
        self._sessions: Dict[str, str] = {}
        # Per object: the committed writer sequence and value attribution.
        self._writers: Dict[Obj, List[str]] = {}
        self._value_writer: Dict[Obj, Dict[Value, str]] = {}
        self._attributions = 0  # entries across the value tables
        self._collided: Dict[Obj, Set[Value]] = {}
        # Per object: reader tid → the version (writer tid) it read.
        self._readers: Dict[Obj, Dict[str, str]] = {}
        # Per object: the value of the newest committed version.
        self._latest_value: Dict[Obj, Value] = {}
        # The dependency graph over tids lives in the checker's store.
        self._checker = make_checker(model, checker)
        self.violations: List[Violation] = []
        for obj, value in (initial_values or {}).items():
            self._writers[obj] = [init_tid]
            self._value_writer[obj] = {value: init_tid}
            self._latest_value[obj] = value
            self._attributions += 1

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def observe_commit(
        self, tid: str, session: str, events: Sequence[Op]
    ) -> Optional[Violation]:
        """Feed one committed transaction (in real commit order).

        Returns a :class:`Violation` if the accumulated behaviour is no
        longer allowed by the model, else ``None``.  Monitoring continues
        after a violation (further commits are still processed).
        """
        if tid in self._records:
            raise MonitorError(f"transaction {tid!r} observed twice")
        if not events:
            raise ValueError(f"transaction {tid!r} must be non-empty")
        reads, writes = summarise(events)
        record = _TxnRecord(
            session, tuple(sorted(reads)), tuple(sorted(writes))
        )
        self._records[tid] = record
        self._commit_order.append(tid)
        self._checker.add_node(tid)
        # This commit's edges; the checker's store drops duplicates.
        deps: List[LabelledEdge] = []
        rws: List[Edge] = []

        # SO: one edge from the session's previous retained transaction
        # (the covering pair; the chain of them closes to the full SO).
        prev = self._sessions.get(session)
        if prev is not None:
            deps.append((prev, tid, SO))
        self._sessions[session] = tid

        # WR and RW-out: attribute external reads to writers.
        for obj in record.read_objects:
            writer = self._attribute_read(tid, obj, reads[obj])
            self._readers.setdefault(obj, {})[tid] = writer
            if writer != tid and self._in_graph(writer):
                deps.append((writer, tid, WR))
            # RW out of this reader towards every later overwriter of
            # that version (writers after `writer` in the object's order).
            rws.extend(
                (tid, later)
                for later in self._overwriters_of(obj, writer)
                if later != tid
            )

        # WW and RW-in for writes: this transaction overwrites the
        # current last version of each object it writes.  WW is one edge
        # from that version's writer (the covering pair of the object's
        # write order), when the writer is a node of the graph.
        for obj in record.written_objects:
            seq = self._writers.setdefault(obj, [])
            if seq and self._in_graph(seq[-1]):
                deps.append((seq[-1], tid, WW))
            # Earlier readers of obj gain RW edges to tid (the readers
            # index makes this O(readers-of-obj), not O(total reads)).
            rws.extend(
                (reader, tid)
                for reader in self._readers.get(obj, ())
                if reader != tid
            )
            seq.append(tid)
            value = writes[obj]
            table = self._value_writer.setdefault(obj, {})
            if value not in table:
                self._attributions += 1
            elif table[value] != tid:
                self._collided.setdefault(obj, set()).add(value)
            table[value] = tid
            if obj in self._latest_value:
                previous = self._latest_value[obj]
                if previous != value:
                    self._superseded(tid, obj, previous)
            self._latest_value[obj] = value

        cycle = self._checker.observe(deps, rws)
        if cycle is None:
            return None
        violation = Violation(
            model=self.model,
            tid=tid,
            cycle=list(cycle),
            message=(
                f"{self.model} violated at commit of {tid}: "
                f"dependency cycle {' -> '.join(map(str, cycle))}"
            ),
        )
        self.violations.append(violation)
        return violation

    def _superseded(self, tid: str, obj: Obj, value: Value) -> None:
        """Hook: ``tid``'s write replaced ``value`` as the newest
        version of ``obj``."""

    def _known(self, tid: str) -> bool:
        return tid in self._records

    def _in_graph(self, tid: str) -> bool:
        """Whether ``tid`` is a node of the maintained graph — edges to
        or from other transactions are dropped (the implicit
        initialisation writer is not a node; a windowing subclass also
        excludes garbage-collected transactions)."""
        return tid != self.init_tid or self._known(tid)

    def _overwriters_of(self, obj: Obj, writer: str) -> List[str]:
        """The retained transactions that overwrote ``writer``'s version
        of ``obj`` (everything after it in the object's writer order)."""
        seq = self._writers.get(obj, [])
        if writer in seq:
            return seq[seq.index(writer) + 1 :]
        return []

    def _attribute_read(self, tid: str, obj: Obj, value: Value) -> str:
        table = self._value_writer.get(obj, {})
        if self.strict_values and value in self._collided.get(obj, set()):
            raise MonitorError(
                f"{tid}: read of {obj}={value!r} is ambiguous — several "
                f"transactions wrote that value (disable strict_values to "
                f"attribute to the most recent one)"
            )
        if value in table:
            return table[value]
        if self.strict_values:
            raise MonitorError(self._unattributable(tid, obj, value))
        return self.init_tid

    def _unattributable(self, tid: str, obj: Obj, value: Value) -> str:
        """The strict-mode message for a read no write accounts for."""
        return f"{tid}: read of {obj}={value!r} matches no committed write"

    # ------------------------------------------------------------------
    # Post-mortem views
    # ------------------------------------------------------------------

    @property
    def consistent(self) -> bool:
        """True iff no violation has been detected so far."""
        return not self.violations

    @property
    def commit_count(self) -> int:
        """Number of commits observed."""
        return len(self._commit_order)

    def dependency_edges(self) -> Dict[str, Set[Edge]]:
        """The accumulated dependency edges (over tids), for inspection.

        SO and WW hold covering pairs only, so the listed ``SO ∪ WR ∪
        WW`` is ``D′``, whose transitive closure is the paper's ``D``.
        A cycle-closing edge the incremental checker dropped from
        certification is still listed.
        """
        return self._checker.edges.by_kind()

    def state_size(self) -> Dict[str, int]:
        """Sizes of the retained structures (for tests and benches)."""
        return {
            "records": len(self._records),
            "edges": len(self._checker.edges),
            "read_versions": sum(
                len(readers) for readers in self._readers.values()
            ),
            "value_attributions": self._attributions,
        }


def watch_engine(
    engine: BaseEngine,
    model: str = "SI",
    strict_values: bool = True,
    checker: str = "incremental",
) -> Tuple[ConsistencyMonitor, List[Violation]]:
    """Replay an engine's committed records through a fresh monitor.

    Returns the monitor and the list of violations found.  The engine's
    initial values provide the implicit initialisation versions.
    """
    monitor = ConsistencyMonitor(
        model=model,
        initial_values=dict(engine.initial),
        strict_values=strict_values,
        init_tid=engine.init_tid,
        checker=checker,
    )
    violations: List[Violation] = []
    for record in sorted(engine.committed, key=lambda r: r.commit_ts):
        violation = monitor.observe_commit(
            record.tid, record.session, list(record.events)
        )
        if violation is not None:
            violations.append(violation)
    return monitor, violations

