"""Incremental certification: amortised per-commit cycle checking.

:class:`~repro.monitor.online.ConsistencyMonitor` originally re-derived
the model's graph condition from scratch after every commit — a full
acyclicity test over the composed relation for SI/SER and a transitive
closure for PSI, i.e. ``O(V+E)`` (resp. ``O(V·E)``) *per commit*.  This
module replaces that with an **incremental certification core**: the
monitor's composed relation is maintained as a DAG with a dynamic
topological order (Pearce & Kelly, *A dynamic topological sort algorithm
for directed acyclic graphs*, JEA 2006), updated edge-by-edge as
``observe_commit`` discovers new SO/WR/WW/RW edges.  Inserting an edge
that respects the current order is O(1); an order-violating insertion
only reorders the *affected region* between the edge's endpoints; and an
insertion that would close a cycle is detected during that same bounded
discovery, yielding the violation witness for free.  In the common
no-violation case certification is near-amortised-constant per commit.

Every checker owns one :class:`EdgeStore`, the labelled adjacency of the
observed dependency graph: each node maps to its in- and out-neighbours,
and each edge carries its kinds.  :meth:`Checker.observe` records every
edge there before certifying it.  The store is what the monitor's
``dependency_edges()`` and ``state_size()`` read, and where the SI and
PSI checkers look up the edges they compose with.

Three incremental checkers share the core, one per model condition:

* **SER** (Theorem 8): ``SO ∪ WR ∪ WW ∪ RW`` acyclic — every dependency
  and anti-dependency edge goes straight into one dynamic DAG.
* **SI** (Theorem 9): ``(SO ∪ WR ∪ WW) ; RW?`` acyclic — the *composed*
  relation is maintained incrementally.  Each new dep edge ``(u, v)``
  contributes the composed edges ``(u, v)`` (via the reflexive part of
  ``RW?``) plus ``(u, w)`` for every RW-successor ``w`` of ``v``; each
  new RW edge ``(v, w)`` contributes ``(u, w)`` for every dep-predecessor
  ``u`` of ``v``.  The store's per-node adjacency makes these deltas
  enumerable in output-sensitive time, and composed edges carry
  multiplicities (a pair may have several middle-node witnesses) so
  windowed eviction can decrement exactly.
* **PSI** (Theorem 21): ``(SO ∪ WR ∪ WW)+ ; RW?`` irreflexive — i.e. the
  dep relation is acyclic *and* no RW edge ``(c, a)`` has a dep path
  ``a ⇒ c``.  The dep DAG's topological order prunes the reachability
  queries: a new RW edge asks one order-bounded DFS; a new dep edge
  ``(u, v)`` collects the RW edges leaving dep-descendants of ``v`` and,
  only if there are any, searches the dep-ancestors of ``u`` for their
  targets.  No transitive closure is ever materialised.

:class:`RebuildChecker` is the differential-testing oracle: it records
edges in the same store and re-derives the model's whole condition from
it on every commit.

Every checker supports :meth:`~Checker.remove_node`, used by
:class:`~repro.monitor.windowed.WindowedMonitor`'s garbage collection.
It touches only the removed node's own adjacency — its store and DAG
edges, plus (for SI) the composed edges it witnesses as a middle node —
so one eviction costs O(degree).  Deleting nodes/edges from a DAG never
invalidates its topological order, so no re-check or reorder happens.

On a violation the cycle-closing edge is *not* inserted into the DAG
(the core must stay acyclic to keep certifying); the store keeps it,
marked dropped, so it is still listed but feeds no later composition.
The monitor reports the witness cycle and subsequent commits are checked
against the remaining — still acyclic — graph.  The full-rebuild
checker, by contrast, keeps the cyclic graph and re-flags it at every
later commit; differential tests therefore compare the two up to the
first violation (``tests/monitor/test_parity.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.relations import Relation

Edge = Tuple[str, str]
LabelledEdge = Tuple[str, str, int]

#: Edge kinds, as bits of an :class:`EdgeStore` label.
SO, WR, WW, RW = 1, 2, 4, 8
DEP = SO | WR | WW
KINDS = {"SO": SO, "WR": WR, "WW": WW, "RW": RW}


class EdgeStore:
    """The one labelled adjacency store of the observed dependency graph.

    ``succ[a][b]`` and ``pred[b][a]`` hold the same label for the edge
    ``a -> b``.  Its low four bits are the kinds the edge was observed
    as; the next four mark kinds the checker dropped because the edge
    closed a cycle.  A dropped edge is still listed by :meth:`by_kind`,
    but :meth:`preds` and :meth:`succs` no longer return it.
    """

    def __init__(self) -> None:
        self.succ: Dict[str, Dict[str, int]] = {}
        self.pred: Dict[str, Dict[str, int]] = {}

    def __len__(self) -> int:
        """The number of (pair, kind) entries."""
        return sum(
            (label & 15).bit_count()
            for targets in self.succ.values()
            for label in targets.values()
        )

    def add_node(self, node: str) -> None:
        self.succ.setdefault(node, {})
        self.pred.setdefault(node, {})

    def remove_node(self, node: str) -> None:
        """Delete ``node`` and its incident edges, in O(its degree)."""
        for b in self.succ.pop(node, ()):
            del self.pred[b][node]
        for a in self.pred.pop(node, ()):
            del self.succ[a][node]

    def add(self, a: str, b: str, kind: int) -> int:
        """Label ``a -> b`` with ``kind``; return its previous label."""
        label = self.succ[a].get(b, 0)
        self.succ[a][b] = self.pred[b][a] = label | kind
        return label

    def drop(self, a: str, b: str, kinds: int) -> None:
        """Mark the ``kinds`` of ``a -> b`` as dropped by certification."""
        self.succ[a][b] = self.pred[b][a] = self.succ[a][b] | kinds << 4

    def preds(self, node: str, kinds: int) -> List[str]:
        """Sources of the live edges of ``kinds`` into ``node``."""
        return [
            a for a, m in self.pred[node].items() if m & ~(m >> 4) & kinds
        ]

    def succs(self, node: str, kinds: int) -> List[str]:
        """Targets of the live edges of ``kinds`` out of ``node``."""
        return [
            b for b, m in self.succ[node].items() if m & ~(m >> 4) & kinds
        ]

    def by_kind(self) -> Dict[str, Set[Edge]]:
        """Every edge, dropped ones included, grouped by kind name."""
        edges: Dict[str, Set[Edge]] = {name: set() for name in KINDS}
        for a, targets in self.succ.items():
            for b, label in targets.items():
                for name, kind in KINDS.items():
                    if label & kind:
                        edges[name].add((a, b))
        return edges


def _unwind(parent: Dict[str, Optional[str]], node: str) -> List[str]:
    """The parent chain ``[node, parent[node], ..., root]``."""
    chain = [node]
    while parent[node] is not None:
        node = parent[node]
        chain.append(node)
    return chain


def _search(
    start: str, adjacency: Dict[str, Iterable[str]]
) -> Dict[str, Optional[str]]:
    """DFS from ``start``: every reached node → its DFS parent."""
    parent: Dict[str, Optional[str]] = {start: None}
    stack = [start]
    while stack:
        node = stack.pop()
        for nxt in adjacency.get(node, ()):
            if nxt not in parent:
                parent[nxt] = node
                stack.append(nxt)
    return parent


class DynamicTopoOrder:
    """A DAG maintained under edge insertion with a dynamic topological
    order (the Pearce–Kelly PK algorithm).

    Edges carry multiplicities: inserting an existing edge just bumps a
    counter (no search), removing decrements, and the structural edge
    disappears when the count hits zero.  Node and edge removal never
    reorder — a topological order of a graph is a topological order of
    every subgraph.
    """

    def __init__(self) -> None:
        self._ord: Dict[str, int] = {}
        self._next_index = 0
        self._succ: Dict[str, Dict[str, int]] = {}
        self._pred: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------

    def __contains__(self, node: str) -> bool:
        return node in self._ord

    def __len__(self) -> int:
        return len(self._ord)

    def add_node(self, node: str) -> None:
        """Register ``node`` (appended at the end of the order)."""
        if node in self._ord:
            return
        self._ord[node] = self._next_index
        self._next_index += 1
        self._succ[node] = {}
        self._pred[node] = {}

    def remove_node(self, node: str) -> None:
        """Delete ``node`` and every incident edge (order stays valid)."""
        if node not in self._ord:
            return
        for other in self._succ.pop(node):
            del self._pred[other][node]
        for other in self._pred.pop(node):
            del self._succ[other][node]
        del self._ord[node]

    def order_index(self, node: str) -> int:
        """The node's current position in the maintained order."""
        return self._ord[node]

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------

    def edge_count(self, a: str, b: str) -> int:
        """The multiplicity of edge ``a -> b`` (0 when absent)."""
        return self._succ.get(a, {}).get(b, 0)

    def edges(self) -> Iterable[Edge]:
        """Every structural edge (ignoring multiplicity)."""
        for a, targets in self._succ.items():
            for b in targets:
                yield (a, b)

    def add_edge(self, a: str, b: str) -> Optional[List[str]]:
        """Insert ``a -> b``; both nodes must be registered.

        Returns ``None`` on success.  If the edge would close a cycle it
        is **not** inserted and the witness cycle ``[a, b, ..., a]`` is
        returned instead.
        """
        if a == b:
            return [a, a]
        succ_a = self._succ[a]
        if b in succ_a:  # structural edge exists: no search needed
            succ_a[b] += 1
            self._pred[b][a] += 1
            return None
        lower, upper = self._ord[b], self._ord[a]
        if lower < upper:
            # The new edge contradicts the current order: discover the
            # affected region (PK), detecting a b =>* a path on the way.
            forward, cycle_tail = self._discover_forward(b, upper)
            if cycle_tail is not None:
                return [a] + cycle_tail
            backward = self._discover_backward(a, lower)
            self._reorder(backward, forward)
        succ_a[b] = 1
        self._pred[b][a] = 1
        return None

    def remove_edge(self, a: str, b: str) -> None:
        """Decrement ``a -> b``; drops the structural edge at zero."""
        succ_a = self._succ[a]
        count = succ_a[b] - 1
        if count:
            succ_a[b] = count
            self._pred[b][a] = count
        else:
            del succ_a[b]
            del self._pred[b][a]

    # ------------------------------------------------------------------
    # PK discovery and reordering
    # ------------------------------------------------------------------

    def _discover_forward(
        self, start: str, upper: int
    ) -> Tuple[List[str], Optional[List[str]]]:
        """DFS from ``start`` over nodes ordered strictly below ``upper``.

        Returns ``(visited, cycle_tail)`` where ``cycle_tail`` is the
        path ``[start, ..., x]`` to the node ``x`` at position ``upper``
        if it is reachable (the cycle case), else ``None``.
        """
        ord_ = self._ord
        parent: Dict[str, Optional[str]] = {start: None}
        visited: List[str] = []
        stack = [start]
        while stack:
            node = stack.pop()
            visited.append(node)
            for nxt in self._succ[node]:
                position = ord_[nxt]
                if position == upper:
                    # Reached the edge's source: closing this edge would
                    # create a cycle.  Reconstruct start -> ... -> nxt.
                    return visited, _unwind(parent, node)[::-1] + [nxt]
                if position < upper and nxt not in parent:
                    parent[nxt] = node
                    stack.append(nxt)
        return visited, None

    def _discover_backward(self, start: str, lower: int) -> List[str]:
        """DFS over predecessors of ``start`` ordered above ``lower``."""
        ord_ = self._ord
        seen: Set[str] = {start}
        visited: List[str] = []
        stack = [start]
        while stack:
            node = stack.pop()
            visited.append(node)
            for nxt in self._pred[node]:
                if ord_[nxt] > lower and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return visited

    def _reorder(self, backward: List[str], forward: List[str]) -> None:
        """Reassign the affected region's indices: everything that must
        precede the edge's source, then everything reachable from its
        target, each group keeping its internal relative order."""
        ord_ = self._ord
        backward.sort(key=ord_.__getitem__)
        forward.sort(key=ord_.__getitem__)
        pool = sorted(ord_[node] for node in backward + forward)
        for node, index in zip(backward + forward, pool):
            ord_[node] = index

    # ------------------------------------------------------------------
    # Reachability (order-pruned)
    # ------------------------------------------------------------------

    def find_path(self, a: str, b: str) -> Optional[List[str]]:
        """A path ``[a, ..., b]`` if one exists, else ``None``.

        The search only expands nodes ordered at or below ``b`` — on a
        maintained topological order no path can leave that region.
        """
        if a not in self._ord or b not in self._ord:
            return None
        if a == b:
            return [a]
        bound = self._ord[b]
        if self._ord[a] > bound:
            return None
        parent: Dict[str, Optional[str]] = {a: None}
        stack = [a]
        while stack:
            node = stack.pop()
            for nxt in self._succ[node]:
                if nxt == b:
                    return _unwind(parent, node)[::-1] + [b]
                if self._ord[nxt] < bound and nxt not in parent:
                    parent[nxt] = node
                    stack.append(nxt)
        return None


class Checker:
    """Base class: one model's graph condition over an :class:`EdgeStore`.

    The monitor feeds each commit's new dependency (``SO ∪ WR ∪ WW``,
    labelled with their kind) and anti-dependency (``RW``) edges through
    :meth:`observe`; the checker records them in :attr:`edges` and
    returns the first witness cycle they close, or ``None``.
    """

    def __init__(self) -> None:
        self.edges = EdgeStore()

    def add_node(self, tid: str) -> None:
        self.edges.add_node(tid)

    def remove_node(self, tid: str) -> None:
        self.edges.remove_node(tid)

    def observe(
        self, dep_edges: Iterable[LabelledEdge], rw_edges: Iterable[Edge]
    ) -> Optional[List[str]]:
        """Record one commit's edges; return the first cycle."""
        raise NotImplementedError


class IncrementalChecker(Checker):
    """One model's condition, maintained edge-by-edge in a dynamic DAG.

    Each edge is certified when the store first sees its class (dep or
    RW).  A cycle-closing edge stays in the store but is marked dropped
    (with all of its already applied composed deltas rolled back) so the
    DAG stays acyclic and certification continues.
    """

    def __init__(self) -> None:
        super().__init__()
        self._dag = DynamicTopoOrder()

    def add_node(self, tid: str) -> None:
        super().add_node(tid)
        self._dag.add_node(tid)

    def remove_node(self, tid: str) -> None:
        self._dag.remove_node(tid)
        super().remove_node(tid)

    def observe(
        self, dep_edges: Iterable[LabelledEdge], rw_edges: Iterable[Edge]
    ) -> Optional[List[str]]:
        witness: Optional[List[str]] = None
        edges = self.edges
        for a, b, kind in dep_edges:
            if edges.add(a, b, kind) & DEP:
                continue
            cycle = self._insert_dep(a, b)
            if cycle is not None:
                edges.drop(a, b, DEP)
                witness = witness or cycle
        for a, b in rw_edges:
            if edges.add(a, b, RW) & RW:
                continue
            cycle = self._insert_rw(a, b)
            if cycle is not None:
                edges.drop(a, b, RW)
                witness = witness or cycle
        return witness

    def _insert_dep(self, a: str, b: str) -> Optional[List[str]]:
        raise NotImplementedError

    def _insert_rw(self, a: str, b: str) -> Optional[List[str]]:
        raise NotImplementedError


class SerIncrementalChecker(IncrementalChecker):
    """SER (Theorem 8): ``SO ∪ WR ∪ WW ∪ RW`` acyclic — one dynamic DAG
    holds every edge directly."""

    def _insert_dep(self, a: str, b: str) -> Optional[List[str]]:
        return self._dag.add_edge(a, b)

    _insert_rw = _insert_dep


class SiIncrementalChecker(IncrementalChecker):
    """SI (Theorem 9): ``(SO ∪ WR ∪ WW) ; RW?`` acyclic.

    The composed relation is maintained in the dynamic DAG; the store's
    live dep-predecessors and RW-successors translate each new dep/RW
    edge into its composed-edge deltas.  Composed multiplicities count
    middle-node witnesses so node eviction can decrement exactly.
    """

    def remove_node(self, tid: str) -> None:
        if tid not in self._dag:
            return
        # Composed edges with `tid` as the *middle* node (u -dep-> tid
        # -RW-> w) are not incident to it in the DAG: decrement each
        # witness explicitly, then drop everything incident wholesale.
        rw_succs = self.edges.succs(tid, RW)
        for u in self.edges.preds(tid, DEP):
            for w in rw_succs:
                if u != tid and w != tid:
                    self._dag.remove_edge(u, w)
        super().remove_node(tid)

    def _apply(self, deltas: List[Edge]) -> Optional[List[str]]:
        """Insert composed deltas atomically: on a cycle, roll back the
        already-applied ones so multiplicities stay witness-exact."""
        applied: List[Edge] = []
        for u, w in deltas:
            cycle = self._dag.add_edge(u, w)
            if cycle is not None:
                for edge in applied:
                    self._dag.remove_edge(*edge)
                return cycle
            applied.append((u, w))
        return None

    def _insert_dep(self, u: str, v: str) -> Optional[List[str]]:
        return self._apply(
            [(u, v)] + [(u, w) for w in self.edges.succs(v, RW)]
        )

    def _insert_rw(self, v: str, w: str) -> Optional[List[str]]:
        return self._apply([(u, w) for u in self.edges.preds(v, DEP)])


class PsiIncrementalChecker(IncrementalChecker):
    """PSI (Theorem 21): ``(SO ∪ WR ∪ WW)+ ; RW?`` irreflexive.

    Equivalently: the dep relation is acyclic *and* no RW edge
    ``(c, a)`` coexists with a dep path ``a ⇒ c``.  The dep DAG's
    dynamic topological order both certifies the first conjunct (PK
    insertion) and prunes the reachability queries of the second; no
    transitive closure is ever built.
    """

    def _insert_dep(self, u: str, v: str) -> Optional[List[str]]:
        cycle = self._dag.add_edge(u, v)
        if cycle is not None:
            return cycle
        # The new dep edge may have completed a dep path a => c closing
        # some live RW edge (c, a).  The dep edge stays in the DAG (it
        # is still acyclic); the loop is reported once, at this commit.
        return self._dep_edge_closes_rw(u, v)

    def _insert_rw(self, c: str, a: str) -> Optional[List[str]]:
        path = self._dag.find_path(a, c)
        return None if path is None else path + [a]

    def _dep_edge_closes_rw(self, u: str, v: str) -> Optional[List[str]]:
        # Dep-descendants c of v with a live RW edge (c, a), by target.
        desc = _search(v, self._dag._succ)
        closing = {a: c for c in desc for a in self.edges.succs(c, RW)}
        if not closing:
            return None
        # Dep-ancestors of u; anc[x] is the next node on x's path to u.
        anc = _search(u, self._dag._pred)
        for a, c in closing.items():
            if a in anc:
                # Loop: a => u -> v => c -RW-> a.
                return _unwind(anc, a) + _unwind(desc, c)[::-1] + [a]
        return None


class RebuildChecker(Checker):
    """The differential-testing oracle: record every edge (none is ever
    dropped) and re-derive the model's whole condition on each commit —
    ``O(V+E)`` for SI/SER and a full transitive closure for PSI.  Once a
    cycle exists it is re-flagged at every later commit."""

    def __init__(self, model: str) -> None:
        super().__init__()
        self.model = model

    def observe(
        self, dep_edges: Iterable[LabelledEdge], rw_edges: Iterable[Edge]
    ) -> Optional[List[str]]:
        for a, b, kind in dep_edges:
            self.edges.add(a, b, kind)
        for a, b in rw_edges:
            self.edges.add(a, b, RW)
        edges, nodes = self.edges.by_kind(), self.edges.succ.keys()
        deps = Relation(edges["SO"] | edges["WR"] | edges["WW"], nodes)
        rw = Relation(edges["RW"], nodes)
        if self.model == "SER":
            return deps.union(rw).find_cycle()
        if self.model == "SI":
            return deps.compose(rw.reflexive()).find_cycle()
        closure = deps.transitive_closure()
        if closure.compose(rw.reflexive()).is_irreflexive():
            return None
        return _psi_witness(deps, rw, closure)


def _psi_witness(
    deps: Relation, rw: Relation, closure: Relation
) -> List[str]:
    """An actual dependency loop witnessing a PSI violation.

    ``(deps+ ; rw?)`` being reflexive somewhere means either ``deps``
    itself has a cycle, or some anti-dependency ``(c, a)`` is closed by
    a dependency path ``a ⇒ c``; reconstruct and return that loop
    (``[a, ..., c, a]``) rather than a degenerate ``[t, t]`` pair.
    """
    cycle = deps.find_cycle()
    if cycle is not None:
        return list(cycle)
    for c, a in rw:
        if (a, c) in closure.pairs:
            path = _unwind(_search(a, deps.successors_map()), c)[::-1]
            return path + [a]
    return []


CHECKERS = {
    "SER": SerIncrementalChecker,
    "SI": SiIncrementalChecker,
    "PSI": PsiIncrementalChecker,
}
"""Model name → incremental checker class."""


def make_checker(model: str, checker: str = "incremental") -> Checker:
    """Build the ``checker`` back-end (``"incremental"`` or
    ``"rebuild"``) for ``model`` (SI/SER/PSI)."""
    if checker == "rebuild":
        return RebuildChecker(model)
    return CHECKERS[model]()
