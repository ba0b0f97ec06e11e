"""The monitor's one labelled edge store.

The incremental checkers and the rebuild oracle read the same
:class:`~repro.monitor.incremental.EdgeStore`, so the parity suite can
no longer catch a bug in the store itself.  These tests pin it from
outside instead:

* **Differential:** on randomised engine runs, the full monitor's
  ``dependency_edges()`` equal the paper's ``graph(X)`` extracted from
  the engine's abstract execution, with SO and each object's WW reduced
  to their covering pairs; their union with WR has the same transitive
  closure as the paper's ``SO ∪ WR ∪ WW``.
* **Eviction invariants:** after every commit of a windowed monitor,
  every listed edge joins two retained transactions and
  ``state_size()`` agrees with the listed edges.
* **Post-violation contract:** the cycle-closing edge stays listed, the
  violation is flagged once, and later clean commits are not flagged —
  also after the closing edge's endpoints are evicted.
"""

import pytest

from repro.core.events import read, write
from repro.core.relations import Relation
from repro.graphs.extraction import graph_of
from repro.monitor import ConsistencyMonitor, WindowedMonitor
from repro.monitor.incremental import DEP
from repro.mvcc import PSIEngine, Scheduler, SerializableEngine, SIEngine
from repro.mvcc.workloads import random_workload

MODELS = ConsistencyMonitor.MODELS
CHECKERS = ConsistencyMonitor.CHECKERS
ENGINES = {"SI": SIEngine, "SER": SerializableEngine, "PSI": PSIEngine}


def committed_stream(engine):
    return [
        (r.tid, r.session, list(r.events))
        for r in sorted(engine.committed, key=lambda r: r.commit_ts)
    ]


def run_engine(engine_key, seed, **shape):
    wl = random_workload(seed, **shape)
    engine = ENGINES[engine_key](wl.initial)
    Scheduler(engine, wl.sessions).run_random(seed)
    return engine


def tid_pairs(relation, init_tid):
    """A relation over transactions as tid pairs, without the init
    transaction (the monitor keeps it out of the graph)."""
    return {
        (a.tid, b.tid)
        for a, b in relation
        if init_tid not in (a.tid, b.tid)
    }


def covering(pairs):
    """The covering pairs of a strict order: ``(a, b)`` with no ``c``
    such that ``a < c < b``."""
    succs = {}
    for a, b in pairs:
        succs.setdefault(a, set()).add(b)
    return {
        (a, b)
        for a, b in pairs
        if not any((c, b) in pairs for c in succs[a])
    }


def closure(pairs):
    return Relation(pairs).transitive_closure().pairs


class TestEdgesMatchExtractedGraph:
    @pytest.mark.parametrize("checker", CHECKERS)
    @pytest.mark.parametrize(
        "engine_key,seed",
        [("SI", seed) for seed in range(6)]
        + [("SER", seed) for seed in range(3)],
    )
    def test_full_monitor_edges_equal_graph_of_execution(
        self, engine_key, seed, checker
    ):
        shape = (
            dict(sessions=5, transactions_per_session=6, objects=4)
            if engine_key == "SI"
            else dict(sessions=4, transactions_per_session=5)
        )
        engine = run_engine(engine_key, seed, **shape)
        graph = graph_of(engine.abstract_execution())
        init = engine.init_tid
        # SO and each object's WW as covering pairs; WR and RW whole.
        expected = {
            "SO": covering(tid_pairs(graph.session_order, init)),
            "WR": tid_pairs(graph.wr_union, init),
            "WW": set().union(
                *(covering(tid_pairs(ww, init)) for ww in graph.ww.values())
            ),
            "RW": tid_pairs(graph.rw_union, init),
        }
        paper_deps = closure(tid_pairs(graph.dependencies, init))
        for model in MODELS:
            monitor = ConsistencyMonitor(
                model, dict(engine.initial), init_tid=init, checker=checker
            )
            for tid, session, events in committed_stream(engine):
                monitor.observe_commit(tid, session, events)
            edges = monitor.dependency_edges()
            assert edges == expected, (model, seed)
            assert (
                closure(edges["SO"] | edges["WR"] | edges["WW"])
                == paper_deps
            ), (model, seed)
            assert monitor.state_size()["edges"] == sum(
                len(pairs) for pairs in expected.values()
            )


class TestEvictionInvariants:
    @pytest.mark.parametrize("checker", CHECKERS)
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("engine_key", sorted(ENGINES))
    @pytest.mark.parametrize("seed", range(2))
    def test_edges_stay_within_the_window(
        self, seed, engine_key, model, checker
    ):
        engine = run_engine(
            engine_key,
            seed,
            sessions=4,
            transactions_per_session=6,
            objects=3,
        )
        window = 5
        monitor = WindowedMonitor(
            window,
            model,
            dict(engine.initial),
            init_tid=engine.init_tid,
            checker=checker,
        )
        seen = []
        for tid, session, events in committed_stream(engine):
            monitor.observe_commit(tid, session, events)
            seen.append(tid)
            retained = set(seen[-window:])
            assert monitor.retained_count == len(retained)
            edges = monitor.dependency_edges()
            for kind, pairs in edges.items():
                for a, b in pairs:
                    assert a in retained and b in retained, (kind, a, b)
            sizes = monitor.state_size()
            assert sizes["records"] == len(retained)
            assert sizes["edges"] == sum(len(p) for p in edges.values())
            # The running attribution count matches the value tables.
            assert sizes["value_attributions"] == sum(
                len(table) for table in monitor._value_writer.values()
            )
        assert monitor.evicted_count == len(seen) - len(retained)


def joined(store, a, b, retained):
    """Whether live dep edges lead from ``a`` to ``b`` through retained
    transactions only."""
    seen, stack = {a}, [a]
    while stack:
        for nxt in store.succs(stack.pop(), DEP):
            if nxt == b:
                return True
            if nxt in retained and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


#: Engine → the models its runs satisfy (SER ⊆ SI ⊆ PSI), so no edge is
#: ever dropped by certification.
SATISFIED = [("SI", "SI"), ("SI", "PSI"), ("SER", "SER"), ("SER", "SI"),
             ("SER", "PSI"), ("PSI", "PSI")]


class TestWindowedCoveringPaths:
    @pytest.mark.parametrize("checker", CHECKERS)
    @pytest.mark.parametrize("engine_key,model", SATISFIED)
    @pytest.mark.parametrize("seed", range(2))
    def test_retained_dependencies_stay_joined(
        self, seed, engine_key, model, checker
    ):
        """Eviction follows commit order, so it never removes the
        intermediate transaction of a retained SO/WW pair: every pair of
        retained transactions the full ``SO ∪ WR ∪ WW`` relates stays
        joined by a path of live dep edges after every commit."""
        engine = run_engine(
            engine_key,
            seed,
            sessions=4,
            transactions_per_session=6,
            objects=3,
        )
        graph = graph_of(engine.abstract_execution())
        paper_deps = tid_pairs(graph.dependencies, engine.init_tid)
        stream = committed_stream(engine)
        for window in range(3, 9):
            # A window this small outlives some overwrites a snapshot
            # still reads; non-strict attribution places such a read
            # after the eviction frontier instead of raising.
            monitor = WindowedMonitor(
                window,
                model,
                dict(engine.initial),
                strict_values=False,
                init_tid=engine.init_tid,
                checker=checker,
            )
            store = monitor._checker.edges
            seen = []
            for tid, session, events in stream:
                assert monitor.observe_commit(tid, session, events) is None
                seen.append(tid)
                retained = set(seen[-window:])
                for a, b in paper_deps:
                    if a in retained and b in retained:
                        assert joined(store, a, b, retained), (window, a, b)


def lost_update(monitor, first="t1", second="t2"):
    """Two read-modify-writes of ``acct`` from the same snapshot."""
    assert monitor.observe_commit(
        first, f"s-{first}", [read("acct", 0), write("acct", first)]
    ) is None
    return monitor.observe_commit(
        second, f"s-{second}", [read("acct", 0), write("acct", second)]
    )


class TestPostViolationContract:
    @pytest.mark.parametrize("model", MODELS)
    def test_closing_edge_listed_and_flagged_once(self, model):
        monitor = ConsistencyMonitor(model, {"acct": 0, "x": 0})
        violation = lost_update(monitor)
        assert violation is not None and violation.tid == "t2"
        # t2 read the version t1 overwrote: the anti-dependency that
        # closes the cycle stays listed although certification dropped
        # it.
        edges = monitor.dependency_edges()
        assert ("t2", "t1") in edges["RW"]
        assert ("t1", "t2") in edges["WW"]
        for i in range(3):
            assert monitor.observe_commit(
                f"c{i}", "s-clean", [read("x", i), write("x", i + 1)]
            ) is None
        assert [v.tid for v in monitor.violations] == ["t2"]
        assert ("t2", "t1") in monitor.dependency_edges()["RW"]

    @pytest.mark.parametrize("model", MODELS)
    def test_evicting_a_dropped_edge_keeps_certifying(self, model):
        """Once the violating pair leaves the window its edges, the
        dropped one included, go with it, and a new anomaly is still
        caught."""
        monitor = WindowedMonitor(3, model, {"acct": 0, "x": 0})
        assert lost_update(monitor) is not None
        for i in range(6):
            assert monitor.observe_commit(
                f"c{i}", "s-clean", [read("x", i), write("x", i + 1)]
            ) is None
        assert monitor.retained_count == 3
        assert not any(
            "t1" in pair or "t2" in pair
            for pairs in monitor.dependency_edges().values()
            for pair in pairs
        )
        violation = monitor.observe_commit(
            "t3", "s-t3", [read("x", 5), write("x", 99)]
        )
        assert violation is not None and violation.tid == "t3"
        assert [v.tid for v in monitor.violations] == ["t2", "t3"]


class TestFailedObservation:
    @pytest.mark.parametrize("checker", CHECKERS)
    def test_commit_that_raises_records_no_edges(self, checker):
        """An unattributable read aborts the observation before any of
        the commit's edges reach the store, for both back-ends."""
        from repro.monitor import MonitorError

        monitor = ConsistencyMonitor("SI", {"x": 0, "y": 0}, checker=checker)
        monitor.observe_commit("t1", "s", [write("x", 1)])
        with pytest.raises(MonitorError):
            monitor.observe_commit(
                "t2", "s", [read("x", 1), read("y", 42)]
            )
        assert all(
            "t2" not in pair
            for pairs in monitor.dependency_edges().values()
            for pair in pairs
        )
