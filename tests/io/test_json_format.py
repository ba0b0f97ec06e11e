"""Tests for JSON serialisation of histories and programs."""

import json

import pytest

from repro.anomalies import ALL_CASES
from repro.chopping.programs import p1_programs, p3_programs
from repro.core.events import read, write
from repro.core.histories import history
from repro.core.transactions import transaction
from repro.io.json_format import (
    FormatError,
    dump_history,
    dump_programs,
    history_from_json,
    history_to_json,
    load_history,
    load_programs,
    op_from_json,
    op_from_wire,
    op_to_json,
    op_to_wire,
    program_from_json,
    program_to_json,
    programs_from_json,
    programs_to_json,
    transaction_from_json,
    transaction_to_json,
    value_from_wire,
    value_to_wire,
)


class TestOps:
    def test_roundtrip(self):
        for op in (read("x", 1), write("acct", -30), read("y", None)):
            assert op_from_json(op_to_json(op)) == op

    def test_bad_shape_rejected(self):
        with pytest.raises(FormatError):
            op_from_json(["read", "x"])
        with pytest.raises(FormatError):
            op_from_json(["update", "x", 1])


class TestWireValues:
    @pytest.mark.parametrize(
        "value",
        [1, "s", None, (1, 2), [1, (2, [3])], {"a": (1,), "b": []}, ()],
    )
    def test_round_trip_keeps_container_types(self, value):
        back = value_from_wire(json.loads(json.dumps(value_to_wire(value))))
        assert back == value and type(back) is type(value)

    @pytest.mark.parametrize(
        "data", [{}, {"t": [1], "l": [1]}, {"x": [1]}, {"t": [1], "y": 2}]
    )
    def test_malformed_wrapper_rejected(self, data):
        with pytest.raises(FormatError):
            value_from_wire(data)

    def test_op_round_trip(self):
        for op in (read("x", (1, 2)), write("acct", [-30])):
            assert op_to_wire(op)[0] == op.kind.value
            assert op_from_wire(op_to_wire(op)) == op

    def test_bad_op_kind_rejected(self):
        for kind in ("update", ["read"], None):
            with pytest.raises(FormatError):
                op_from_wire([kind, "x", 1])


class TestTransactions:
    def test_roundtrip(self):
        t = transaction("t1", read("x", 0), write("x", 1))
        assert transaction_from_json(transaction_to_json(t)) == t
        back = transaction_from_json(transaction_to_json(t))
        assert [e.op for e in back.events] == [e.op for e in t.events]

    def test_missing_fields_rejected(self):
        with pytest.raises(FormatError):
            transaction_from_json({"tid": "t1"})


class TestHistories:
    def test_roundtrip_preserves_structure(self):
        t1 = transaction("t1", write("x", 1))
        t2 = transaction("t2", read("x", 1))
        h = history([t1, t2])
        data = history_to_json(h)
        back, init_tid = history_from_json(data)
        assert init_tid is None
        assert len(back.sessions) == 1
        assert [t.tid for t in back.sessions[0]] == ["t1", "t2"]

    def test_init_values_synthesise_transaction(self):
        data = {
            "init": {"x": 0},
            "sessions": [
                [{"tid": "t1", "ops": [["read", "x", 0]]}],
            ],
        }
        h, init_tid = history_from_json(data)
        assert init_tid == "t_init"
        init = h.by_tid("t_init")
        assert init.final_write("x") == 0

    def test_existing_init_transaction_recognised(self):
        data = {
            "sessions": [
                [{"tid": "t_init", "ops": [["write", "x", 0]]}],
                [{"tid": "t1", "ops": [["read", "x", 0]]}],
            ]
        }
        _, init_tid = history_from_json(data)
        assert init_tid == "t_init"

    def test_catalog_cases_roundtrip(self):
        for name, ctor in ALL_CASES.items():
            case = ctor()
            data = history_to_json(case.history)
            back, init_tid = history_from_json(data)
            assert init_tid == case.init_tid
            assert len(back) == len(case.history), name

    def test_bad_document_rejected(self):
        with pytest.raises(FormatError):
            history_from_json({"transactions": []})

    def test_file_roundtrip(self, tmp_path):
        case = ALL_CASES["write_skew"]()
        path = str(tmp_path / "h.json")
        dump_history(case.history, path)
        back, init_tid = load_history(path)
        assert init_tid == "t_init"
        assert len(back) == 3


class TestPrograms:
    def test_roundtrip(self):
        for programs in (p1_programs(), p3_programs()):
            data = programs_to_json(programs)
            back = programs_from_json(data)
            assert [p.name for p in back] == [p.name for p in programs]
            for orig, copy in zip(programs, back):
                assert [pc.reads for pc in copy.pieces] == [
                    pc.reads for pc in orig.pieces
                ]
                assert [pc.writes for pc in copy.pieces] == [
                    pc.writes for pc in orig.pieces
                ]

    def test_labels_preserved(self):
        data = program_to_json(p1_programs()[0])
        back = program_from_json(data)
        assert back.pieces[0].label == "acct1 = acct1 - 100"

    def test_bad_document_rejected(self):
        with pytest.raises(FormatError):
            programs_from_json({"progs": []})
        with pytest.raises(FormatError):
            program_from_json({"name": "x"})

    def test_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "p.json")
        dump_programs(p1_programs(), path)
        back = load_programs(path)
        assert len(back) == 2

    def test_json_is_plain_data(self):
        # The serialised form must be json-dumpable as-is.
        text = json.dumps(programs_to_json(p1_programs()))
        assert "transfer" in text


class TestGraphs:
    def test_roundtrip(self):
        from repro.anomalies import fig4_g1, fig12_g7
        from repro.io.json_format import graph_from_json, graph_to_json

        for case in (fig4_g1(), fig12_g7()):
            g = case.graph
            data = json.loads(json.dumps(graph_to_json(g)))
            back = graph_from_json(data)
            for obj in g.history.objects:
                assert {
                    (a.tid, b.tid) for a, b in back.wr_on(obj)
                } == {(a.tid, b.tid) for a, b in g.wr_on(obj)}
                assert {
                    (a.tid, b.tid) for a, b in back.ww_on(obj)
                } == {(a.tid, b.tid) for a, b in g.ww_on(obj)}
            # RW derives identically.
            assert {
                (a.tid, b.tid) for a, b in back.rw_union
            } == {(a.tid, b.tid) for a, b in g.rw_union}

    def test_classification_survives_roundtrip(self):
        from repro.anomalies import write_skew
        from repro.characterisation import decide
        from repro.graphs import in_graph_ser, in_graph_si
        from repro.io.json_format import graph_from_json, graph_to_json

        case = write_skew()
        witness = decide(case.history, "SI", init_tid=case.init_tid).witness
        back = graph_from_json(graph_to_json(witness))
        assert in_graph_si(back)
        assert not in_graph_ser(back)

    def test_bad_document_rejected(self):
        from repro.io.json_format import FormatError, graph_from_json

        with pytest.raises(FormatError):
            graph_from_json({"history": {"sessions": []}})

    def test_unknown_transaction_in_edges_rejected(self):
        from repro.io.json_format import FormatError, graph_from_json

        data = {
            "history": {
                "sessions": [[{"tid": "t1", "ops": [["write", "x", 1]]}]]
            },
            "wr": {"x": [["ghost", "t1"]]},
            "ww": {},
        }
        with pytest.raises(FormatError):
            graph_from_json(data)
