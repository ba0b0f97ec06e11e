"""The monitor's one-pass event summary equals the §2 judgements.

:func:`repro.monitor.online.summarise` replaces a per-commit
:class:`~repro.core.transactions.Transaction` rebuild; these tests hold
it to ``external_read`` / ``final_write`` / ``external_read_objects`` /
``written_objects`` on arbitrary op sequences.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import read, write
from repro.core.transactions import transaction
from repro.monitor import ConsistencyMonitor, WindowedMonitor
from repro.monitor.online import summarise

# Two objects and three values make repeated reads, read-after-write,
# write-after-read and rewrites common.
objects = st.sampled_from(["x", "y"])
values = st.integers(min_value=0, max_value=2)
ops = st.one_of(
    st.builds(read, objects, values), st.builds(write, objects, values)
)


def judgements(op_list):
    """``(reads, writes)`` as the :class:`Transaction` judgements give
    them; the key sets are ``external_read_objects`` and
    ``written_objects``."""
    txn = transaction("t", *op_list)
    reads = {
        obj: txn.external_read(obj) for obj in txn.external_read_objects
    }
    writes = {obj: txn.final_write(obj) for obj in txn.written_objects}
    return reads, writes


@settings(max_examples=300, deadline=None)
@given(st.lists(ops, min_size=1, max_size=8))
def test_summary_equals_transaction_judgements(op_list):
    assert summarise(op_list) == judgements(op_list)


@pytest.mark.parametrize(
    "op_list, expected",
    [
        # repeated reads: the first one is external
        ([read("x", 1), read("x", 2)], ({"x": 1}, {})),
        # read after write: internal, not external
        ([write("x", 1), read("x", 1)], ({}, {"x": 1})),
        # write after read: both judgements hold
        ([read("x", 0), write("x", 1)], ({"x": 0}, {"x": 1})),
        # rewrites: the last value counts, first-write order is kept
        (
            [write("y", 1), write("x", 2), write("y", 3)],
            ({}, {"y": 3, "x": 2}),
        ),
    ],
)
def test_summary_cases(op_list, expected):
    reads, writes = summarise(op_list)
    assert (reads, writes) == expected == judgements(op_list)
    assert list(writes) == list(expected[1])


@pytest.mark.parametrize(
    "make", [ConsistencyMonitor, lambda **kw: WindowedMonitor(4, **kw)]
)
def test_empty_commit_rejected(make):
    monitor = make(initial_values={"x": 0})
    with pytest.raises(ValueError):
        monitor.observe_commit("t1", "s", [])
    # Nothing was recorded: the tid is still free.
    assert monitor.observe_commit("t1", "s", [write("x", 1)]) is None
    assert monitor.commit_count == 1
