"""The engines' commit mutex: a reentrant lock whose release wakes a
waiter instead of handing the lock to it."""

import threading

import pytest

from repro.mvcc import SIEngine
from repro.mvcc.engine import CommitMutex


def test_engine_commit_lock_is_a_commit_mutex():
    assert isinstance(SIEngine({"x": 0}).lock, CommitMutex)


def test_reentrant_for_its_owner():
    mutex = CommitMutex()
    with mutex:
        with mutex:
            pass
        # Still held after the inner release: another thread cannot
        # take it.
        taken = []
        other = threading.Thread(
            target=lambda: taken.append(mutex._lock.acquire(blocking=False))
        )
        other.start()
        other.join()
        assert taken == [False]
    assert mutex._lock.acquire(blocking=False)
    mutex._lock.release()


def test_release_by_another_thread_raises():
    mutex = CommitMutex()
    mutex.acquire()
    errors = []

    def release():
        try:
            mutex.release()
        except RuntimeError as exc:
            errors.append(exc)

    other = threading.Thread(target=release)
    other.start()
    other.join()
    assert len(errors) == 1
    mutex.release()


def test_waiter_takes_the_lock_once_released():
    mutex = CommitMutex()
    mutex.acquire()
    entered = threading.Event()

    def wait_for_it():
        with mutex:
            entered.set()

    waiter = threading.Thread(target=wait_for_it, daemon=True)
    waiter.start()
    assert not entered.wait(0.05)
    mutex.release()
    assert entered.wait(5)
    waiter.join(5)
    assert not waiter.is_alive()


@pytest.mark.parametrize("threads", [2, 8])
def test_mutual_exclusion_and_no_lost_wakeups(threads):
    # A read-modify-write that yields inside the critical section loses
    # updates without mutual exclusion; a lost wakeup hangs a thread.
    mutex = CommitMutex()
    state = {"n": 0, "inside": 0, "overlap": False}
    rounds = 2000

    def work():
        for _ in range(rounds):
            with mutex:
                state["inside"] += 1
                if state["inside"] > 1:
                    state["overlap"] = True
                n = state["n"]
                if n % 7 == 0:
                    threading.Event().wait(0)  # give up the interpreter
                state["n"] = n + 1
                state["inside"] -= 1

    workers = [
        threading.Thread(target=work, daemon=True) for _ in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(30)
    assert not any(worker.is_alive() for worker in workers)
    assert state == {"n": threads * rounds, "inside": 0, "overlap": False}
    assert mutex._sleepers == 0
    assert mutex._lock.acquire(blocking=False)
    mutex._lock.release()
