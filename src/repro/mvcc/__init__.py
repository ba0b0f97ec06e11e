"""Operational substrate: multi-version engines, scheduler, workloads.

Implements the paper's idealised SI concurrency-control algorithm
(:class:`SIEngine`), a serializable OCC baseline
(:class:`SerializableEngine`), and a replicated parallel-SI engine
(:class:`PSIEngine`), all recording enough to reconstruct histories and
abstract executions for cross-validation against the declarative theory.
"""

from .store import INIT_WRITER, MVStore, Version
from .engine import (
    BaseEngine,
    CommitRecord,
    EngineStats,
    TxContext,
    TxStatus,
)
from .si import SIEngine
from .serializable import SerializableEngine
from .locking import LockMode, LockTable, TwoPhaseLockingEngine
from .psi import PSIEngine, Replica
from .runtime import (
    DELIVER,
    OpRequest,
    ReadOp,
    RunResult,
    Scheduler,
    TxProgram,
    WriteOp,
    run_sequential,
)
from .workloads import (
    RandomWorkload,
    blind_write_program,
    chopped_transfer_session,
    contended_counter_workload,
    deposit_program,
    disjoint_counter_workload,
    long_fork_sessions,
    lookup_program,
    lost_update_sessions,
    random_workload,
    read_pair_program,
    transfer_piece_program,
    withdraw_program,
    write_skew_sessions,
)

__all__ = [
    # store
    "MVStore",
    "Version",
    "INIT_WRITER",
    # engine
    "BaseEngine",
    "TxContext",
    "TxStatus",
    "CommitRecord",
    "EngineStats",
    "SIEngine",
    "SerializableEngine",
    "TwoPhaseLockingEngine",
    "LockTable",
    "LockMode",
    "PSIEngine",
    "Replica",
    # runtime
    "ReadOp",
    "WriteOp",
    "OpRequest",
    "TxProgram",
    "Scheduler",
    "RunResult",
    "run_sequential",
    "DELIVER",
    # workloads
    "RandomWorkload",
    "withdraw_program",
    "deposit_program",
    "blind_write_program",
    "read_pair_program",
    "transfer_piece_program",
    "chopped_transfer_session",
    "lookup_program",
    "write_skew_sessions",
    "lost_update_sessions",
    "long_fork_sessions",
    "random_workload",
    "contended_counter_workload",
    "disjoint_counter_workload",
]
