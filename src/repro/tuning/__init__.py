"""Empirical tuning: candidate spaces, the measurement-driven search,
and durable crash-resumable search sessions."""

from .search import (
    EXIT_INTERRUPTED,
    TrialResult,
    TuningInterrupted,
    TuningResult,
    tune_kernel,
)
from .session import (
    TrialRecord,
    TuningSession,
    find_resumable,
    gc_sessions,
    get_session,
    list_sessions,
    sessions_root,
)
from .space import (
    CANDIDATE_SPACES,
    Candidate,
    axpy_candidates,
    candidates_for,
    dot_candidates,
    gemm_candidates,
    gemv_candidates,
    ger_candidates,
)

__all__ = [
    "Candidate",
    "candidates_for",
    "CANDIDATE_SPACES",
    "gemm_candidates",
    "gemv_candidates",
    "ger_candidates",
    "axpy_candidates",
    "dot_candidates",
    "tune_kernel",
    "TuningResult",
    "TrialResult",
    "TuningInterrupted",
    "EXIT_INTERRUPTED",
    "TuningSession",
    "TrialRecord",
    "sessions_root",
    "list_sessions",
    "get_session",
    "find_resumable",
    "gc_sessions",
]
