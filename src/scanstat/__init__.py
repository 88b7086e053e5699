"""Exact distributions of continuous linear and circular scan statistics.

Evaluates P(W(3) <= w), P(W_c(3) <= w), and P(W_c(N-1) <= w) for N uniform
points in exact rational arithmetic, verifies the transform-domain derivation
behind the closed forms symbolically, and validates everything against Monte
Carlo and classical small-case oracles.
"""

from .exactnum import DomainError
from .scanprob import ProbValue, Regime, ScanKind, ScanQuery, evaluate, p_lin_3, pc_3, pc_nm1, threshold

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "ProbValue",
    "Regime",
    "ScanKind",
    "ScanQuery",
    "evaluate",
    "p_lin_3",
    "pc_3",
    "pc_nm1",
    "threshold",
]
