"""Small dense linear-algebra helpers shared by the positivity tests."""

from __future__ import annotations

import numpy as np

from .errors import DomainError

# A matrix passes the PSD test when min eig >= -PSD_TOL * max(1, scale).
PSD_TOL = 1e-10
# Inputs to the PSD test must be symmetric to this absolute tolerance.
SYMMETRY_TOL = 1e-12


def min_eig(M) -> float:
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])


def operator_norm(M) -> float:
    """Largest singular value of a matrix (0 for an empty one)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DomainError("operator_norm expects a matrix")
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))
