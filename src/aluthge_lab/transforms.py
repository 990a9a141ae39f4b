"""Toral and spherical Aluthge transforms of commuting shift pairs.

Both transforms act weight-wise on a diagram.  The toral transform
applies the one-variable Aluthge rule to each component along its own
direction,

    alpha~_k = sqrt(alpha_k alpha_{k+e1}),   beta~_k = sqrt(beta_k beta_{k+e2}),

and the result of a commuting input need not commute, so the candidate
comes back together with a verdict.  The spherical transform uses the
joint modulus P_k = sqrt(alpha_k^2 + beta_k^2),

    alpha^_k = alpha_k sqrt(P_{k+e1} / P_k),  beta^_k = beta_k sqrt(P_{k+e2} / P_k),

and always yields a commuting pair; that is asserted on the evaluation
window, never assumed.

A transformed diagram (kind "derived") computes each window by array
arithmetic on its parent's cached window one step larger, so iterating
a transform costs work linear in the depth.  Its weights are not
precomputed closed forms, so tests that compare them against
independently derived formulas are meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagrams import (
    COMMUTATIVITY_TOL,
    WeightDiagram,
    commutativity_residual,
    truncate,
    validate_commuting,
)
from .errors import DomainError, InternalConsistencyError, WindowError
from .linalg import operator_norm

DEFAULT_WINDOW = 14
# Round-off allowance on the continuity bounds (slack may dip this far below 0).
RE4_SLACK = 1e-10
# Two routes to the same verdict must not disagree by more than this factor
# on both sides of the cutoff; anything closer counts as boundary noise.
DECISIVE_BAND = 1e2


def _derived(parent: WeightDiagram, op: str, rule) -> WeightDiagram:
    """Diagram whose (n1, n2) window is rule(parent's (n1+1, n2+1) window)."""

    def window(n1, n2):
        return rule(*parent.weight_arrays(n1 + 1, n2 + 1))

    return WeightDiagram(
        kind="derived",
        params={"op": op, "parent": parent.kind},
        _window=window,
    )


def _toral_rule(A: np.ndarray, B: np.ndarray):
    # np.sqrt of the same product is correctly rounded, as math.sqrt is
    return np.sqrt(A[:-1, :-1] * A[1:, :-1]), np.sqrt(B[:-1, :-1] * B[:-1, 1:])


def _joint_modulus(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """sqrt(alpha^2 + beta^2) entrywise."""
    # math.hypot elementwise: np.hypot differs in the last bit on some inputs
    return np.frompyfunc(math.hypot, 2, 1)(A, B).astype(float)


def _spherical_rule(A: np.ndarray, B: np.ndarray):
    P = _joint_modulus(A, B)
    P0 = P[:-1, :-1]
    return (A[:-1, :-1] * np.sqrt(P[1:, :-1] / P0),
            B[:-1, :-1] * np.sqrt(P[:-1, 1:] / P0))


def _toral_condition_residual(W: WeightDiagram, window: int) -> float:
    """Worst residual of the closed-form commutativity conditions.

    alpha condition:  alpha_(k1,k2+1) alpha_(k1+1,k2+1) = alpha_(k1+1,k2) alpha_(k1,k2+2)
    beta condition:   beta_(k1+1,k2) beta_(k1+1,k2+1) = beta_(k1,k2+1) beta_(k1+2,k2)

    Given a commuting parent, either condition alone characterizes
    commutativity of the toral candidate; both are scanned and the worse
    residual is returned.
    """
    A, B = W.weight_arrays(window + 3, window + 3)
    cond_a = A[:-2, 1:-1] * A[1:-1, 1:-1] - A[1:-1, :-2] * A[:-2, 2:]
    cond_b = B[1:-1, :-2] * B[1:-1, 1:-1] - B[:-2, 1:-1] * B[2:, :-2]
    return float(max(np.max(np.abs(cond_a)), np.max(np.abs(cond_b))))


def toral_commutativity_test(
    W: WeightDiagram,
    window: int = DEFAULT_WINDOW,
    tol: float = COMMUTATIVITY_TOL,
):
    """Closed-form test for commutativity of the toral candidate.

    Returns (flag, worst condition residual) from toral_transform, whose
    cross-check against the direct residual of the candidate weights
    raises InternalConsistencyError on a decisive disagreement.
    """
    res = toral_transform(W, window=window, tol=tol)
    return res.commutes, res.condition_residual


@dataclass(frozen=True)
class ToralResult:
    """Toral candidate plus verdict; unpacks as (diagram, commutes)."""

    diagram: WeightDiagram
    commutes: bool
    condition_residual: float
    direct_residual: float
    direct_witness: tuple

    def __iter__(self):
        return iter((self.diagram, self.commutes))


def toral_transform(
    W: WeightDiagram,
    *,
    window: int = DEFAULT_WINDOW,
    tol: float = COMMUTATIVITY_TOL,
) -> ToralResult:
    """Toral Aluthge transform of a commuting diagram.

    The candidate is returned even when it fails to commute (region
    experiments need to inspect it).  The flag is the closed-form
    condition test; it is cross-checked against the direct residual of
    the candidate, and a decisive disagreement between the two routes
    raises InternalConsistencyError.
    """
    validate_commuting(W, window)
    cond = _toral_condition_residual(W, window)
    candidate = _derived(W, "toral", _toral_rule)
    direct, witness = commutativity_residual(candidate, window)

    cut = tol * max(1.0, W.weight_bound(window) ** 2)
    flag = cond <= cut
    if flag != (direct <= cut):
        cond_decisive = cond <= cut / DECISIVE_BAND or cond >= cut * DECISIVE_BAND
        direct_decisive = direct <= cut / DECISIVE_BAND or direct >= cut * DECISIVE_BAND
        if cond_decisive and direct_decisive:
            raise InternalConsistencyError(
                "toral commutativity routes disagree: "
                f"condition residual {cond:.3e}, direct residual {direct:.3e}"
            )
    return ToralResult(
        diagram=candidate,
        commutes=flag,
        condition_residual=cond,
        direct_residual=direct,
        direct_witness=witness,
    )


def spherical_transform(
    W: WeightDiagram,
    *,
    window: int = DEFAULT_WINDOW,
) -> WeightDiagram:
    """Spherical Aluthge transform; the output's commutativity is asserted."""
    validate_commuting(W, window)

    out = _derived(W, "spherical", _spherical_rule)
    resid, witness = commutativity_residual(out, window)
    scale = max(1.0, W.weight_bound(window) ** 2)
    if resid > 100 * COMMUTATIVITY_TOL * scale:
        raise InternalConsistencyError(
            f"spherical transform lost commutativity at k={witness}: "
            f"residual {resid:.3e}"
        )
    return out


@dataclass(frozen=True)
class SphericalPolarData:
    """Weight-level joint polar data (T1, T2) = (U1 P, U2 P) on a window.

    Arrays over [0, window]^2: P_diag = sqrt(alpha_k^2 + beta_k^2) and the
    direction cosines U1_coeff = alpha_k / P_k, U2_coeff = beta_k / P_k,
    which satisfy U1^2 + U2^2 = 1 at every lattice point.
    """

    P_diag: np.ndarray
    U1_coeff: np.ndarray
    U2_coeff: np.ndarray

    def isometry_residual(self) -> float:
        return float(np.max(np.abs(self.U1_coeff**2 + self.U2_coeff**2 - 1.0)))


def spherical_polar(W: WeightDiagram, window: int = DEFAULT_WINDOW) -> SphericalPolarData:
    A, B = W.weight_arrays(window + 1, window + 1)
    P = _joint_modulus(A, B)
    return SphericalPolarData(P_diag=P, U1_coeff=A / P, U2_coeff=B / P)


def joint_partial_isometry_check(W: WeightDiagram, N: int, tol: float = 1e-12):
    """Verify P Q^2 P = P^2 for Q^2 = U1* U1 + U2* U2 on a truncation.

    U_i = T_i P^{-1} with P the diagonal of untruncated joint moduli.
    Truncation chops the outgoing weights on the top row and column of the
    window, so the comparison runs over interior basis vectors (k1 < N and
    k2 < N), where the compressed operators agree with the full ones.
    Returns (max absolute deviation, deviation <= tol).
    """
    if N < 1:
        raise WindowError("need N >= 1 for an interior")
    t = truncate(W, N)
    Pinv = np.diag(1.0 / t.P_diag)
    U1 = t.T1 @ Pinv
    U2 = t.T2 @ Pinv
    P = np.diag(t.P_diag)
    lhs = P @ (U1.T @ U1 + U2.T @ U2) @ P
    dev = lhs - np.diag(t.P_diag**2)
    n = N + 1
    idx = np.arange(n * n)
    interior = (idx // n < N) & (idx % n < N)
    worst = float(np.max(np.abs(dev[np.ix_(interior, interior)])))
    return worst, worst <= tol


@dataclass(frozen=True)
class ContinuityProbe:
    """Measured vs asserted sides of the five regularization bounds.

    A_n is the diagonal operator with entries sqrt(max(1/n, P_k)), the
    cut-off square root of the joint modulus.  bound_report maps "i".."v"
    to {"lhs", "rhs", "slack"}; all_hold means every slack >= -RE4_SLACK.
    """

    N: int
    n: int
    A_n_diag: np.ndarray
    bound_report: dict
    all_hold: bool


def continuity_probe(W: WeightDiagram, N: int, n: int) -> ContinuityProbe:
    """Check the five bounds controlling the regularized polar factors.

    With P the (diagonal) joint modulus, A_n = sqrt(max(1/n, P)) entrywise:
      (i)   ||A_n||               <= max(n^{-1/2}, ||P||^{1/2})
      (ii)  ||P A_n^{-1}||        <= ||P||^{1/2}
      (iii) ||A_n - P^{1/2}||     <= n^{-1/2}
      (iv)  ||P A_n^{-1} - P^{1/2}|| <= (1/4) n^{-1/2}
      (v)   ||A_n T_i A_n^{-1} - P^{1/2} U_i P^{1/2}|| <= (5/4) n^{-1/2} ||T_i||^{1/2}
    Diagonal norms are exact maxima; (v) uses dense truncated matrices.
    The reported entry for (v) is the component with the smaller slack.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    t = truncate(W, N)
    P = t.P_diag
    sqrtP = np.sqrt(P)
    A = np.sqrt(np.maximum(1.0 / n, P))
    inv_sqrt_n = 1.0 / math.sqrt(n)
    P_norm = float(np.max(P))

    report = {
        "i": {"lhs": float(np.max(A)), "rhs": max(inv_sqrt_n, math.sqrt(P_norm))},
        "ii": {"lhs": float(np.max(P / A)), "rhs": math.sqrt(P_norm)},
        "iii": {"lhs": float(np.max(np.abs(A - sqrtP))), "rhs": inv_sqrt_n},
        "iv": {"lhs": float(np.max(np.abs(P / A - sqrtP))), "rhs": 0.25 * inv_sqrt_n},
    }

    worst_v = None
    for T in (t.T1, t.T2):
        lhs = operator_norm(A[:, None] * T / A[None, :] - sqrtP[:, None] * (T / P[None, :]) * sqrtP[None, :])
        rhs = 1.25 * inv_sqrt_n * math.sqrt(operator_norm(T))
        if worst_v is None or lhs - rhs > worst_v["lhs"] - worst_v["rhs"]:
            worst_v = {"lhs": float(lhs), "rhs": float(rhs)}
    report["v"] = worst_v

    for entry in report.values():
        entry["slack"] = entry["rhs"] - entry["lhs"]
    all_hold = all(entry["slack"] >= -RE4_SLACK for entry in report.values())
    return ContinuityProbe(N=N, n=n, A_n_diag=A, bound_report=report, all_hold=all_hold)


def transform_distance(W: WeightDiagram, Wp: WeightDiagram, which: str, N: int) -> float:
    """Operator-norm distance between the selected transforms of two diagrams.

    which = "toral" or "spherical".  Both transforms are taken at a window
    wide enough for the truncation; toral candidates are used as returned,
    commuting or not.  The distance is max_i ||T_i - T_i'|| on level N.
    """
    window = max(DEFAULT_WINDOW, N + 2)
    if which == "toral":
        d1 = toral_transform(W, window=window).diagram
        d2 = toral_transform(Wp, window=window).diagram
    elif which == "spherical":
        d1 = spherical_transform(W, window=window)
        d2 = spherical_transform(Wp, window=window)
    else:
        raise DomainError(f"unknown transform {which!r}")
    t1 = truncate(d1, N)
    t2 = truncate(d2, N)
    return max(operator_norm(t1.T1 - t2.T1), operator_norm(t1.T2 - t2.T2))
