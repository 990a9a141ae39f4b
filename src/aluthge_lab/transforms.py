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

toral_transforms, spherical_transforms and continuity_probes take a list
of diagrams and run each stage once over their windows stacked on a
leading axis; each transform output starts with its slice of the stacked
result as its cached window, exactly what its own window function
computes.  The one-diagram functions are their one-element cases, and
aluthge_transforms runs both transforms of a stack from one read of its
windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagrams import (
    COMMUTATIVITY_TOL,
    WeightDiagram,
    commutativity_residuals,
    require_commuting,
    stacked_windows,
    weight_scales,
)
from .errors import DomainError, InternalConsistencyError, WindowError

DEFAULT_WINDOW = 14
# Round-off allowance on the continuity bounds (slack may dip this far below 0).
RE4_SLACK = 1e-10
# Two routes to the same verdict must not disagree by more than this factor
# on both sides of the cutoff; anything closer counts as boundary noise.
DECISIVE_BAND = 1e2


def _derived(parent: WeightDiagram, op: str, rule, seed: tuple) -> WeightDiagram:
    """Diagram whose (n1, n2) window is rule(parent's (n1+1, n2+1) window).

    `seed`, an (alpha, beta) pair of read-only n x n arrays, is taken as
    the diagram's first cached window.
    """

    def window(n1, n2):
        return rule(*parent.weight_arrays(n1 + 1, n2 + 1))

    return WeightDiagram(
        kind="derived",
        params={"op": op, "parent": parent.kind},
        _window=window,
        _cache={seed[0].shape: seed},
    )


def _derived_stack(parents: list, op: str, rule, A: np.ndarray, B: np.ndarray):
    """The `op` transform of each parent, from one pass of `rule` over the
    parents' windows A, B stacked on a leading axis; each output keeps its
    slice of the result as its cached window.

    Returns the outputs and the worst commutativity residual of each
    (diagrams.commutativity_residuals), both read from that one result.
    """
    TA, TB = rule(A, B)
    TA.setflags(write=False)
    TB.setflags(write=False)
    outs = [_derived(W, op, rule, (a, b)) for W, a, b in zip(parents, TA, TB)]
    return outs, commutativity_residuals(TA, TB)


def _toral_rule(A: np.ndarray, B: np.ndarray):
    # np.sqrt of the same product is correctly rounded, as math.sqrt is
    return (np.sqrt(A[..., :-1, :-1] * A[..., 1:, :-1]),
            np.sqrt(B[..., :-1, :-1] * B[..., :-1, 1:]))


def _joint_modulus(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """sqrt(alpha^2 + beta^2) entrywise."""
    # math.hypot elementwise: np.hypot differs in the last bit on some inputs
    P = np.fromiter(map(math.hypot, A.ravel().tolist(), B.ravel().tolist()), float, A.size)
    return P.reshape(A.shape)


def _spherical_rule(A: np.ndarray, B: np.ndarray):
    P = _joint_modulus(A, B)
    P0 = P[..., :-1, :-1]
    with np.errstate(over="ignore"):  # a ratio past the float range is refused below
        T = (A[..., :-1, :-1] * np.sqrt(P[..., 1:, :-1] / P0),
             B[..., :-1, :-1] * np.sqrt(P[..., :-1, 1:] / P0))
    if not all(np.isfinite(X).all() for X in T):
        raise DomainError("spherical transform: a ratio P_(k+e_i) / P_k leaves the float range")
    return T


def _parent_windows(diagrams: list, window: int):
    """Stacked (window+3)^2 windows of commuting diagrams, validated on [0, window]^2,
    and each diagram's weight scale, max(1, largest weight there squared).

    The widest window either transform reads is fetched once, and the
    validation and the scales read slices of that one stack.
    """
    A, B = stacked_windows(diagrams, window + 3)
    m = window + 2
    require_commuting(commutativity_residuals(A[:, :m, :m], B[:, :m, :m]))
    n = window + 1
    return A, B, weight_scales(A[:, :n, :n], B[:, :n, :n])


def _toral_condition_residuals(A: np.ndarray, B: np.ndarray) -> list:
    """Worst residual of the closed-form commutativity conditions, per diagram.

    alpha condition:  alpha_(k1,k2+1) alpha_(k1+1,k2+1) = alpha_(k1+1,k2) alpha_(k1,k2+2)
    beta condition:   beta_(k1+1,k2) beta_(k1+1,k2+1) = beta_(k1,k2+1) beta_(k1+2,k2)

    A and B are stacked (window+3)^2 windows.  Given a commuting parent,
    either condition alone characterizes commutativity of the toral
    candidate; both are scanned and the worse residual is returned.
    """
    cond_a = A[:, :-2, 1:-1] * A[:, 1:-1, 1:-1] - A[:, 1:-1, :-2] * A[:, :-2, 2:]
    cond_b = B[:, 1:-1, :-2] * B[:, 1:-1, 1:-1] - B[:, :-2, 1:-1] * B[:, 2:, :-2]
    worst_a = np.abs(cond_a).max(axis=(1, 2)).tolist()
    worst_b = np.abs(cond_b).max(axis=(1, 2)).tolist()
    return [max(a, b) for a, b in zip(worst_a, worst_b)]


@dataclass(frozen=True)
class ToralResult:
    """Toral candidate plus verdict."""

    diagram: WeightDiagram
    commutes: bool
    condition_residual: float
    direct_residual: float
    direct_witness: tuple


def toral_transforms(
    diagrams,
    *,
    window: int = DEFAULT_WINDOW,
    tol: float = COMMUTATIVITY_TOL,
) -> list:
    """Toral Aluthge transform of each commuting diagram, one ToralResult each.

    The candidate is returned even when it fails to commute (region
    experiments need to inspect it).  The flag is the closed-form
    condition test; it is cross-checked against the direct residual of
    the candidate, and a decisive disagreement between the two routes
    raises InternalConsistencyError.  Validation, the rule, both
    residuals and the cuts each run once over the whole stack; the first
    failing diagram of the first failing stage raises.
    """
    diagrams = list(diagrams)
    return _toral_stack(diagrams, *_parent_windows(diagrams, window), tol)


def _toral_stack(diagrams: list, A: np.ndarray, B: np.ndarray, scales: list, tol: float) -> list:
    """toral_transforms of diagrams, given their _parent_windows."""
    conds = _toral_condition_residuals(A, B)
    candidates, directs = _derived_stack(diagrams, "toral", _toral_rule, A, B)

    out = []
    for candidate, cond, (direct, witness), scale in zip(candidates, conds, directs, scales):
        cut = tol * scale
        flag = cond <= cut
        if flag != (direct <= cut):
            cond_decisive = cond <= cut / DECISIVE_BAND or cond >= cut * DECISIVE_BAND
            direct_decisive = direct <= cut / DECISIVE_BAND or direct >= cut * DECISIVE_BAND
            if cond_decisive and direct_decisive:
                raise InternalConsistencyError(
                    "toral commutativity routes disagree: "
                    f"condition residual {cond:.3e}, direct residual {direct:.3e}"
                )
        out.append(ToralResult(
            diagram=candidate,
            commutes=flag,
            condition_residual=cond,
            direct_residual=direct,
            direct_witness=witness,
        ))
    return out


def toral_transform(
    W: WeightDiagram,
    *,
    window: int = DEFAULT_WINDOW,
    tol: float = COMMUTATIVITY_TOL,
) -> ToralResult:
    """toral_transforms of one diagram."""
    return toral_transforms([W], window=window, tol=tol)[0]


def spherical_transforms(diagrams, *, window: int = DEFAULT_WINDOW) -> list:
    """Spherical Aluthge transform of each commuting diagram.

    Each output's commutativity is asserted on [0, window]^2.  Validation,
    the rule and the residual each run once over the whole stack; the
    first failing diagram of the first failing stage raises.
    """
    diagrams = list(diagrams)
    return _spherical_stack(diagrams, *_parent_windows(diagrams, window))


def _spherical_stack(diagrams: list, A: np.ndarray, B: np.ndarray, scales: list) -> list:
    """spherical_transforms of diagrams, given their _parent_windows."""
    outs, residuals = _derived_stack(diagrams, "spherical", _spherical_rule, A, B)
    for (resid, witness), scale in zip(residuals, scales):
        if resid > 100 * COMMUTATIVITY_TOL * scale:
            raise InternalConsistencyError(
                f"spherical transform lost commutativity at k={witness}: "
                f"residual {resid:.3e}"
            )
    return outs


def spherical_transform(W: WeightDiagram, *, window: int = DEFAULT_WINDOW) -> WeightDiagram:
    """spherical_transforms of one diagram."""
    return spherical_transforms([W], window=window)[0]


def aluthge_transforms(diagrams, *, window: int = DEFAULT_WINDOW) -> tuple:
    """(toral_transforms, spherical_transforms) of the same diagrams.

    The parents' windows are read, validated and scaled once for both;
    every output equals that of the separate calls, and the toral stages
    raise before the spherical ones.
    """
    diagrams = list(diagrams)
    parents = _parent_windows(diagrams, window)
    return (_toral_stack(diagrams, *parents, COMMUTATIVITY_TOL),
            _spherical_stack(diagrams, *parents))


def _max_abs(x: np.ndarray) -> np.ndarray:
    """Largest |entry| over the last two axes, 0 where they are empty."""
    return np.max(np.abs(x), axis=(-2, -1), initial=0.0)


@dataclass(frozen=True)
class ContinuityProbe:
    """Measured vs asserted sides of the five regularization bounds.

    A_n is the diagonal operator with entries sqrt(max(1/n, P_k)), the
    cut-off square root of the joint modulus, flattened in the order
    k1 (N + 1) + k2.  bound_report maps "i".."v" to {"lhs", "rhs",
    "slack"}; all_hold means every slack >= -RE4_SLACK.  v_components
    holds (lhs, rhs) of bound (v) for T1 and for T2.
    """

    N: int
    n: int
    A_n_diag: np.ndarray
    bound_report: dict
    all_hold: bool
    v_components: tuple


def continuity_probes(diagrams, N: int, n: int) -> list:
    """Check the five bounds controlling the regularized polar factors, per diagram.

    With P the (diagonal) joint modulus, A_n = sqrt(max(1/n, P)) entrywise:
      (i)   ||A_n||               <= max(n^{-1/2}, ||P||^{1/2})
      (ii)  ||P A_n^{-1}||        <= ||P||^{1/2}
      (iii) ||A_n - P^{1/2}||     <= n^{-1/2}
      (iv)  ||P A_n^{-1} - P^{1/2}|| <= (1/4) n^{-1/2}
      (v)   ||A_n T_i A_n^{-1} - P^{1/2} U_i P^{1/2}|| <= (5/4) n^{-1/2} ||T_i||^{1/2}
    on span{e_k : k in [0, N]^2}, with T_i truncated there (T1 keeps alpha_k
    for k1 < N, T2 beta_k for k2 < N).  Every operator is a diagonal or a
    weighted shift, so each norm is a largest absolute entry: the operator
    in (v) carries the one entry per truncated weight w_k of T_i, mapping
    e_k to e_{k+e_i}.  The reported entry for (v) is the component with
    the smaller slack.  All the diagrams are probed as one stack.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    if N < 0:
        raise WindowError("truncation level must be nonnegative")
    A, B = stacked_windows(diagrams, N + 1)
    P = np.hypot(A, B)
    sqrtP = np.sqrt(P)
    An = np.sqrt(np.maximum(1.0 / n, P))
    inv_sqrt_n = 1.0 / math.sqrt(n)
    norms = [_max_abs(x).tolist() for x in (P, An, P / An, An - sqrtP, P / An - sqrtP)]
    # per T_i: (its truncated weights w_k, their sources k, their targets k + e_i)
    for w, src, dst in ((A[:, :-1, :], np.s_[:, :-1, :], np.s_[:, 1:, :]),
                        (B[:, :, :-1], np.s_[:, :, :-1], np.s_[:, :, 1:])):
        gap = (An[dst] * w) / An[src] - (sqrtP[dst] * (w / P[src])) * sqrtP[src]
        norms.append(list(zip(_max_abs(gap).tolist(), _max_abs(w).tolist())))  # (lhs, ||T_i||)

    probes = []
    for d, (P_norm, i, ii, iii, iv, *v_norms) in enumerate(zip(*norms)):
        components = tuple((lhs, 1.25 * inv_sqrt_n * math.sqrt(w_norm)) for lhs, w_norm in v_norms)
        sides = {"i": (i, max(inv_sqrt_n, math.sqrt(P_norm))), "ii": (ii, math.sqrt(P_norm)),
                 "iii": (iii, inv_sqrt_n), "iv": (iv, 0.25 * inv_sqrt_n),
                 "v": max(components, key=lambda c: c[0] - c[1])}
        report = {key: {"lhs": lhs, "rhs": rhs, "slack": rhs - lhs}
                  for key, (lhs, rhs) in sides.items()}
        probes.append(ContinuityProbe(
            N=N, n=n, A_n_diag=An[d].ravel(), bound_report=report,
            all_hold=all(entry["slack"] >= -RE4_SLACK for entry in report.values()),
            v_components=components,
        ))
    return probes


def continuity_probe(W: WeightDiagram, N: int, n: int) -> ContinuityProbe:
    """continuity_probes of one diagram."""
    return continuity_probes([W], N, n)[0]


def transform_distance(W: WeightDiagram, Wp: WeightDiagram, which: str, N: int) -> float:
    """Operator-norm distance between the selected transforms of two diagrams.

    which = "toral" or "spherical".  Both diagrams are transformed in one
    stack at a window wide enough for the truncation; toral candidates are
    used as returned, commuting or not.  The distance is max_i ||T_i - T_i'||
    on level N, T_i truncated as in continuity_probes; T_i - T_i' is a
    weighted shift, so its norm is the largest difference of truncated
    weights.
    """
    if N < 0:
        raise WindowError("truncation level must be nonnegative")
    window = max(DEFAULT_WINDOW, N + 2)
    if which == "toral":
        d1, d2 = (r.diagram for r in toral_transforms([W, Wp], window=window))
    elif which == "spherical":
        d1, d2 = spherical_transforms([W, Wp], window=window)
    else:
        raise DomainError(f"unknown transform {which!r}")
    (A1, B1), (A2, B2) = (d.weight_arrays(N + 1, N + 1) for d in (d1, d2))
    return max(float(_max_abs(A1[:-1] - A2[:-1])), float(_max_abs(B1[:, :-1] - B2[:, :-1])))
