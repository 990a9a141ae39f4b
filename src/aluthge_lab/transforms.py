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
window, never assumed.  P is math.hypot's value bit for bit: a numpy port
of CPython's algorithm (Dekker's exact products, error-free sums and one
correction) on inputs of HYPOT_PORT_FLOATS floats or more, the map of
math.hypot on smaller ones.

Each stage is one function of windows stacked on a leading axis, and
only arrays pass between stages.  aluthge_windows validates and scales,
once, the parents a caller has read and runs both transforms on them, and
spherical_windows the spherical one.  At window w both read the leading
[0, w+3)^2 of the stack, refusing a narrower one with WindowError
(diagrams.leading_square).  Only the exported toral_transforms and
spherical_transforms build transformed diagrams (kind "derived"): each
keeps its slice of the stacked result as its cached window, exactly what
its own window function computes from its parent's cached window one
step larger, so iterating a transform costs work linear in the depth.
Its weights are not precomputed closed forms, so tests that compare them
against independently derived formulas are meaningful.  The one-diagram
functions are their one-element cases; continuity_probes takes P from
the same _joint_modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagrams import (
    WeightDiagram,
    commutativity_residuals,
    leading_square,
    require_commuting,
    require_integer,
    stacked_windows,
    weight_scales,
)
from .errors import DomainError, InternalConsistencyError
from .limits import (
    COMMUTATIVITY_TOL,
    DECISIVE_BAND,
    DEFAULT_WINDOW,
    HYPOT_PORT_FLOATS,
    RE4_SLACK,
    SPHERICAL_GUARD_TOL,
)


def _derived_stack(parents: list, op: str, rule, TA: np.ndarray, TB: np.ndarray) -> list:
    """The `op` transform of each parent as a diagram whose (n1, n2) window is
    rule(parent's (n1+1, n2+1) window), keeping as its cached window its slice
    of TA, TB, `rule` of the parents' windows stacked on a leading axis."""
    TA.setflags(write=False)
    TB.setflags(write=False)
    return [
        WeightDiagram(kind="derived", params={"op": op, "parent": W.kind},
                      _window=lambda n1, n2, W=W: rule(*W.weight_arrays(n1 + 1, n2 + 1)),
                      _cache={a.shape: (a, b)})
        for W, a, b in zip(parents, TA, TB)
    ]


def _toral_rule(A: np.ndarray, B: np.ndarray):
    # np.sqrt of the same product is correctly rounded, as math.sqrt is
    return (np.sqrt(A[..., :-1, :-1] * A[..., 1:, :-1]),
            np.sqrt(B[..., :-1, :-1] * B[..., :-1, 1:]))


# Veltkamp's splitting constant 2^27 + 1: x * _SPLIT - (x * _SPLIT - x) is x
# rounded to 26 bits.
_SPLIT = 134217729.0
_U64 = np.uint64


def _exact_square(x: np.ndarray, sq: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> None:
    """Store x*x rounded in sq and overwrite x with its exact error x*x - sq.

    Dekker's product (Numer. Math. 18, 1971): x = hi + lo split by
    Veltkamp into halves of 26 bits, whose products are exact.  hi and lo
    are scratch arrays of x's shape.
    """
    np.multiply(x, x, sq)
    np.multiply(x, _SPLIT, hi)
    np.subtract(hi, x, lo)
    hi -= lo
    np.subtract(x, hi, lo)
    np.multiply(hi, hi, x)
    x -= sq
    hi *= lo
    hi += hi
    x += hi
    lo *= lo
    x += lo


def _hypot_port(A: np.ndarray, B: np.ndarray, top: np.ndarray) -> np.ndarray:
    """CPython's two-argument math.hypot, step for step, on arrays.

    top holds the biased exponent of max(A, B), every one in [1, 2044], and
    is overwritten.  With max(A, B) = m 2^e, m in [1/2, 1), each argument
    is scaled by 2^-e and squared exactly; the squares are added to 1 by
    error-free sums, with their low parts kept in frac1 and frac2; and the
    root of the sum is corrected once by the residual of its own exact
    square.  Each buffer is reused once its value is spent.
    """
    np.subtract(_U64(2045), top, top)
    top <<= _U64(52)
    scale = top.view(float)  # 2^-e
    sq, hi, lo = (np.empty(A.shape) for _ in range(3))

    frac1 = A * scale
    _exact_square(frac1, sq, hi, lo)
    csum = sq + 1.0
    frac2 = 1.0 - csum
    frac2 += sq
    x = B * scale
    _exact_square(x, sq, hi, lo)
    frac1 += x
    s = np.add(csum, sq, x)
    csum -= s
    csum += sq
    frac2 += csum
    csum, s = s, csum

    h = csum - 1.0
    h += np.add(frac1, frac2, s)
    np.sqrt(h, h)
    np.copyto(s, h)
    _exact_square(s, sq, hi, lo)
    frac1 -= s  # the sum gains -h^2
    np.subtract(csum, sq, s)
    csum -= s
    csum -= sq
    frac2 += csum
    s -= 1.0
    frac1 += frac2
    s += frac1
    s /= np.add(h, h, sq)
    h += s  # the differential correction
    h /= scale
    return h


def _joint_modulus(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """sqrt(alpha^2 + beta^2) entrywise, equal to math.hypot bit for bit.

    np.hypot differs from math.hypot in the last bit on some inputs.
    Inputs of HYPOT_PORT_FLOATS or more run _hypot_port; the rest, and
    any input with a negative entry or with an entry whose larger argument
    is zero, subnormal, 2^1022 or more, or not finite, where the port's
    scaling would not be a normal float, map math.hypot.  The biased
    exponent of max(A, B) is read from the bits, which order like the
    values on nonnegative floats and put any negative one above them all.
    """
    if A.size >= HYPOT_PORT_FLOATS:
        top = np.maximum(A.view(_U64), B.view(_U64))
        top >>= _U64(52)
        if ((top - _U64(1)) < _U64(2044)).all():
            return _hypot_port(A, B, top)
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


def _parent_windows(A: np.ndarray, B: np.ndarray, window: int):
    """Stacked windows A, B of commuting diagrams covering [0, window+3)^2, cut
    to that square, the widest either transform reads, and validated on
    [0, window]^2, and each diagram's weight scale, max(1, largest weight
    there squared); the validation and the scales read slices of the cut."""
    A, B = leading_square(A, B, window + 3, f"evaluation window {window}")
    m = window + 2
    require_commuting(commutativity_residuals(A[:, :m, :m], B[:, :m, :m]))
    n = window + 1
    return A, B, weight_scales(A[:, :n, :n], B[:, :n, :n])


def _read_parents(diagrams, window: int):
    """_parent_windows of the diagrams, read once after a negative window is refused."""
    require_integer("evaluation window", window, 0)
    return _parent_windows(*stacked_windows(diagrams, window + 3), window)


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
    """Toral candidate plus verdict: `commutes` is the condition route's
    flag and `direct_commutes` the direct residual's, on the same cut."""

    diagram: WeightDiagram
    commutes: bool
    condition_residual: float
    direct_residual: float
    direct_witness: tuple
    direct_commutes: bool


def _toral_windows(A: np.ndarray, B: np.ndarray, scales: list, tol: float):
    """(TA, TB, verdicts): the toral candidates of diagrams with the given
    _parent_windows, as stacked (window+2)^2 windows, and per candidate the
    ToralResult fields after `diagram`.

    A decisive disagreement between the condition route and the direct
    residual raises InternalConsistencyError for the first failing diagram.
    """
    conds = _toral_condition_residuals(A, B)
    TA, TB = _toral_rule(A, B)
    verdicts = []
    for cond, (direct, witness), scale in zip(conds, commutativity_residuals(TA, TB), scales):
        cut = tol * scale
        flag, direct_flag = cond <= cut, direct <= cut
        if flag != direct_flag:
            cond_decisive = cond <= cut / DECISIVE_BAND or cond >= cut * DECISIVE_BAND
            direct_decisive = direct <= cut / DECISIVE_BAND or direct >= cut * DECISIVE_BAND
            if cond_decisive and direct_decisive:
                raise InternalConsistencyError(
                    "toral commutativity routes disagree: "
                    f"condition residual {cond:.3e}, direct residual {direct:.3e}"
                )
        verdicts.append((flag, cond, direct, witness, direct_flag))
    return TA, TB, verdicts


def _spherical_windows(A: np.ndarray, B: np.ndarray, scales: list):
    """(SA, SB): the spherical transforms of diagrams with the given
    _parent_windows, as stacked (window+2)^2 windows.

    Their commutativity is asserted on [0, window]^2; the first failing
    diagram raises InternalConsistencyError.
    """
    SA, SB = _spherical_rule(A, B)
    for (resid, witness), scale in zip(commutativity_residuals(SA, SB), scales):
        if resid > SPHERICAL_GUARD_TOL * scale:
            raise InternalConsistencyError(
                f"spherical transform lost commutativity at k={witness}: "
                f"residual {resid:.3e}"
            )
    return SA, SB


def aluthge_windows(A: np.ndarray, B: np.ndarray, window: int) -> tuple:
    """Both transforms of commuting diagrams whose windows A, B stack on a
    leading axis, read on [0, window+3)^2, as stacked windows, no diagram built.

    Returns ((TA, TB, verdicts), (SA, SB)): _toral_windows and
    _spherical_windows.  The parents are validated and scaled once, and
    every check of the two transforms runs once over the stack: validation
    raises first, then the toral stages, then the spherical ones.
    """
    A, B, scales = _parent_windows(A, B, window)
    return _toral_windows(A, B, scales, COMMUTATIVITY_TOL), _spherical_windows(A, B, scales)


def spherical_windows(A: np.ndarray, B: np.ndarray, window: int) -> tuple:
    """_spherical_windows of the _parent_windows of stacked windows A, B on [0, window+3)^2."""
    return _spherical_windows(*_parent_windows(A, B, window))


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
    TA, TB, verdicts = _toral_windows(*_read_parents(diagrams, window), tol)
    candidates = _derived_stack(diagrams, "toral", _toral_rule, TA, TB)
    return [ToralResult(candidate, *verdict) for candidate, verdict in zip(candidates, verdicts)]


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
    SA, SB = _spherical_windows(*_read_parents(diagrams, window))
    return _derived_stack(diagrams, "spherical", _spherical_rule, SA, SB)


def spherical_transform(W: WeightDiagram, *, window: int = DEFAULT_WINDOW) -> WeightDiagram:
    """spherical_transforms of one diagram."""
    return spherical_transforms([W], window=window)[0]


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

    With P the (diagonal) joint modulus, the spherical rule's _joint_modulus
    (math.hypot's value bit for bit), and A_n = sqrt(max(1/n, P)) entrywise:
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
    require_integer("n", n, 1)
    require_integer("truncation level", N, 0)
    A, B = stacked_windows(diagrams, N + 1)
    P = _joint_modulus(A, B)
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
    stack at a window wide enough for the truncation, as toral_transforms
    or spherical_transforms would, but no diagram is built; toral
    candidates are used commuting or not.  The distance is
    max_i ||T_i - T_i'|| on level N, T_i truncated as in continuity_probes;
    T_i - T_i' is a weighted shift, so its norm is the largest difference
    of truncated weights.
    """
    require_integer("truncation level", N, 0)
    if which not in ("toral", "spherical"):
        raise DomainError(f"unknown transform {which!r}")
    parents = _read_parents([W, Wp], max(DEFAULT_WINDOW, N + 2))
    TA, TB = (_toral_windows(*parents, COMMUTATIVITY_TOL)[:2] if which == "toral"
              else _spherical_windows(*parents))
    return max(float(_max_abs(TA[0, :N, : N + 1] - TA[1, :N, : N + 1])),
               float(_max_abs(TB[0, : N + 1, :N] - TB[1, : N + 1, :N])))
