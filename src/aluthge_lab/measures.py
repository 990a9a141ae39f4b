"""Atomic Berger measures and spherical quasinormality.

A commuting pair with moment table gamma is subnormal when some positive
measure reproduces gamma_(m,n) as its (m, n) power moments; for the
families here the measures are finitely atomic, so verification is a
finite moment comparison.  The module also houses the two-atomic
completion machinery: a one-variable weight row plus a constant C
determines a unique commuting diagram with alpha_k^2 + beta_k^2 = C
everywhere, the fixed-point class of the spherical transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagrams import (
    OneVarWeights,
    WeightDiagram,
    as_one_var_weights,
    float_powers,
    leading_square,
    max_weight_gaps,
    moments,
    require_integer,
    require_normal,
    stacked_windows,
)
from .errors import (
    DomainError,
    InfeasibleConstantError,
    InternalConsistencyError,
)
from .limits import (
    DENOM_FLOOR,
    FIXED_POINT_TOL,
    MASS_SUM_TOL,
    QUASINORMAL_BAND,
    QUASINORMAL_TOL,
)
from .transforms import spherical_windows


# ---------------------------------------------------------------------------
# Stampfli's two-atomic construction


@dataclass(frozen=True)
class StampfliData:
    """Two-atomic measure with prescribed first three weights sqrt(a,b,c).

    The measure rho0 delta_{s0} + rho1 delta_{s1} has moments
    gamma_j = rho0 s0^j + rho1 s1^j, and the associated weight sequence
    omega_j = sqrt(gamma_{j+1} / gamma_j) starts sqrt(a), sqrt(b), sqrt(c).
    """

    a: float
    b: float
    c: float
    phi0: float
    phi1: float
    s0: float
    s1: float
    rho0: float
    rho1: float
    weights: OneVarWeights

    def gamma(self, j: int) -> float:
        return self.rho0 * self.s0**j + self.rho1 * self.s1**j


def stampfli(a: float, b: float, c: float) -> StampfliData:
    """Atoms and masses of the two-atomic measure with moments a, ab, abc.

    phi0 = -ab(c-b)/(b-a) and phi1 = b(c-a)/(b-a) are the coefficients of
    the recursion gamma_{j+2} = phi1 gamma_{j+1} + phi0 gamma_j; the atoms
    are the roots of t^2 - phi1 t - phi0.  The solve belongs to the row
    itself: `weights` is the two-atom OneVarWeights with triple (a, b, c).
    """
    om = OneVarWeights(triple=(a, b, c))
    phi0, phi1, s0, s1, rho0, rho1 = om.solve
    a, b, c = om.triple
    return StampfliData(
        a=a, b=b, c=c,
        phi0=phi0, phi1=phi1, s0=s0, s1=s1, rho0=rho0, rho1=rho1,
        weights=om,
    )


# ---------------------------------------------------------------------------
# quasinormal completion from the zeroth row


def _two_atom_completion(om: OneVarWeights, C: float) -> WeightDiagram:
    """Completion of a two-atom row, evaluated through its moment field.

    The constant-sum condition propagates gamma(m, n+1) = C gamma(m, n)
    - gamma(m+1, n), whose solution for a row with atoms s_i and masses
    rho_i is gamma(m, n) = sum_i rho_i s_i^m (C - s_i)^n.  Every term is
    positive, so each weight is a well-conditioned ratio at any lattice
    depth, where the row-by-row recursion would compound relative error
    through its C / beta^2 factors.  A window whose terms leave the normal
    float range (the powers grow or decay geometrically with the depth)
    raises DomainError.
    """
    _, _, s0, s1, rho0, rho1 = om.solve
    if C - s1 <= 0.0:
        raise InfeasibleConstantError(
            f"constant C = {C} is not above the top atom {s1:.6g}"
        )

    atoms = ((rho0, s0), (rho1, s1))

    def window(n1, n2):
        # rho_i s_i^m down the rows times (C - s_i)^n along the columns
        rows = [rho * float_powers(s, n1 + 1)[:, None] for rho, s in atoms]
        cols = [float_powers(C - s, n2 + 1) for _, s in atoms]
        with np.errstate(over="ignore"):
            terms = [r * c for r, c in zip(rows, cols)]
            G = terms[0] + terms[1]
        require_normal(rows + cols + terms + [G], f"moment terms of the {n1}x{n2} weight window")
        return np.sqrt(G[1:, :-1] / G[:-1, :-1]), np.sqrt(G[:-1, 1:] / G[:-1, :-1])

    return WeightDiagram(
        kind="quasinormal-completion",
        params={"omega": om, "constant": C},
        _window=window,
    )


def quasinormal_completion(W0, C: float) -> WeightDiagram:
    """The unique commuting diagram with row zero W0 and alpha^2 + beta^2 = C.

    beta is forced by the constant, beta_k = sqrt(C - alpha_k^2), and
    commutativity then forces alpha_{k+e2} = alpha_k beta_{k+e1} / beta_k,
    so each window propagates upward row by row from a long enough prefix
    of W0.  A point value does not depend on the window it is read from.
    A lattice point of the window where C - alpha_k^2 <= 0 raises
    InfeasibleConstantError when the window is first computed.

    W0 is a value row (finite, flat tail) or a two-atom row given by its
    Stampfli triple; a shifted two-atom row is again one.  Two-atom rows
    bypass the recursion for the closed moment-field form, which stays
    accurate at lattice depths where forward propagation of the quotients
    would lose digits.  Finite rows are safe under the
    recursion: past their flat tail the propagated quotients are exactly
    1, so error stops accumulating with the stored prefix.
    """
    om = as_one_var_weights(W0)
    C = float(C)
    if not (math.isfinite(C) and C > 0.0):
        raise InfeasibleConstantError(f"constant must be positive, got {C}")
    if om.triple is not None:
        return _two_atom_completion(om, C)

    def beta_of(a: np.ndarray) -> np.ndarray:
        d = C - a * a
        if np.any(d <= 0.0):
            raise InfeasibleConstantError(
                f"constant C = {C} is not above alpha^2 = {float(np.max(a * a)):.6g}"
            )
        return np.sqrt(d)

    def window(n1, n2):
        rows = [om.prefix(n1 + n2 - 1)]
        while len(rows) < n2:
            below = rows[-1]
            beta = beta_of(below)
            # this grouping matches the pointwise recursion bit for bit
            rows.append((below[:-1] * beta[1:]) / beta[:-1])
        A = np.array([r[:n1] for r in rows[:n2]]).T.reshape(n1, n2)
        return A, beta_of(A)

    return WeightDiagram(
        kind="quasinormal-completion",
        params={"omega": om, "constant": C},
        _window=window,
    )


# ---------------------------------------------------------------------------
# detection


def _constant_sums(A: np.ndarray, B: np.ndarray, n: int) -> list:
    """(C, dev, cut) of each diagram of windows stacked on a leading axis:
    C = alpha_0^2 + beta_0^2, dev the worst |alpha_k^2 + beta_k^2 - C| on
    [0, n)^2 and cut = QUASINORMAL_TOL max(1, C)."""
    A, B = leading_square(A, B, n, f"the constant-sum scan on [0, {n - 1}]^2")
    S = A**2 + B**2
    Cs = S[:, :1, :1]
    devs = np.abs(S - Cs).max(axis=(1, 2)).tolist()
    return [(C, dev, QUASINORMAL_TOL * max(1.0, C)) for C, dev in zip(Cs.ravel().tolist(), devs)]


def _route_deviations(diagrams, window: int, N: int) -> list:
    """Per diagram, from one read of its window at max(window + 3, N):
    _constant_sums on [0, window]^2, the fixed-point (gap, cut), gap the worst
    weight change under the spherical transform on [0, window]^2 and cut
    FIXED_POINT_TOL max(1, sqrt(C)), and _constant_sums on [0, N)^2."""
    require_integer("evaluation window", window, 0)
    A, B = stacked_windows(diagrams, max(window + 3, N))
    sums = _constant_sums(A, B, window + 1)
    gaps = max_weight_gaps((A, B), spherical_windows(A, B, window), window)
    cuts = [FIXED_POINT_TOL * max(1.0, math.sqrt(C)) for C, _, _ in sums]
    return list(zip(sums, zip(gaps, cuts), _constant_sums(A, B, N)))


def is_spherically_quasinormal(W: WeightDiagram, window: int):
    """(flag, C or None): whether alpha_k^2 + beta_k^2 is constant on the window.

    Two independent routes run on every call: the constant-row scan and
    the fixed-point property of the spherical transform (the transform
    leaves the weights unchanged exactly when the row is constant).  A
    decisive disagreement raises InternalConsistencyError; boundary-thin
    cases resolve by the constant-row scan.  The window is read once, at
    the transform's (window+3)^2.
    """
    ((C, dev_c, cut_c), (dev_f, cut_f), _), = _route_deviations([W], window, 1)
    flag = dev_c <= cut_c
    if flag != (dev_f <= cut_f):
        if ((flag and dev_f > QUASINORMAL_BAND * cut_f)
                or (not flag and dev_c > QUASINORMAL_BAND * cut_c and dev_f <= cut_f)):
            raise InternalConsistencyError(
                "quasinormality routes disagree: constant-row deviation "
                f"{dev_c:.3e}, fixed-point deviation {dev_f:.3e}"
            )
    return (True, C) if flag else (False, None)


def quasinormality_routes_many(diagrams, window: int, N: int) -> list:
    """Raw flags from the three quasinormality detections, per diagram, no reconciliation.

    constant_sum scans alpha_k^2 + beta_k^2 on [0, window]^2; fixed_point
    compares the weights there against their spherical transform; and
    interior_diagonal scans alpha_k^2 + beta_k^2 on [0, N)^2, the
    diagonal of T1*T1 + T2*T2 at the interior of a truncation, read from
    the weights with constant_sum's arithmetic (_constant_sums): it is no
    independent route, so only constant_sum and fixed_point cross-check.
    Each diagram's window is read once, at max(window + 3, N), and every
    route reads a slice of it; each route runs once over all the diagrams
    as one stack.  The three are equivalent for genuine diagrams, which
    the property suites assert by comparing these flags pairwise.
    """
    require_integer("N", N, 1)
    return [
        {"constant_sum": dev_c <= cut_c, "fixed_point": gap <= cut_f,
         "interior_diagonal": dev_i <= cut_i, "constant": C if dev_c <= cut_c else None}
        for (C, dev_c, cut_c), (gap, cut_f), (_, dev_i, cut_i)
        in _route_deviations(diagrams, window, N)
    ]


def quasinormality_routes(W: WeightDiagram, window: int, N: int) -> dict:
    """quasinormality_routes_many of one diagram."""
    return quasinormality_routes_many([W], window, N)[0]


def is_spherical_isometry(W: WeightDiagram, window: int) -> bool:
    """Spherical quasinormality with constant exactly 1 (P^2 = I), to QUASINORMAL_TOL."""
    flag, C = is_spherically_quasinormal(W, window)
    return bool(flag and abs(C - 1.0) <= QUASINORMAL_TOL)


# ---------------------------------------------------------------------------
# atomic measures and Berger verification


@dataclass(frozen=True)
class AtomicMeasure2D:
    """Finitely many atoms (s, t) with masses rho, summing to 1."""

    atoms: tuple  # of (s, t, rho)

    def __post_init__(self):
        if not self.atoms:
            raise DomainError("measure needs at least one atom")
        pts = set()
        total = 0.0
        for s, t, rho in self.atoms:
            if not all(math.isfinite(v) for v in (s, t, rho)):
                raise DomainError("atom coordinates and masses must be finite")
            if s < 0.0 or t < 0.0:
                raise DomainError("atom coordinates must be nonnegative")
            if rho <= 0.0:
                raise DomainError("atom masses must be positive")
            pts.add((s, t))
            total += rho
        if len(pts) != len(self.atoms):
            raise DomainError("atoms must be distinct")
        if abs(total - 1.0) > MASS_SUM_TOL:
            raise DomainError(f"masses must sum to 1, got {total!r}")
        object.__setattr__(
            self, "atoms", tuple((float(s), float(t), float(r)) for s, t, r in self.atoms)
        )

    def moment(self, m: int, n: int) -> float:
        return float(sum(rho * s**m * t**n for s, t, rho in self.atoms))


def quasinormal2_measure(a: float, b: float, c: float) -> AtomicMeasure2D:
    """Berger measure of the completion of the Stampfli row with C = phi1.

    Atoms (s0, s1) and (s1, s0) with masses rho0, rho1: each coordinate
    sees a two-atomic marginal, and the cross pairing encodes the constant
    row sum s0 + s1 = phi1 = C.
    """
    d = stampfli(a, b, c)
    return AtomicMeasure2D(atoms=((d.s0, d.s1, d.rho0), (d.s1, d.s0, d.rho1)))


def berger_atomic_verify(W: WeightDiagram, mu: AtomicMeasure2D, maxdeg: int) -> float:
    """Max relative error between weight moments and measure moments.

    Compares gamma_(m,n) of the diagram against sum_i rho_i s_i^m t_i^n
    over all m + n <= maxdeg.  Denominators are floored, so identically
    zero rows cannot produce spurious blowups.  Raises DomainError when a
    measure moment in that range is not a finite float.
    """
    G = moments(W, maxdeg)._values
    n = maxdeg + 1
    with np.errstate(over="ignore", invalid="ignore"):
        # AtomicMeasure2D.moment's arithmetic, one atom at a time
        M = sum(rho * float_powers(s, n)[:, None] * float_powers(t, n)[None, :]
                for s, t, rho in mu.atoms)
    triangle = np.add.outer(np.arange(n), np.arange(n)) <= maxdeg
    if not np.isfinite(M[triangle]).all():
        raise DomainError(f"moments of the measure up to degree {maxdeg} leave the float range")
    rel = np.abs(G - M)[triangle] / np.maximum(np.abs(G[triangle]), DENOM_FLOOR)
    # fmax skips NaN, as the running Python max(worst, rel) did
    return float(np.fmax.reduce(rel, initial=0.0))


# ---------------------------------------------------------------------------
# Q_T power identity


def qt_power_identity_checks(diagrams, nmax: int, N: int) -> list:
    """max_{n <= nmax} || Q^n(I) - (Q(I))^n ||_max over [0, N]^2, per diagram.

    Q(X) = T1* X T1 + T2* X T2 maps diagonals to diagonals with
    (Q(diag x))_k = alpha_k^2 x_{k+e1} + beta_k^2 x_{k+e2}.  Each iterate
    consumes one lattice margin, so weights are read on a window enlarged
    by nmax, each iterate is kept where it is exact, and every reported
    value is exact for the full operators (no truncation boundary effects).
    Zero for spherically quasinormal diagrams, where both sides are C^n I.
    A non-integer nmax or N raises DomainError and a negative one
    WindowError, before any weight is read.
    """
    require_integer("nmax", nmax, 0)
    require_integer("N", N, 0)
    A, B = stacked_windows(diagrams, N + nmax + 2)
    A2, B2 = A**2, B**2
    cur = np.ones(A.shape)
    worst = np.zeros(len(A))
    for n in range(1, nmax + 1):
        cur = A2[:, :-n, :-n] * cur[:, 1:, :-1] + B2[:, :-n, :-n] * cur[:, :-1, 1:]
        window = cur[:, : N + 1, : N + 1]
        if n == 1:
            first_power = power = window  # cur is rebound, never written
        else:  # fmax skips NaN, as a running Python max(worst, gap) does
            # a running product: np.power's last bit depends on numpy's SIMD dispatch
            power = power * first_power
            worst = np.fmax(worst, np.abs(window - power).max(axis=(1, 2)))
    return worst.tolist()
