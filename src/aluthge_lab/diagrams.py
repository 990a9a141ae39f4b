"""Weight diagrams for commuting pairs of 2-variable weighted shifts.

A diagram assigns positive horizontal weights alpha_k and vertical weights
beta_k to every lattice point k = (k1, k2) of Z_+^2.  The induced pair of
shift operators T1, T2 on l^2(Z_+^2) acts by

    T1 e_k = alpha_k e_{k+(1,0)},    T2 e_k = beta_k e_{k+(0,1)},

and commutes exactly when alpha_k beta_{k+(1,0)} = beta_k alpha_{k+(0,1)}
for every k.  Builders either guarantee that identity by construction or
check it on an evaluation window up to COMMUTATIVITY_TOL.

A diagram is represented by one window function (n1, n2) -> (alpha, beta)
arrays on [0, n1) x [0, n2).  Everything downstream (transforms, positivity
tests, moments) reads those cached windows through `weight_arrays`;
`alpha` and `beta` are point views of the same windows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DomainError,
    InvalidWeightsError,
    NonCommutingInputError,
    WindowError,
)

# Absolute tolerance on the commutativity residual alpha_k beta_{k+e1} - beta_k alpha_{k+e2}.
COMMUTATIVITY_TOL = 1e-12
# Relative tolerance for path independence of moment tables.
MOMENT_REL_TOL = 1e-10
# Relative-error denominators are floored at this value.
DENOM_FLOOR = 1e-30
# A truncation at level N is validated on the window [0, N + WINDOW_MARGIN]^2.
WINDOW_MARGIN = 2
# Largest accepted stored weight: squares and pairwise products stay finite.
MAX_WEIGHT = math.sqrt(sys.float_info.max)


def _check_positive_finite(values, what):
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise InvalidWeightsError(f"{what} must be non-empty")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise InvalidWeightsError(f"{what} must be positive and finite")
    if np.any(arr > MAX_WEIGHT):
        raise InvalidWeightsError(f"{what} must not exceed {MAX_WEIGHT:.3e}")


@dataclass(frozen=True)
class OneVarWeights:
    """One-variable weight sequence j -> omega_j with a finite description.

    Backed either by a finite list with a flat tail (omega_j = values[-1]
    for j past the end) or by a closed-form callable carrying a tag that
    serialization understands.
    """

    values: tuple | None = None
    fn: Callable[[int], float] | None = None
    tag: str = "list"

    def __post_init__(self):
        if (self.values is None) == (self.fn is None):
            raise DomainError("OneVarWeights needs exactly one of values or fn")
        if self.values is not None:
            _check_positive_finite(self.values, "omega")
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def __call__(self, j: int) -> float:
        if j < 0:
            raise WindowError("omega index must be nonnegative")
        if self.values is not None:
            return self.values[min(j, len(self.values) - 1)]
        return self.fn(j)

    def shifted(self, by: int) -> "OneVarWeights":
        """The sequence j -> omega_{j+by}."""
        if self.values is not None:
            vals = self.values[by:] or self.values[-1:]
            return OneVarWeights(values=vals)
        base = self
        return OneVarWeights(fn=lambda j: base(j + by), tag=f"{self.tag}+shift{by}")

    def prefix(self, n: int) -> list:
        return [self(j) for j in range(n)]


def as_one_var_weights(omega) -> OneVarWeights:
    if isinstance(omega, OneVarWeights):
        return omega
    if isinstance(omega, (list, tuple, np.ndarray)):
        return OneVarWeights(values=tuple(float(v) for v in omega))
    raise DomainError(f"cannot interpret {type(omega).__name__} as a weight sequence")


@dataclass(frozen=True)
class WeightDiagram:
    """An immutable 2-variable weight diagram.

    `kind` names the builder that made the diagram ("table", "theta",
    "prop2", "thm1", "quasinormal-completion", or "derived" for a
    transform) and `params` holds whatever it needs to reproduce it; `table`
    is the stored rectangle for table-kind diagrams and None for lazily
    evaluated ones.  `_window` maps (n1, n2) to the (alpha, beta) arrays
    on [0, n1) x [0, n2); each window is computed once and cached.  A point
    value does not depend on the window it is read from, so `alpha` and
    `beta` read whichever cached window covers the point.
    """

    kind: str
    params: dict
    _window: Callable[[int, int], tuple]
    table: tuple | None = None  # (alpha_rect, beta_rect) as ndarrays
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def alpha(self, k1: int, k2: int) -> float:
        return self._point(k1, k2)[0]

    def beta(self, k1: int, k2: int) -> float:
        return self._point(k1, k2)[1]

    def _point(self, k1: int, k2: int):
        if k1 < 0 or k2 < 0:
            raise WindowError("lattice indices must be nonnegative")
        for (n1, n2), (A, B) in self._cache.items():
            if k1 < n1 and k2 < n2:
                return float(A[k1, k2]), float(B[k1, k2])
        # Grow to the bounding box of the point and every cached window; the
        # new window covers them all, so a point-by-point scan keeps one.
        n1 = max([k1 + 1] + [key[0] for key in self._cache])
        n2 = max([k2 + 1] + [key[1] for key in self._cache])
        self._cache.clear()
        A, B = self.weight_arrays(n1, n2)
        return float(A[k1, k2]), float(B[k1, k2])

    def weight_arrays(self, n1: int, n2: int):
        """(alpha, beta) on [0, n1) x [0, n2) as read-only float arrays."""
        key = (n1, n2)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        A, B = self._window(n1, n2)
        A.setflags(write=False)
        B.setflags(write=False)
        self._cache[key] = (A, B)
        return A, B

    def weight_bound(self, window: int = 14) -> float:
        """sup of all weights over the evaluation window [0, window]^2."""
        A, B = self.weight_arrays(window + 1, window + 1)
        return float(max(A.max(), B.max()))


def commutativity_residual(diagram: WeightDiagram, window: int):
    """Worst |alpha_k beta_{k+e1} - beta_k alpha_{k+e2}| over [0, window]^2.

    Returns (residual, k) with k the offending lattice point.
    """
    A, B = diagram.weight_arrays(window + 2, window + 2)
    R = A[:-1, :-1] * B[1:, :-1] - B[:-1, :-1] * A[:-1, 1:]
    flat = int(np.argmax(np.abs(R)))
    k = np.unravel_index(flat, R.shape)
    return float(abs(R[k])), (int(k[0]), int(k[1]))


def validate_commuting(diagram: WeightDiagram, window: int, tol: float = COMMUTATIVITY_TOL):
    resid, k = commutativity_residual(diagram, window)
    if not resid <= tol:  # also fails a NaN residual
        raise NonCommutingInputError(
            f"weights fail commutativity at k={k}: residual {resid:.3e} > {tol:.1e}",
            witness=k,
            residual=resid,
        )


# ---------------------------------------------------------------------------
# builders


def _diagonal_window(om: OneVarWeights, n1: int, n2: int) -> np.ndarray:
    """omega_{k1+k2} on [0, n1) x [0, n2)."""
    values = np.array(om.prefix(n1 + n2 - 1), dtype=float)
    return values[np.add.outer(np.arange(n1), np.arange(n2))]


def build_theta(omega) -> WeightDiagram:
    """Lift a one-variable weight sequence: alpha_k = beta_k = omega_{k1+k2}.

    The lift commutes for every omega since both sides of the commutativity
    identity equal omega_{k1+k2} omega_{k1+k2+1}.
    """
    om = as_one_var_weights(omega)

    def window(n1, n2):
        A = _diagonal_window(om, n1, n2)
        return A, A

    return WeightDiagram(kind="theta", params={"omega": om}, _window=window)


def build_prop2(x: float, y: float) -> WeightDiagram:
    """One-parameter corner perturbation of the flat lift.

    alpha_(0,0) = beta_(0,0) = x; alpha_(0,k2) = y and beta_(k1,0) = y for
    k1, k2 >= 1; every remaining weight is 1.  Requires 0 < x < 1, 0 < y < 1.
    """
    if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
        raise DomainError(f"require 0 < x < 1 and 0 < y < 1, got x={x}, y={y}")

    def window(n1, n2):
        A = np.ones((n1, n2))
        B = np.ones((n1, n2))
        A[:1, :] = y
        B[:, :1] = y
        A[:1, :1] = B[:1, :1] = x
        return A, B

    return WeightDiagram(kind="prop2", params={"x": float(x), "y": float(y)}, _window=window)


def build_thm1(omega, y: float) -> WeightDiagram:
    """Diagonal-graded diagram with proportional rows.

    alpha_k = omega_{k1+k2} and beta_k = (y/a) omega_{k1+k2} with a = omega_0.
    This is exactly the family on which the toral and spherical transforms
    coincide, which the test suite asserts.
    """
    om = as_one_var_weights(omega)
    if not (math.isfinite(y) and y > 0.0):
        raise DomainError(f"require y > 0, got y={y}")
    ratio = y / om(0)

    def window(n1, n2):
        A = _diagonal_window(om, n1, n2)
        return A, ratio * A

    return WeightDiagram(kind="thm1", params={"omega": om, "y": float(y)}, _window=window)


def build_table(alpha_rect, beta_rect, *, window: int | None = None) -> WeightDiagram:
    """Diagram from a stored rectangle of weights with a flat tail.

    Outside the rectangle each coordinate clamps to the nearest stored
    index.  Commutativity (including across the tail seam) is validated on
    [0, window]^2, default rows+cols+2, and a NonCommutingInputError with
    the worst offending point is raised on failure.
    """
    A = np.asarray(alpha_rect, dtype=float)
    B = np.asarray(beta_rect, dtype=float)
    if A.ndim != 2 or A.shape != B.shape:
        raise DomainError("alpha and beta rectangles must share a 2-d shape")
    _check_positive_finite(A, "alpha table")
    _check_positive_finite(B, "beta table")
    rows, cols = A.shape
    A = A.copy()
    B = B.copy()
    A.setflags(write=False)
    B.setflags(write=False)

    def clamped(n1, n2):
        idx = np.ix_(np.minimum(np.arange(n1), rows - 1), np.minimum(np.arange(n2), cols - 1))
        return A[idx], B[idx]

    diagram = WeightDiagram(
        kind="table",
        params={"rows": rows, "cols": cols, "tail_rule": "flat"},
        _window=clamped,
        table=(A, B),
    )
    validate_commuting(diagram, rows + cols + 2 if window is None else window)
    return diagram


def core_of(diagram: WeightDiagram) -> WeightDiagram:
    """Restriction to indices >= (1,1), re-indexed to start at the origin.

    The core of each built-in kind is again of a built-in kind, so the
    result serializes exactly.
    """
    kind = diagram.kind
    if kind == "theta":
        return build_theta(diagram.params["omega"].shifted(2))
    if kind == "prop2":
        return build_theta([1.0])
    if kind == "thm1":
        om = diagram.params["omega"]
        y = diagram.params["y"]
        shifted = om.shifted(2)
        return build_thm1(shifted, y * shifted(0) / om(0))
    if kind == "table":
        A, B = diagram.table
        rows, cols = A.shape
        r2, c2 = max(rows - 1, 1), max(cols - 1, 1)
        ia = np.minimum(np.arange(1, r2 + 1), rows - 1)
        ja = np.minimum(np.arange(1, c2 + 1), cols - 1)
        return build_table(A[np.ix_(ia, ja)], B[np.ix_(ia, ja)])
    if kind == "quasinormal-completion":
        # constant row sum survives restriction, so the core is the
        # completion of its own zeroth row with the same constant
        from .measures import quasinormal_completion, stampfli

        om = diagram.params["omega"]
        C = diagram.params["constant"]
        if om.tag.startswith("stampfli:"):
            # the core row is again two-atomic (same atoms, masses
            # reweighted), so its first three squared weights pin it down
            row = stampfli(
                diagram.alpha(1, 1) ** 2,
                diagram.alpha(2, 1) ** 2,
                diagram.alpha(3, 1) ** 2,
            ).weights
        elif om.values is not None:
            # past a finite row's flat tail the completion repeats its
            # zeroth row exactly, so a finite prefix captures the core row
            A, _ = diagram.weight_arrays(max(len(om.values), 2), 2)
            row = OneVarWeights(values=A[1:, 1])
        else:
            row = OneVarWeights(
                fn=lambda j: diagram.alpha(j + 1, 1),
                tag=f"{om.tag}+core",
            )
        return quasinormal_completion(row, C)
    raise DomainError(f"unknown diagram kind {kind!r}")


# ---------------------------------------------------------------------------
# moments


@dataclass(frozen=True)
class MomentTable:
    """Moments gamma_(m,n) of a diagram for 0 <= m + n <= maxdeg.

    gamma_(0,0) = 1, gamma_{k+e1} = alpha_k^2 gamma_k and
    gamma_{k+e2} = beta_k^2 gamma_k; commutativity makes the value path
    independent, which `moments` verifies.
    """

    maxdeg: int
    _values: np.ndarray

    def gamma(self, m: int, n: int) -> float:
        if m < 0 or n < 0 or m + n > self.maxdeg:
            raise WindowError(f"(m, n) = ({m}, {n}) outside degree bound {self.maxdeg}")
        return float(self._values[m, n])


def moments(diagram: WeightDiagram, maxdeg: int) -> MomentTable:
    """Moment table up to total degree maxdeg with a path-independence check.

    The table is filled along two extreme monotone paths (rows first vs
    columns first); a relative mismatch above MOMENT_REL_TOL raises
    NonCommutingInputError, since path independence is equivalent to
    commutativity of the underlying pair.
    """
    if maxdeg < 0:
        raise WindowError("maxdeg must be nonnegative")
    n = maxdeg + 1
    A, B = diagram.weight_arrays(n, n)
    rows_first = np.ones((n, n))
    rows_first[1:, 0] = np.cumprod(A[:-1, 0] ** 2)
    rows_first[:, 1:] = rows_first[:, :1] * np.cumprod(B[:, :-1] ** 2, axis=1)
    cols_first = np.ones((n, n))
    cols_first[0, 1:] = np.cumprod(B[0, :-1] ** 2)
    cols_first[1:, :] = cols_first[:1, :] * np.cumprod(A[:-1, :] ** 2, axis=0)
    rel = np.abs(rows_first - cols_first) / np.maximum(
        np.maximum(np.abs(rows_first), np.abs(cols_first)), DENOM_FLOOR
    )
    worst = int(np.argmax(rel))
    k = np.unravel_index(worst, rel.shape)
    if rel[k] > MOMENT_REL_TOL:
        raise NonCommutingInputError(
            f"moment paths disagree at (m, n) = {tuple(int(v) for v in k)}: "
            f"relative gap {float(rel[k]):.3e}",
            witness=(int(k[0]), int(k[1])),
            residual=float(rel[k]),
        )
    return MomentTable(maxdeg=maxdeg, _values=rows_first)


def moments_1var(omega, nmax: int) -> np.ndarray:
    """gamma_0 .. gamma_nmax for a one-variable shift, gamma_0 = 1."""
    om = as_one_var_weights(omega)
    gam = np.ones(nmax + 1)
    if nmax > 0:
        gam[1:] = np.cumprod([om(j) ** 2 for j in range(nmax)])
    return gam


# ---------------------------------------------------------------------------
# truncation


@dataclass(frozen=True)
class TruncatedPair:
    """Dense matrices of T1, T2 on span{e_k : 0 <= k1, k2 <= N}.

    Basis order is idx(k1, k2) = k1 * (N + 1) + k2.  P_diag holds the
    untruncated values sqrt(alpha_k^2 + beta_k^2) for every window point,
    not the diagonal of the compressed operator.
    """

    N: int
    T1: np.ndarray
    T2: np.ndarray
    P_diag: np.ndarray

    def index(self, k1: int, k2: int) -> int:
        if not (0 <= k1 <= self.N and 0 <= k2 <= self.N):
            raise WindowError(f"({k1}, {k2}) outside truncation level {self.N}")
        return k1 * (self.N + 1) + k2


def truncate(diagram: WeightDiagram, N: int) -> TruncatedPair:
    if N < 0:
        raise WindowError("truncation level must be nonnegative")
    n = N + 1
    A, B = diagram.weight_arrays(n, n)
    dim = n * n
    T1 = np.zeros((dim, dim))
    T2 = np.zeros((dim, dim))
    ks = np.arange(n)
    for k1 in range(N):
        T1[(k1 + 1) * n + ks, k1 * n + ks] = A[k1, :]
    for k1 in range(n):
        T2[k1 * n + ks[:-1] + 1, k1 * n + ks[:-1]] = B[k1, :-1]
    P = np.hypot(A, B).ravel()
    for M in (T1, T2, P):
        M.setflags(write=False)
    return TruncatedPair(N=N, T1=T1, T2=T2, P_diag=P)
