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
tests, moments) reads slices of one cached window through `weight_arrays`;
`alpha` and `beta` are point views of the same window.
"""

from __future__ import annotations

import copy
import math
import operator
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
from .limits import (
    COMMUTATIVITY_TOL,
    DENOM_FLOOR,
    MAX_WEIGHT,
    MAX_WINDOW_POINTS,
    MOMENT_REL_TOL,
)


def _check_window_budget(n1: int, n2: int) -> None:
    if n1 * n2 > MAX_WINDOW_POINTS:
        raise WindowError(
            f"a {n1}x{n2} weight window exceeds the budget of {MAX_WINDOW_POINTS} lattice points"
        )


def _check_positive_finite(values, what):
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise InvalidWeightsError(f"{what} must be non-empty")
    if not (arr.min() > 0.0 and arr.max() <= MAX_WEIGHT):  # also fails a NaN
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise InvalidWeightsError(f"{what} must be positive and finite")
        raise InvalidWeightsError(f"{what} must not exceed {MAX_WEIGHT:.3e}")


def float_powers(x: float, n: int) -> np.ndarray:
    """x**0 .. x**(n-1) by Python float **, which np.power does not match
    bit for bit; all inf if any power overflows."""
    try:
        return np.array([x**j for j in range(n)])
    except OverflowError:
        return np.full(n, math.inf)


def require_normal(arrays, what: str) -> None:
    """DomainError unless every entry is a finite, normal, positive float."""
    for X in arrays:
        if not np.all((X >= sys.float_info.min) & (X <= sys.float_info.max)):
            raise DomainError(f"{what} leave the range of normal positive floats")


def _two_atom_solve(a: float, b: float, c: float) -> tuple:
    """(phi0, phi1, s0, s1, rho0, rho1) of the two-atom row starting sqrt(a, b, c).

    phi0 = -ab(c-b)/(b-a) and phi1 = b(c-a)/(b-a) are the coefficients of
    the recursion gamma_{j+2} = phi1 gamma_{j+1} + phi0 gamma_j; the atoms
    are the roots of t^2 - phi1 t - phi0.  For 0 < a < b < c the
    discriminant, atoms and masses are positive in exact arithmetic, so a
    solve leaving that range has hit the limits of floats: DomainError.
    """
    if not (0.0 < a < b < c < math.inf):
        raise DomainError(f"require finite 0 < a < b < c, got ({a}, {b}, {c})")
    out_of_range = DomainError(f"the two-atom solve of ({a}, {b}, {c}) leaves the float range")
    phi0 = -a * b * (c - b) / (b - a)
    phi1 = b * (c - a) / (b - a)
    disc = phi1 * phi1 + 4.0 * phi0
    root = math.sqrt(disc) if disc > 0.0 else math.nan
    s0 = 0.5 * (phi1 - root)
    s1 = 0.5 * (phi1 + root)
    if not 0.0 < s0 < s1 < math.inf:
        raise out_of_range
    rho0 = (s1 - a) / (s1 - s0)
    rho1 = (a - s0) / (s1 - s0)
    if not (rho0 > 0.0 and rho1 > 0.0):
        raise out_of_range
    return phi0, phi1, s0, s1, rho0, rho1


def two_atom_weights(s0: float, s1: float, rho0: float, rho1: float, n: int,
                     what: str) -> np.ndarray:
    """omega_0 .. omega_{n-1} = sqrt(gamma_{j+1} / gamma_j) of the row with
    moments gamma_j = rho0 s0^j + rho1 s1^j; DomainError naming `what` once a
    moment up to gamma_n is not a normal positive float."""
    with np.errstate(over="ignore"):
        g = rho0 * float_powers(s0, n + 1) + rho1 * float_powers(s1, n + 1)
    require_normal([g], what)
    return np.sqrt(g[1:] / g[:-1])


@dataclass(frozen=True)
class OneVarWeights:
    """One-variable weight sequence j -> omega_j with a finite description.

    Exactly one backing is given.  `values` is a finite list with a flat
    tail: omega_j = values[-1] for j past the end.  `triple` = (a, b, c)
    gives a two-atom row, the Stampfli row whose first squared weights are
    a < b < c: with `solve` = (phi0, phi1, s0, s1, rho0, rho1) its moments
    are gamma_j = rho0 s0^j + rho1 s1^j and omega_j = sqrt(gamma_{j+1} /
    gamma_j), read from j = `shift` on (0 but in a row made by `shifted`).
    """

    values: tuple | None = None
    triple: tuple | None = None
    solve: tuple | None = field(default=None, init=False, repr=False, compare=False)
    shift: int = field(default=0, init=False)

    def __post_init__(self):
        if (self.values is None) == (self.triple is None):
            raise DomainError("OneVarWeights needs exactly one of values or triple")
        if self.values is not None:
            _check_positive_finite(self.values, "omega")
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))
            return
        triple = tuple(float(v) for v in self.triple)
        object.__setattr__(self, "triple", triple)
        object.__setattr__(self, "solve", _two_atom_solve(*triple))

    def __call__(self, j: int) -> float:
        j = require_integer("omega index", j, 0)
        if self.values is not None:
            return self.values[min(j, len(self.values) - 1)]
        return float(self.prefix(j + 1)[j])

    def prefix(self, n: int) -> np.ndarray:
        """omega_0 .. omega_{n-1} as a float array, in one pass."""
        if self.values is not None:
            return np.array(self.values)[np.minimum(np.arange(n), len(self.values) - 1)]
        _, _, s0, s1, rho0, rho1 = self.solve
        end = n + self.shift
        what = f"moments of the two-atom row {self.triple} up to gamma_{end}"
        return two_atom_weights(s0, s1, rho0, rho1, end, what)[self.shift:]

    def shifted(self, by: int) -> "OneVarWeights":
        """The sequence j -> omega_{j+by}, by and the shift at most MAX_WINDOW_POINTS.

        A value row drops its first `by` entries, keeping its flat tail.  A
        two-atom row keeps its triple and its solve and adds `by` to its
        shift, so its weights are the parent's bit for bit.
        """
        by = require_integer("shift", by, 0, MAX_WINDOW_POINTS)
        if self.values is not None:
            return OneVarWeights(values=self.values[by:] or self.values[-1:])
        if by == 0:
            return self
        row = copy.copy(self)
        object.__setattr__(row, "shift", require_integer("shift", self.shift + by, 0,
                                                         MAX_WINDOW_POINTS))
        return row


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
    on [0, n1) x [0, n2).  A point value does not depend on the window it
    is read from, so the diagram caches one window, and `weight_arrays`,
    `alpha` and `beta` read slices of it.  The diagram holds no other
    state: commutativity is validated from the windows a caller has read.
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
        k1, k2 = require_integer("lattice index", k1, 0), require_integer("lattice index", k2, 0)
        A, B = self.weight_arrays(k1 + 1, k2 + 1)
        return float(A[k1, k2]), float(B[k1, k2])

    def weight_arrays(self, n1: int, n2: int):
        """(alpha, beta) on [0, n1) x [0, n2) as read-only float arrays.

        The diagram keeps one window.  A request inside it is answered by
        a read-only slice; a miss replaces it by the window on the bounding
        box of the request and the kept window, so any sequence of reads
        leaves one window that covers them all.  A miss whose window would
        exceed MAX_WINDOW_POINTS raises WindowError before reading any weight.
        """
        key = (n1, n2)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        for (m1, m2), (A, B) in self._cache.items():
            if n1 <= m1 and n2 <= m2:
                return A[:n1, :n2], B[:n1, :n2]
            key = (max(n1, m1), max(n2, m2))
        _check_window_budget(*key)
        A, B = self._window(*key)
        A.setflags(write=False)
        B.setflags(write=False)
        self._cache.clear()
        self._cache[key] = (A, B)
        return A[:n1, :n2], B[:n1, :n2]


def stacked_windows(diagrams, n: int):
    """(alpha, beta) of each diagram on [0, n)^2, stacked on a leading axis, even of
    length 0: the one place where a list of diagrams becomes arrays, and so
    where a diagram built by hand is refused (InvalidWeightsError) unless its
    weights there are positive, finite and at most MAX_WEIGHT, as a builder's are."""
    pairs = [W.weight_arrays(n, n) for W in diagrams]
    A = np.array([a for a, _ in pairs], dtype=float).reshape(len(pairs), n, n)
    B = np.array([b for _, b in pairs], dtype=float).reshape(len(pairs), n, n)
    if A.size:
        _check_positive_finite(A, "alpha weights")
        _check_positive_finite(B, "beta weights")
    return A, B


def weight_scales(A: np.ndarray, B: np.ndarray) -> list:
    """max(1, largest squared weight) of each diagram of windows stacked on a leading axis."""
    tops = np.maximum(A.max(axis=(1, 2)), B.max(axis=(1, 2)))
    return [max(1.0, top**2) for top in tops.tolist()]


def commutativity_residuals(A: np.ndarray, B: np.ndarray) -> list:
    """Worst |alpha_k beta_{k+e1} - beta_k alpha_{k+e2}| per diagram of stacked windows.

    A and B hold the windows [0, window+2)^2 of several diagrams on a
    leading axis; the scan covers k in [0, window]^2 in one stacked
    reduction.  Returns one (residual, k) per diagram, k the offending
    lattice point.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # weights built by hand may hold inf
        R = np.abs(A[:, :-1, :-1] * B[:, 1:, :-1] - B[:, :-1, :-1] * A[:, :-1, 1:])
    R = R.reshape(len(R), (A.shape[1] - 1) * (A.shape[2] - 1))  # also for no diagrams
    at = R.argmax(axis=1)  # the first NaN, if any, as max would report NaN
    worst = R[np.arange(len(R)), at].tolist()
    return [(r, divmod(i, A.shape[2] - 1)) for r, i in zip(worst, at.tolist())]


def commutativity_residual(diagram: WeightDiagram, window: int):
    """Worst residual over [0, window]^2 and its lattice point, for one diagram."""
    window = require_integer("evaluation window", window, 0)
    A, B = diagram.weight_arrays(window + 2, window + 2)
    return commutativity_residuals(A[None], B[None])[0]


def as_integer(name: str, value) -> int:
    """value as operator.index reads it (numpy integers pass); DomainError for
    a bool or a non-integer."""
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if index is None or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return index


def require_integer(name: str, value, least: int, most: float = math.inf) -> int:
    """value as an int: DomainError unless it is an integer (as_integer), and
    WindowError if it is below least or above most.  The one bound check of
    an integer argument; callers compute with the int it returns (or int() of
    a checked value), since a narrow numpy integer would wrap."""
    index = as_integer(name, value)
    if index < least:
        raise WindowError(f"{name} must be >= {least}")
    if index > most:
        raise WindowError(f"{name} must be <= {most}")
    return index


def leading_square(A: np.ndarray, B: np.ndarray, n: int, what: str) -> tuple:
    """The leading [0, n)^2 of windows A, B stacked on a leading axis: the one
    width check of a stage that reads windows a caller has read, raising
    WindowError naming the stage `what` when either is narrower."""
    if min(A.shape[1:] + B.shape[1:]) < n:
        raise WindowError(f"{what} reads weight windows [0, {n})^2, "
                          f"given {A.shape[1:]} and {B.shape[1:]}")
    return A[:, :n, :n], B[:, :n, :n]


def require_commuting(residuals) -> None:
    """Raise NonCommutingInputError for the first (residual, k) of
    commutativity_residuals that exceeds COMMUTATIVITY_TOL."""
    for resid, k in residuals:
        if not resid <= COMMUTATIVITY_TOL:  # also fails a NaN residual
            raise NonCommutingInputError(
                f"weights fail commutativity at k={k}: "
                f"residual {resid:.3e} > {COMMUTATIVITY_TOL:.1e}",
                witness=k,
                residual=resid,
            )


def validate_commuting(diagram: WeightDiagram, window: int):
    """Raise NonCommutingInputError unless the residual on [0, window]^2 is <= COMMUTATIVITY_TOL."""
    require_commuting([commutativity_residual(diagram, window)])


def max_weight_gaps(firsts: tuple, seconds: tuple, window: int) -> list:
    """Largest |difference| on [0, window]^2 between paired (alpha, beta) windows
    stacked on a leading axis, per pair."""
    what = f"the weight gap on [0, {window}]^2"
    (A1, B1), (A2, B2) = (leading_square(A, B, window + 1, what) for A, B in (firsts, seconds))
    return np.maximum(np.abs(A1 - A2).max(axis=(1, 2)), np.abs(B1 - B2).max(axis=(1, 2))).tolist()


# ---------------------------------------------------------------------------
# builders


def _diagonal_window(om: OneVarWeights, n1: int, n2: int) -> np.ndarray:
    """omega_{k1+k2} on [0, n1) x [0, n2)."""
    values = om.prefix(n1 + n2 - 1)
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
    ratio = float(y) / om(0)

    def window(n1, n2):
        A = _diagonal_window(om, n1, n2)
        with np.errstate(over="ignore"):  # a beta past the float range is refused where read
            return A, ratio * A

    return WeightDiagram(kind="thm1", params={"omega": om, "y": float(y)}, _window=window)


def _clamped(A: np.ndarray, B: np.ndarray):
    """Window function of a stored rectangle: each coordinate clamps to the
    nearest stored index, also for the stacked rectangles of several tables."""
    rows, cols = A.shape[-2:]

    def window(n1, n2):
        idx = np.ix_(np.minimum(np.arange(n1), rows - 1), np.minimum(np.arange(n2), cols - 1))
        return A[(..., *idx)], B[(..., *idx)]

    return window


def build_tables(alpha_rects, beta_rects, *, window: int | None = None) -> list:
    """build_table of each pair of rectangles of one shape, stacked on a leading axis.

    The weights of the whole stack are checked at once, then every table's
    validation window [0, window+2)^2 is gathered in one index and scanned
    in one commutativity_residuals call; the first failing table raises.
    Each diagram keeps its slice of that stack as its cached window and
    its slice of the copied rectangles as its table.
    """
    shape = DomainError("alpha and beta rectangles must share a 2-d shape")
    try:
        A = np.array(alpha_rects, dtype=float)
        B = np.array(beta_rects, dtype=float)
    except (TypeError, ValueError):  # ragged, or not numbers
        raise shape from None
    if A.ndim != 3 or A.shape != B.shape:
        raise shape
    if not len(A):
        return []
    _check_positive_finite(A, "alpha table")
    _check_positive_finite(B, "beta table")
    _, rows, cols = A.shape
    window = require_integer("evaluation window", rows + cols + 2 if window is None else window, 0)
    n = window + 2
    _check_window_budget(n, n)
    A.setflags(write=False)
    B.setflags(write=False)
    WA, WB = _clamped(A, B)(n, n)
    require_commuting(commutativity_residuals(WA, WB))
    WA.setflags(write=False)
    WB.setflags(write=False)
    return [
        WeightDiagram(
            kind="table",
            params={},
            _window=_clamped(a, b),
            table=(a, b),
            _cache={(n, n): (wa, wb)},
        )
        for a, b, wa, wb in zip(A, B, WA, WB)
    ]


def build_table(alpha_rect, beta_rect, *, window: int | None = None) -> WeightDiagram:
    """Diagram from a stored rectangle of weights with a flat tail.

    Outside the rectangle each coordinate clamps to the nearest stored
    index.  Commutativity (including across the tail seam) is validated on
    [0, window]^2, default rows+cols+2, and a NonCommutingInputError with
    the worst offending point is raised on failure.  The one-table case
    of build_tables.
    """
    return build_tables([alpha_rect], [beta_rect], window=window)[0]


def core_of(diagram: WeightDiagram) -> WeightDiagram:
    """Restriction to indices >= (1,1), re-indexed to start at the origin.

    The core of each built-in kind is again of a built-in kind, so it
    serializes exactly, and it is the restriction bit for bit, but for
    thm1's beta, whose ratio y / omega_0 is recomputed from the rounded
    y omega_2 / omega_0.
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
    if kind == "table" and diagram.table is not None:
        A, B = diagram.table
        i, j = min(1, A.shape[0] - 1), min(1, A.shape[1] - 1)  # a single row clamps to itself
        return build_table(A[i:, j:], B[i:, j:])
    if kind == "quasinormal-completion":
        from .measures import completion_core

        p = diagram.params
        return completion_core(p["omega"], p["constant"], p.get("core", 0) + 1)
    raise DomainError(f"a diagram of kind {kind!r} without its builder's data has no core")


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
        m, n = as_integer("m", m), as_integer("n", n)
        if m < 0 or n < 0 or m + n > self.maxdeg:
            raise WindowError(f"(m, n) = ({m}, {n}) outside degree bound {self.maxdeg}")
        return float(self._values[m, n])


def rows_first_moments(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """gamma on the window of (A, B), gamma(0,0) = 1, filled along the
    path that runs up column 0 to (m, 0), then along row m to (m, n);
    windows stacked on leading axes give their fields stacked alike."""
    G = np.ones(A.shape)
    G[..., 1:, 0] = np.cumprod(A[..., :-1, 0] ** 2, axis=-1)
    G[..., 1:] = G[..., :1] * np.cumprod(B[..., :-1] ** 2, axis=-1)
    return G


def moments(diagram: WeightDiagram, maxdeg: int) -> MomentTable:
    """moment_window_tables of the diagram's window [0, maxdeg]^2, read after the refusal."""
    maxdeg = require_integer("maxdeg", maxdeg, 0)
    return moment_window_tables(*stacked_windows([diagram], maxdeg + 1), maxdeg)[0]


def moment_window_tables(A: np.ndarray, B: np.ndarray, maxdeg: int) -> list:
    """Moment table up to total degree maxdeg, with a path-independence check,
    of each diagram whose weight windows A and B stack on a leading axis, read
    on their leading [0, maxdeg]^2 (a narrower one raises WindowError).

    The table is filled along two extreme monotone paths (rows first vs
    columns first); a relative mismatch above MOMENT_REL_TOL raises
    NonCommutingInputError for the first such diagram, since path
    independence is equivalent to commutativity of the underlying pair.  A
    moment past the float range raises DomainError first.
    """
    maxdeg = require_integer("maxdeg", maxdeg, 0)
    n = maxdeg + 1
    A, B = leading_square(A, B, n, f"the moment table to degree {maxdeg}")
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or 0 * inf: refused below
        rows_first = rows_first_moments(A, B)
        # columns first is the rows-first fill of the mirrored diagram
        cols_first = rows_first_moments(B.swapaxes(1, 2), A.swapaxes(1, 2)).swapaxes(1, 2)
    if not (np.isfinite(rows_first).all() and np.isfinite(cols_first).all()):
        raise DomainError(f"moments up to degree {maxdeg} leave the float range")
    rel = np.abs(rows_first - cols_first) / np.maximum(
        np.maximum(np.abs(rows_first), np.abs(cols_first)), DENOM_FLOOR
    )
    for d, worst in enumerate(rel.reshape(len(rel), -1).argmax(axis=1).tolist()):
        k = divmod(worst, n)
        if rel[d][k] > MOMENT_REL_TOL:
            raise NonCommutingInputError(
                f"moment paths disagree at (m, n) = {k}: "
                f"relative gap {float(rel[d][k]):.3e}",
                witness=k,
                residual=float(rel[d][k]),
            )
    return [MomentTable(maxdeg=maxdeg, _values=G) for G in rows_first]


def moments_1var(omega, nmax: int) -> np.ndarray:
    """gamma_0 .. gamma_nmax for a one-variable shift, gamma_0 = 1; a moment past
    the float range is inf."""
    nmax = require_integer("nmax", nmax, 0)
    om = as_one_var_weights(omega)
    gam = np.ones(nmax + 1)
    if nmax > 0:
        with np.errstate(over="ignore"):
            gam[1:] = np.cumprod([w**2 for w in om.prefix(nmax).tolist()])
    return gam
