"""Hyponormality tests for shift pairs, weight-level and operator-level.

The weight-level route is the six-point test: the pair is jointly
hyponormal exactly when, for every lattice point k, the 2x2 matrix

    M(k) = [[alpha_{k+e1}^2 - alpha_k^2,   alpha_{k+e2} beta_{k+e1} - alpha_k beta_k],
            [      (same off-diagonal),     beta_{k+e2}^2 - beta_k^2             ]]

is positive semidefinite.  The operator-level object is the block
commutator matrix ([(T^q)*, T^p])_{p,q}, 1 <= |p|, |q| <= k, compressed to
basis vectors e_v with v in a window [0, Mc]^2; its entries there involve
only finitely many weights, and the compression of a PSD operator matrix
is PSD, so the finite verdict is a sound necessary condition at any order.

Since T^p e_v = ||T^p e_v|| e_{v+p}, row (p, e_v) of the compressed matrix
meets only rows (q, e_{v-p+q}): the matrix is orthogonally similar to the
direct sum over u in [-k, Mc]^2 of the blocks

    B_u[p, q] = ||T^p e_{u+q}|| ||T^q e_{u+p}|| - [u >= 0] ||T^p e_u|| ||T^q e_u||

restricted to the rows p with u + p in [0, Mc]^2, which is how the
order-k matrix is evaluated here: one window of weights, one stacked
eigensolve, no dense operator.  For u >= 0 scaling B_u by
diag sqrt(gamma_{u+p}) gives, for a commuting pair, the Schur complement
at gamma_u of the Curto-Lee-Yoon moment matrix (gamma_{u+p+q})_{|p|,|q|<=k}.

At order one the full blocks are the six-point blocks M(j) over the
compression interior and the partial ones are rim terms
alpha(u1, M)^2 - alpha(u1-1, M)^2 and beta(M, u2)^2 - beta(M, u2-1)^2 and
wall terms alpha(0, k2)^2, beta(k1, 0)^2.  joint_hyponormal checks that
spectral identity on every call: the closed-form six-point, rim and wall
minimum against the eigensolved order-1 lattice blocks.  A mismatch is a
package bug and raises InternalConsistencyError.  The dense operator
construction survives only as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagrams import MomentTable, WeightDiagram, as_one_var_weights, moments_1var
from .errors import DomainError, InternalConsistencyError, WindowError
from .linalg import PSD_TOL, SYMMETRY_TOL

# The order-1 spectral identity must hold to this absolute-per-scale level.
CROSS_CHECK_TOL = 1e-8


@dataclass(frozen=True)
class PsdVerdict:
    is_psd: bool
    min_eigenvalue: float
    tol: float
    dim: int


def psd_check(M, tol: float = PSD_TOL) -> PsdVerdict:
    """PSD verdict with the scaled cutoff min eig >= -tol * max(1, ||M||)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DomainError("psd_check expects a square matrix")
    if M.size == 0:
        return PsdVerdict(is_psd=True, min_eigenvalue=0.0, tol=tol, dim=0)
    skew = float(np.max(np.abs(M - M.T)))
    if skew > SYMMETRY_TOL * max(1.0, float(np.max(np.abs(M)))):
        raise DomainError(f"matrix is not symmetric: max skew {skew:.3e}")
    return _eig_verdict(np.linalg.eigvalsh(0.5 * (M + M.T)), tol, M.shape[0])


def _eig_verdict(eigs, tol: float, dim: int) -> PsdVerdict:
    lo = float(eigs.min())
    scale = max(1.0, float(np.abs(eigs).max()))
    return PsdVerdict(is_psd=lo >= -tol * scale, min_eigenvalue=lo, tol=tol, dim=dim)


# ---------------------------------------------------------------------------
# six-point test


def _six_point_fields(W: WeightDiagram, N: int):
    """(p, q, r, min eig) arrays of M(k) over k in [0, N]^2."""
    A, B = W.weight_arrays(N + 2, N + 2)
    p = A[1:, :-1] ** 2 - A[:-1, :-1] ** 2
    r = B[:-1, 1:] ** 2 - B[:-1, :-1] ** 2
    q = A[:-1, 1:] * B[1:, :-1] - A[:-1, :-1] * B[:-1, :-1]
    mineigs = 0.5 * (p + r) - np.hypot(0.5 * (p - r), q)
    return p, q, r, mineigs


def six_point_matrix(W: WeightDiagram, k1: int, k2: int) -> np.ndarray:
    a0 = W.alpha(k1, k2)
    b0 = W.beta(k1, k2)
    p = W.alpha(k1 + 1, k2) ** 2 - a0**2
    r = W.beta(k1, k2 + 1) ** 2 - b0**2
    q = W.alpha(k1, k2 + 1) * W.beta(k1 + 1, k2) - a0 * b0
    return np.array([[p, q], [q, r]])


def six_point_test(W: WeightDiagram, k, tol: float = PSD_TOL):
    """M(k) and its PSD verdict for a single lattice point k = (k1, k2)."""
    M = six_point_matrix(W, k[0], k[1])
    return M, psd_check(M, tol)


# ---------------------------------------------------------------------------
# componentwise (each T_i hyponormal on its own)


def componentwise_hyponormal(W: WeightDiagram, N: int, tol: float = PSD_TOL):
    """(alpha nondecreasing along e1, beta nondecreasing along e2) on [0, N]^2.

    Runs on squared weights with the same scaled cutoff as the PSD tests,
    so a jointly hyponormal verdict always implies both flags (the
    diagonal of M(k) consists of exactly these differences).
    """
    A, B = W.weight_arrays(N + 2, N + 2)
    d1 = A[1:, :-1] ** 2 - A[:-1, :-1] ** 2
    d2 = B[:-1, 1:] ** 2 - B[:-1, :-1] ** 2
    cut = tol * max(1.0, float(max(A.max(), B.max())) ** 2)
    return bool(d1.min() >= -cut), bool(d2.min() >= -cut)


# ---------------------------------------------------------------------------
# joint hyponormality with the operator-level cross-check


@dataclass(frozen=True)
class HypoReport:
    """Collected hyponormality verdicts for one diagram and window.

    worst_witness is (lattice point, M(k)) at the most negative six-point
    eigenvalue when the joint test fails, else None.  k_hypo maps order k
    to its verdict for the orders actually computed.
    """

    componentwise: tuple
    joint: bool
    k_hypo: dict
    worst_witness: tuple | None
    joint_min_eig: float
    levels: dict


def joint_hyponormal(W: WeightDiagram, N: int, tol: float = PSD_TOL):
    """Joint hyponormality on [0, N]^2, returned as (flag, HypoReport).

    The verdict is the six-point scan.  When N >= 4 the call also
    eigensolves the order-1 lattice blocks of the block commutator matrix
    compressed to [0, N-3]^2 and asserts the exact spectral identity
    relating their minimum to the six-point, rim, and wall terms;
    disagreement beyond round-off raises InternalConsistencyError.
    """
    _, _, _, mineigs = _six_point_fields(W, N)
    A, B = W.weight_arrays(N + 2, N + 2)
    scale = max(1.0, float(max(A.max(), B.max())) ** 2)
    cut = tol * scale
    worst = float(mineigs.min())
    flat = int(np.argmin(mineigs))
    k = tuple(int(v) for v in np.unravel_index(flat, mineigs.shape))
    flag = worst >= -cut

    if N >= 4:
        Mc = N - 3
        rim_a = A[1 : Mc + 1, Mc] ** 2 - A[:Mc, Mc] ** 2
        rim_b = B[Mc, 1 : Mc + 1] ** 2 - B[Mc, :Mc] ** 2
        wall = min(float(np.min(A[0, : Mc + 1] ** 2)), float(np.min(B[: Mc + 1, 0] ** 2)))
        predicted = min(
            float(mineigs[:Mc, :Mc].min()),
            float(rim_a.min()),
            float(rim_b.min()),
            wall,
        )
        block = float(_lattice_block_eigs(W, 1, Mc + 1).min())
        if abs(block - predicted) > CROSS_CHECK_TOL * scale:
            raise InternalConsistencyError(
                "order-1 operator block disagrees with the six-point "
                f"decomposition: block min eig {block:.6e}, "
                f"predicted {predicted:.6e}"
            )

    report = HypoReport(
        componentwise=componentwise_hyponormal(W, N, tol),
        joint=flag,
        k_hypo={1: flag},
        worst_witness=None if flag else (k, six_point_matrix(W, k[0], k[1])),
        joint_min_eig=worst,
        levels={1: N},
    )
    return flag, report


# ---------------------------------------------------------------------------
# k-hyponormality


def _graded_multi_indices(k: int):
    out = []
    for g in range(1, k + 1):
        out.extend(sorted((p1, g - p1) for p1 in range(g + 1)))
    return out


def _lattice_block_eigs(W: WeightDiagram, k: int, size: int) -> np.ndarray:
    """Eigenvalues of the blocks B_u, u in [-k, size-1]^2, stacked (module docstring).

    The blocks span the order-k block commutator matrix compressed to
    [0, size-1]^2, read from the weight window [0, size+k)^2.  Dropped rows
    carry decoupled filler eigenvalues inside the true spectral range, so
    the minimum and the largest magnitude are those of the compressed matrix.
    """
    ps = _graded_multi_indices(k)
    m = len(ps)
    nu = size + k  # block labels u in [-k, size-1]^2, stored at u + (k, k)
    A, B = W.weight_arrays(size + k, size + k)
    # norms[i] holds ||T^{p_i} e_w|| at w + (k, k), zero off the window
    norms = np.zeros((m, nu + k, nu + k))
    inside = np.zeros((nu + k, nu + k), dtype=bool)
    inside[k : k + size, k : k + size] = True
    for i, (p1, p2) in enumerate(ps):
        path = np.ones((size, size))
        for j in range(p2):  # T^p applies T2 first, then T1
            path = path * B[:size, j : j + size]
        for j in range(p1):
            path = path * A[j : j + size, p2 : p2 + size]
        norms[i, k : k + size, k : k + size] = path

    def at(X, p):  # X at u + p for every block label u
        return X[..., p[0] : p[0] + nu, p[1] : p[1] + nu]

    cross = np.stack([at(norms, p) for p in ps], axis=1)  # ||T^{p_i} e_{u+p_j}||
    keep = np.stack([at(inside, p) for p in ps])
    base = norms[:, :nu, :nu] * keep  # ||T^{p_i} e_u||, zero for u < 0 or dropped rows
    blocks = cross * cross.transpose(1, 0, 2, 3) - base[:, None] * base[None, :]
    blocks = np.moveaxis(blocks, (0, 1), (2, 3)).reshape(-1, m, m)
    kept = np.moveaxis(keep, 0, 2).reshape(-1, m)
    i = np.arange(m)
    diag = blocks[:, i, i]
    # A dropped row becomes a decoupled eigenvalue equal to the largest kept
    # diagonal entry, which lies in [min eig, max eig]: neither changes.
    blocks[:, i, i] = np.where(kept, diag, diag[kept].max())
    return np.linalg.eigvalsh(blocks)


def k_hyponormal_verdict(W: WeightDiagram, k: int, N: int, tol: float = PSD_TOL) -> PsdVerdict:
    """PSD verdict of the compressed order-k block commutator matrix.

    Blocks are [(T^q)*, T^p] for multi-indices 1 <= |p|, |q| <= k in graded
    lexicographic order, with T^p = T1^{p1} T2^{p2}, compressed to basis
    vectors e_v with v in [0, Mc]^2, Mc = N - (2k+1).  The matrix is
    evaluated as its direct sum of blocks B_u, u in [-k, Mc]^2 (module
    docstring), from one weight window [0, N-k)^2 and one stacked
    eigensolve; the verdict is a sound necessary condition for
    k-hyponormality.  `dim` is the size m (Mc+1)^2 of the compressed matrix.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if N < 4 * k + 2:
        raise WindowError(f"k = {k} needs truncation level N >= {4 * k + 2}, got {N}")
    size = N - 2 * k  # compression window [0, Mc]^2
    m = len(_graded_multi_indices(k))
    return _eig_verdict(_lattice_block_eigs(W, k, size), tol, m * size * size)


def k_hyponormal(W: WeightDiagram, k: int, N: int, tol: float = PSD_TOL) -> bool:
    return k_hyponormal_verdict(W, k, N, tol).is_psd


def full_hypo_report(W: WeightDiagram, N: int, kmax: int = 1, tol: float = PSD_TOL) -> HypoReport:
    """Componentwise, joint, and order-k verdicts up to kmax in one report.

    Each order k runs at level max(N, 4k+2) so no order silently degrades;
    the levels used are recorded.  A decisive hierarchy violation between
    consecutive orders (PSD margins clear on both sides, verdicts inverted)
    raises InternalConsistencyError.
    """
    flag, report = joint_hyponormal(W, N, tol)
    k_map = dict(report.k_hypo)
    levels = dict(report.levels)
    verdicts = {1: None}
    for k in range(2, kmax + 1):
        level = max(N, 4 * k + 2)
        v = k_hyponormal_verdict(W, k, level, tol)
        k_map[k] = v.is_psd
        levels[k] = level
        verdicts[k] = v
    for k in range(2, kmax + 1):
        if k_map[k] and not k_map[k - 1]:
            upper = verdicts[k]
            lower_margin = (
                report.joint_min_eig if k == 2 else verdicts[k - 1].min_eigenvalue
            )
            if upper.min_eigenvalue > 0 and lower_margin < -100 * tol:
                raise InternalConsistencyError(
                    f"hyponormality hierarchy inverted between k={k - 1} and k={k}"
                )
    return HypoReport(
        componentwise=report.componentwise,
        joint=flag,
        k_hypo=k_map,
        worst_witness=report.worst_witness,
        joint_min_eig=report.joint_min_eig,
        levels=levels,
    )


# ---------------------------------------------------------------------------
# one-variable tests


def one_var_k_hyponormal(omega, k: int, nmax: int | None = None, tol: float = PSD_TOL) -> bool:
    """Hankel characterization for a one-variable shift.

    shift(omega) is k-hyponormal iff the (k+1)x(k+1) Hankel matrices
    (gamma_{n+i+j})_{i,j} are PSD for every n >= 0; this checks
    n = 0 .. nmax.  The default window nmax = 4k + 6 matches the moment
    range visible to the 2-variable order-k test at level 4k + 4.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    om = as_one_var_weights(omega)
    if nmax is None:
        nmax = 4 * k + 6
    gam = moments_1var(om, nmax + 2 * k)
    steps = np.add.outer(np.arange(k + 1), np.arange(k + 1))
    for n in range(nmax + 1):
        if not psd_check(gam[n + steps], tol).is_psd:
            return False
    return True


def moment_matrix_psd(table: MomentTable, k: int, base: tuple = (0, 0), tol: float = PSD_TOL) -> PsdVerdict:
    """PSD verdict of the 2-variable moment matrix (gamma_{base+p+q})_{p,q}.

    Rows and columns run over the graded multi-indices |p| <= k including
    (0,0).  Needs maxdeg >= base1 + base2 + 2k.
    """
    ps = [(0, 0)] + _graded_multi_indices(k)
    M = np.array(
        [
            [table.gamma(base[0] + p1 + q1, base[1] + p2 + q2) for (q1, q2) in ps]
            for (p1, p2) in ps
        ]
    )
    return psd_check(M, tol)
