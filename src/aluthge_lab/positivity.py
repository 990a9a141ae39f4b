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
order-k matrix is evaluated here: one window of weights, no dense
operator.  Each path norm ||T^p e_w|| is the one of p - e1 (of p - e2
when p1 = 0) times one weight, so T2 steps come first.  Most blocks are
diagonal, and a diagonal block's spectrum is its diagonal; only the
coupled ones are eigensolved, each distinct one once (_lattice_block_eigs,
_coupled_eigs).  For u >= 0 scaling B_u by diag sqrt(gamma_{u+p}) gives,
for a commuting pair, the Schur complement at gamma_u of the Curto-Lee-Yoon
moment matrix (gamma_{u+p+q})_{|p|,|q|<=k}.

At order one the full blocks are the six-point blocks M(j) over the
compression interior and the partial ones are rim terms
alpha(u1, M)^2 - alpha(u1-1, M)^2 and beta(M, u2)^2 - beta(M, u2-1)^2 and
wall terms alpha(0, k2)^2, beta(k1, 0)^2.  joint_hyponormal checks that
spectral identity on every call: the closed-form six-point, rim and wall
minimum against the eigensolved order-1 lattice blocks.  A mismatch is a
package bug and raises InternalConsistencyError.  The dense operator
construction survives only as a test oracle.

Each test has one body on weight windows stacked on a leading axis
(joint_window_reports, k_window_verdicts, hypo_window_orders,
componentwise_window_flags), which classify_many and reproduce call on
the windows they hold; each diagram-level form reads its diagrams once,
after every refusal, and calls the body.  A body that takes a level
reads the leading square of what it is given (diagrams.leading_square,
WindowError for a narrower stack): the joint test at level N reads
[0, N+2)^2 and order k at level L reads [0, L-k)^2.  _block_stack_size
is the one block budget: it refuses a diagram whose order-k blocks
exceed MAX_BLOCK_FLOATS and sizes every kernel stack.  Every slice gets
the arithmetic it would get alone, and identical blocks get identical
bytes from LAPACK, so a stacked verdict equals the one-diagram verdict
bit for bit.  Every eigenvalue verdict is _psd_rule: min eig >= -tol
max(1, largest |eig|).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .diagrams import (
    WeightDiagram,
    leading_square,
    moments_1var,
    require_integer,
    require_normal,
    stacked_windows,
    weight_scales,
)
from .errors import DomainError, InternalConsistencyError
from .limits import (
    CROSS_CHECK_TOL,
    DEFAULT_KMAX,
    HIERARCHY_BAND,
    MAX_BLOCK_FLOATS,
    OVERFLOW_ROUNDOFF,
    PSD_TOL,
    STACK_FLOATS,
)

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class PsdVerdict:
    is_psd: bool
    min_eigenvalue: float
    tol: float
    dim: int


def _psd_rule(eigs: np.ndarray, tol: float, axis) -> tuple:
    """(minimum, PSD flag) of each eigenvalue set of eigs taken over axis: the
    set passes when its minimum is >= -tol max(1, its largest |eigenvalue|)."""
    lo = eigs.min(axis=axis)
    with np.errstate(over="ignore"):  # a cut past the float range passes every set
        return lo, lo >= -tol * np.maximum(1.0, np.abs(eigs).max(axis=axis))


# ---------------------------------------------------------------------------
# six-point test


def _six_point_fields(A: np.ndarray, B: np.ndarray):
    """(p, q, r, min eig) arrays of M(k) over k in [0, n-2]^2.

    A and B are weight windows [0, n)^2, optionally stacked on leading axes.
    """
    p = A[..., 1:, :-1] ** 2 - A[..., :-1, :-1] ** 2
    r = B[..., :-1, 1:] ** 2 - B[..., :-1, :-1] ** 2
    q = A[..., :-1, 1:] * B[..., 1:, :-1] - A[..., :-1, :-1] * B[..., :-1, :-1]
    mineigs = 0.5 * (p + r) - np.hypot(0.5 * (p - r), q)
    return p, q, r, mineigs


# ---------------------------------------------------------------------------
# componentwise (each T_i hyponormal on its own)


def componentwise_window_flags(A: np.ndarray, B: np.ndarray) -> list:
    """(alpha nondecreasing along e1, beta nondecreasing along e2) on [0, N]^2,
    per diagram whose [0, N+2)^2 weight windows A and B stack on a leading axis.

    Runs on squared weights with the same scaled cutoff as the PSD tests,
    so a jointly hyponormal verdict always implies both flags (the
    diagonal of M(k) consists of exactly these differences).
    """
    p, _, r, _ = _six_point_fields(A, B)
    return _componentwise(p, r, [PSD_TOL * scale for scale in weight_scales(A, B)])


def _componentwise(p: np.ndarray, r: np.ndarray, cuts: list) -> list:
    """(alpha flag, beta flag) per diagram of stacked six-point diagonals."""
    pmin = p.min(axis=(1, 2)).tolist()
    rmin = r.min(axis=(1, 2)).tolist()
    return [(a >= -cut, b >= -cut) for a, b, cut in zip(pmin, rmin, cuts)]


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


def joint_hyponormal_reports(diagrams, N: int, tol: float = PSD_TOL) -> list:
    """joint_window_reports of the diagrams' windows [0, N+2)^2, read once after
    the budget check, so one diagram over MAX_BLOCK_FLOATS reads none."""
    joint_stack_size(N)  # the budget check
    return joint_window_reports(*stacked_windows(diagrams, int(N) + 2), N, tol)


def joint_window_reports(A: np.ndarray, B: np.ndarray, N: int, tol: float = PSD_TOL) -> list:
    """Joint hyponormality on [0, N]^2, one HypoReport each, of the diagrams
    whose weight windows A and B stack on a leading axis, read on their
    leading [0, N+2)^2 (a narrower one raises WindowError).

    The verdict is the six-point scan.  When N >= 4 the call also
    eigensolves the order-1 lattice blocks of the block commutator matrix
    compressed to [0, N-3]^2 and asserts, per diagram, the exact spectral
    identity relating their minimum to the six-point, rim, and wall terms;
    disagreement beyond round-off raises InternalConsistencyError for the
    first failing diagram.  The diagrams go through the kernels in
    consecutive stacks of joint_stack_size(N).
    """
    per, N = joint_stack_size(N), int(N)
    Mc = N - 3
    A, B = leading_square(A, B, N + 2, f"level {N}")
    reports = []
    for i in range(0, len(A), per):
        a, b = A[i : i + per], B[i : i + per]
        scales = weight_scales(a, b)
        if N >= 4:
            # with no six-point fields alive, so a kernel call never holds both
            blocks = _lattice_block_eigs(a, b, 1, Mc + 1).min(axis=(1, 2))
        p, q, r, mineigs = _six_point_fields(a, b)

        if N >= 4:
            rim_a = a[:, 1 : Mc + 1, Mc] ** 2 - a[:, :Mc, Mc] ** 2
            rim_b = b[:, Mc, 1 : Mc + 1] ** 2 - b[:, Mc, :Mc] ** 2
            wall = np.minimum(
                (a[:, 0, : Mc + 1] ** 2).min(axis=1), (b[:, : Mc + 1, 0] ** 2).min(axis=1)
            )
            predicted = np.minimum.reduce(
                [mineigs[:, :Mc, :Mc].min(axis=(1, 2)), rim_a.min(axis=1), rim_b.min(axis=1), wall]
            )
            for block, pred, scale in zip(blocks, predicted, scales):
                if abs(block - pred) > CROSS_CHECK_TOL * scale:
                    raise InternalConsistencyError(
                        "order-1 operator block disagrees with the six-point "
                        f"decomposition: block min eig {block:.6e}, "
                        f"predicted {pred:.6e}"
                    )

        cuts = [float(tol) * scale for scale in scales]
        worst = mineigs.min(axis=(1, 2)).tolist()
        at = mineigs.reshape(len(a), -1).argmin(axis=1).tolist()
        for j, flags in enumerate(_componentwise(p, r, cuts)):
            flag = worst[j] >= -cuts[j]
            witness = None
            if not flag:
                k = divmod(at[j], mineigs.shape[2])
                # M(k) read from the arrays that decided the verdict
                witness = (k, np.array([X[j][k] for X in (p, q, q, r)]).reshape(2, 2))
            reports.append(
                HypoReport(
                    componentwise=flags,
                    joint=flag,
                    k_hypo={1: flag},
                    worst_witness=witness,
                    joint_min_eig=worst[j],
                    levels={1: N},
                )
            )
        del p, q, r, mineigs
    return reports


def joint_hyponormal(W: WeightDiagram, N: int, tol: float = PSD_TOL):
    """Joint hyponormality on [0, N]^2, returned as (flag, HypoReport).

    The one-diagram case of joint_hyponormal_reports, cross-check included.
    """
    report = joint_hyponormal_reports([W], N, tol)[0]
    return report.joint, report


# ---------------------------------------------------------------------------
# k-hyponormality


@functools.cache
def _graded_multi_indices(k: int) -> tuple:
    """The multi-indices p with 1 <= |p| <= k, graded, lexicographic within a grade."""
    return tuple((p1, g - p1) for g in range(1, k + 1) for p1 in range(g + 1))


def _block_stack_size(k: int, size: int) -> int:
    """Diagrams per kernel call at order k on [0, size-1]^2: as many as fit
    STACK_FLOATS together, at least 1; DomainError for one diagram whose
    blocks, m^2 (size+k)^2 floats, exceed MAX_BLOCK_FLOATS.  The windows and
    six-point fields grow with (size+k)^2, so it runs before they are read."""
    m = k * (k + 3) // 2  # len(_graded_multi_indices(k)), not built for a refused k
    floats = m * m * (size + k) ** 2
    if floats > MAX_BLOCK_FLOATS:
        raise DomainError(
            f"order-{k} blocks on [0, {size - 1}]^2 need {floats:.3g} floats "
            f"per diagram, above the budget of {MAX_BLOCK_FLOATS:.3g}"
        )
    return max(1, STACK_FLOATS // floats)


def joint_stack_size(N: int) -> int:
    """Diagrams per joint_hyponormal_reports stack at level N: _block_stack_size
    of its order-1 blocks, those of level 4 below it, where none are assembled.
    """
    N = require_integer("N", N, 0)
    return _block_stack_size(1, max(N, 4) - 2)


@functools.lru_cache(maxsize=8)
def _block_plan(k: int, size: int) -> tuple:
    """Static layout of the order-k blocks B_u, u in [-k, size-1]^2.

    Block labels u are stored at u + (k, k), so a diagram has nu^2 blocks,
    nu = size + k.  Path norms ||T^{p_i} e_w|| are read from an
    (nu+k, nu+k, m) array at (w + (k, k), i), zero off the window, so its
    corner (0, 0, i) is a zero.  A block is assembled as its m diagonal
    entries and its P = m(m-1)/2 strict upper ones, the pairs (i, j) in
    np.triu_indices order, each laid out as (rows or pairs, nu, nu) so
    that one row or pair of every block is contiguous.  Row i of B_u is
    kept when u + p_i lies in [0, size-1]^2; base_i(u) = ||T^{p_i} e_u|| on
    kept rows, read from the zero corner on dropped ones.  Returns, every
    array read-only:

      ps          the graded multi-indices p_1 .. p_m
      steps       per p_i: (prefix index or -1, 0 for alpha / 1 for beta, offsets)
      diag_at     (2, m nu^2) flat path-norm indices of ||T^{p_i} e_{u+p_i}||
                  and of base_i(u)
      pair_at     (2, P nu^2) flat path-norm indices of ||T^{p_i} e_{u+p_j}||
                  and of ||T^{p_j} e_{u+p_i}||
      kept_at     flat indices of the kept rows' diagonal entries
      dropped     flat boolean mask of the dropped rows' diagonal entries
    """
    ps = _graded_multi_indices(k)
    m = len(ps)
    nu = size + k
    at = np.arange((nu + k) ** 2 * m).reshape(nu + k, nu + k, m)
    inside = np.zeros((nu + k, nu + k), dtype=bool)
    inside[k : k + size, k : k + size] = True
    keep = np.stack([inside[p1 : p1 + nu, p2 : p2 + nu] for p1, p2 in ps])  # (m, nu, nu)
    base = np.where(keep, at[:nu, :nu].transpose(2, 0, 1), np.arange(m)[:, None, None])

    def shifted(i, p):  # (nu, nu): flat index of (u + p, i) for every u
        return at[p[0] : p[0] + nu, p[1] : p[1] + nu, i]

    iu, ju, _ = _triangle(m)
    diag_at = np.stack([np.stack([shifted(i, ps[i]) for i in range(m)]), base]).reshape(2, -1)
    pair_at = np.stack([
        np.stack([shifted(i, ps[j]) for i, j in zip(iu, ju)]),
        np.stack([shifted(j, ps[i]) for i, j in zip(iu, ju)]),
    ]).reshape(2, -1)
    kept_at = np.flatnonzero(keep)
    dropped = ~keep.ravel()
    for a in (diag_at, pair_at, kept_at, dropped):
        a.flags.writeable = False
    # ||T^p e_w|| is the path of p - e1 (p - e2 when p1 = 0) times one weight,
    # so T2 steps come first and T1 steps last, as T^p = T1^{p1} T2^{p2} acts
    steps = tuple(
        (ps.index((p1 - 1, p2)) if p1 + p2 > 1 else -1, 0, (p1 - 1, p2))
        if p1
        else (ps.index((0, p2 - 1)) if p2 > 1 else -1, 1, (0, p2 - 1))
        for p1, p2 in ps
    )
    return ps, steps, diag_at, pair_at, kept_at, dropped


def _lattice_block_eigs(A: np.ndarray, B: np.ndarray, k: int, size: int) -> np.ndarray:
    """Eigenvalues of the blocks B_u, u in [-k, size-1]^2, per diagram (module docstring).

    A and B are weight windows covering [0, size+k)^2, stacked on a leading
    axis; the result has shape (diagrams, blocks, m).  The blocks span the
    order-k block commutator matrix compressed to [0, size-1]^2.  Dropped
    rows carry decoupled filler eigenvalues inside the true spectral range
    of their diagram, so the minimum and the largest magnitude are those of
    the compressed matrix.

    Each block is assembled as its diagonal and strict upper triangle.
    Only coupled blocks, those with a nonzero off-diagonal entry, become
    full matrices and are eigensolved (_coupled_eigs), and their
    eigenvalues come back ascending.  A diagonal block's spectrum is its
    diagonal, returned in row order, unsorted.

    Callers size the stack by _block_stack_size before reading any window,
    and a window narrower than [0, size+k)^2 raises WindowError.
    Raises DomainError, before assembling anything, when a product of 2k
    weights of the window could overflow a float; it names the first such
    diagram of the stack and its largest weight, as a one-diagram call would.
    """
    ps, steps, diag_at, pair_at, kept_at, dropped = _block_plan(k, size)
    m = len(ps)
    nu = size + k  # block labels u in [-k, size-1]^2, stored at u + (k, k)
    A, B = leading_square(A, B, nu, f"the order-{k} block kernel on [0, {size - 1}]^2")

    def overflows(top: float) -> bool:
        return 2 * k * math.log(top) >= _LOG_FLOAT_MAX * (1.0 - OVERFLOW_ROUNDOFF)

    if overflows(float(max(A.max(), B.max()))):
        tops = np.maximum(A.max(axis=(1, 2)), B.max(axis=(1, 2))).tolist()
        top = next(top for top in tops if overflows(top))
        raise DomainError(
            f"order-{k} blocks multiply {2 * k} weights, which overflows "
            f"for weights up to {top:.3e}"
        )
    stack = A.shape[0]
    # norms[..., i] holds ||T^{p_i} e_w|| at w + (k, k), zero off the window
    norms = np.zeros((stack, nu + k, nu + k, m))
    paths = norms[:, k : k + size, k : k + size]
    for i, (prefix, which, (o1, o2)) in enumerate(steps):
        weight = (A, B)[which][:, o1 : o1 + size, o2 : o2 + size]
        if prefix < 0:
            paths[..., i] = weight
        else:
            np.multiply(paths[..., prefix], weight, out=paths[..., i])

    # B_u[i, j] = ||T^{p_i} e_{u+p_j}|| ||T^{p_j} e_{u+p_i}|| - base_i(u) base_j(u)
    norms = norms.reshape(stack, -1)
    d = norms.take(diag_at, axis=1)  # ||T^{p_i} e_{u+p_i}|| and base_i(u), per row i
    pairs = norms.take(pair_at[0], axis=1)
    pairs *= norms.take(pair_at[1], axis=1)
    del norms, paths  # freed before the products, to lower the peak
    pairs = pairs.reshape(stack, -1, nu * nu)
    base = d[:, 1].reshape(stack, m, nu * nu)
    iu, ju, _ = _triangle(m)
    products = base[:, iu]
    products *= base[:, ju]
    pairs -= products
    d *= d
    diag = d[:, 0] - d[:, 1]
    del d, base, products
    # A dropped row becomes a decoupled eigenvalue equal to the largest kept
    # diagonal entry of its diagram, which lies in [min eig, max eig]:
    # neither changes.  take and a mask: indexing with read-only arrays copies them.
    np.copyto(diag, diag.take(kept_at, axis=1).max(axis=1)[:, None], where=dropped)
    eigs = diag.reshape(stack, m, nu * nu).transpose(0, 2, 1).copy()
    pairs = pairs.transpose(0, 2, 1)
    coupled = pairs.any(axis=-1)  # every entry is finite: no product overflows
    if coupled.any():
        eigs[coupled] = _coupled_eigs(eigs[coupled], pairs[coupled])
    return eigs


@functools.cache
def _triangle(m: int) -> tuple:
    """Rows i, columns j of the strict upper triangle of an m x m matrix
    (np.triu_indices order), and the column, in a row of m diagonal then
    m(m-1)/2 strict upper entries, of each entry of the symmetric matrix."""
    iu, ju = np.triu_indices(m, 1)
    at = np.diag(np.arange(m))
    at[iu, ju] = at[ju, iu] = m + np.arange(len(iu))
    at = at.ravel()
    for a in (iu, ju, at):
        a.flags.writeable = False
    return iu, ju, at


def _fingerprint(rows: np.ndarray) -> np.ndarray:
    """A uint64 hash of each row's bytes; rows with equal bytes hash equal."""
    bits = rows.view(np.uint64)
    odd = np.arange(1, 2 * bits.shape[1], 2, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return bits @ odd  # modulo 2^64


def _coupled_eigs(diag: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric blocks with these diagonal and
    strict upper entries, one block per row, in one stacked eigensolve.

    Blocks larger than 2x2 are grouped by _fingerprint.  When every block
    equals the first of its group byte for byte, only the first ones are
    eigensolved and each other block gets its group's spectrum: the same
    bytes take the same LAPACK path, so the eigenvalues are bit-equal.  A
    mismatch falls back to solving every block.  A 2x2 block costs less to
    solve than to group, so those are all solved.
    """
    m = diag.shape[1]
    rows = np.concatenate([diag, pairs], axis=1)
    inverse = None
    if m > 2:
        _, first, inverse = np.unique(_fingerprint(rows), return_index=True, return_inverse=True)
        bits = rows.view(np.uint64)
        if np.array_equal(bits[first[inverse]], bits):
            rows = rows[first]
        else:
            inverse = None
    eigs = np.linalg.eigvalsh(rows.take(_triangle(m)[2], axis=1).reshape(-1, m, m))
    return eigs if inverse is None else eigs[inverse]


def _order_stack(k: int, N: int) -> tuple:
    """(size, diagrams per kernel call) of order k at level N, size = N - 2k: refuses
    a bad k or N, and an order over the block budget (_block_stack_size)."""
    k = require_integer("k", k, 1)
    N = require_integer(f"N at order k = {k}", N, 4 * k + 2)
    return N - 2 * k, _block_stack_size(k, N - 2 * k)


def k_hyponormal_verdicts(diagrams, k: int, N: int, tol: float = PSD_TOL) -> list:
    """k_window_verdicts of the diagrams' windows [0, N-k)^2, read once after every refusal."""
    size, _ = _order_stack(k, N)
    return k_window_verdicts(*stacked_windows(diagrams, size + int(k)), k, N, tol)


def k_window_verdicts(A: np.ndarray, B: np.ndarray, k: int, N: int, tol: float = PSD_TOL) -> list:
    """PSD verdict of the compressed order-k block commutator matrix of each
    diagram whose weight windows A and B stack on a leading axis, read on
    their leading [0, N-k)^2: blocks [(T^q)*, T^p], 1 <= |p|, |q| <= k in
    graded lexicographic order, T^p = T1^{p1} T2^{p2}, on e_v, v in [0, Mc]^2,
    Mc = N - (2k+1), summed as the blocks B_u, u in [-k, Mc]^2 (module
    docstring).  The verdict, _psd_rule over a diagram's block eigenvalues,
    is a sound necessary condition for k-hyponormality; `dim` is m (Mc+1)^2.
    Diagrams go through the kernel in consecutive stacks of _block_stack_size,
    one eigensolve each, and each verdict equals a one-diagram call's bit for bit."""
    size, per = _order_stack(k, N)
    k = int(k)
    dim = len(_graded_multi_indices(k)) * size * size
    out = []
    for i in range(0, len(A), per):
        eigs = _lattice_block_eigs(A[i : i + per], B[i : i + per], k, size)
        lows, flags = _psd_rule(eigs, tol, (1, 2))
        out += [PsdVerdict(is_psd=flag, min_eigenvalue=lo, tol=tol, dim=dim)
                for lo, flag in zip(lows.tolist(), flags.tolist())]
    return out


def k_hyponormal_verdict(W: WeightDiagram, k: int, N: int, tol: float = PSD_TOL) -> PsdVerdict:
    """k_hyponormal_verdicts of one diagram."""
    return k_hyponormal_verdicts([W], k, N, tol)[0]


def order_levels(N: int, kmax: int) -> dict:
    """Level max(N, 4k+2) of each order k in 2..kmax, after refusing a bad N or
    kmax and any order, order 1 at level N included, over the block budget
    of one diagram, so that callers refuse before any window is read."""
    joint_stack_size(N)
    N, kmax = int(N), require_integer("kmax", kmax, 0)
    levels = {k: max(N, 4 * k + 2) for k in range(2, kmax + 1)}
    for k, level in levels.items():
        _order_stack(k, level)
    return levels


def hypo_width(N: int, kmax: int) -> int:
    """Width n of the widest [0, n)^2 that the joint test at level N and orders
    2..kmax read, after every refusal of order_levels."""
    levels = order_levels(N, kmax)
    return max([*(level - k for k, level in levels.items()), int(N) + 2])


def hypo_orders(diagrams, reports, N: int, kmax: int, tol: float = PSD_TOL) -> list:
    """hypo_window_orders of the diagrams' windows, read once at hypo_width(N, kmax)."""
    A, B = stacked_windows(diagrams, hypo_width(N, kmax))
    return hypo_window_orders(A, B, reports, N, kmax, tol)


def hypo_window_orders(A: np.ndarray, B: np.ndarray, reports, N: int, kmax: int,
                       tol: float = PSD_TOL) -> list:
    """Each HypoReport of joint_window_reports, extended by orders 2..kmax, of the
    diagrams whose weight windows A and B stack on a leading axis.  Order k runs
    at level max(N, 4k+2), so none silently degrades, reads [0, level-k)^2 and
    is recorded; every budget is checked before any order runs.  Each order is
    one k_window_verdicts call, then the hierarchy check: a decisive inversion
    (the higher order PSD with a positive minimum, the lower one below
    -HIERARCHY_BAND tol) raises InternalConsistencyError for the first such
    diagram of the lowest such order."""
    levels, reports = order_levels(N, kmax), list(reports)
    k_maps = [dict(report.k_hypo) for _, report in zip(A, reports, strict=True)]
    if not levels:
        return reports
    lower_margins = [report.joint_min_eig for report in reports]
    for k, level in levels.items():
        for i, v in enumerate(k_window_verdicts(A, B, k, level, tol)):
            if (v.is_psd and not k_maps[i][k - 1] and v.min_eigenvalue > 0
                    and lower_margins[i] < -HIERARCHY_BAND * tol):
                raise InternalConsistencyError(
                    f"hyponormality hierarchy inverted between k={k - 1} and k={k}"
                )
            k_maps[i][k] = v.is_psd
            lower_margins[i] = v.min_eigenvalue
    return [dataclasses.replace(report, k_hypo=k_map, levels={**report.levels, **levels})
            for report, k_map in zip(reports, k_maps)]


def full_hypo_report(W: WeightDiagram, N: int, kmax: int = DEFAULT_KMAX,
                     tol: float = PSD_TOL) -> HypoReport:
    """Componentwise, joint, and order-k verdicts up to kmax of one diagram, from
    one read of its window at hypo_width(N, kmax)."""
    A, B = stacked_windows([W], hypo_width(N, kmax))
    return hypo_window_orders(A, B, joint_window_reports(A, B, N, tol), N, kmax, tol)[0]


# ---------------------------------------------------------------------------
# one-variable tests


def one_var_k_hyponormal_many(omegas, k: int, nmax: int | None = None) -> list:
    """Hankel characterization for each of several one-variable shifts.

    shift(omega) is k-hyponormal iff the (k+1)x(k+1) Hankel matrices
    (gamma_{n+i+j})_{i,j} are PSD for every n >= 0; this checks
    n = 0 .. nmax.  The default window nmax = 4k + 6 matches the moment
    range visible to the 2-variable order-k test at level 4k + 4.  Each
    Hankel matrix passes _psd_rule at PSD_TOL, those of every row in one
    eigensolve; moments outside the range of normal positive floats raise
    DomainError for the first such row.  A k or nmax that is no integer
    raises DomainError, and k < 1 or nmax < 0 WindowError.
    """
    k = require_integer("k", k, 1)
    nmax = require_integer("nmax", 4 * k + 6 if nmax is None else nmax, 0)
    top = nmax + 2 * k
    gams = [moments_1var(omega, top) for omega in omegas]
    require_normal(gams, f"moments gamma_0 .. gamma_{top} of the row")
    steps = np.add.outer(np.arange(k + 1), np.arange(k + 1))
    gams = np.array(gams).reshape(len(gams), top + 1)
    eigs = np.linalg.eigvalsh(gams[:, np.arange(nmax + 1)[:, None, None] + steps])
    return _psd_rule(eigs, PSD_TOL, -1)[1].all(axis=1).tolist()
