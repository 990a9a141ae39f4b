"""Independent dense-matrix constructions used as test oracles.

Everything here is rebuilt straight from the weight functions with its
own index bookkeeping: explicit loops, explicit pseudo-inverses, SVD
norms, no reuse of the package's window arithmetic or block-assembly
code.  Agreement between these and the library routes is what the
dual-route tests assert.
"""

import math
from fractions import Fraction

import numpy as np

from aluthge_lab import (
    build_prop2,
    build_theta,
    spherical_transform,
    toral_transform,
)
from aluthge_lab import sampling
from aluthge_lab.sampling import (
    random_commuting_tables,
    random_completion,
    random_monotone_tables,
    random_nondecreasing_omega,
)


def oracle_diagrams():
    """Fixed diagrams the oracles are compared on; the last two do not commute.

    The corner family on both sides of the curves s and h, a monotone and
    a generic commuting table, a lift, a two-atom completion, and the
    toral candidates of two commuting tables.
    """
    rng = np.random.default_rng(5)
    y = 0.6
    s = np.sqrt(1 / (2 - y * y))
    h = np.sqrt((1 + y * y) / 2)
    out = [build_prop2(x, y) for x in (s - 0.02, 0.5 * (s + h), h + 0.02)]
    out += [random_monotone_tables(rng, 1)[0], random_commuting_tables(rng, 1)[0]]
    out += [build_theta(random_nondecreasing_omega(rng, length=8)), random_completion(rng)]
    bumped = sampling._bumped_tables([build_prop2(0.8, 0.5)], [1.4], [(1, 1)])[0]
    for parent in (bumped, random_commuting_tables(rng, 1)[0]):
        res = toral_transform(parent)
        assert not res.commutes
        out.append(res.diagram)
    return out


def dense_pair(W, N):
    """(T1, T2) on span{e_(k1,k2) : 0 <= k1, k2 <= N}."""
    n = N + 1
    dim = n * n

    def idx(k1, k2):
        return k1 * n + k2

    T1 = np.zeros((dim, dim))
    T2 = np.zeros((dim, dim))
    for k1 in range(n):
        for k2 in range(n):
            if k1 + 1 <= N:
                T1[idx(k1 + 1, k2), idx(k1, k2)] = W.alpha(k1, k2)
            if k2 + 1 <= N:
                T2[idx(k1, k2 + 1), idx(k1, k2)] = W.beta(k1, k2)
    return T1, T2


def operator_norm(M):
    """Largest singular value of a matrix (0 for an empty one)."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def joint_moduli(W, N):
    """sqrt(alpha_k^2 + beta_k^2) over [0, N]^2, in dense_pair's basis order.

    These are the untruncated values, not the diagonal of the compressed
    operator.  Each is math.hypot of one point's two weights, taken per
    point with no numpy array arithmetic.
    """
    n = N + 1
    return np.array([math.hypot(W.alpha(k1, k2), W.beta(k1, k2))
                     for k1 in range(n) for k2 in range(n)])


def joint_partial_isometry_check(W, N, tol=1e-12):
    """Verify P Q^2 P = P^2 for Q^2 = U1* U1 + U2* U2 on a truncation.

    U_i = T_i P^{-1} with P the diagonal of untruncated joint moduli.
    Truncation chops the outgoing weights on the top row and column of the
    window, so the comparison runs over interior basis vectors (k1 < N and
    k2 < N), where the compressed operators agree with the full ones.
    Returns (max absolute deviation, deviation <= tol).
    """
    T1, T2 = dense_pair(W, N)
    p = joint_moduli(W, N)
    Pinv = np.diag(1.0 / p)
    U1 = T1 @ Pinv
    U2 = T2 @ Pinv
    P = np.diag(p)
    lhs = P @ (U1.T @ U1 + U2.T @ U2) @ P
    dev = lhs - np.diag(p**2)
    n = N + 1
    interior = [k1 * n + k2 for k1 in range(N) for k2 in range(N)]
    worst = float(np.max(np.abs(dev[np.ix_(interior, interior)])))
    return worst, worst <= tol


def continuity_sides(W, N, n):
    """(lhs, rhs) of the regularization bounds on level N from dense operators.

    Keys "i" .. "iv" and "v1", "v2" for the two components of bound (v);
    every norm is an SVD of a dense (N+1)^2 x (N+1)^2 matrix.  Bound (v)
    keeps the library's order of operations entry by entry, since its
    left side is a difference of nearly equal terms.
    """
    T1, T2 = dense_pair(W, N)
    P = joint_moduli(W, N)
    sqrtP = np.sqrt(P)
    A = np.sqrt(np.maximum(1.0 / n, P))
    inv_sqrt_n = 1.0 / math.sqrt(n)
    P_norm = operator_norm(np.diag(P))
    out = {
        "i": (operator_norm(np.diag(A)), max(inv_sqrt_n, math.sqrt(P_norm))),
        "ii": (operator_norm(np.diag(P / A)), math.sqrt(P_norm)),
        "iii": (operator_norm(np.diag(A - sqrtP)), inv_sqrt_n),
        "iv": (operator_norm(np.diag(P / A - sqrtP)), 0.25 * inv_sqrt_n),
    }
    for key, T in (("v1", T1), ("v2", T2)):
        gap = A[:, None] * T / A[None, :] - sqrtP[:, None] * (T / P[None, :]) * sqrtP[None, :]
        out[key] = (operator_norm(gap), 1.25 * inv_sqrt_n * math.sqrt(operator_norm(T)))
    return out


def transform_distance(W, Wp, which, N):
    """max_i ||T_i - T_i'|| on level N between the transforms, by SVD."""
    window = max(14, N + 2)
    if which == "toral":
        d1, d2 = (toral_transform(X, window=window).diagram for X in (W, Wp))
    else:
        d1, d2 = (spherical_transform(X, window=window) for X in (W, Wp))
    pairs = zip(dense_pair(d1, N), dense_pair(d2, N))
    return max(operator_norm(T - Tp) for T, Tp in pairs)


def interior_p2(W, N):
    """The diagonal of T1*T1 + T2*T2 at interior basis vectors (k1, k2 < N)."""
    T1, T2 = dense_pair(W, N)
    diag = np.diag(T1.T @ T1 + T2.T @ T2)
    n = N + 1
    return np.array([diag[k1 * n + k2] for k1 in range(N) for k2 in range(N)])


def spherical_entries(W, N):
    """(alpha_hat, beta_hat) on [0, N-2]^2 by conjugating dense matrices.

    D = diag of T1*T1 + T2*T2 equals the squared joint modulus wherever
    both shifts act inside the truncation, so D^(1/4) T_i D^(-1/4) carries
    the transformed weights at interior entries.
    """
    T1, T2 = dense_pair(W, N)
    n = N + 1
    D = np.diag(T1.T @ T1 + T2.T @ T2)
    q = D**0.25
    M = N - 1
    Ah = np.empty((M, M))
    Bh = np.empty((M, M))
    for k1 in range(M):
        for k2 in range(M):
            j = k1 * n + k2
            Ah[k1, k2] = q[(k1 + 1) * n + k2] * T1[(k1 + 1) * n + k2, j] / q[j]
            Bh[k1, k2] = q[k1 * n + k2 + 1] * T2[k1 * n + k2 + 1, j] / q[j]
    return Ah, Bh


def toral_entries(W, N):
    """(alpha~, beta~) on [0, N-2]^2 via |T|^(1/2) U |T|^(1/2) per component."""
    T1, T2 = dense_pair(W, N)
    out = []
    for T in (T1, T2):
        d = np.sqrt(np.diag(T.T @ T))  # |T| is diagonal for a shift
        U = np.divide(T, d[None, :], out=np.zeros_like(T), where=d[None, :] > 0)
        out.append(np.sqrt(d)[:, None] * U * np.sqrt(d)[None, :])
    M1, M2 = out
    n = N + 1
    m = N - 1
    Ah = np.empty((m, m))
    Bh = np.empty((m, m))
    for k1 in range(m):
        for k2 in range(m):
            Ah[k1, k2] = M1[(k1 + 1) * n + k2, k1 * n + k2]
            Bh[k1, k2] = M2[k1 * n + k2 + 1, k1 * n + k2]
    return Ah, Bh


def one_var_block_min_eig(om, k, m):
    """Min eigenvalue of the compressed ([S*^q, S^p])_{1<=p,q<=k} matrix.

    Compression to basis e_0 .. e_m; the ambient truncation carries a
    2k + 2 margin so every compressed entry equals its infinite value.
    """
    M = m + 2 * k + 2
    S = np.zeros((M, M))
    for j in range(M - 1):
        S[j + 1, j] = om(j)
    powers = [np.eye(M)]
    for _ in range(k):
        powers.append(S @ powers[-1])
    blocks = [
        [
            (powers[q].T @ powers[p] - powers[p] @ powers[q].T)[: m + 1, : m + 1]
            for q in range(1, k + 1)
        ]
        for p in range(1, k + 1)
    ]
    big = np.block(blocks)
    return float(np.linalg.eigvalsh(0.5 * (big + big.T))[0])


def block_commutator_spectrum(W, k, N):
    """(min eig, max |eig|, dim) of the compressed order-k block commutator matrix.

    Blocks [(T^q)*, T^p] for 1 <= |p|, |q| <= k in graded lexicographic
    order, T^p = T1^{p1} T2^{p2} built from dense powers on level N, each
    block compressed to e_(k1,k2) with k1, k2 <= N - 2k - 1.
    """
    T1, T2 = dense_pair(W, N)
    n = N + 1
    pow1 = [np.eye(n * n)]
    pow2 = [np.eye(n * n)]
    for _ in range(k):
        pow1.append(T1 @ pow1[-1])
        pow2.append(T2 @ pow2[-1])
    powers = [pow1[p1] @ pow2[g - p1] for g in range(1, k + 1) for p1 in range(g + 1)]
    Mc = N - 2 * k - 1
    keep = [k1 * n + k2 for k1 in range(Mc + 1) for k2 in range(Mc + 1)]
    big = np.block(
        [[(Tq.T @ Tp - Tp @ Tq.T)[keep][:, keep] for Tq in powers] for Tp in powers]
    )
    eigs = np.linalg.eigvalsh(0.5 * (big + big.T))
    return float(eigs[0]), float(np.max(np.abs(eigs))), big.shape[0]


def lattice_block_spectra(W, k, size):
    """Ascending eigenvalues of every order-k lattice block B_u, by LAPACK.

    Blocks u in [-k, size-1]^2 in row-major order, with the entries of the
    positivity module docstring built one at a time: path norms multiplied
    T2 steps first, zero off [0, size-1]^2; rows with u + p outside that
    window dropped, their diagonal set to the largest kept diagonal entry of
    the diagram.  Every block, diagonal or not, goes through eigvalsh.
    """
    ps = [(p1, g - p1) for g in range(1, k + 1) for p1 in range(g + 1)]
    A, B = (X.tolist() for X in W.weight_arrays(size + k, size + k))

    def inside(w):
        return 0 <= w[0] < size and 0 <= w[1] < size

    def norm(p, w):  # ||T^p e_w||, zero off the window
        if not inside(w):
            return 0.0
        out = 1.0
        for j in range(p[1]):
            out *= B[w[0]][w[1] + j]
        for j in range(p[0]):
            out *= A[w[0] + j][w[1] + p[1]]
        return out

    def plus(u, p):
        return (u[0] + p[0], u[1] + p[1])

    blocks, kept = [], []
    for u1 in range(-k, size):
        for u2 in range(-k, size):
            u = (u1, u2)
            rows = [inside(plus(u, p)) for p in ps]
            block = np.zeros((len(ps), len(ps)))
            for i, p in enumerate(ps):
                for j, q in enumerate(ps):
                    if rows[i] and rows[j]:
                        block[i, j] = norm(p, plus(u, q)) * norm(q, plus(u, p))
                        if u1 >= 0 and u2 >= 0:
                            block[i, j] -= norm(p, u) * norm(q, u)
            blocks.append(block)
            kept.append(rows)
    filler = max(b[i, i] for b, rows in zip(blocks, kept) for i, ok in enumerate(rows) if ok)
    for b, rows in zip(blocks, kept):
        for i, ok in enumerate(rows):
            if not ok:
                b[i, i] = filler
    return np.array([np.linalg.eigvalsh(b) for b in blocks])


def exact_six_point_flags(W, N, factors, tol=1e-10):
    """(joint, alpha, beta) flags of the six-point test on [0, N]^2, decided
    exactly at each cut f c, f in factors, with c = tol max(1, largest
    squared weight) on the window [0, N+2)^2.

    Reads the float weights the library reads, that window, and forms
    M(k) = [[p, q], [q, r]] from them in fractions.Fraction.  M(k) + c I is
    PSD exactly when p + c >= 0, r + c >= 0 and (p + c)(r + c) >= q^2; the
    componentwise flags ask p + c >= 0, and r + c >= 0, at every k.
    """
    A, B = W.weight_arrays(N + 2, N + 2)
    a = [[Fraction(w) for w in row] for row in A.tolist()]
    b = [[Fraction(w) for w in row] for row in B.tolist()]
    fields = [
        (a[i + 1][j] ** 2 - a[i][j] ** 2,
         a[i][j + 1] * b[i + 1][j] - a[i][j] * b[i][j],
         b[i][j + 1] ** 2 - b[i][j] ** 2)
        for i in range(N + 1)
        for j in range(N + 1)
    ]
    top = max(max(map(max, a)), max(map(max, b)))
    c = Fraction(tol) * max(Fraction(1), top * top)
    flags = []
    for f in factors:
        cut = Fraction(f) * c
        flags.append((
            all(p + cut >= 0 and r + cut >= 0 and (p + cut) * (r + cut) >= q * q
                for p, q, r in fields),
            all(p + cut >= 0 for p, _, _ in fields),
            all(r + cut >= 0 for _, _, r in fields),
        ))
    return flags


def _graded_with_zero(k):
    """Multi-indices |p| <= k, (0, 0) first, then graded lexicographic."""
    return [(p1, g - p1) for g in range(k + 1) for p1 in range(g + 1)]


def moment_matrix(table, k, base=(0, 0)):
    """The 2-variable moment matrix (gamma_{base+p+q})_{p,q}, |p|, |q| <= k."""
    ps = _graded_with_zero(k)
    return np.array(
        [
            [table.gamma(base[0] + p1 + q1, base[1] + p2 + q2) for (q1, q2) in ps]
            for (p1, p2) in ps
        ]
    )


def eigvalsh_is_psd(M, tol=1e-10):
    """Whether min eig >= -tol * max(1, largest |eig|) for the symmetric matrix M."""
    eigs = np.linalg.eigvalsh(np.asarray(M, dtype=float))
    return bool(eigs.min() >= -tol * max(1.0, float(np.abs(eigs).max())))


def moment_matrix_psd(table, k, base=(0, 0), tol=1e-10):
    """eigvalsh_is_psd of moment_matrix(table, k, base); needs maxdeg >= |base| + 2k."""
    return eigvalsh_is_psd(moment_matrix(table, k, base), tol)


def scaled_schur_complement(table, k, u):
    """D^-1 (M_u - m m^T / gamma_u) D^-1 with D = diag sqrt(gamma_{u+p}), 1 <= |p| <= k.

    M_u is the moment matrix at base u without its (0, 0) row and column,
    m that row; the result is the order-k lattice block B_u of a commuting
    pair, written in moments.
    """
    M = moment_matrix(table, k, u)
    S = M[1:, 1:] - np.outer(M[1:, 0], M[0, 1:]) / M[0, 0]
    d = np.sqrt(M[1:, 0])
    return S / d[:, None] / d[None, :]
