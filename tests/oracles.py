"""Independent dense-matrix constructions used as test oracles.

Everything here is rebuilt straight from the weight functions with its
own index bookkeeping: explicit loops, explicit pseudo-inverses, no reuse
of the package's truncation or block-assembly code.  Agreement between
these and the library routes is what the dual-route tests assert.
"""

import numpy as np


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
