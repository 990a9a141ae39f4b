"""Seeded random generators for the property suites.

Every 2-variable generator goes through a positive moment field: any
positive gamma on the lattice defines exactly commuting weights via

    alpha_k = sqrt(gamma_{k+e1} / gamma_k),  beta_k = sqrt(gamma_{k+e2} / gamma_k),

so randomness lives in the field, never in the weights directly, and the
commutativity identity survives by construction.  Stored rectangles get a
flat tail, which stays commuting exactly when the last alpha row is
constant along k2 and the last beta column is constant along k1; the
builders force those two seams after deriving the weights.

All generators take a numpy Generator so suites stay reproducible from a
single seed.
"""

from __future__ import annotations

import numpy as np

from .diagrams import (
    OneVarWeights,
    WeightDiagram,
    build_table,
    build_thm1,
    rows_first_moments,
)
from .errors import DomainError, InfeasibleConstantError
from .measures import quasinormal_completion, stampfli

# Resample cap for generators with feasibility rejection.
MAX_RESAMPLE = 50


def _table_from_log_field(G: np.ndarray) -> WeightDiagram:
    """Weights from a log moment field, with the tail seams forced exactly.

    G has shape (rows+1, cols+1); the derived rectangles have shape
    (rows, cols).  Forcing the last alpha row / beta column to constants
    only touches identities that the constancy itself satisfies, so the
    result commutes on the whole lattice.
    """
    A = np.exp(0.5 * (G[1:, :-1] - G[:-1, :-1]))
    B = np.exp(0.5 * (G[:-1, 1:] - G[:-1, :-1]))
    A[-1, :] = A[-1, 0]
    B[:, -1] = B[0, -1]
    return build_table(A, B)


def random_commuting_table(rng: np.random.Generator, rows: int = 6, cols: int = 6,
                           spread: float = 0.4) -> WeightDiagram:
    """Generic bounded commuting diagram with weights around 1.

    spread bounds |log gamma|, so individual weights stay inside
    [exp(-spread), exp(spread)].
    """
    G = rng.uniform(-spread, spread, size=(rows + 1, cols + 1))
    return _table_from_log_field(G)


def random_monotone_table(rng: np.random.Generator, rows: int = 6, cols: int = 6) -> WeightDiagram:
    """Componentwise hyponormal diagram: alpha nondecreasing along k1 and
    beta nondecreasing along k2 (here along both axes, which is stronger).

    Field: log gamma(m,n) = A_m + B_n + c*m*n with convex A, B and small
    c >= 0.  Then alpha(m,n)^2 = exp(dA_m + c n) grows in both indices,
    likewise beta.  The convexity steps exceed c*max(rows,cols) so the
    forced flat seams cannot break monotonicity.
    """
    c = rng.uniform(0.0, 0.02)
    boost = c * max(rows, cols)

    def convex_profile(count):
        # count values whose first differences only ever grow, by >= boost
        steps = rng.uniform(boost, boost + 0.06, size=count - 2)
        diffs = rng.uniform(-0.2, 0.1) + np.concatenate(([0.0], np.cumsum(steps)))
        return np.concatenate(([0.0], np.cumsum(diffs)))

    A = convex_profile(rows + 1)
    B = convex_profile(cols + 1)
    m = np.arange(rows + 1)[:, None]
    n = np.arange(cols + 1)[None, :]
    G = A[:, None] + B[None, :] + c * m * n
    return _table_from_log_field(G)


def random_nondecreasing_omega(rng: np.random.Generator, length: int = 12) -> OneVarWeights:
    """Bounded nondecreasing weight sequence with an exactly flat tail.

    Half the draws are moment sequences of a two-atom measure (so the
    one-variable shift is subnormal); the other half are geometric ramps
    that flatten out, which are nondecreasing but generically not
    subnormal.
    """
    if rng.random() < 0.5:
        s0 = rng.uniform(0.3, 0.9)
        s1 = s0 + rng.uniform(0.3, 1.0)
        rho = rng.uniform(0.1, 0.9)
        gam = [rho * s0 ** j + (1.0 - rho) * s1 ** j for j in range(length + 1)]
        vals = [float(np.sqrt(gam[j + 1] / gam[j])) for j in range(length)]
    else:
        w0 = rng.uniform(0.5, 0.9)
        top = w0 + rng.uniform(0.1, 0.5)
        r = rng.uniform(0.5, 0.9)
        vals = [top - (top - w0) * r ** j for j in range(length)]
    return OneVarWeights(values=tuple(vals))


def random_thm1(rng: np.random.Generator) -> WeightDiagram:
    """Diagram with proportional rows, the family where both transforms agree."""
    om = random_nondecreasing_omega(rng)
    y = om(0) * rng.uniform(0.4, 1.1)
    return build_thm1(om, y)


def gamma_rectangle(diagram: WeightDiagram, rows: int, cols: int) -> np.ndarray:
    """Moment field gamma on [0, rows] x [0, cols], gamma(0,0) = 1."""
    return rows_first_moments(*diagram.weight_arrays(rows + 1, cols + 1))


def bump_gamma(diagram: WeightDiagram, factor: float, at=(1, 1),
               rows: int = 6, cols: int = 6) -> WeightDiagram:
    """Commuting table obtained by scaling one interior gamma value.

    The result stays exactly commuting (it is still a positive field) but
    leaves whatever structured family the input belonged to.  `at` must be
    interior to the rectangle so the forced seams are untouched.
    """
    i, j = at
    if not (0 < i < rows - 1 and 0 < j < cols - 1):
        raise DomainError(f"bump point {at} must be interior to the {rows}x{cols} rectangle")
    if factor <= 0.0:
        raise DomainError("bump factor must be positive")
    G = gamma_rectangle(diagram, rows, cols).copy()
    G[i, j] *= factor
    with np.errstate(divide="raise"):
        return _table_from_log_field(np.log(G))


def bumped_thm1_table(rng: np.random.Generator, rows: int = 6, cols: int = 6) -> WeightDiagram:
    """Commuting perturbation of a proportional-row diagram.

    One interior gamma value is scaled by 1.25..1.6, far enough from the
    proportional-row family that the two transforms separate while the
    diagram still commutes exactly.
    """
    base = random_thm1(rng)
    factor = rng.uniform(1.25, 1.6)
    return bump_gamma(base, factor, at=(1 + rng.integers(0, rows - 3),
                                        1 + rng.integers(0, cols - 3)),
                      rows=rows, cols=cols)


def random_completion(rng: np.random.Generator) -> WeightDiagram:
    """Spherically quasinormal diagram via the constant-sum completion.

    Alternates between completions of random three-weight canonical rows
    (constant = phi1, the value that makes the row extend subnormally) and
    flat rows (constant = 2 w^2).  Constants stay below ~5 so downstream
    power-identity checks keep their accuracy budget.  Resamples on an
    infeasible draw rather than failing.
    """
    for _ in range(MAX_RESAMPLE):
        try:
            if rng.random() < 0.5:
                a = rng.uniform(0.6, 1.0)
                b = a + rng.uniform(0.7, 1.0)
                c = b + rng.uniform(0.3, 0.6)
                data = stampfli(a, b, c)
                W = quasinormal_completion(data.weights, data.phi1)
            else:
                w = rng.uniform(0.6, 1.3)
                W = quasinormal_completion(OneVarWeights(values=(w,)), 2.0 * w * w)
            # touch a far entry so lazy infeasibility surfaces here
            W.weight_arrays(10, 10)
            return W
        except InfeasibleConstantError:
            continue
    raise InfeasibleConstantError("no feasible completion after resampling")


def sample_below_s(rng: np.random.Generator):
    """(x, y) in the region x <= s(y) where the corner family is subnormal."""
    from .regions import curve_s

    y = rng.uniform(0.1, 0.9)
    x = curve_s(y) * rng.uniform(0.3, 0.98)
    return x, y
