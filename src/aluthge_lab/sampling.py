"""Seeded random generators for the property suites.

Every 2-variable generator goes through a positive moment field: any
positive gamma on the lattice defines exactly commuting weights via

    alpha_k = sqrt(gamma_{k+e1} / gamma_k),  beta_k = sqrt(gamma_{k+e2} / gamma_k),

so randomness lives in the field, never in the weights directly, and the
commutativity identity survives by construction.  Stored rectangles get a
flat tail, which stays commuting exactly when the last alpha row is
constant along k2 and the last beta column is constant along k1; the
builders force those two seams after deriving the weights.

Each table generator builds count tables of _SIDE x _SIDE weights as
one stack: random_commuting_tables, random_monotone_tables and
bumped_thm1_tables draw their tables' values in the order count calls
for one table would, map each as such a call maps it, and then take one
np.exp of all the log fields and one diagrams.build_tables.  So a list
of count tables equals count lists of one bit for bit and leaves the
stream in the same state.

All generators draw from one PCG64Stream, so suites stay reproducible
from a single seed.  The stream is numpy's default generator,
`default_rng(seed)`, rebuilt from the stdlib for the three methods the
generators call: the same SeedSequence mixing, PCG64 state and method
algorithms, so it yields the same values bit for bit without importing
numpy's random module.  Under NEP 19 numpy pins only its bit generators'
streams across releases, not the `Generator` methods; owning those
methods here keeps a seed's draws fixed whatever numpy does.  The
generators only call `random`, `uniform` and `integers`, so a numpy
Generator still works in place of the stream, list forms included.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .diagrams import (
    OneVarWeights,
    WeightDiagram,
    build_tables,
    build_thm1,
    rows_first_moments,
    stacked_windows,
    two_atom_weights,
)
from .errors import DomainError
from .measures import quasinormal_completion, stampfli

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
# SeedSequence hash constants (O'Neill's seed_seq_fe, as numpy mixes a 4-word pool).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (O'Neill 2014, PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_DOUBLE_UNIT = 2.0**-53


def _seed_words(seed: int) -> list:
    """The four 64-bit words of numpy's SeedSequence(seed).generate_state(4, uint64)."""
    entropy = [seed & _MASK32]  # the seed as 32-bit words, least significant first
    while seed := seed >> 32:
        entropy.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    halves = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        halves.append(value ^ value >> 16)
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]


def _dimension(n) -> int:
    """One dimension of a size, read as numpy reads it: any integer through
    operator.index, a bool refused, a negative one refused."""
    if isinstance(n, (bool, np.bool_)):
        raise TypeError(f"a size holds integers, not {n!r}")
    n = operator.index(n)
    if n < 0:
        raise ValueError("negative dimensions are not allowed")
    return n


class PCG64Stream:
    """numpy's default_rng(seed), bit for bit, for random, uniform and integers.

    The state is PCG64's: a 128-bit LCG stepped before each output and
    read out by XSL-RR 128/64, seeded from SeedSequence(seed).  Doubles
    take the top 53 bits of one 64-bit output; 32-bit draws take the two
    halves of one output in turn, low half first, and a double draw in
    between leaves the buffered half in place, as numpy's bit generator
    does.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        seed = int(seed)
        if seed < 0:
            raise ValueError("seed must be non-negative")
        s0, s1, i0, i1 = _seed_words(seed)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        # numpy's srandom: step from 0 (giving inc), add the seed word, step again
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc) & _MASK128
        self._half = None

    def _next64s(self, count: int) -> list:
        """The next count 64-bit outputs."""
        state, inc = self._state, self._inc
        out = []
        for _ in range(count):
            state = (state * _PCG_MULT + inc) & _MASK128
            x = ((state >> 64) ^ state) & _MASK64
            rot = state >> 122
            out.append((x >> rot | x << (64 - rot)) & _MASK64)
        self._state = state
        return out

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        (x,) = self._next64s(1)
        self._half = x >> 32
        return x & _MASK32

    def random(self) -> float:
        """A float in [0, 1) with 53 random bits."""
        (x,) = self._next64s(1)
        return (x >> 11) * _DOUBLE_UNIT

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        """low + (high - low) * random(): a float, or a float64 array of shape size."""
        low, high = float(low), float(high)
        span = high - low
        if not 0.0 <= span < math.inf:
            raise ValueError("uniform needs finite low <= high")
        if size is None:
            return low + span * self.random()
        shape = tuple(map(_dimension, size)) if np.iterable(size) else (_dimension(size),)
        bits = np.array([x >> 11 for x in self._next64s(math.prod(shape))], dtype=float)
        # each step is one IEEE operation, as in numpy's per-element loop
        return (low + span * (bits * _DOUBLE_UNIT)).reshape(shape)

    def integers(self, low: int, high: int) -> int:
        """An int in [low, high), high - low <= 2**32, by Lemire's draw on 32-bit halves."""
        low, high = int(low), int(high)
        top = high - 1 - low  # the largest offset
        if top < 0:
            raise ValueError("low >= high")
        if top > _MASK32:
            raise ValueError("integers draws ranges of at most 2**32 values")
        if top == 0:  # one value: numpy draws nothing
            return low
        if top == _MASK32:  # all 2**32 values: one 32-bit half as it is
            return low + self._next32()
        count = top + 1
        m = self._next32() * count
        if m & _MASK32 < count:
            threshold = (_MASK32 - top) % count
            while m & _MASK32 < threshold:
                m = self._next32() * count
        return low + (m >> 32)


# Every table sampler draws a square log moment field of this side, so its
# rectangles hold _SIDE x _SIDE weights; |log gamma| of a commuting table
# stays below _SPREAD.
_SIDE = 6
_SPREAD = 0.4


def _tables_from_log_fields(G: np.ndarray) -> list:
    """Weights from log moment fields stacked on a leading axis, with the
    tail seams forced exactly, built in one stack.

    Each field has shape (rows+1, cols+1); the derived rectangles have
    shape (rows, cols).  Forcing the last alpha row / beta column to
    constants only touches identities that the constancy itself
    satisfies, so each result commutes on the whole lattice.
    """
    G0 = G[:, :-1, :-1]
    A, B = np.exp(0.5 * np.stack((G[:, 1:, :-1] - G0, G[:, :-1, 1:] - G0)))
    A[:, -1, :] = A[:, -1, :1]
    B[:, :, -1] = B[:, :1, -1]
    return build_tables(A, B)


def _uniform(u, low, high):
    """uniform(low, high) from the unit draw u, by the generator's IEEE steps."""
    return low + (high - low) * u


def random_commuting_tables(rng: PCG64Stream, count: int) -> list:
    """count generic bounded commuting diagrams with weights around 1.

    |log gamma| stays below _SPREAD, so individual weights stay inside
    [exp(-_SPREAD), exp(_SPREAD)].  One draw holds every field.
    """
    G = rng.uniform(-_SPREAD, _SPREAD, size=(count, _SIDE + 1, _SIDE + 1))
    return _tables_from_log_fields(G)


def random_monotone_tables(rng: PCG64Stream, count: int) -> list:
    """count componentwise hyponormal diagrams: alpha nondecreasing along k1
    and beta nondecreasing along k2 (here along both axes, which is stronger).

    Field: log gamma(m,n) = A_m + B_n + c*m*n with convex A, B and small
    c >= 0.  Then alpha(m,n)^2 = exp(dA_m + c n) grows in both indices,
    likewise beta.  The convexity steps exceed c*_SIDE so the forced flat
    seams cannot break monotonicity.

    One draw of 1 + 2 _SIDE unit doubles per table holds, in order, c, the
    _SIDE - 1 convexity steps of A and its first difference, then those of
    B; each value is mapped as a scalar uniform call maps it.
    """
    u = rng.uniform(size=(count, 1 + 2 * _SIDE))
    c = _uniform(u[:, :1], 0.0, 0.02)
    boost = c * _SIDE

    def convex_profiles(u):
        # per table, values whose first differences only ever grow, by >= boost
        steps = _uniform(u[:, :-1], boost, boost + 0.06)
        zero = np.zeros((count, 1))
        diffs = _uniform(u[:, -1:], -0.2, 0.1) + np.concatenate((zero, np.cumsum(steps, axis=1)), 1)
        return np.concatenate((zero, np.cumsum(diffs, axis=1)), 1)

    A = convex_profiles(u[:, 1 : 1 + _SIDE])
    B = convex_profiles(u[:, 1 + _SIDE :])
    m = np.arange(_SIDE + 1)[:, None]
    n = np.arange(_SIDE + 1)[None, :]
    G = A[:, :, None] + B[:, None, :] + c[:, :, None] * m * n
    return _tables_from_log_fields(G)


def random_nondecreasing_omega(rng: PCG64Stream, length: int = 12) -> OneVarWeights:
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
        vals = two_atom_weights(s0, s1, rho, 1.0 - rho, length,
                                "moments of a sampled two-atom row")
    else:
        w0 = rng.uniform(0.5, 0.9)
        top = w0 + rng.uniform(0.1, 0.5)
        r = rng.uniform(0.5, 0.9)
        vals = [top - (top - w0) * r ** j for j in range(length)]
    return OneVarWeights(values=tuple(vals))


def random_thm1(rng: PCG64Stream) -> WeightDiagram:
    """Diagram with proportional rows, the family where both transforms agree."""
    om = random_nondecreasing_omega(rng)
    y = om(0) * rng.uniform(0.4, 1.1)
    return build_thm1(om, y)


def _gamma_rectangles(diagrams: list) -> np.ndarray:
    """Moment fields gamma on [0, _SIDE]^2 of the diagrams, stacked on a
    leading axis, gamma(0,0) = 1, from their windows."""
    A, B = stacked_windows(diagrams, _SIDE + 1)
    return rows_first_moments(A, B)


def _bumped_tables(diagrams: list, factors: list, ats: list) -> list:
    """Commuting tables from the diagrams' moment fields, each with the one
    interior gamma value at its point scaled by its factor, in one stack.

    Each result stays exactly commuting (it is still a positive field) but
    leaves whatever structured family its diagram belonged to.  A point
    must be interior to the field, off its last two rows and columns, so
    the forced seams are untouched.
    """
    for factor, at in zip(factors, ats):
        i, j = at
        if not (0 < i < _SIDE - 1 and 0 < j < _SIDE - 1):
            raise DomainError(f"bump point {at} must be interior to the {_SIDE}x{_SIDE} rectangle")
        if factor <= 0.0:
            raise DomainError("bump factor must be positive")
    G = _gamma_rectangles(diagrams)
    I, J = np.array(ats, dtype=int).reshape(len(ats), 2).T
    G[np.arange(len(G)), I, J] *= factors
    with np.errstate(divide="raise"):
        return _tables_from_log_fields(np.log(G))


def bumped_thm1_tables(rng: PCG64Stream, count: int) -> list:
    """count commuting perturbations of proportional-row diagrams.

    One interior gamma value of each is scaled by 1.25..1.6, far enough
    from the proportional-row family that the two transforms separate
    while the diagram still commutes exactly.  Each table's diagram,
    factor and point are drawn in turn; the bumps are built in one stack.
    """
    bases, factors, ats = [], [], []
    for _ in range(count):
        bases.append(random_thm1(rng))
        factors.append(rng.uniform(1.25, 1.6))
        ats.append((1 + rng.integers(0, _SIDE - 3), 1 + rng.integers(0, _SIDE - 3)))
    return _bumped_tables(bases, factors, ats)


def random_completion(rng: PCG64Stream) -> WeightDiagram:
    """Spherically quasinormal diagram via the constant-sum completion.

    Alternates between completions of random three-weight canonical rows
    (constant = phi1, the value that makes the row extend subnormally) and
    flat rows (constant = 2 w^2).  Constants stay below ~5 so downstream
    power-identity checks keep their accuracy budget.  Both are feasible
    by construction: C - s1 = s0 > 0 for a two-atom row, whose atoms sum
    to phi1, and C - w^2 = w^2 for a flat one.  No weight is read here.
    """
    if rng.random() < 0.5:
        a = rng.uniform(0.6, 1.0)
        b = a + rng.uniform(0.7, 1.0)
        c = b + rng.uniform(0.3, 0.6)
        data = stampfli(a, b, c)
        return quasinormal_completion(data.weights, data.phi1)
    w = rng.uniform(0.6, 1.3)
    return quasinormal_completion(OneVarWeights(values=(w,)), 2.0 * w * w)


def sample_below_s(rng: PCG64Stream):
    """(x, y) in the region x <= s(y) where the corner family is subnormal."""
    from .regions import curve_s

    y = rng.uniform(0.1, 0.9)
    x = curve_s(y) * rng.uniform(0.3, 0.98)
    return x, y
