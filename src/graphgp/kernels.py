"""Covariance building blocks for wide-network limits on graphs.

Two representations run in parallel through every block:

* exact: a dense symmetric kernel K (plain float64 array, N x N);
* low-rank: a factor Q with K ~= Q Q^T (N x r, r small).

Each block maps (K -> K') and (Q -> Q') so that forming the Gram matrix of
the low-rank output reproduces the exact rule; for the ReLU activation the
low-rank rule is the Nystrom reconstruction through a landmark set, exact
when the landmarks span the kernel's range.  The Nystrom factor comes from a
pivoted Cholesky factorization of the landmark block (``chol_factor``), so
its width is the block's numerical rank: at most the landmark count, and
less when the block is rank-deficient, as it is for inner-product base
features with fewer features than landmarks.

The ReLU expectation uses the closed form

    E[relu(z) relu(z')] = sqrt(K_xx K_x'x') * (sin t + (pi - t) cos t) / (2 pi),
    t = arccos( K_xx' / sqrt(K_xx K_x'x') ),

so the diagonal is halved exactly and the correlation version
f(rho) = (sin t + (pi - t) rho) / pi maps [-1, 1] into [0, 1].

Memory: the dense ReLU expectation and GraphConv work in row tiles of about
_TILE_ELEMENTS entries, writing into one preallocated output, so each holds
its input, its output and (GraphConv only) the product A K at its peak,
plus tile buffers; no other N x N temporary.  Run one after the other with
the caller dropping each input, a dense layer peaks near 3 N x N arrays.
The low-rank activation writes the ReLU expectation over the N x r
landmark columns in place.

Passes: the dense ReLU expectation computes only the tiles on and above
the diagonal and mirrors them below it; a unit Weight and a zero Bias
return their input itself on both paths.  Tiling and mirroring change no
operation on any element, nor their order, so for a bitwise-symmetric
input (every kernel this package builds) the results are bit for bit
those of the untiled full-matrix expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.linalg import lapack
from scipy.spatial.distance import cdist

from .adjacency import SparseAdjacency

# Variance below VAR_FLOOR_REL * max(diag) counts as a degenerate (zero) node.
VAR_FLOOR_REL = 1e-12
# Pivot floor of the Nystrom factor: pivoted Cholesky of a landmark block
# stops once the largest Schur-complement diagonal is at or below
# EIG_FLOOR_REL * max(diag); the directions left are dropped, none clamped.
EIG_FLOOR_REL = 1e-10
# Entries per row tile of the dense ReLU expectation and GraphConv.
_TILE_ELEMENTS = 2**18


class FactorizationError(RuntimeError):
    """Raised when a landmark block or training block cannot be factored.

    ``eigenvalue``, when set, is the landmark block's largest diagonal
    entry, which is at most zero: no direction of the block lies above the
    pivot floor.
    """

    def __init__(self, message: str, eigenvalue: Optional[float] = None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


# ---------------------------------------------------------------------------
# containers


@dataclass(frozen=True, eq=False)
class LowRankFactor:
    """N x r factor Q standing in for the kernel Q Q^T."""

    q: np.ndarray

    def __post_init__(self):
        if self.q.ndim != 2:
            raise ValueError("factor must be a 2-d array")

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def rank(self) -> int:
        return self.q.shape[1]

    def gram(self) -> np.ndarray:
        return self.q @ self.q.T

    def gram_diag(self) -> np.ndarray:
        return np.einsum("ij,ij->i", self.q, self.q)


@dataclass(frozen=True, eq=False)
class LandmarkSet:
    """Sorted, distinct node indices anchoring the Nystrom reconstruction."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("landmark set must be a nonempty 1-d index array")
        if idx[0] < 0:
            raise ValueError("landmark indices must be nonnegative")
        if np.any(np.diff(idx) <= 0):
            raise ValueError("landmark indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)

    @property
    def count(self) -> int:
        return int(self.indices.size)

    @classmethod
    def all_nodes(cls, n: int) -> "LandmarkSet":
        return cls(np.arange(n, dtype=np.int64))

    @classmethod
    def draw(cls, pool: np.ndarray, count: int, seed: int) -> "LandmarkSet":
        """Uniform sample without replacement from ``pool``."""
        pool = np.asarray(pool, dtype=np.int64)
        if not 1 <= count <= pool.size:
            raise ValueError(f"cannot draw {count} landmarks from a pool of {pool.size}")
        rng = np.random.default_rng(seed)
        picked = rng.choice(pool, size=count, replace=False)
        return cls(np.sort(picked))


# ---------------------------------------------------------------------------
# network building blocks (tagged union)


@dataclass(frozen=True)
class Bias:
    """Add an independent bias: K + sigma_b^2, or append a sigma_b column."""

    sigma_b: float

    def __post_init__(self):
        if self.sigma_b < 0:
            raise ValueError("sigma_b must be nonnegative")


@dataclass(frozen=True)
class Weight:
    """Random dense weight: K * sigma_w^2, or Q * sigma_w."""

    sigma_w: float

    def __post_init__(self):
        if self.sigma_w < 0:
            raise ValueError("sigma_w must be nonnegative")


@dataclass(frozen=True)
class MixedWeight:
    """Deterministic/random mix (alpha I + beta W): scale by alpha^2 + beta^2 sigma_w^2."""

    alpha: float
    beta: float
    sigma_w: float

    def __post_init__(self):
        if self.sigma_w < 0:
            raise ValueError("sigma_w must be nonnegative")

    @property
    def scale_sq(self) -> float:
        return self.alpha**2 + self.beta**2 * self.sigma_w**2


@dataclass(frozen=True, eq=False)
class GraphConv:
    """Deterministic graph mixing: A K A^T, or A Q."""

    a: SparseAdjacency


@dataclass(frozen=True)
class Activation:
    """ReLU expectation g; the only block that resets the low-rank basis."""


@dataclass(frozen=True, eq=False)
class IndependentAdd:
    """Add a statistically independent branch.

    ``other`` holds the already-computed branch in the representation of the
    running path: a dense kernel on the exact path, a LowRankFactor on the
    low-rank path.  Independence of the two branches is a semantic
    precondition (the rule drops cross-covariances).
    """

    other: Union[np.ndarray, LowRankFactor]


Block = Union[Bias, Weight, MixedWeight, GraphConv, Activation, IndependentAdd]


# ---------------------------------------------------------------------------
# base covariances (optional second argument -> cross block)


def base_inner(x: np.ndarray, y: Optional[np.ndarray] = None) -> np.ndarray:
    """Inner-product base x . x' / d0 (d0 = feature count)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError("features must be a nonempty 2-d array")
    y = x if y is None else np.asarray(y, dtype=np.float64)
    out = x @ y.T
    out /= x.shape[1]
    return out


def base_rbf(x: np.ndarray, y: Optional[np.ndarray] = None, gamma: float = 1.0) -> np.ndarray:
    """Squared-exponential base exp(-gamma ||x - x'||^2); unit diagonal."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    x = np.asarray(x, dtype=np.float64)
    y = x if y is None else np.asarray(y, dtype=np.float64)
    return np.exp(-gamma * cdist(x, y, "sqeuclidean"))


def base_poly(
    x: np.ndarray, y: Optional[np.ndarray] = None, c: float = 5.0, d: float = 3.0
) -> np.ndarray:
    """Polynomial base (x . x' + c)^d.

    For non-integer d the shifted inner product is clamped at zero before
    exponentiation so the power stays real.
    """
    if c < 0:
        raise ValueError("c must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    y = x if y is None else np.asarray(y, dtype=np.float64)
    base = x @ y.T + c
    if not float(d).is_integer():
        base = np.maximum(base, 0.0)
    return base**d


# ---------------------------------------------------------------------------
# ReLU expectation


def correlation_map(rho):
    """Correlation version of the ReLU expectation, f(rho) in [0, 1].

    f(rho) = (sin t + (pi - t) rho) / pi with t = arccos(rho); inputs are
    clamped to [-1, 1] to absorb roundoff.  Nondecreasing, f(rho) >= rho,
    f(1) = 1.
    """
    r = np.clip(rho, -1.0, 1.0)
    t = np.arccos(r)
    return (np.sin(t) + (np.pi - t) * r) / np.pi


def _tile_rows(n_cols: int) -> int:
    """Rows of an n_cols-wide array that fit in one tile (at least one)."""
    return max(1, _TILE_ELEMENTS // max(n_cols, 1))


def _relu_gauss(k_cols: np.ndarray, d: np.ndarray, idx: np.ndarray,
                out: np.ndarray, symmetric: bool = False) -> np.ndarray:
    """ReLU expectation of the columns K[:, idx], given K's diagonal ``d``.

    Writes into ``out`` (which may be ``k_cols`` itself) row tile by row
    tile and returns it.  A node with variance at or below VAR_FLOOR_REL *
    max(d) has no signal to propagate and gets zero rows and columns; each
    node's entry with itself, out[idx[j], j], is exactly half its variance
    (arccos would round).  The dense path passes ``idx = arange(N)`` and
    ``symmetric``: each row tile then starts at the diagonal, so only the
    upper triangle of ``k_cols`` is read, and is mirrored below it.
    """
    var_floor = VAR_FLOOR_REL * (d.max() if d.size else 0.0)
    d_cols = d[idx]
    alive_r = d > var_floor
    alive_c = d_cols > var_floor
    sr = np.sqrt(np.where(alive_r, d, 1.0))
    sc = np.sqrt(np.where(alive_c, d_cols, 1.0))
    rows = _tile_rows(sc.size)
    for r0 in range(0, sr.size, rows):
        r1 = r0 + rows
        c0 = r0 if symmetric else 0
        rho = out[r0:r1, c0:]
        denom = np.outer(sr[r0:r1], sc[c0:])
        np.divide(k_cols[r0:r1, c0:], denom, out=rho)
        np.clip(rho, -1.0, 1.0, out=rho)
        t = np.arccos(rho)
        sin_t = np.sin(t)
        np.subtract(np.pi, t, out=t)  # the order of the untiled expression:
        t *= rho                      # (0.5 / pi) * denom * (sin t + (pi - t) rho)
        t += sin_t
        denom *= 0.5 / np.pi
        np.multiply(denom, t, out=rho)
        if symmetric:
            out[r1:, r0:r1] = out[r0:r1, r1:].T
    if not alive_r.all():
        out[~alive_r, :] = 0.0
    if not alive_c.all():
        out[:, ~alive_c] = 0.0
    out[idx, np.arange(idx.size)] = np.where(alive_c, 0.5 * d_cols, 0.0)
    return out


def relu_expectation(k: np.ndarray) -> np.ndarray:
    """Post-activation covariance C = E[relu(z) relu(z')^T], z ~ N(0, K).

    The diagonal of the result is exactly half the input diagonal, and nodes
    with vanishing variance get zero rows and columns (see ``_relu_gauss``).
    It reads the upper triangle of ``k``, in row tiles that start at the
    diagonal, and mirrors the result below it, so ``k`` must be symmetric.
    Besides ``k`` and the result, only row-tile buffers are allocated.
    """
    k = np.asarray(k, dtype=np.float64)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError("kernel must be square")
    d = np.maximum(k.diagonal(), 0.0)
    return _relu_gauss(k, d, np.arange(d.size), np.empty(k.shape), symmetric=True)


def _graph_conv(m, k: np.ndarray) -> np.ndarray:
    """Symmetrised A K A^T for a symmetric K, with A a sparse matrix.

    A K is formed once and dropped after the product's row tiles are filled
    from it; the symmetrisation 0.5 (X + X^T) runs in place over row strips.
    """
    n = k.shape[0]
    mk = m @ k
    out = np.empty((n, n))
    rows = _tile_rows(n)
    for r0 in range(0, n, rows):
        out[r0:r0 + rows] = (m @ mk[r0:r0 + rows].T).T  # rows of (A (A K)^T)^T
    del mk
    for r0 in range(0, n, rows):
        r1 = r0 + rows
        strip = 0.5 * (out[r0:r1, r0:] + out[r0:, r0:r1].T)
        out[r0:r1, r0:] = strip
        out[r0:, r0:r1] = strip.T
    return out


# ---------------------------------------------------------------------------
# Nystrom factor


def chol_factor(c_cols: np.ndarray, c_landmark: np.ndarray) -> LowRankFactor:
    """Factor P = C[:, S] L^{-T} with P P^T the Nystrom reconstruction.

    A pivoted Cholesky factorization (LAPACK ``dpstrf``) of the landmark
    block picks the landmarks S one by one, each time the one with the
    largest Schur-complement diagonal, and stops when that diagonal falls
    to EIG_FLOOR_REL * max(diag C[a, a]) or below; C[S, S] = L L^T.  The
    factor therefore has one column per numerically present direction,
    its rank k, and no more: directions below the floor are dropped, not
    clamped.  L^{-T}, scattered into the rows S of an r x k matrix M, turns
    the product into one gemm, P = C[:, a] M.  A block with no positive
    diagonal entry cannot be factored and raises.

    Restricted to the landmark rows, P P^T reproduces C[a, a] up to the
    dropped directions, so to roundoff when no pivot falls below the floor.
    """
    c_cols = np.asarray(c_cols, dtype=np.float64)
    c_landmark = np.asarray(c_landmark, dtype=np.float64)
    if c_landmark.ndim != 2 or c_landmark.shape[0] != c_landmark.shape[1]:
        raise ValueError("landmark block must be square")
    if c_cols.ndim != 2 or c_cols.shape[1] != c_landmark.shape[0]:
        raise ValueError("column block width must match the landmark block")
    sym = 0.5 * (c_landmark + c_landmark.T)
    if not np.isfinite(sym).all():
        raise FactorizationError("landmark block has non-finite entries")
    d_max = sym.diagonal().max()
    if d_max <= 0.0:
        raise FactorizationError(
            "landmark block has no pivot above the floor "
            f"(largest diagonal entry {d_max:.3e})",
            eigenvalue=float(d_max),
        )
    chol, piv, rank, _ = lapack.dpstrf(sym, tol=EIG_FLOOR_REL * d_max, lower=1,
                                       overwrite_a=1)
    inv, _ = lapack.dtrtri(chol[:rank, :rank], lower=1, overwrite_c=1)
    m = np.zeros((sym.shape[0], rank))
    m[piv[:rank] - 1] = np.tril(inv).T
    return LowRankFactor(c_cols @ m)


# ---------------------------------------------------------------------------
# block application


def apply_block_exact(k: np.ndarray, block: Block) -> np.ndarray:
    """One building block on the dense path; never changes ``k``.

    A zero bias or a unit weight returns ``k`` itself.
    """
    if isinstance(block, Bias):
        return k if block.sigma_b == 0.0 else k + block.sigma_b**2
    if isinstance(block, Weight):
        return k if block.sigma_w == 1.0 else block.sigma_w**2 * k
    if isinstance(block, MixedWeight):
        return block.scale_sq * k
    if isinstance(block, GraphConv):
        if block.a.n_nodes != k.shape[0]:
            raise ValueError(
                f"operator size {block.a.n_nodes} does not match kernel size {k.shape[0]}"
            )
        return _graph_conv(block.a.to_csr(), k)
    if isinstance(block, Activation):
        return relu_expectation(k)
    if isinstance(block, IndependentAdd):
        other = block.other
        if not isinstance(other, np.ndarray):
            raise TypeError("exact path needs the added branch as a dense kernel")
        if other.shape != k.shape:
            raise ValueError("added branch has mismatched shape")
        return k + other
    raise TypeError(f"unknown block {block!r}")


def apply_block_lowrank(
    factor: LowRankFactor, block: Block, landmarks: Optional[LandmarkSet] = None
) -> LowRankFactor:
    """One building block on the low-rank path.

    Only the activation needs the landmark set: it evaluates the ReLU
    expectation on the landmark columns of Q Q^T and re-factors.  A zero
    bias leaves the factor untouched instead of appending a zero column,
    and a unit weight returns it too.  Never changes ``factor``.
    """
    if isinstance(block, Bias):
        if block.sigma_b == 0.0:
            return factor
        col = np.full((factor.n, 1), block.sigma_b)
        return LowRankFactor(np.hstack([factor.q, col]))
    if isinstance(block, Weight):
        return factor if block.sigma_w == 1.0 else LowRankFactor(block.sigma_w * factor.q)
    if isinstance(block, MixedWeight):
        return LowRankFactor(np.sqrt(block.scale_sq) * factor.q)
    if isinstance(block, GraphConv):
        if block.a.n_nodes != factor.n:
            raise ValueError(
                f"operator size {block.a.n_nodes} does not match factor size {factor.n}"
            )
        return LowRankFactor(block.a.to_csr() @ factor.q)
    if isinstance(block, Activation):
        if landmarks is None:
            raise ValueError("activation on the low-rank path needs a landmark set")
        idx = landmarks.indices
        if idx[-1] >= factor.n:
            raise ValueError("landmark index out of range for this factor")
        q = factor.q
        k_cols = q @ q[idx].T
        c_cols = _relu_gauss(k_cols, factor.gram_diag(), idx, out=k_cols)
        return chol_factor(c_cols, c_cols[idx])
    if isinstance(block, IndependentAdd):
        other = block.other
        if not isinstance(other, LowRankFactor):
            raise TypeError("low-rank path needs the added branch as a LowRankFactor")
        if other.n != factor.n:
            raise ValueError("added branch has mismatched node count")
        return LowRankFactor(np.hstack([factor.q, other.q]))
    raise TypeError(f"unknown block {block!r}")
