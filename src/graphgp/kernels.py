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
features with fewer features than landmarks.  The block is factored first;
only its pivot columns are then formed over all N nodes.

The ReLU expectation uses the closed form (Cho & Saul 2009)

    E[relu(z) relu(z')] = sqrt(K_xx K_x'x') * (sin t + (pi - t) rho) / (2 pi),
    rho = cos t = K_xx' / sqrt(K_xx K_x'x'),  t = arccos(rho),

so the diagonal is halved exactly and the correlation version
f(rho) = (sin t + (pi - t) rho) / pi maps [-1, 1] into [0, 1].  sin t is
taken as sqrt(1 - rho^2), not as sin(arccos rho): three cheap passes in
place of np.sin, the dearest pass of the expression.

Memory: the ReLU expectation works in row tiles of about _TILE_ELEMENTS
entries, writing into one preallocated output, so it holds its input, its
output and three tile buffers per thread; with W threads sharing the
tiles, each tile holds a W-th as many entries, so the W threads' buffers
together hold no more than one thread's would.  GraphConv drops its input once A K is
formed, when the input came in a one-element list that held its only
reference, so it holds A K and the product; it transposes and symmetrises
in place over square blocks.  No other N x N temporary is made.  Each
block takes its input in such a list (``programs._drive`` hands it on that
way); ``programs.peak_arrays`` counts from these rules the N x N arrays a
program holds at once, and ``programs.checked_nn`` adds the three tile
buffers to them.  The low-rank activation factors the r x r
landmark block g(Q[a] Q[a]^T) first, then forms the k <= r pivot columns
g(Q Q[S]^T), writes the ReLU expectation over them in place and multiplies
them by L^{-T} in place, one row tile at a time; so it holds its input Q
and one N x k array, and a low-rank layer peaks near 2 N x r arrays.  Each
thread that multiplies by L^{-T} holds one tile-rows x _COL_BLOCK buffer.

Threads: with BLAS pinned to fewer threads than there are usable cores
(OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS, read as
OpenBLAS reads them), the row tiles of the ReLU expectation, of the
pivot-column product and of the product with L^{-T} are shared among
W = cores // (BLAS threads) threads, the caller one of them; numpy
releases the GIL in each call they make.  A ReLU pass of fewer than
_SHARE_MIN_ELEMENTS entries, and a product too small to split without
changing its bits, stay on the caller.  Unpinned, BLAS threads over every core
itself, W = 1 and each loop runs on the caller alone.  The pool is made
on first use in each process, so a forked child makes its own.

Passes: the dense ReLU expectation computes only the tiles on and above
the diagonal and mirrors them below it.  A dense layer, weight and bias,
is one block (``Weight``) that makes one new array on either path,
sigma_w^2 K + sigma_b^2 or [sigma_w Q, sigma_b 1]; with a unit weight and
a zero bias it returns its input itself.  Tiling and mirroring change no
operation on any element, nor their order, and neither does sharing the
tiles among threads, so for a bitwise-symmetric input (every kernel this
package builds) the results are bit for bit those of the untiled
full-matrix expression, whatever W is

    (0.5 / pi) * denom * (sqrt(1 - rho * rho) + (pi - arccos(rho)) * rho),
    denom = sqrt(K_xx K_x'x'),  rho = clip(K_xx' / denom, -1, 1).

The Nystrom factor's product with the upper-triangular L^{-T} skips the
zero half of L^{-T}: it goes one block of _COL_BLOCK columns at a time,
and a block's columns sum only the rows of L^{-T} above its last column.
Its row tiles do not depend on W, and the matrix products split among
threads are cut where BLAS sums each entry as in the whole product
(``_shared_matmul``), so the factor too has the same bits whatever W is.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Optional, Union

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
# Entries per row tile of the dense ReLU expectation; GraphConv's square
# blocks hold a sixteenth as many.
_TILE_ELEMENTS = 2**18
# Columns per block of the Nystrom factor's in-place product with L^{-T}.
_COL_BLOCK = 64
# The environment variables OpenBLAS reads for its thread count, in its order.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# Row tiles of a shared matrix product start at multiples of _GEMM_ROWS rows
# and multiply-add at least _GEMM_MIN_WORK times (see ``_shared_matmul``).
_GEMM_ROWS = 96
_GEMM_MIN_WORK = 2**20
# An elementwise pass of fewer entries runs on the caller alone: waking a
# pool thread took longer than half such a pass (2 cores, one BLAS thread).
_SHARE_MIN_ELEMENTS = 2**15


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
class Weight:
    """Random dense layer, weight and bias: sigma_w^2 K + sigma_b^2, or
    [sigma_w Q, sigma_b 1] (no bias column when sigma_b = 0)."""

    sigma_w: float
    sigma_b: float = 0.0

    def __post_init__(self):
        for name in ("sigma_w", "sigma_b"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be nonnegative and finite, got {value}")


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


Block = Union[Weight, GraphConv, Activation, IndependentAdd]


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
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    x = np.asarray(x, dtype=np.float64)
    y = x if y is None else np.asarray(y, dtype=np.float64)
    out = cdist(x, y, "sqeuclidean")
    out *= -gamma
    return np.exp(out, out=out)


def base_poly(
    x: np.ndarray, y: Optional[np.ndarray] = None, c: float = 5.0, d: float = 3.0
) -> np.ndarray:
    """Polynomial base (x . x' + c)^d.

    For non-integer d the shifted inner product is clamped at zero before
    exponentiation so the power stays real.
    """
    if not (math.isfinite(c) and c >= 0):
        raise ValueError(f"c must be nonnegative and finite, got {c}")
    if not math.isfinite(d):
        raise ValueError(f"d must be finite, got {d}")
    x = np.asarray(x, dtype=np.float64)
    y = x if y is None else np.asarray(y, dtype=np.float64)
    base = x @ y.T
    base += c
    if not float(d).is_integer():
        np.maximum(base, 0.0, out=base)
    base **= d
    return base


# ---------------------------------------------------------------------------
# row tiles shared among the cores BLAS leaves idle


def _blas_threads() -> Optional[int]:
    """BLAS threads as OpenBLAS counts them: the first positive integer among
    _BLAS_THREAD_VARS, or None when none is set (it then threads over every
    core)."""
    for var in _BLAS_THREAD_VARS:
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return None


def _pool_width() -> int:
    """Threads that share the row tiles: the usable cores over the BLAS
    threads, and 1, no pool, when BLAS threads over every core itself."""
    blas = _blas_threads()
    if blas is None:
        return 1
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return max(1, cores // blas)


# (W, executor of W - 1 threads or None), made on first use in each process
_pool_state = None


def _forget_pool() -> None:
    """Drop the pool in a forked child, whose copy of it has no threads."""
    global _pool_state
    _pool_state = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _tile_pool():
    """(W, the executor of the W - 1 threads beside the caller, or None)."""
    global _pool_state
    if _pool_state is None:
        workers = _pool_width()
        _pool_state = (workers, ThreadPoolExecutor(workers - 1, "graphgp-tiles")
                       if workers > 1 else None)
    return _pool_state


def _in_row_tiles(n_rows: int, rows: int, share: Callable[[range, int], None]) -> None:
    """Run ``share(starts, rows)`` over the row tiles [r0, r0 + rows) of n_rows rows.

    The W threads of the pool share the tiles: thread w gets the tiles w,
    w + W, ..., so its first tile is its largest; the calling thread runs
    share 0 and waits for the others, and an exception raised in a share
    is raised here, once every share has ended.  With W = 1, one call with
    every tile.  ``share`` must write nothing that another share reads or
    writes.
    """
    workers, pool = _tile_pool()
    starts = range(0, n_rows, rows)
    if not starts:
        return
    futures = [pool.submit(share, starts[w::workers], rows)
               for w in range(1, min(workers, len(starts)))]
    try:
        share(starts[::workers], rows)
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _shared_tile_rows(n_rows: int, n_cols: int) -> int:
    """Rows of the shared tiles of an elementwise pass over n_rows x n_cols:
    min(_TILE_ELEMENTS // (n_cols W), ceil(n_rows / W)), at least one, so
    every thread gets work and the W threads' tile buffers together hold no
    more than one thread's would.  A pass of fewer than _SHARE_MIN_ELEMENTS
    entries takes W = 1."""
    workers = _tile_pool()[0] if n_rows * n_cols >= _SHARE_MIN_ELEMENTS else 1
    return max(1, min(_TILE_ELEMENTS // (max(n_cols, 1) * workers), -(-n_rows // workers)))


def _shared_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, its row tiles shared among the pool, bit for bit one product.

    BLAS computes an entry of a product by one of several kernels, which
    sum in different orders: the full or the edge micro-kernel, chosen by
    the entry's row within its tile (OpenBLAS's SkylakeX kernel takes rows
    in groups of 12), or a small-matrix kernel or a matrix-vector product,
    chosen by the tile's size.  So the tiles have ``_shared_tile_rows``
    rows, cut to a multiple of _GEMM_ROWS, a multiple of each group size,
    but at least _GEMM_MIN_WORK multiply-adds, above every small-matrix
    threshold; the last tile also takes the rows short of a whole tile, so
    that it is no smaller.  Small tiles keep each thread's BLAS packing
    buffer small.  With W = 1 it is one call.
    """
    n, inner = a.shape
    out = np.empty((n, b.shape[1]))
    rows = max(n, 1)
    if _tile_pool()[0] > 1:
        least = -(-_GEMM_MIN_WORK // max(inner * b.shape[1], 1))
        rows = max(_shared_tile_rows(n, b.shape[1]) // _GEMM_ROWS,
                   -(-least // _GEMM_ROWS), 1) * _GEMM_ROWS
    last = max(0, n // rows - 1) * rows  # the last tile runs from here to n

    def share(starts: range, rows: int) -> None:
        for r0 in starts:
            r1 = n if r0 == last else r0 + rows
            np.matmul(a[r0:r1], b, out=out[r0:r1])

    _in_row_tiles(last + 1, rows, share)
    return out


# ---------------------------------------------------------------------------
# ReLU expectation


def correlation_map(rho):
    """Correlation version of the ReLU expectation, f(rho) in [0, 1].

    f(rho) = (sin t + (pi - t) rho) / pi with t = arccos(rho) and sin t
    = sqrt(1 - rho^2), as in ``_relu_gauss``; inputs are
    clamped to [-1, 1] to absorb roundoff.  Nondecreasing, f(rho) >= rho,
    f(1) = 1.
    """
    r = np.clip(rho, -1.0, 1.0)
    t = np.arccos(r)
    return (np.sqrt(1.0 - r * r) + (np.pi - t) * r) / np.pi


def _tile_rows(n_cols: int) -> int:
    """Rows of an n_cols-wide array that fit in one tile (at least one)."""
    return max(1, _TILE_ELEMENTS // max(n_cols, 1))


def _relu_gauss(k_cols: np.ndarray, d: np.ndarray, idx: np.ndarray,
                out: np.ndarray, symmetric: bool = False,
                var_floor: Optional[float] = None) -> np.ndarray:
    """ReLU expectation of the columns K[:, idx], given the row variances ``d``.

    Writes into ``out`` (which may be ``k_cols`` itself) row tile by row
    tile and returns it; the tiles are shared among the W threads of the
    pool (``_shared_tile_rows``), and three tile buffers per thread,
    allocated once, hold every temporary.  Each entry goes through the
    same operations whatever the tiles, so W changes no bit.  A node with variance at or below ``var_floor`` (by default
    VAR_FLOOR_REL * max(d)) has no signal to propagate and gets zero rows
    and columns; a caller that passes only some rows passes the floor of
    the whole kernel.  A non-finite variance, or floor, raises ValueError:
    NaN fails every comparison, so it would count as dead and zero its
    node unseen.  Each node's entry with itself, out[idx[j], j], is
    exactly half its variance (arccos would round).  The dense path passes
    ``idx = arange(N)`` and ``symmetric``: each row tile then starts at the
    diagonal, so only the upper triangle of ``k_cols`` is read, and is
    mirrored below it.
    """
    if var_floor is None:
        var_floor = VAR_FLOOR_REL * (d.max() if d.size else 0.0)
    if not (np.isfinite(var_floor) and np.isfinite(d).all()):
        raise ValueError("the kernel has a non-finite variance (NaN or inf on its "
                         "diagonal), so its ReLU expectation is undefined")
    d_cols = d[idx]
    alive_r = d > var_floor
    alive_c = d_cols > var_floor
    sr = np.sqrt(np.where(alive_r, d, 1.0))
    sc = np.sqrt(np.where(alive_c, d_cols, 1.0))

    def share(starts: range, rows: int) -> None:
        size = min(rows, sr.size - starts[0]) * sc.size
        denom_buf, t_buf, sin_buf = np.empty(size), np.empty(size), np.empty(size)
        for r0 in starts:
            r1 = r0 + rows
            c0 = r0 if symmetric else 0
            rho = out[r0:r1, c0:]
            denom = denom_buf[:rho.size].reshape(rho.shape)
            t = t_buf[:rho.size].reshape(rho.shape)
            sin_t = sin_buf[:rho.size].reshape(rho.shape)
            np.multiply(sr[r0:r1, None], sc[None, c0:], out=denom)
            np.divide(k_cols[r0:r1, c0:], denom, out=rho)
            np.clip(rho, -1.0, 1.0, out=rho)
            np.arccos(rho, out=t)
            np.multiply(rho, rho, out=sin_t)  # sin t = sqrt(1 - rho^2); the clip
            np.subtract(1.0, sin_t, out=sin_t)  # keeps 1 - rho^2 non-negative
            np.sqrt(sin_t, out=sin_t)
            np.subtract(np.pi, t, out=t)  # the order of the untiled expression:
            t *= rho                      # (0.5 / pi) * denom * (sin t + (pi - t) rho)
            t += sin_t
            denom *= 0.5 / np.pi
            np.multiply(denom, t, out=rho)
            if symmetric:  # below every later tile's columns
                out[r1:, r0:r1] = out[r0:r1, r1:].T

    _in_row_tiles(sr.size, _shared_tile_rows(sr.size, sc.size), share)
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


def _square_blocks(n: int) -> list:
    """Slices cutting range(n) into blocks of _TILE_ELEMENTS / 16 entries
    squared (128 at the default): a block and its mirror stay in cache."""
    side = max(1, math.isqrt(_TILE_ELEMENTS // 16))
    return [slice(i, i + side) for i in range(0, n, side)]


def _take(rep):
    """The representation a block reads: ``rep`` itself, or the one element
    of the list ``rep``, taken out, so that the list no longer holds it."""
    return rep.pop() if isinstance(rep, list) else rep


def _graph_conv(m, k) -> np.ndarray:
    """Symmetrised A K A^T for a symmetric K, with A a sparse matrix.

    ``k`` is K, or a one-element list holding it, which is emptied.  X = A K
    is formed and K dropped, then X is transposed in place, one pair of
    square blocks at a time; Z = A X is formed and X dropped.  So at most
    two N x N arrays are alive, K counted when the list held its only
    reference, and three when the caller keeps K.  Z is symmetrised in
    place, block pair by block pair, as 0.5 (Z[r, c] + Z[c, r]^T).  The
    bits are those of the whole-matrix 0.5 (Y + Y^T) with Y = (A (A K)^T)^T:
    the sparse product sums each output entry in the same order whatever
    the width of its dense operand, so Z = Y^T bit for bit, and each
    symmetrised entry adds the same two terms, which commute.
    """
    x = m @ _take(k)
    blocks = _square_blocks(x.shape[0])
    for i, r in enumerate(blocks):
        for c in blocks[i:]:
            upper = x[r, c].copy()
            x[r, c] = x[c, r].T
            x[c, r] = upper.T
    z = m @ x
    del x
    for i, r in enumerate(blocks):
        for c in blocks[i:]:
            s = 0.5 * (z[r, c] + z[c, r].T)
            z[r, c] = s
            z[c, r] = s.T
    return z


# ---------------------------------------------------------------------------
# Nystrom factor


def chol_factor(c_landmark: np.ndarray,
                columns: Callable[[np.ndarray], np.ndarray]) -> LowRankFactor:
    """Factor P = C[:, S] L^{-T} with P P^T the Nystrom reconstruction.

    A pivoted Cholesky factorization (LAPACK ``dpstrf``) of the r x r
    landmark block C[a, a] picks the landmarks S one by one, each time the
    one with the largest Schur-complement diagonal, and stops when that
    diagonal falls to EIG_FLOOR_REL * max(diag C[a, a]) or below;
    C[S, S] = L L^T.  The factor therefore has one column per numerically
    present direction, its rank k, and no more: directions below the floor
    are dropped, not clamped.  A block with no positive diagonal entry
    cannot be factored and raises.

    Only then are the N x k pivot columns formed, by ``columns(piv)``,
    which gets the positions of S within the landmark set, in pivot order,
    and returns C[:, a[piv]] as a fresh array.  That array is multiplied by
    L^{-T} in place and becomes the factor, so the re-factor holds one
    N x k array, never the N x r landmark columns; an array of one tile is
    multiplied whole instead, which holds no more.  In place, each row tile
    is multiplied one block of _COL_BLOCK columns at a time, from the last
    block to the first, through one tile-rows x _COL_BLOCK buffer per
    thread.  L^{-T} is upper triangular, so block [j0, j1) reads only the
    tile's columns below j1, which the blocks still to come have not
    written, and only the rows of L^{-T} above j1: the zero half of L^{-T}
    is not multiplied.  The W threads of the pool share the row tiles, of
    _tile_rows(k) rows whatever W is, and the whole product is cut as
    ``_shared_matmul`` cuts it; whole or in column blocks, which round
    differently, also follows _tile_rows(k) alone, so W changes no bit.

    Restricted to the landmark rows, P P^T reproduces C[a, a] up to the
    dropped directions, so to roundoff when no pivot falls below the floor.
    """
    c_landmark = np.asarray(c_landmark, dtype=np.float64)
    if c_landmark.ndim != 2 or c_landmark.shape[0] != c_landmark.shape[1]:
        raise ValueError("landmark block must be square")
    # bitwise symmetric, so its transpose is a Fortran-ordered array with the
    # same entries, which dpstrf factors in place
    sym = c_landmark + c_landmark.T
    sym *= 0.5
    if not np.isfinite(sym).all():
        raise FactorizationError("landmark block has non-finite entries")
    d_max = sym.diagonal().max()
    if d_max <= 0.0:
        raise FactorizationError(
            "landmark block has no pivot above the floor "
            f"(largest diagonal entry {d_max:.3e})",
            eigenvalue=float(d_max),
        )
    chol, piv, rank, _ = lapack.dpstrf(sym.T, tol=EIG_FLOOR_REL * d_max, lower=1,
                                       overwrite_a=1)
    inv, _ = lapack.dtrtri(chol[:rank, :rank], lower=1, overwrite_c=1)
    inv_t = np.tril(inv).T
    del sym, chol, inv  # only L^{-T} is needed beside the N x k columns
    p = columns(piv[:rank] - 1)
    if p.ndim != 2 or p.shape[1] != rank:
        raise ValueError(f"pivot column block of shape {p.shape} does not have "
                         f"the factor's width {rank}")
    # numpy's gemm, not scipy's dtrmm or dtrsm: numpy and scipy each load
    # their own OpenBLAS, and alternating thread pools stalls the small
    # builds under default threads
    rows = _tile_rows(rank)
    if p.shape[0] <= rows:  # one tile: its product is the factor, with no copy back
        return LowRankFactor(_shared_matmul(p, inv_t))

    def share(starts: range, rows: int) -> None:
        buf = np.empty(min(rows, p.shape[0] - starts[0]) * min(_COL_BLOCK, rank))
        for r0 in starts:
            tile = p[r0:r0 + rows]
            for j0 in reversed(range(0, rank, _COL_BLOCK)):
                j1 = min(j0 + _COL_BLOCK, rank)
                prod = buf[:tile.shape[0] * (j1 - j0)].reshape(tile.shape[0], j1 - j0)
                np.matmul(tile[:, :j1], inv_t[:j1, j0:j1], out=prod)
                tile[:, j0:j1] = prod

    _in_row_tiles(p.shape[0], rows, share)
    return LowRankFactor(p)


# ---------------------------------------------------------------------------
# block application


def apply_block_exact(k, block: Block) -> np.ndarray:
    """One building block on the dense path; never changes its input.

    ``k`` is the N x N kernel, or a one-element list holding it, which is
    emptied, as ``programs._drive`` hands each block its input: GraphConv
    then drops K once A K is formed, so K is freed when the list held its
    only reference.  ``Weight(1.0, 0.0)`` returns the input itself.
    """
    if isinstance(block, GraphConv):
        n = (k[0] if isinstance(k, list) else k).shape[0]
        if block.a.n_nodes != n:
            raise ValueError(
                f"operator size {block.a.n_nodes} does not match kernel size {n}"
            )
        return _graph_conv(block.a.to_csr(), k)
    k = _take(k)
    if isinstance(block, Weight):
        if block.sigma_w == 1.0:
            return k if block.sigma_b == 0.0 else k + block.sigma_b**2
        out = block.sigma_w**2 * k
        if block.sigma_b != 0.0:
            out += block.sigma_b**2
        return out
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
    factor, block: Block, landmarks: Optional[LandmarkSet] = None
) -> LowRankFactor:
    """One building block on the low-rank path.

    ``factor`` is a LowRankFactor, or a one-element list holding it, which
    is emptied, as ``apply_block_exact`` takes its kernel.  Only the
    activation needs the landmark set: it evaluates the ReLU expectation on
    the landmark columns of Q Q^T and re-factors.  A zero bias appends no
    zero column, and ``Weight(1.0, 0.0)`` returns the factor itself.  Never
    changes its input.
    """
    factor = _take(factor)
    if isinstance(block, Weight):
        if block.sigma_b == 0.0:
            return factor if block.sigma_w == 1.0 else LowRankFactor(block.sigma_w * factor.q)
        q = np.empty((factor.n, factor.rank + 1))
        if block.sigma_w == 1.0:
            q[:, :-1] = factor.q
        else:
            np.multiply(block.sigma_w, factor.q, out=q[:, :-1])
        q[:, -1] = block.sigma_b
        return LowRankFactor(q)
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
        q, d = factor.q, factor.gram_diag()
        var_floor = VAR_FLOOR_REL * d.max()
        anchors = q[idx]
        block = anchors @ anchors.T
        del anchors
        _relu_gauss(block, d[idx], np.arange(idx.size), out=block, symmetric=True,
                    var_floor=var_floor)

        def columns(piv):
            cols = idx[piv]
            k_cols = _shared_matmul(q, q[cols].T)
            return _relu_gauss(k_cols, d, cols, out=k_cols, var_floor=var_floor)

        return chol_factor(block, columns)
    if isinstance(block, IndependentAdd):
        other = block.other
        if not isinstance(other, LowRankFactor):
            raise TypeError("low-rank path needs the added branch as a LowRankFactor")
        if other.n != factor.n:
            raise ValueError("added branch has mismatched node count")
        return LowRankFactor(np.hstack([factor.q, other.q]))
    raise TypeError(f"unknown block {block!r}")
