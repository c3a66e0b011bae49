"""Depth-limit diagnostics for the covariance recursions.

Tracks, layer by layer, the quantities whose limits the deep-network theory
pins down for a symmetric, irreducible, aperiodic nonnegative operator with
Perron pair (lam, v):

* rho_min, the minimum pairwise correlation (bias-free recursions drive it
  to one, so deep kernels stop distinguishing nodes);
* trace(K), bounded when sigma_w^2 lam^2 < 2 by N sigma_b^2 / (1 - delta)
  with delta = sigma_w^2 lam^2 / 2;
* the second-to-first singular value ratio and the least-squares gap of
  K / delta^l to a rank-one matrix c v v^T, both vanishing when
  sigma_w^2 lam^2 > 2.

The graph-free recursion (A = I) has its own fixed-point story and lives in
``mlp_recursion`` / ``mlp_fixed_point``: subcritical (sigma_w^2 < 2) kernels
flatten to q * ones with q = sigma_b^2 / (1 - sigma_w^2 / 2); supercritical
ones grow like (sigma_w^2 / 2)^l with a rank-one profile v_x^2 =
sigma_b^2 / (sigma_w^2 / 2 - 1) + K0(x, x).  Both treat K0 as a
pre-activation covariance and observe ``run_exact`` of the mlp program
started from g(K0); ``mlp_fixed_point`` keeps no kernel, so its memory
does not grow with depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .adjacency import SpectralInfo, is_connected, spectral_radius
from .kernels import _tile_rows, relu_expectation
from .programs import KernelProgram, peak_arrays, require_memory, run_exact

# telemetry window for the trailing-difference (Cauchy) gap
CAUCHY_LAG = 10
# Lanczos basis size of the top-two solve (ARPACK's default for two
# eigenvalues); a restart keeps the best half of its Ritz vectors
LANCZOS_BASIS = 20


@dataclass(frozen=True, eq=False)
class DepthTrace:
    """Per-layer diagnostics; index i describes the kernel after layer i+1.

    ``top2_singular_ratio`` is the second over the first singular value of
    K, from a seeded Lanczos solve for its two eigenvalues of largest
    magnitude (an SVD up to LANCZOS_BASIS nodes);
    ``scaled_gap`` is the relative Frobenius distance of K / delta^l to its
    best rank-one multiple of the Perron profile (graph-convolution
    programs only, nan otherwise); ``cauchy_gap`` is the telemetry-only
    Frobenius difference ||K^(l) - K^(l-10)||_F, nan for the first ten
    layers.
    """

    layers: np.ndarray
    rho_min: np.ndarray
    trace: np.ndarray
    top2_singular_ratio: np.ndarray
    scaled_gap: np.ndarray
    cauchy_gap: np.ndarray
    perron: Optional[SpectralInfo] = None
    scale_base: float = float("nan")


def _row_strips(n: int) -> List[slice]:
    """Row slices of one kernel tile each, so that no N x N temporary forms."""
    rows = _tile_rows(n)
    return [slice(r0, r0 + rows) for r0 in range(0, n, rows)]


def _min_correlation(k: np.ndarray) -> float:
    """min_ij K_ij / sqrt(K_ii K_jj), taken over row strips."""
    d = np.maximum(k.diagonal(), 0.0)
    if np.any(d <= 0):
        return float("nan")
    s = np.sqrt(d)
    lowest = np.min([(k[r] / np.outer(s[r], s)).min() for r in _row_strips(s.size)])
    # sqrt round-off can push a flat kernel's ratios one ulp past 1
    return float(np.clip(lowest, -1.0, 1.0))


def _orthogonalize(f: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """f less its projection on the orthonormal rows of ``basis``, taken twice."""
    f = f - (f @ basis.T) @ basis
    return f - (f @ basis.T) @ basis


def _random_direction(rng: np.random.Generator, basis: np.ndarray) -> np.ndarray:
    """A seeded uniform direction, orthogonal to the rows of ``basis``."""
    return _orthogonalize(rng.uniform(-1.0, 1.0, basis.shape[1]), basis)


def _top2_eigenvalues(k: np.ndarray) -> np.ndarray:
    """The two eigenvalues of largest magnitude of a symmetric K, largest first.

    Thick-restart Lanczos with full reorthogonalization, for N above
    LANCZOS_BASIS: a basis of LANCZOS_BASIS vectors, Rayleigh-Ritz on it,
    and a restart from the half of the Ritz vectors with the largest |theta|
    until both residual bounds fall to machine precision of the largest.
    When the basis becomes invariant up to rounding (the Krylov space is
    used up) the next vector is a fresh direction, so a repeated top
    eigenvalue is found too.  Both the start and the fresh directions come
    from a generator seeded here, so a kernel's result does not depend on
    earlier calls.
    """
    n = k.shape[0]
    m = LANCZOS_BASIS
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(0)
    v = np.empty((m, n))
    kv = np.empty((m, n))
    f = _random_direction(rng, v[:0])
    beta = np.linalg.norm(f)
    scale = 0.0
    j = 0
    for _ in range(n):
        while j < m:
            v[j] = f / beta
            np.dot(k, v[j], out=kv[j])
            scale = max(scale, np.linalg.norm(kv[j]))
            j += 1
            f = _orthogonalize(kv[j - 1], v[:j])
            beta = np.linalg.norm(f)
            if beta <= eps * scale:
                # the basis is invariant: done when it is full, else go on
                # from a fresh direction (N > m leaves one)
                beta = 0.0
                if j < m:
                    f = _random_direction(rng, v[:j])
                    beta = np.linalg.norm(f)
        theta, s = np.linalg.eigh(v @ kv.T)
        order = np.argsort(-np.abs(theta), kind="stable")
        top = order[:2]
        # ||K y - theta y|| = beta |s_last| for a Ritz pair (theta, y = s^T v)
        if np.all(beta * np.abs(s[-1, top]) <= eps * abs(theta[top[0]])):
            return theta[top]
        kept = order[: m // 2]
        v[: kept.size] = s[:, kept].T @ v
        kv[: kept.size] = s[:, kept].T @ kv
        j = kept.size
    raise RuntimeError(f"Lanczos top-two solve did not converge on {n} nodes")


def _top2_ratio(k: np.ndarray) -> float:
    """Second over first singular value of a symmetric K; nan for a zero or 1 x 1 K.

    The singular values of a symmetric matrix are the magnitudes of its
    eigenvalues, so above LANCZOS_BASIS nodes the two of largest magnitude
    from a Lanczos solve give the ratio in a few dozen products K v; up to
    that size, where a basis would span every direction, a full SVD does.
    A ratio near 1e-11 carries only about 5 significant digits: the smaller
    value is then at the rounding level of the larger.
    """
    n = k.shape[0]
    if n < 2 or not k.any():
        return float("nan")
    if n <= LANCZOS_BASIS:
        s = np.linalg.svd(k / np.abs(k).max(), compute_uv=False)
    else:
        s = np.abs(_top2_eigenvalues(k))
    return float(s[1] / s[0])


def _sum_squares(strips) -> float:
    """Squared Frobenius norm of the row strips' concatenation."""
    return sum(float(x.ravel().dot(x.ravel())) for x in strips)


def _frobenius_distance(x: np.ndarray, y: np.ndarray) -> float:
    """||X - Y||_F, taken over row strips."""
    return np.sqrt(_sum_squares(x[r] - y[r] for r in _row_strips(x.shape[0])))


def _rank1_gap(k: np.ndarray, scale: float, v: np.ndarray) -> float:
    """Relative Frobenius residual of kappa = K / scale after its best fit c * v v^T.

    c comes by least squares (||v|| = 1 makes it v^T kappa v).  kappa and
    the residual are formed one row strip at a time, never as N x N arrays.
    """
    strips = _row_strips(k.shape[0])
    norm = np.sqrt(_sum_squares(k[r] / scale for r in strips))
    if norm == 0:
        return float("nan")
    c = float(sum(v[r] @ (k[r] / scale) for r in strips) @ v)
    resid = np.sqrt(_sum_squares(k[r] / scale - c * np.outer(v[r], v) for r in strips))
    return float(resid / norm)


def scan_arrays(program: KernelProgram) -> int:
    """N x N arrays a depth scan holds at once, K0 included: a layer's
    (``peak_arrays``) beside the window of CAUCHY_LAG kernels, or mlp's K0."""
    return (1 if program.a is None else CAUCHY_LAG) + peak_arrays(program)


def depth_scan(program: KernelProgram, k0,
               per_layer: Optional[Callable[[int, np.ndarray], None]] = None) -> DepthTrace:
    """Run the program's exact recursion to its depth, recording diagnostics.

    The diagnostics are an ``on_layer`` observer of ``run_exact``; besides
    the current kernel, only the last CAUCHY_LAG kernels stay alive, and
    the observer forms no N x N temporary.  ``k0`` is K0, or a one-element
    list holding it, which hands it over as ``run_exact`` takes it: it is
    then dropped in layer 1, and the scan peaks at ``scan_arrays`` N x N
    arrays, K0 included, and at one more when the caller keeps K0.  Any
    node count is accepted, but before the first layer the scan raises
    ValueError when the arrays of its peak, less the K0 that already
    exists, would not fit in the available memory.  The operator must
    be symmetric, nonnegative, irreducible (connected) and aperiodic
    (positive diagonal, which both normalizations guarantee via their
    self-loops); the depth-limit statements assume exactly that.  The
    optional ``per_layer`` callback sees each dense kernel as it is produced.
    A program with no operator (mlp) is rejected; ``mlp_fixed_point`` scans
    the graph-free recursion.
    """
    a = program.a
    if a is None:
        raise ValueError(f"depth scan needs a graph operator, and {program.architecture} "
                         "has none; mlp_fixed_point scans the graph-free recursion")
    require_memory(a.n_nodes, scan_arrays(program) - isinstance(k0, list), "depth scan")
    m = a.to_csr()
    asym = np.abs(m - m.T)
    if asym.nnz and asym.max() > 1e-12:
        raise ValueError("depth scan needs a symmetric operator")
    if not is_connected(a):
        raise ValueError(
            "depth scan needs an irreducible (connected) operator; "
            "the depth-limit analysis does not cover reducible graphs"
        )
    if np.any(m.diagonal() <= 0):
        raise ValueError(
            "depth scan needs an aperiodic operator (positive diagonal); "
            "normalize with self-loops first"
        )

    perron = spectral_radius(a)
    gcn_like = program.architecture == "gcn"
    delta = program.sigma_w**2 * perron.eigenvalue**2 / 2.0 if gcn_like else float("nan")

    layers = np.arange(1, program.depth + 1)
    rho = np.empty(program.depth)
    tr = np.empty(program.depth)
    top2 = np.empty(program.depth)
    gap = np.full(program.depth, np.nan)
    cauchy = np.full(program.depth, np.nan)
    window: List[np.ndarray] = []

    def observe(layer: int, k: np.ndarray) -> None:
        i = layer - 1
        rho[i] = _min_correlation(k)
        tr[i] = np.trace(k)
        top2[i] = _top2_ratio(k)
        if gcn_like and delta > 0:
            gap[i] = _rank1_gap(k, delta**layer, perron.eigenvector)
        if len(window) == CAUCHY_LAG:
            cauchy[i] = _frobenius_distance(k, window.pop(0))
        window.append(k)
        if per_layer is not None:
            per_layer(layer, k)

    run_exact(program, k0, on_layer=observe)
    return DepthTrace(layers, rho, tr, top2, gap, cauchy, perron, delta)


# ---------------------------------------------------------------------------
# graph-free (A = I) recursion


def mlp_recursion(k0: np.ndarray, sigma_b: float, sigma_w: float, depth: int) -> List[np.ndarray]:
    """Iterate K <- sigma_b^2 + sigma_w^2 g(K) from a pre-activation K0.

    Plain fixed-point iteration with no regime classification; runs at any
    sigma_w, including the threshold.  Collects each layer of the mlp
    program's ``run_exact`` through its ``on_layer`` hook.
    """
    k0 = np.asarray(k0, dtype=np.float64)
    program = KernelProgram.mlp(depth, sigma_b=sigma_b, sigma_w=sigma_w)
    out: List[np.ndarray] = []
    run_exact(program, relu_expectation(k0), on_layer=lambda _, k: out.append(k))
    return out


@dataclass(frozen=True, eq=False)
class MlpLimitResult:
    """Limit classification and per-layer gap for the graph-free recursion.

    Subcritical: ``flat_level`` holds q and ``gaps[i]`` = max|K - q|.
    Supercritical: ``profile`` holds v and ``gaps[i]`` = max|K/delta^l - v v^T|.
    """

    regime: str
    layers: np.ndarray
    gaps: np.ndarray
    trace: np.ndarray
    rho_min: np.ndarray
    flat_level: float = float("nan")
    profile: Optional[np.ndarray] = None

    @property
    def final_gap(self) -> float:
        return float(self.gaps[-1])


def mlp_fixed_point(sigma_b: float, sigma_w: float, k0: np.ndarray,
                    depth: int) -> MlpLimitResult:
    """Classify the graph-free limit and measure convergence toward it.

    Each layer's gap, trace and rho_min come from an ``on_layer`` observer
    of the mlp program's ``run_exact`` that keeps no kernel, so memory does
    not grow with depth.  sigma_w^2 == 2 sits exactly on the threshold,
    where neither limit statement applies; that regime is rejected.
    """
    k0 = np.asarray(k0, dtype=np.float64)
    program = KernelProgram.mlp(depth, sigma_b=sigma_b, sigma_w=sigma_w)
    # sqrt(2)**2 misses 2.0 by one ulp, so an exact test would never fire;
    # treat the whole rounding neighborhood as the threshold
    if abs(sigma_w**2 - 2.0) <= 1e-12:
        raise ValueError(
            "sigma_w^2 = 2 is the critical point; no limit statement covers it"
        )
    # both limits read K / scale^l -> limit; dividing by 1.0 is exact
    delta = sigma_w**2 / 2.0
    q, v = float("nan"), None
    if delta < 1.0:
        q = sigma_b**2 / (1.0 - delta)
        scale, limit = 1.0, lambda r: q
    else:
        v = np.sqrt(sigma_b**2 / (delta - 1.0) + np.maximum(k0.diagonal(), 0.0))
        scale, limit = delta, lambda r: np.outer(v[r], v)
    layers = np.arange(1, depth + 1)
    gaps, tr, rho = np.empty(depth), np.empty(depth), np.empty(depth)

    def observe(layer: int, k: np.ndarray) -> None:
        gaps[layer - 1] = np.max([np.abs(k[r] / scale**layer - limit(r)).max()
                                  for r in _row_strips(k.shape[0])])
        tr[layer - 1] = np.trace(k)
        rho[layer - 1] = _min_correlation(k)

    run_exact(program, [relu_expectation(k0)], on_layer=observe)
    regime = "subcritical" if delta < 1.0 else "supercritical"
    return MlpLimitResult(regime, layers, gaps, tr, rho, flat_level=q, profile=v)
