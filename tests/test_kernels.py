import multiprocessing
import os
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lapack

from graphgp import kernels
from graphgp import (
    Activation,
    FactorizationError,
    GraphConv,
    IndependentAdd,
    LandmarkSet,
    LowRankFactor,
    Weight,
    apply_block_exact,
    apply_block_lowrank,
    base_inner,
    base_poly,
    base_rbf,
    chol_factor,
    correlation_map,
    nystrom_start,
    relu_expectation,
)

from conftest import random_features, random_psd, row_operator, sym_operator


# ---------------------------------------------------------------------------
# Monte-Carlo oracle for the ReLU expectation, written before any expected
# value below was frozen.  Draws z ~ N(0, K) through an eigendecomposition
# (K may be singular) and averages relu(z) relu(z)^T.

def mc_relu_cov(k, n_samples, seed):
    w, u = np.linalg.eigh(k)
    w = np.maximum(w, 0.0)
    root = u * np.sqrt(w)
    g = np.random.default_rng(seed).normal(size=(n_samples, k.shape[0]))
    z = np.maximum(g @ root.T, 0.0)
    est = z.T @ z / n_samples
    # per-entry standard error of the mean, from the sample second moments
    prods = z[:, :, None] * z[:, None, :]
    se = prods.std(axis=0, ddof=1) / np.sqrt(n_samples)
    return est, se


def test_relu_expectation_against_mc_oracle():
    k = np.array(
        [
            [1.00, 0.40, -0.30, 0.10],
            [0.40, 0.80, 0.20, -0.10],
            [-0.30, 0.20, 1.50, 0.60],
            [0.10, -0.10, 0.60, 0.90],
        ]
    )
    assert np.linalg.eigvalsh(k).min() > 0
    est, se = mc_relu_cov(k, n_samples=400_000, seed=20240817)
    got = relu_expectation(k)
    assert np.all(np.abs(got - est) <= 5.0 * se + 1e-12)


def test_relu_expectation_perfect_correlation_exact():
    # rho = 1 entries reproduce sqrt(d_i d_j) / 2 with no arccos wobble
    v = np.array([1.0, 2.0, 0.5])
    k = np.outer(v, v)
    got = relu_expectation(k)
    assert np.abs(got - 0.5 * k).max() <= 1e-14


def test_relu_diagonal_halved_exactly():
    for seed in range(10):
        k = random_psd(7, seed)
        got = relu_expectation(k)
        assert np.array_equal(got.diagonal(), 0.5 * k.diagonal())


def test_relu_degenerate_node_zeroed():
    k = random_psd(5, 2)
    k[2, :] = 0.0
    k[:, 2] = 0.0
    got = relu_expectation(k)
    assert np.array_equal(got[2, :], np.zeros(5))
    assert np.array_equal(got[:, 2], np.zeros(5))
    # the rest behaves as a 4-node problem
    keep = [0, 1, 3, 4]
    sub = relu_expectation(k[np.ix_(keep, keep)])
    assert np.abs(got[np.ix_(keep, keep)] - sub).max() <= 1e-14


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_relu_expectation_rejects_a_non_finite_variance(bad):
    # NaN fails every comparison with the variance floor, so a NaN node
    # would count as dead and the whole kernel be zeroed unseen
    k = random_psd(5, 2)
    k[2, :] = k[:, 2] = bad
    with pytest.raises(ValueError, match="non-finite variance"):
        relu_expectation(k)
    q = LowRankFactor(np.random.default_rng(4).normal(size=(5, 3)))
    q.q[2, 0] = bad
    with pytest.raises(ValueError, match="non-finite variance"):
        apply_block_lowrank(q, Activation(), LandmarkSet(np.array([0, 1, 4])))


def test_relu_preserves_psd():
    for seed in range(10):
        k = random_psd(8, seed + 100, rank=4)
        w = np.linalg.eigvalsh(relu_expectation(k))
        assert w.min() >= -1e-10


def test_relu_requires_square():
    with pytest.raises(ValueError, match="square"):
        relu_expectation(np.zeros((2, 3)))


def test_correlation_map_pinned_values():
    assert correlation_map(1.0) == 1.0
    assert abs(correlation_map(-1.0)) <= 1e-16
    assert abs(correlation_map(0.0) - 1.0 / np.pi) <= 1e-15


def test_correlation_map_properties():
    rng = np.random.default_rng(5)
    rho = np.sort(rng.uniform(-1.0, 1.0, size=1000))
    f = correlation_map(rho)
    assert np.all(f >= rho - 1e-15)
    assert np.all((f >= 0.0) & (f <= 1.0 + 1e-15))
    assert np.all(np.diff(f) >= -1e-15)  # nondecreasing
    # 1-Lipschitz: |f(a) - f(b)| <= |a - b|
    a = rng.uniform(-1.0, 1.0, size=1000)
    b = rng.uniform(-1.0, 1.0, size=1000)
    assert np.all(
        np.abs(correlation_map(a) - correlation_map(b)) <= np.abs(a - b) + 1e-12
    )


def test_correlation_map_clamps_roundoff():
    assert correlation_map(1.0 + 1e-12) == 1.0
    assert abs(correlation_map(-1.0 - 1e-12)) <= 1e-16


# ---------------------------------------------------------------------------
# base covariances

def test_base_inner_matches_formula():
    x = np.random.default_rng(0).normal(size=(5, 3))
    assert np.abs(base_inner(x) - x @ x.T / 3.0).max() <= 1e-15
    y = x[:2]
    assert np.abs(base_inner(x, y) - x @ y.T / 3.0).max() <= 1e-15


def test_base_rbf_unit_diagonal_and_cross():
    x = np.random.default_rng(1).normal(size=(6, 4))
    k = base_rbf(x, gamma=0.3)
    assert np.abs(k.diagonal() - 1.0).max() <= 1e-15
    d2 = ((x[0] - x[3]) ** 2).sum()
    assert abs(k[0, 3] - np.exp(-0.3 * d2)) <= 1e-12
    with pytest.raises(ValueError, match="gamma"):
        base_rbf(x, gamma=0.0)


def test_base_poly_integer_degree_signed():
    x = np.array([[1.0], [-3.0]])
    k = base_poly(x, c=0.0, d=3.0)
    assert k[0, 1] == (-3.0) ** 3


def test_base_poly_fractional_degree_clamps():
    x = np.array([[1.0], [-3.0]])
    k = base_poly(x, c=0.0, d=1.5)
    assert k[0, 1] == 0.0  # negative base clamped before the fractional power
    assert k[0, 0] == 1.0


# ---------------------------------------------------------------------------
# landmark factorization

def columns_of(c_cols):
    """The pivot-column callable of ``chol_factor`` for given columns."""
    return lambda piv: c_cols[:, piv]


def test_chol_factor_reconstructs_landmark_block():
    c = random_psd(6, 3) + 0.5 * np.eye(6)
    p = chol_factor(c, columns_of(c)).gram()
    assert np.abs(p - c).max() <= 1e-9


def test_chol_factor_exact_for_spanning_landmarks():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(10, 3))
    k = x @ x.T
    idx = np.array([0, 4, 7])
    assert np.linalg.matrix_rank(x[idx]) == 3
    factor = chol_factor(k[np.ix_(idx, idx)], columns_of(k[:, idx]))
    assert np.abs(factor.gram() - k).max() / np.abs(k).max() <= 1e-9


def test_chol_factor_rejects_negative_block():
    # ``eigenvalue`` carries the block's largest diagonal entry, here -1
    with pytest.raises(FactorizationError, match="no pivot above the floor") as exc:
        chol_factor(-np.eye(2), columns_of(np.zeros((3, 2))))
    assert exc.value.eigenvalue is not None and exc.value.eigenvalue < 0


def test_chol_factor_rejects_zero_block():
    with pytest.raises(FactorizationError, match="no pivot above the floor") as exc:
        chol_factor(np.zeros((2, 2)), columns_of(np.ones((3, 2))))
    assert exc.value.eigenvalue == 0.0


def test_nystrom_start_reveals_the_feature_rank():
    # inner-product base features with d0 < r landmarks: the landmark block
    # has rank d0, and the factor keeps exactly those directions
    x = random_features(60, 5, seed=30)
    lm = LandmarkSet.draw(np.arange(60), 20, seed=31)
    q = nystrom_start(x, lm)
    assert q.rank == 5
    anchors = x[lm.indices]
    block = q.q[lm.indices] @ q.q[lm.indices].T
    assert np.abs(block - base_inner(anchors)).max() <= 1e-10
    assert np.abs(q.gram() - base_inner(x)).max() <= 1e-10  # d0 directions span K0


def test_chol_factor_drops_directions_below_the_pivot_floor():
    # a rank-3 block plus a direction at 1e-12 of the largest diagonal entry,
    # below EIG_FLOOR_REL: the factor has rank 3, not 4
    b = random_features(8, 3, seed=32)
    c = b @ b.T
    e = np.zeros(8)
    e[0] = 1.0
    c_floor = c + 1e-12 * c.diagonal().max() * np.outer(e, e)
    factor = chol_factor(c_floor, columns_of(c_floor))
    assert factor.rank == 3
    assert np.abs(factor.gram() - c).max() <= 1e-10 * c.diagonal().max()


def test_chol_factor_shape_checks():
    with pytest.raises(ValueError, match="square"):
        chol_factor(np.zeros((2, 3)), columns_of(np.zeros((3, 2))))
    with pytest.raises(ValueError, match="width"):
        chol_factor(np.eye(2), lambda piv: np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# the pivot-first re-factor: factor the landmark block, then form only the
# pivot columns and multiply them by L^{-T} in place


def scatter_gemm_factor(c_cols, idx):
    """The Nystrom factor as the N x r landmark columns times an r x k
    matrix with L^{-T} scattered into its pivot rows."""
    sym = 0.5 * (c_cols[idx] + c_cols[idx].T)
    d_max = sym.diagonal().max()
    chol, piv, rank, _ = lapack.dpstrf(sym, tol=kernels.EIG_FLOOR_REL * d_max, lower=1)
    inv, _ = lapack.dtrtri(chol[:rank, :rank], lower=1)
    m = np.zeros((idx.size, rank))
    m[piv[:rank] - 1] = np.tril(inv).T
    return c_cols @ m


def scatter_gemm_activation(q, idx):
    """The low-rank Activation from all r landmark columns of g(Q Q^T)."""
    k_cols = q @ q[idx].T
    return scatter_gemm_factor(
        kernels._relu_gauss(k_cols, np.einsum("ij,ij->i", q, q), idx, out=k_cols), idx)


def relu_factors():
    """(name, Q, landmarks): full-rank, with dead nodes, with duplicated rows."""
    rng = np.random.default_rng(40)
    q = rng.normal(size=(300, 12))
    idx = np.sort(rng.choice(300, 40, replace=False))
    yield "full", q, idx
    dead = q.copy()
    dead[[idx[3], idx[17], 5, 6]] = 0.0
    yield "dead", dead, idx
    dup = q.copy()
    dup[idx[1::2]] = dup[idx[0::2]]  # 20 distinct landmark rows
    yield "duplicated", dup, idx


@pytest.mark.parametrize("tile_rows", [7, None])  # ragged row tiles, and the default
def test_activation_matches_the_scatter_gemm_factor(monkeypatch, tile_rows):
    for name, q, idx in relu_factors():
        ref = scatter_gemm_activation(q, idx)
        if tile_rows:
            monkeypatch.setattr(kernels, "_TILE_ELEMENTS", tile_rows * ref.shape[1])
        got = apply_block_lowrank(LowRankFactor(q), Activation(), LandmarkSet(idx))
        assert got.rank == ref.shape[1], name
        g = ref @ ref.T
        assert np.abs(got.gram() - g).max() <= 1e-13 * np.abs(g).max(), name


def test_nystrom_start_matches_the_scatter_gemm_factor():
    x = random_features(200, 30, seed=41)
    lm = LandmarkSet.draw(np.arange(200), 50, seed=42)
    for kernel in (base_inner, lambda a, b=None: base_rbf(a, b, gamma=0.05)):
        ref = scatter_gemm_factor(kernel(x, x[lm.indices]), lm.indices)
        got = nystrom_start(x, lm, kernel)
        assert got.rank == ref.shape[1]
        g = ref @ ref.T
        assert np.abs(got.gram() - g).max() <= 1e-13 * np.abs(g).max()


def test_rank_deficient_landmark_block_forms_only_its_pivot_columns(monkeypatch):
    # the ReLU expectation runs on the 40 x 40 landmark block, then on the
    # 300 x 20 pivot columns, never on all 40 landmark columns
    shapes = []
    original = kernels._relu_gauss

    def spy(k_cols, *args, **kwargs):
        shapes.append(k_cols.shape)
        return original(k_cols, *args, **kwargs)

    monkeypatch.setattr(kernels, "_relu_gauss", spy)
    _, dup, idx = list(relu_factors())[2]
    got = apply_block_lowrank(LowRankFactor(dup), Activation(), LandmarkSet(idx))
    assert got.rank == 20 and shapes == [(40, 40), (300, 20)]
    # the start factor: 5 features, 20 landmarks, so the kernel is asked
    # for the 5 pivot columns only
    asked = []

    def kernel(a, b=None):
        asked.append((a.shape[0], a.shape[0] if b is None else b.shape[0]))
        return base_inner(a, b)

    x = random_features(60, 5, seed=30)
    q = nystrom_start(x, LandmarkSet.draw(np.arange(60), 20, seed=31), kernel)
    assert q.rank == 5 and asked == [(20, 20), (60, 5)]


def test_dead_landmark_is_zeroed_against_the_largest_variance_of_all_nodes():
    # node 0, not a landmark, carries the largest variance by far; landmark 7
    # falls below VAR_FLOOR_REL of it, though not below that of the
    # landmarks' own largest, so it is dead in the block as in its rows
    rng = np.random.default_rng(43)
    q = rng.normal(size=(60, 6))
    q[0] *= 1e7
    q[1:] *= 1e3
    q[7] *= 1e-3
    idx = np.array([3, 7, 12, 20, 33, 41, 50, 59])
    d = np.einsum("ij,ij->i", q, q)
    assert d[7] <= kernels.VAR_FLOOR_REL * d.max()
    assert d[7] > kernels.VAR_FLOOR_REL * d[idx].max()
    got = apply_block_lowrank(LowRankFactor(q), Activation(), LandmarkSet(idx))
    assert np.all(got.q[7] == 0.0)
    assert got.rank == idx.size - 1
    ref = scatter_gemm_activation(q, idx)
    g = ref @ ref.T
    assert np.abs(got.gram() - g).max() <= 1e-13 * np.abs(g).max()


def test_landmark_set_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        LandmarkSet(np.array([0, 0, 1]))
    with pytest.raises(ValueError, match="nonneg"):
        LandmarkSet(np.array([-1, 2]))
    with pytest.raises(ValueError, match="nonempty"):
        LandmarkSet(np.array([], dtype=np.int64))
    assert LandmarkSet.all_nodes(4).count == 4


def test_landmark_draw_deterministic_and_sorted():
    pool = np.arange(50)
    a = LandmarkSet.draw(pool, 10, seed=7)
    b = LandmarkSet.draw(pool, 10, seed=7)
    assert np.array_equal(a.indices, b.indices)
    assert np.all(np.diff(a.indices) > 0)
    with pytest.raises(ValueError, match="cannot draw"):
        LandmarkSet.draw(pool, 51, seed=0)


# ---------------------------------------------------------------------------
# block coherence: gram of the low-rank output == exact output on Q Q^T

def _coherence(block, q, landmarks=None, tol=1e-12):
    k = q.gram()
    k_next = apply_block_exact(k, block)
    q_next = apply_block_lowrank(q, block, landmarks)
    scale = max(np.abs(k_next).max(), 1.0)
    return np.abs(q_next.gram() - k_next).max() / scale


def test_block_coherence_each_block():
    rng = np.random.default_rng(8)
    n = 10
    q = LowRankFactor(rng.normal(size=(n, 4)))
    a = sym_operator(n, extra=3, seed=1)
    other = LowRankFactor(rng.normal(size=(n, 2)))

    assert _coherence(Weight(1.0, 0.7), q) <= 1e-12
    assert _coherence(Weight(1.3), q) <= 1e-12
    assert _coherence(Weight(1.3, 0.7), q) <= 1e-12
    assert _coherence(GraphConv(a), q) <= 1e-12

    # IndependentAdd needs matching representations of the same branch
    k = q.gram()
    k_sum = apply_block_exact(k, IndependentAdd(other.gram()))
    q_sum = apply_block_lowrank(q, IndependentAdd(other))
    assert np.abs(q_sum.gram() - k_sum).max() <= 1e-12

    # activation through all-node landmarks reproduces the dense rule
    assert _coherence(Activation(), q, LandmarkSet.all_nodes(n)) <= 1e-10


def test_activation_needs_landmarks():
    q = LowRankFactor(np.ones((3, 1)))
    with pytest.raises(ValueError, match="landmark"):
        apply_block_lowrank(q, Activation())
    with pytest.raises(ValueError, match="out of range"):
        apply_block_lowrank(q, Activation(), LandmarkSet(np.array([5])))


def test_zero_bias_keeps_factor_object():
    q = LowRankFactor(np.ones((3, 2)))
    assert apply_block_lowrank(q, Weight(1.0, 0.0)) is q
    widened = apply_block_lowrank(q, Weight(1.0, 0.5))
    assert widened.rank == 3
    assert np.all(widened.q[:, -1] == 0.5)


def test_graphconv_symmetrizes_and_checks_size():
    a = sym_operator(5)
    k = random_psd(5, 0)
    out = apply_block_exact(k, GraphConv(a))
    assert np.abs(out - out.T).max() == 0.0
    with pytest.raises(ValueError, match="does not match"):
        apply_block_exact(random_psd(4, 0), GraphConv(a))


def test_independent_add_type_checks():
    q = LowRankFactor(np.ones((3, 1)))
    with pytest.raises(TypeError, match="dense kernel"):
        apply_block_exact(np.eye(3), IndependentAdd(q))
    with pytest.raises(TypeError, match="LowRankFactor"):
        apply_block_lowrank(q, IndependentAdd(np.eye(3)))


def test_lowrank_activation_landmark_rows_halved():
    # diagonal entries at landmark rows follow the exact halving rule
    rng = np.random.default_rng(9)
    q = LowRankFactor(rng.normal(size=(8, 3)))
    lm = LandmarkSet(np.array([1, 4, 6]))
    out = apply_block_lowrank(q, Activation(), lm)
    d = q.gram_diag()
    got = out.gram_diag()[lm.indices]
    assert np.abs(got - 0.5 * d[lm.indices]).max() <= 1e-10


def test_negative_sigma_rejected():
    with pytest.raises(ValueError):
        Weight(1.0, -0.1)
    with pytest.raises(ValueError):
        Weight(-1.0)


# ---------------------------------------------------------------------------
# row tiles: a tile of a few rows gives many tiles and a ragged last one


def untiled_relu_gauss(k, d_rows, d_cols, var_floor, sin_arccos=False):
    """The ReLU expectation of a block as one whole-array expression; with
    ``sin_arccos``, sin t is taken as sin(arccos rho), the form it replaced."""
    alive_r, alive_c = d_rows > var_floor, d_cols > var_floor
    denom = np.outer(np.sqrt(np.where(alive_r, d_rows, 1.0)),
                     np.sqrt(np.where(alive_c, d_cols, 1.0)))
    rho = np.clip(k / denom, -1.0, 1.0)
    t = np.arccos(rho)
    sin_t = np.sin(t) if sin_arccos else np.sqrt(1.0 - rho * rho)
    c = (0.5 / np.pi) * denom * (sin_t + (np.pi - t) * rho)
    c[~alive_r, :] = 0.0
    c[:, ~alive_c] = 0.0
    return c


def assert_close(got, ref):
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_tiled_relu_expectation_matches_untiled(monkeypatch):
    n, dead = 53, [0, 17, 52]
    k = random_psd(n, 21)
    k[dead, :] = 0.0
    k[:, dead] = 0.0
    monkeypatch.setattr(kernels, "_TILE_ELEMENTS", 3 * n)  # 17 tiles of 3 rows, then 2
    d = k.diagonal().copy()
    floor = kernels.VAR_FLOOR_REL * d.max()
    ref = untiled_relu_gauss(k, d, d, floor)
    np.fill_diagonal(ref, np.where(d > floor, 0.5 * d, 0.0))
    got = relu_expectation(k)
    assert_close(got, ref)
    assert np.all(got[dead, :] == 0.0) and np.all(got[:, dead] == 0.0)


@pytest.mark.parametrize("in_place", [False, True])
def test_tiled_relu_gauss_block_matches_untiled(monkeypatch, in_place):
    # 37 nodes x 5 landmark columns, as on the low-rank path; node 3 is dead,
    # and so is the landmark column of node 30
    rng = np.random.default_rng(4)
    q = rng.normal(size=(37, 3))
    q[[3, 30]] = 0.0
    idx = np.array([2, 9, 14, 30, 36])
    k = q @ q[idx].T
    d = np.einsum("ij,ij->i", q, q)
    floor = kernels.VAR_FLOOR_REL * d.max()
    ref = untiled_relu_gauss(k, d, d[idx], floor)
    ref[idx, np.arange(idx.size)] = np.where(d[idx] > floor, 0.5 * d[idx], 0.0)
    monkeypatch.setattr(kernels, "_TILE_ELEMENTS", 4 * 5)  # 9 tiles of 4 rows, then 1
    out = k if in_place else np.empty_like(k)
    got = kernels._relu_gauss(k, d, idx, out=out)
    assert got is out
    assert np.array_equal(got, ref)
    assert np.all(got[3] == 0.0) and np.all(got[:, 3] == 0.0)


@pytest.mark.parametrize("operator", [sym_operator, row_operator])
def test_tiled_graphconv_matches_untiled(monkeypatch, operator):
    n = 53
    a = operator(n, extra=20, seed=2)
    k = random_psd(n, 8)
    m = a.toarray()
    x = m @ (m @ k).T
    ref = 0.5 * (x + x.T)
    monkeypatch.setattr(kernels, "_TILE_ELEMENTS", 3 * n)
    got = apply_block_exact(k, GraphConv(a))
    assert_close(got, ref)
    assert np.array_equal(got, got.T)


@pytest.mark.parametrize("operator", [sym_operator, row_operator])
@pytest.mark.parametrize("n, side", [
    (53, 5),    # 10 blocks of 5, then 3
    (50, 5),    # blocks end on the last row
    (7, 1),     # one-entry blocks
    (8, 16),    # one block, larger than the kernel
    (300, 128), # the default blocks: 2 of 128, then 44
])
def test_graphconv_is_the_whole_matrix_expression(monkeypatch, operator, n, side):
    # the in-place blocked transpose and symmetrisation give the bits of
    # 0.5 (Y + Y^T) with Y = (A (A K)^T)^T, the sparse products made whole
    monkeypatch.setattr(kernels, "_TILE_ELEMENTS", 16 * side * side)
    assert kernels._square_blocks(n)[0] == slice(0, side)
    m = operator(n, extra=n // 2, seed=5).to_csr()
    for k in (random_psd(n, 9), base_inner(random_features(n, 3, seed=1))):
        y = (m @ (m @ k).T).T
        before = k.copy()
        got = kernels._graph_conv(m, k)
        assert np.array_equal(got, 0.5 * (y + y.T))
        assert np.array_equal(got, got.T)
        assert np.array_equal(k, before)


def test_graphconv_releases_a_handed_over_input(monkeypatch):
    # K in a one-element list is dropped once A K is formed, so the call
    # holds two N x N arrays, K counted; an array the caller keeps stays
    # alive and keeps every bit, and both calls give the same output
    monkeypatch.setattr(kernels, "_TILE_ELEMENTS", 2**12)  # tile buffers negligible
    n = 600
    a = sym_operator(n, extra=n, seed=4)
    features = random_features(n, 16, seed=2)
    tracemalloc.start()
    try:
        held = [base_inner(features)]
        handed = apply_block_exact(held, GraphConv(a))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held == []
    assert peak / (8.0 * n * n) <= 2.05
    k = base_inner(features)
    before = k.copy()
    kept = apply_block_exact(k, GraphConv(a))
    assert np.array_equal(k, before)
    assert np.array_equal(kept, handed)


# ---------------------------------------------------------------------------
# sin t as sqrt(1 - rho^2): against the sin(arccos rho) form it replaced

def sin_arccos_relu_gauss(k, d, idx, var_floor):
    """_relu_gauss of K[:, idx], diagonal included, with sin(arccos rho)."""
    c = untiled_relu_gauss(k, d, d[idx], var_floor, sin_arccos=True)
    c[idx, np.arange(idx.size)] = np.where(d[idx] > var_floor, 0.5 * d[idx], 0.0)
    return c


# correlations at the ends of [-1, 1], one ulp inside them, just outside
# them (clipped), and zero of both signs
EDGE_RHO = [-1.0, np.nextafter(-1.0, 0.0), -1.0 - 2**-52, -0.0,
            0.0, np.nextafter(1.0, 0.0), 1.0, 1.0 + 2**-52]


def test_relu_gauss_matches_sin_arccos():
    rng = np.random.default_rng(16)
    n, idx = 40, np.array([1, 4, 9, 22, 39])
    d = np.ones(n)
    d[20:] = rng.uniform(0.5, 2.0, n - 20)
    d[[4, 12, 30]] = 0.0  # dead: landmark column 4, rows 12 and 30
    k = rng.uniform(-1.0, 1.0, (n, idx.size)) * np.sqrt(np.outer(d, d[idx]))
    k[5:9, [0, 2]] = np.reshape(EDGE_RHO, (4, 2))  # unit variances: k is rho
    floor = kernels.VAR_FLOOR_REL * d.max()
    ref = sin_arccos_relu_gauss(k, d, idx, floor)
    got = kernels._relu_gauss(k, d, idx, out=np.empty_like(k))
    assert np.abs(got - ref).max() <= 4e-16 * np.abs(ref).max()
    # f(-1) = 0 exactly, where sin(arccos(-1)) = sin(pi) leaves 1e-16
    assert np.all(got[5:9, [0, 2]][np.reshape(EDGE_RHO, (4, 2)) <= -1.0] == 0.0)
    assert np.all(got[[12, 30]] == 0.0) and np.all(got[:, 1] == 0.0)


def test_relu_expectation_matches_sin_arccos():
    for k in symmetric_kernels(40, [5, 6, 33]):
        d = np.maximum(k.diagonal(), 0.0)
        ref = sin_arccos_relu_gauss(k, d, np.arange(40), kernels.VAR_FLOOR_REL * d.max())
        assert np.abs(relu_expectation(k) - ref).max() <= 4e-16 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# the product with L^{-T}, in place, one block of _COL_BLOCK columns at a time


def whole_product_factor(c_landmark, c_cols):
    """C[:, S] L^{-T} as one product, with chol_factor's pivots."""
    sym = 0.5 * (c_landmark + c_landmark.T)
    tol = kernels.EIG_FLOOR_REL * sym.diagonal().max()
    chol, piv, rank, _ = lapack.dpstrf(sym, tol=tol, lower=1)
    inv, _ = lapack.dtrtri(chol[:rank, :rank], lower=1)
    return c_cols[:, piv[:rank] - 1] @ np.tril(inv).T


@pytest.mark.parametrize("rank", [1, 63, 64, 65, 130, 512])
def test_column_blocked_product_matches_the_whole_product(monkeypatch, rank):
    # 6 row tiles of 7 rows, then 3; ranks of one block, one block exactly,
    # a ragged last block, and 8 blocks
    assert kernels._COL_BLOCK == 64
    rng = np.random.default_rng(rank)
    x = rng.normal(size=(rank, rank + 8))
    c = x @ x.T / (rank + 8) + np.eye(rank)
    c_cols = rng.normal(size=(45, rank))
    ref = whole_product_factor(c, c_cols)
    monkeypatch.setattr(kernels, "_TILE_ELEMENTS", 7 * rank)
    made = []

    def columns(piv):
        made.append(c_cols[:, piv])
        return made[-1]

    got = chol_factor(c, columns)
    assert got.rank == rank
    assert np.abs(got.q - ref).max() <= 1e-14 * np.abs(ref).max()
    assert got.q is made[0]  # multiplied in place: no second N x k array


# ---------------------------------------------------------------------------
# passes: the dense ReLU expectation fills the upper tiles and mirrors them;
# identity blocks hand back their input


def full_matrix_relu(k):
    """The dense ReLU expectation as the whole-matrix expression it replaced."""
    d = np.maximum(k.diagonal(), 0.0)
    floor = kernels.VAR_FLOOR_REL * d.max()
    c = untiled_relu_gauss(k, d, d, floor)
    np.fill_diagonal(c, np.where(d > floor, 0.5 * d, 0.0))
    return c


def symmetric_kernels(n, dead):
    """Bitwise-symmetric kernels as the package builds them, with dead nodes."""
    x = np.random.default_rng(n).normal(size=(n, 6))
    x[dead] = 0.0
    k = base_inner(x)
    yield k
    yield base_rbf(x, gamma=0.2)
    yield apply_block_exact(k, GraphConv(sym_operator(n, extra=n // 2, seed=3)))


@pytest.mark.parametrize("n, tile_rows, dead", [
    (40, 40, [5, 6, 33]),     # one tile
    (53, 3, [0, 17, 52]),     # 17 tiles of 3 rows, then 2
    (53, 4, [3, 4, 11, 12]),  # dead nodes on both sides of tile edges
    (29, 1, [0, 28]),         # one-row tiles
])
def test_relu_expectation_is_the_full_matrix_expression(monkeypatch, n, tile_rows, dead):
    monkeypatch.setattr(kernels, "_TILE_ELEMENTS", tile_rows * n)
    for k in symmetric_kernels(n, dead):
        assert np.array_equal(k, k.T)
        before = k.copy()
        got = relu_expectation(k)
        assert np.array_equal(got, full_matrix_relu(k))
        assert np.array_equal(got, got.T)
        assert np.array_equal(k, before)


def test_blocks_never_change_their_input():
    rng = np.random.default_rng(12)
    n = 9
    q = LowRankFactor(rng.normal(size=(n, 3)))
    other = LowRankFactor(rng.normal(size=(n, 2)))
    k = q.gram()
    landmarks = LandmarkSet(np.array([0, 4, 7]))
    shared = [Weight(1.0), Weight(1.3), Weight(1.0, 0.7), Weight(1.3, 0.7),
              GraphConv(sym_operator(n, extra=3, seed=1)), Activation()]
    pairs = [(b, b) for b in shared] + [(IndependentAdd(other.gram()), IndependentAdd(other))]
    for exact_block, lowrank_block in pairs:
        k_before, q_before = k.copy(), q.q.copy()
        apply_block_exact(k, exact_block)
        apply_block_lowrank(q, lowrank_block, landmarks)
        assert np.array_equal(k, k_before), exact_block
        assert np.array_equal(q.q, q_before), lowrank_block


def test_identity_blocks_return_their_input():
    k = random_psd(6, 3)
    q = LowRankFactor(np.random.default_rng(3).normal(size=(6, 2)))
    assert apply_block_exact(k, Weight(1.0, 0.0)) is k
    assert apply_block_lowrank(q, Weight(1.0, 0.0)) is q
    assert apply_block_exact(k, Weight(1.5)) is not k
    assert apply_block_exact(k, Weight(1.0, 0.5)) is not k
    assert apply_block_lowrank(q, Weight(1.0, 0.5)) is not q
    assert apply_block_lowrank(q, Weight(1.5)) is not q


@pytest.mark.parametrize("sigma_w", [1.0, 1.3])
@pytest.mark.parametrize("sigma_b", [0.0, 0.7])
def test_dense_layer_is_the_two_step_rule_bit_for_bit(sigma_w, sigma_b):
    # the dense layer rounds as the two-step rule does: sigma_w^2 K, then
    # + sigma_b^2; sigma_w Q, then a sigma_b column
    rng = np.random.default_rng(14)
    k = random_psd(7, 4)
    q = LowRankFactor(rng.normal(size=(7, 3)))
    block = Weight(sigma_w, sigma_b)
    assert np.array_equal(apply_block_exact(k, block), sigma_w**2 * k + sigma_b**2)
    want = sigma_w * q.q
    if sigma_b != 0.0:
        want = np.hstack([want, np.full((7, 1), sigma_b)])
    assert np.array_equal(apply_block_lowrank(q, block).q, want)


# ---------------------------------------------------------------------------
# row tiles shared among a thread pool


def test_pool_width_follows_the_blas_threads(monkeypatch):
    for var in kernels._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    assert kernels._pool_width() == 1  # BLAS threads over every core itself
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert kernels._pool_width() == cores
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")  # read first, as OpenBLAS does
    assert kernels._pool_width() == max(1, cores // 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "0")  # not positive: the next one counts
    monkeypatch.setenv("GOTO_NUM_THREADS", "many")
    assert kernels._pool_width() == cores


def test_pooled_relu_expectation_keeps_its_bits(monkeypatch, pool_width):
    # 2-worker tiles of 10 rows (4096 // (203 * 2)), the last one 3 rows
    monkeypatch.setattr(kernels, "_TILE_ELEMENTS", 2**12)
    n = 203
    k = random_psd(n, 3)
    k[7] = k[:, 7] = 0.0  # a dead node
    pool_width(1)
    want = relu_expectation(k)
    submitted = pool_width(2)
    got = relu_expectation(k)
    assert submitted
    assert got.tobytes() == want.tobytes()
    assert not got[7].any() and not got[:, 7].any()


@pytest.mark.parametrize("n, width, count, tile_elements", [
    (2000, 40, 60, 2**18),  # 2000 rows <= _tile_rows(60): the whole product
    (2000, 100, 150, 2**14),  # 19 row tiles of 109, and three column blocks
], ids=["whole-product", "column-blocks"])
def test_pooled_lowrank_activation_keeps_its_bits(monkeypatch, pool_width, n, width,
                                                  count, tile_elements):
    monkeypatch.setattr(kernels, "_TILE_ELEMENTS", tile_elements)
    factor = LowRankFactor(random_features(n, width, 4))
    lm = LandmarkSet.draw(np.arange(n), count, 5)
    pool_width(1)
    want = apply_block_lowrank(factor, Activation(), lm).q
    assert want.shape[1] == count
    assert (n <= kernels._tile_rows(count)) == (tile_elements == 2**18)
    submitted = pool_width(2)
    got = apply_block_lowrank(factor, Activation(), lm).q
    # the pivot-column product, and the whole product, went in two row tiles
    assert len(submitted) >= 3
    assert got.tobytes() == want.tobytes()


def test_pooled_nystrom_start_keeps_its_bits(pool_width):
    x = random_features(3000, 64, 6)
    lm = LandmarkSet.draw(np.arange(3000), 100, 7)
    pool_width(1)
    want = nystrom_start(x, lm).q
    submitted = pool_width(2)
    got = nystrom_start(x, lm).q
    assert submitted
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("n, inner, cols", [
    (4000, 300, 300),  # 300 columns: an unaligned row split changes the last 4
    (3001, 129, 257),
    (2000, 50, 70),
    (40000, 100, 1),  # a matrix-vector product
])
def test_shared_matmul_is_one_product(pool_width, workers, n, inner, cols):
    rng = np.random.default_rng(8)
    a = rng.normal(size=(n, inner))
    b = rng.normal(size=(cols, inner)).T
    want = a @ b
    submitted = pool_width(workers)
    got = kernels._shared_matmul(a, b)
    assert submitted
    assert got.tobytes() == want.tobytes()


def test_a_small_shared_product_is_one_call(pool_width):
    # tiles below _GEMM_MIN_WORK multiply-adds would reach a small-matrix
    # kernel, so 300 rows of a 20 x 20 product stay one call
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=(300, 20)), rng.normal(size=(20, 20))
    submitted = pool_width(2)
    assert kernels._shared_matmul(a, b).tobytes() == (a @ b).tobytes()
    assert not submitted


def test_a_small_relu_pass_stays_on_the_caller(pool_width):
    # waking a pool thread costs more than half a pass this small
    k = random_psd(100, 10)
    assert k.size < kernels._SHARE_MIN_ELEMENTS
    want = relu_expectation(k).tobytes()
    submitted = pool_width(2)
    assert relu_expectation(k).tobytes() == want
    assert not submitted


def test_a_worker_exception_reaches_the_caller(pool_width):
    pool_width(2)
    ran = []

    def failing(starts, rows):
        ran.append(threading.current_thread().name)
        if 1 in starts:
            raise RuntimeError("tile 1 failed")

    with pytest.raises(RuntimeError, match="tile 1 failed"):
        kernels._in_row_tiles(4, 1, failing)
    assert len(ran) == 2 and any(name.startswith("graphgp-tiles") for name in ran)
    # the pool still runs every tile
    seen = []
    kernels._in_row_tiles(5, 2, lambda starts, rows: seen.extend(starts))
    assert sorted(seen) == [0, 2, 4]


def _relu_matches(k, want):
    assert relu_expectation(k).tobytes() == want


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_makes_its_own_pool(pool_width):
    # the child's copy of the parent's pool has no threads; were it kept,
    # the child's first shared tile would wait forever
    submitted = pool_width(2)
    k = random_psd(300, 10)
    want = relu_expectation(k).tobytes()
    assert submitted
    child = multiprocessing.get_context("fork").Process(target=_relu_matches,
                                                        args=(k, want))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child did not finish its ReLU expectation in 60 s")
    assert child.exitcode == 0
