import numpy as np
import pytest

from graphgp import kernels
from graphgp import (
    Activation,
    Bias,
    FactorizationError,
    GraphConv,
    IndependentAdd,
    LandmarkSet,
    LowRankFactor,
    MixedWeight,
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

def test_chol_factor_reconstructs_landmark_block():
    c = random_psd(6, 3) + 0.5 * np.eye(6)
    p = chol_factor(c, c).gram()
    assert np.abs(p - c).max() <= 1e-9


def test_chol_factor_exact_for_spanning_landmarks():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(10, 3))
    k = x @ x.T
    idx = np.array([0, 4, 7])
    assert np.linalg.matrix_rank(x[idx]) == 3
    factor = chol_factor(k[:, idx], k[np.ix_(idx, idx)])
    assert np.abs(factor.gram() - k).max() / np.abs(k).max() <= 1e-9


def test_chol_factor_rejects_negative_block():
    # ``eigenvalue`` carries the block's largest diagonal entry, here -1
    with pytest.raises(FactorizationError, match="no pivot above the floor") as exc:
        chol_factor(np.zeros((3, 2)), -np.eye(2))
    assert exc.value.eigenvalue is not None and exc.value.eigenvalue < 0


def test_chol_factor_rejects_zero_block():
    with pytest.raises(FactorizationError, match="no pivot above the floor") as exc:
        chol_factor(np.ones((3, 2)), np.zeros((2, 2)))
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
    factor = chol_factor(c_floor, c_floor)
    assert factor.rank == 3
    assert np.abs(factor.gram() - c).max() <= 1e-10 * c.diagonal().max()


def test_chol_factor_shape_checks():
    with pytest.raises(ValueError, match="square"):
        chol_factor(np.zeros((3, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="width"):
        chol_factor(np.zeros((3, 3)), np.zeros((2, 2)))


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

    assert _coherence(Bias(0.7), q) <= 1e-12
    assert _coherence(Weight(1.3), q) <= 1e-12
    assert _coherence(MixedWeight(0.8, 0.5, 1.1), q) <= 1e-12
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
    assert apply_block_lowrank(q, Bias(0.0)) is q
    widened = apply_block_lowrank(q, Bias(0.5))
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
        Bias(-0.1)
    with pytest.raises(ValueError):
        Weight(-1.0)
    with pytest.raises(ValueError):
        MixedWeight(0.5, 0.5, -1.0)


# ---------------------------------------------------------------------------
# row tiles: a tile of a few rows gives many tiles and a ragged last one


def untiled_relu_gauss(k, d_rows, d_cols, var_floor):
    """The ReLU expectation of a block as one whole-array expression."""
    alive_r, alive_c = d_rows > var_floor, d_cols > var_floor
    denom = np.outer(np.sqrt(np.where(alive_r, d_rows, 1.0)),
                     np.sqrt(np.where(alive_c, d_cols, 1.0)))
    rho = np.clip(k / denom, -1.0, 1.0)
    t = np.arccos(rho)
    c = (0.5 / np.pi) * denom * (np.sin(t) + (np.pi - t) * rho)
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
    assert np.array_equal(got[idx, np.arange(idx.size)], ref[idx, np.arange(idx.size)])
    assert_close(got, ref)
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
    shared = [Bias(0.0), Bias(0.7), Weight(1.0), Weight(1.3), MixedWeight(0.8, 0.5, 1.1),
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
    for block in (Weight(1.0), Bias(0.0)):
        assert apply_block_exact(k, block) is k
        assert apply_block_lowrank(q, block) is q
    assert apply_block_exact(k, Weight(1.5)) is not k
    assert apply_block_exact(k, Bias(0.5)) is not k
    assert apply_block_lowrank(q, Weight(1.5)) is not q
