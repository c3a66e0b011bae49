import tracemalloc

import numpy as np
import pytest

from graphgp import kernels
from graphgp import (
    FactorizationError,
    GraphConv,
    KernelProgram,
    LandmarkSet,
    LowRankFactor,
    McConfig,
    apply_block_exact,
    base_inner,
    base_poly,
    build_adjacency,
    compare_covariance,
    gcnii_beta_schedule,
    lowrank_variant,
    normalize_row,
    normalize_sym,
    nystrom_start,
    run_exact,
    sample_covariance,
    synthetic_dataset,
)

from conftest import every_layer, random_features, row_operator, sym_operator


# Independent oracle: the ReLU expectation written from scratch (arccos on
# the correlation, explicit diagonal), used to hand-roll each recursion.

def oracle_g(k):
    d = np.sqrt(np.diag(k))
    rho = np.clip(k / np.outer(d, d), -1.0, 1.0)
    t = np.arccos(rho)
    c = 0.5 / np.pi * np.outer(d, d) * (np.sin(t) + (np.pi - t) * rho)
    np.fill_diagonal(c, 0.5 * np.diag(k))
    return c


def test_gcn_recursion_matches_hand_oracle():
    n = 9
    a = sym_operator(n, extra=3, seed=0)
    ad = a.toarray()
    x = random_features(n, 5, seed=1)
    k0 = x @ x.T / 5.0
    sb, sw = 0.3, 1.2

    k = k0
    expected = []
    for layer in range(3):
        c = oracle_g(k) if layer > 0 else k
        k = sb**2 + sw**2 * (ad @ c @ ad.T)
        expected.append(k)

    got = every_layer(KernelProgram.gcn(a, 3, sigma_b=sb, sigma_w=sw), k0)
    assert len(got) == 3
    for g, e in zip(got, expected):
        assert np.abs(g - e).max() / np.abs(e).max() <= 1e-12


def test_first_layer_skips_activation():
    # layer one consumes K0 directly; applying g there would change the result
    n = 6
    a = sym_operator(n, seed=2)
    k0 = base_inner(random_features(n, 4, seed=3))
    got = run_exact(KernelProgram.gcn(a, 1, sigma_b=0.0, sigma_w=1.0), k0)
    ad = a.toarray()
    assert np.abs(got - ad @ k0 @ ad.T).max() <= 1e-12


def test_mlp_is_gcn_on_identity():
    n = 7
    k0 = base_inner(random_features(n, 4, seed=4))
    prog = KernelProgram.mlp(3, sigma_b=0.2, sigma_w=1.1)
    via_mlp = every_layer(prog, k0)
    identity = normalize_sym(build_adjacency(np.zeros((0, 2)), n))
    via_gcn = every_layer(KernelProgram.gcn(identity, 3, sigma_b=0.2, sigma_w=1.1), k0)
    assert len(via_mlp) == len(via_gcn) == 3
    for m, g in zip(via_mlp, via_gcn):
        assert np.array_equal(m, g)


def test_gcnii_beta_schedule_formula():
    got = gcnii_beta_schedule(4, decay=0.5)
    expect = [np.log(0.5 / l + 1.0) for l in (1, 2, 3, 4)]
    assert np.abs(np.asarray(got) - expect).max() <= 1e-15


def test_gcnii_alpha_one_collapses_to_scaled_base():
    # alpha = 1 kills the convolution branch, so every layer rebuilds from
    # the skip alone: K_l = K0 * ((1 - b_l)^2 + b_l^2 sigma_w^2), with no
    # accumulation across layers
    n = 6
    a = sym_operator(n, seed=5)
    k0 = base_inner(random_features(n, 4, seed=6))
    betas = gcnii_beta_schedule(3)
    sw = 1.3
    got = run_exact(KernelProgram.gcnii(a, 3, sigma_w=sw, alpha=1.0), k0)
    last = (1 - betas[-1]) ** 2 + betas[-1] ** 2 * sw**2
    assert np.abs(got - last * k0).max() / np.abs(k0).max() <= 1e-12


def test_gcnii_hand_oracle():
    n = 8
    a = sym_operator(n, extra=2, seed=7)
    ad = a.toarray()
    k0 = base_inner(random_features(n, 6, seed=8))
    alpha, sw = 0.1, 1.05
    betas = gcnii_beta_schedule(3)

    k = k0
    for layer in range(3):
        c = oracle_g(k) if layer > 0 else k
        mixed = (1 - alpha) ** 2 * (ad @ c @ ad.T) + alpha**2 * k0
        b = betas[layer]
        k = mixed * ((1 - b) ** 2 + b**2 * sw**2)

    got = run_exact(KernelProgram.gcnii(a, 3, sigma_w=sw, alpha=alpha), k0)
    assert np.abs(got - k).max() / np.abs(k).max() <= 1e-12


def test_gin_hand_oracle_and_degenerate_case():
    n = 7
    a = sym_operator(n, extra=2, seed=9)
    ad = a.toarray()
    k0 = base_inner(random_features(n, 5, seed=10))
    sb, sw = 0.2, 0.9

    k = k0
    for layer in range(2):
        c = oracle_g(k) if layer > 0 else k
        b = sw**2 * (ad @ c @ ad.T) + sb**2
        k = sw**2 * oracle_g(b) + sb**2  # inner stage always activates

    got = run_exact(KernelProgram.gin(a, 2, sigma_b=sb, sigma_w=sw), k0)
    assert np.abs(got - k).max() / np.abs(k).max() <= 1e-12

    # sigma_w = 0 leaves only the bias: K = sigma_b^2 everywhere
    flat = run_exact(KernelProgram.gin(a, 2, sigma_b=0.5, sigma_w=0.0), k0)
    assert np.abs(flat - 0.25).max() <= 1e-15


def test_sage_own_branch_off_matches_row_gcn():
    n = 8
    a = row_operator(n, extra=2, seed=11)
    k0 = base_inner(random_features(n, 5, seed=12))
    via_sage = run_exact(KernelProgram.sage(a, 3, sigma_w1=0.0, sigma_w2=1.2), k0)
    via_gcn = run_exact(KernelProgram.gcn(a, 3, sigma_b=0.0, sigma_w=1.2), k0)
    assert np.array_equal(via_sage, via_gcn)


def test_sage_hand_oracle():
    n = 8
    a = row_operator(n, extra=2, seed=13)
    ad = a.toarray()
    k0 = base_inner(random_features(n, 5, seed=14))
    s1, s2 = 0.7, 1.1

    k = k0
    for layer in range(2):
        c = oracle_g(k) if layer > 0 else k
        k = s1**2 * c + s2**2 * (ad @ c @ ad.T)

    got = run_exact(KernelProgram.sage(a, 2, sigma_w1=s1, sigma_w2=s2), k0)
    assert np.abs(got - k).max() / np.abs(k).max() <= 1e-12


def test_ggp_kernel_formula():
    n = 6
    a = row_operator(n, seed=15)
    x = random_features(n, 3, seed=16)
    got = apply_block_exact(base_poly(x, c=5.0, d=3.0), GraphConv(a))
    ad = a.toarray()
    expect = ad @ ((x @ x.T + 5.0) ** 3) @ ad.T
    assert np.abs(got - expect).max() / np.abs(expect).max() <= 1e-12


def test_program_validation():
    a = sym_operator(4)
    with pytest.raises(ValueError, match="unknown architecture"):
        KernelProgram("resnet", a, 2)
    with pytest.raises(ValueError, match="depth"):
        KernelProgram("gcn", a, 0)
    for alpha in (1.5, -0.5, float("nan")):
        with pytest.raises(ValueError, match="alpha must be in"):
            KernelProgram("gcn", a, 2, alpha=alpha)
    for decay in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="decay must be nonnegative and finite"):
            KernelProgram("gcnii", a, 2, decay=decay)
    for field in ("sigma_b", "sigma_w", "sigma_w1", "sigma_w2"):
        for value in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match=f"finite, got {field} = {value}"):
                KernelProgram("gcn", a, 2, **{field: value})
    with pytest.raises(ValueError, match="gcn needs a graph operator"):
        KernelProgram("gcn", None, 2)
    with pytest.raises(ValueError, match="mlp has no graph operator"):
        KernelProgram("mlp", a, 2)
    with pytest.raises(ValueError, match="decay must be nonnegative"):
        gcnii_beta_schedule(3, decay=-1.0)
    with pytest.raises(ValueError, match="does not match"):
        run_exact(KernelProgram.gcn(a, 1), np.eye(5))
    # mlp has no operator: N is the base kernel's own, which must be square
    with pytest.raises(ValueError, match="does not match"):
        run_exact(KernelProgram.mlp(1), np.ones((3, 2)))


# ---------------------------------------------------------------------------
# low-rank twins

def test_all_landmark_lowrank_matches_exact_every_arch():
    n = 12
    x = random_features(n, n + 6, seed=17)  # wide features keep K0 full rank
    lm = LandmarkSet.all_nodes(n)
    sym = sym_operator(n, extra=4, seed=18)
    row = row_operator(n, extra=4, seed=18)
    programs = [
        KernelProgram.gcn(sym, 3, sigma_b=0.3, sigma_w=1.1),
        KernelProgram.gcnii(sym, 3, sigma_w=1.2),
        KernelProgram.gin(sym, 2, sigma_b=0.2, sigma_w=0.9),
        KernelProgram.sage(row, 3, sigma_w1=0.6, sigma_w2=1.0),
        KernelProgram.mlp(3, sigma_b=0.3, sigma_w=1.1),
    ]
    for prog in programs:
        k = run_exact(prog, base_inner(x))
        q = lowrank_variant(prog, nystrom_start(x, lm), lm)
        err = np.abs(q.gram() - k).max() / np.abs(k).max()
        assert err <= 1e-10, prog.architecture


def test_pooled_gcnii_lowrank_variant_keeps_its_bits(pool_width):
    # 3000 rows and about 100 pivot columns: the re-factor multiplies by
    # L^{-T} in two row tiles (the last one ragged), shared between the two
    # threads, and its pivot-column product goes in two aligned row tiles
    n = 3000
    x = random_features(n, 24, seed=21)
    lm = LandmarkSet.draw(np.arange(n), 100, seed=22)
    prog = KernelProgram.gcnii(sym_operator(n, extra=n, seed=23), 3, sigma_w=1.2)
    pool_width(1)
    want = lowrank_variant(prog, nystrom_start(x, lm), lm).q
    assert n > kernels._tile_rows(want.shape[1])
    submitted = pool_width(2)
    got = lowrank_variant(prog, nystrom_start(x, lm), lm).q
    assert submitted
    assert got.tobytes() == want.tobytes()


def test_lowrank_rank_bookkeeping():
    n = 15
    x = random_features(n, 6, seed=19)
    lm = LandmarkSet.draw(np.arange(n), 5, seed=1)
    sym = sym_operator(n, extra=3, seed=20)
    q0 = nystrom_start(x, lm)

    with_bias = lowrank_variant(KernelProgram.gcn(sym, 3, sigma_b=0.3, sigma_w=1.0), q0, lm)
    assert with_bias.rank == lm.count + 1  # activation resets, bias adds one

    bias_free = lowrank_variant(KernelProgram.gcn(sym, 3, sigma_b=0.0, sigma_w=1.0), q0, lm)
    assert bias_free.rank == lm.count

    gcnii = KernelProgram.gcnii(sym, 4, sigma_w=1.0)
    q = lowrank_variant(gcnii, q0, lm)
    assert q.rank == lm.count + q0.rank  # skip re-adds the base factor


def test_default_sage_factor_is_no_wider_than_the_landmarks():
    # sigma_w1 = 0, the default, has no self branch, so it appends no zero
    # columns: each layer is the row-normalized gcn layer, factor for factor
    n = 15
    x = random_features(n, 6, seed=19)
    lm = LandmarkSet.draw(np.arange(n), 5, seed=1)
    row = row_operator(n, extra=3, seed=20)
    q0 = nystrom_start(x, lm)
    sage = lowrank_variant(KernelProgram.sage(row, 3, sigma_w2=1.2), q0, lm)
    assert sage.rank <= lm.count
    gcn = lowrank_variant(KernelProgram.gcn(row, 3, sigma_b=0.0, sigma_w=1.2), q0, lm)
    assert np.array_equal(sage.q, gcn.q)


def test_nystrom_start_landmark_rows():
    x = random_features(9, 4, seed=21)
    lm = LandmarkSet(np.array([0, 3, 8]))
    q = nystrom_start(x, lm, base_inner)
    k0 = base_inner(x)
    block = q.gram()[np.ix_(lm.indices, lm.indices)]
    assert np.abs(block - k0[np.ix_(lm.indices, lm.indices)]).max() <= 1e-10


@pytest.mark.parametrize("arch", ["gcn", "gcnii", "gin", "sage", "mlp"])
def test_lowrank_kernel_is_permutation_equivariant(arch):
    # relabel the nodes of a 300-node, 3-class graph, build the low-rank
    # Gram with the training set as landmarks, and relabel it back: it must
    # be the original Gram up to roundoff (64 features, 150 landmarks, so
    # the start factor's landmark block is rank-deficient)
    ds = synthetic_dataset(300, n_features=64, n_classes=3, seed=7)
    n = ds.n_nodes
    perm = np.random.default_rng(8).permutation(n)  # new node i is old node perm[i]
    inv = np.argsort(perm)
    coo = ds.graph.to_csr().tocoo()
    relabelled = build_adjacency(np.column_stack([inv[coo.row], inv[coo.col]]), n)

    def gram(graph, x, train):
        if arch == "mlp":
            op = None
        else:
            op = normalize_row(graph) if arch == "sage" else normalize_sym(graph)
        prog = KernelProgram(arch, op, 3)
        lm = LandmarkSet(np.sort(train))
        return lowrank_variant(prog, nystrom_start(x, lm), lm).gram()

    g = gram(ds.graph, ds.features, ds.splits.train)
    back = gram(relabelled, ds.features[perm], inv[ds.splits.train])[np.ix_(inv, inv)]
    assert np.linalg.norm(back - g) <= 1e-13 * np.linalg.norm(g)


def test_lowrank_failure_names_layer():
    n = 6
    sym = sym_operator(n, seed=22)
    lm = LandmarkSet.all_nodes(n)
    zero = LowRankFactor(np.zeros((n, 2)))
    with pytest.raises(FactorizationError, match="layer 2"):
        lowrank_variant(KernelProgram.gcn(sym, 2, sigma_b=0.0, sigma_w=1.0), zero, lm)


def test_lowrank_size_mismatch():
    sym = sym_operator(6, seed=23)
    q0 = LowRankFactor(np.ones((5, 2)))
    with pytest.raises(ValueError, match="does not match"):
        lowrank_variant(KernelProgram.gcn(sym, 1), q0, LandmarkSet.all_nodes(5))


# ---------------------------------------------------------------------------
# finite-width agreement for the compositions whose covariance rules have no
# closed-form cross-check (the sampler is the second route)

@pytest.mark.parametrize("arch", ["gcnii", "gin", "sage"])
def test_finite_width_agreement(arch):
    n = 10
    x = random_features(n, 6, seed=24)
    sym = sym_operator(n, extra=3, seed=25)
    row = row_operator(n, extra=3, seed=25)
    if arch == "gcnii":
        prog = KernelProgram.gcnii(sym, 2, sigma_w=1.0)
    elif arch == "gin":
        prog = KernelProgram.gin(sym, 2, sigma_b=0.2, sigma_w=1.0)
    else:
        prog = KernelProgram.sage(row, 2, sigma_w1=0.8, sigma_w2=1.0)
    analytic = run_exact(prog, base_inner(x))
    empirical = sample_covariance(McConfig(prog, width=1024, n_samples=120, seed=42), x)
    assert compare_covariance(empirical, analytic) <= 0.05


# peak of run_exact in N x N float64 arrays: the input kernel is allocated
# before tracing starts, and every later input is dropped once its block has
# read it, so a layer holds a block's input and output (plus the gcnii skip,
# or the input sage's self branch keeps): about 2.07 N x N, 3.07 for gcnii.
# The bounds, part of each test's id, are those of a layer that kept its
# input through GraphConv
@pytest.mark.parametrize("arch, depth, bound", [
    ("gcn", 2, 3.1), ("gcn", 8, 3.1), ("mlp", 2, 3.1), ("gin", 2, 3.1),
    ("gcnii", 2, 4.1), ("sage", 2, 4.1),
])
def test_run_exact_peak_memory(monkeypatch, arch, depth, bound):
    monkeypatch.setattr(kernels, "_TILE_ELEMENTS", 2**14)  # tile buffers negligible
    n = 1000
    if arch == "mlp":
        prog = KernelProgram.mlp(depth, sigma_b=0.1)
    elif arch == "gcnii":
        prog = KernelProgram.gcnii(sym_operator(n, extra=n), depth)
    elif arch == "sage":
        prog = KernelProgram.sage(row_operator(n, extra=n), depth, sigma_w1=0.5)
    else:
        prog = KernelProgram(arch, sym_operator(n, extra=n), depth, sigma_b=0.1)
    k0 = base_inner(random_features(n, 16, 0))
    tracemalloc.start()
    try:
        run_exact(prog, k0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8.0 * n * n) <= bound
