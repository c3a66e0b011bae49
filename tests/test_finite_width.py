import numpy as np
import pytest

from graphgp import (
    KernelProgram,
    McConfig,
    base_inner,
    compare_covariance,
    run_exact,
    sample_covariance,
)
from graphgp import finite_width, kernels, programs
from graphgp.finite_width import _linear_draw
from graphgp.kernels import Weight
from graphgp.programs import ARCHITECTURES

from conftest import random_features, row_operator, sym_operator


def test_config_validation():
    prog = KernelProgram.gcn(sym_operator(6, 3, 0), 2)
    with pytest.raises(ValueError, match="width must be positive"):
        McConfig(prog, 0, 4, seed=0)
    with pytest.raises(ValueError, match="at least one sample"):
        McConfig(prog, 8, 0, seed=0)


@pytest.mark.parametrize("field", ["sigma_b", "sigma_w", "sigma_w1", "sigma_w2"])
def test_config_rejects_negative_scales(field):
    # the sampler draws the program's network, so the program checks its scales
    with pytest.raises(ValueError, match="sigma parameters must be nonnegative"):
        KernelProgram("gcn", sym_operator(6, 3, 0), 2, **{field: -0.5})


class _IdentityNormals:
    """Stands in for a Generator: the "normals" are an identity matrix, so a
    draw returns the square-root factor itself; records the rows asked for."""

    def standard_normal(self, shape):
        self.rows = shape[0]
        return np.eye(*shape)


def _factor(m, sigma_w, sigma_b):
    """The square root F a draw applies, padded with zero columns (F F^T is
    unchanged), and the rows of normals asked for: k for the column factor,
    n for the n x n root."""
    n, fan_in = m.shape
    rng = _IdentityNormals()
    f = _linear_draw(m, sigma_w, sigma_b, n + fan_in + 1, rng)
    c = sigma_w**2 / fan_in * (m @ m.T) + sigma_b**2
    return f, rng.rows, np.linalg.norm(f @ f.T - c) / np.linalg.norm(c)


def test_column_factor_for_tall_inputs():
    # 50 nodes, k = 12 + 1 columns: the wide draw is the thinner one
    rng = np.random.default_rng(0)
    _, rows, rel = _factor(rng.normal(size=(50, 12)), 0.8, 0.3)
    assert rows == 13
    assert rel <= 1e-12


def test_node_root_for_wide_inputs():
    rng = np.random.default_rng(1)
    _, rows, rel = _factor(rng.normal(size=(8, 512)), 1.2, 0.1)
    assert rows == 8
    assert rel <= 1e-12


def test_node_root_of_rank_deficient_input_is_finite():
    # duplicated node rows make C singular; clamped roundoff must not give NaN
    rng = np.random.default_rng(2)
    m = rng.normal(size=(6, 64))
    m[3] = m[0]
    m[5] = m[1]
    f, rows, rel = _factor(m, 1.0, 0.0)
    assert rows == 6
    assert np.all(np.isfinite(f))
    assert rel <= 1e-12


def test_factor_choice_depends_on_shape_alone():
    # the n x n root is taken exactly when 4 n <= k, bias column included
    def rows(n, fan_in, sigma_b):
        rng = _IdentityNormals()
        _linear_draw(np.ones((n, fan_in)), 1.0, sigma_b, 1, rng)
        return rng.rows

    assert rows(8, 32, 0.0) == 8
    assert rows(8, 31, 0.0) == 31
    assert rows(8, 31, 0.1) == 8
    assert rows(1000, 4096, 0.1) == 1000
    # Cora's 2708 nodes at width 4096 keep the column factor
    assert rows(2708, 4096, 0.1) == 4097


def test_features_shape_checked():
    cfg = McConfig(KernelProgram.gcn(sym_operator(6, 3, 0), 1), 8, 2, seed=0)
    with pytest.raises(ValueError, match="one row per node"):
        sample_covariance(cfg, np.ones(6))
    with pytest.raises(ValueError, match="one row per node"):
        sample_covariance(cfg, np.ones((5, 3)))


def test_fixed_seed_is_bit_reproducible():
    x = random_features(7, 5, 2)
    cfg = McConfig(KernelProgram.gcn(sym_operator(7, 4, 1), 2, sigma_b=0.1), 16, 6, seed=42)
    pooled = sample_covariance(cfg, x)
    assert np.array_equal(pooled, sample_covariance(cfg, x))
    assert np.abs(pooled - pooled.T).max() <= 1e-12


def test_seed_changes_the_draw():
    prog = KernelProgram.gcn(sym_operator(7, 4, 1), 2)
    x = random_features(7, 5, 2)
    one = sample_covariance(McConfig(prog, 16, 6, seed=0), x)
    two = sample_covariance(McConfig(prog, 16, 6, seed=1), x)
    assert np.abs(one - two).max() > 1e-6


def test_compare_covariance_is_relative_frobenius():
    assert compare_covariance(np.array([[2.0]]), np.array([[1.0]])) == 1.0
    with pytest.raises(ValueError, match="shapes differ"):
        compare_covariance(np.eye(2), np.eye(3))
    with pytest.raises(ValueError, match="zero"):
        compare_covariance(np.eye(2), np.zeros((2, 2)))


# agreement with the analytic recursions; bounds carry a few-x margin over
# observed errors at these sampling budgets


def test_gcn_draws_match_analytic_kernel():
    x = random_features(8, 6, 1)
    prog = KernelProgram.gcn(sym_operator(8, 5, 0), 2, sigma_b=0.2, sigma_w=1.0)
    k = run_exact(prog, base_inner(x))
    cfg = McConfig(prog, 256, 80, seed=7)
    assert compare_covariance(sample_covariance(cfg, x), k) <= 0.04


def test_sage_self_branch_matches_analytic_kernel():
    x = random_features(8, 6, 1)
    prog = KernelProgram.sage(row_operator(8, 5, 0), 2, sigma_w1=0.8, sigma_w2=1.0)
    k = run_exact(prog, base_inner(x))
    cfg = McConfig(prog, 512, 80, seed=11)
    assert compare_covariance(sample_covariance(cfg, x), k) <= 0.04


def test_graph_free_draws_match_analytic_kernel():
    x = random_features(6, 5, 2)
    prog = KernelProgram.mlp(3, sigma_b=0.3, sigma_w=1.2)
    k = run_exact(prog, base_inner(x))
    cfg = McConfig(prog, 512, 80, seed=13)
    assert compare_covariance(sample_covariance(cfg, x), k) <= 0.04


def _depth_3_program(arch):
    return {
        "gcn": lambda: KernelProgram.gcn(sym_operator(8, 5, 0), 3, sigma_b=0.2),
        "gcnii": lambda: KernelProgram.gcnii(sym_operator(8, 5, 0), 3, sigma_w=1.2),
        "gin": lambda: KernelProgram.gin(sym_operator(8, 5, 0), 3, sigma_b=0.2),
        "sage": lambda: KernelProgram.sage(row_operator(8, 5, 0), 3, sigma_w1=0.8),
        "mlp": lambda: KernelProgram.mlp(3, sigma_b=0.3, sigma_w=1.2),
    }[arch]()


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_sampler_draws_the_weights_of_the_recipe(monkeypatch, arch):
    # every Gaussian layer of a draw is a Weight block of the kernel's own
    # recipe, with its scales and in its order: gcnii's skip lift and both
    # sage branches included
    x = random_features(8, 6, 1)
    prog = _depth_3_program(arch)
    applied, drawn = [], []

    def apply_block_exact(k, block):
        if isinstance(block, Weight):
            applied.append((block.sigma_w, block.sigma_b))
        return kernels.apply_block_exact(k, block)

    def linear_draw(m, sigma_w, sigma_b, width, rng):
        drawn.append((sigma_w, sigma_b))
        return _linear_draw(m, sigma_w, sigma_b, width, rng)

    monkeypatch.setattr(programs, "apply_block_exact", apply_block_exact)
    monkeypatch.setattr(finite_width, "_linear_draw", linear_draw)
    run_exact(prog, base_inner(x))
    sample_covariance(McConfig(prog, 16, 1, seed=0), x)
    assert len(applied) >= 3
    assert drawn == applied


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_every_architecture_draws_match_analytic_kernel_at_depth_3(arch):
    # three layers put a ReLU in front of two linear maps; every Weight of
    # the recipe is drawn as a Gaussian weight, the network its kernel
    # describes
    x = random_features(8, 6, 1)
    prog = _depth_3_program(arch)
    k = run_exact(prog, base_inner(x))
    cfg = McConfig(prog, 1024, 60, seed=17)
    assert compare_covariance(sample_covariance(cfg, x), k) <= 0.04
