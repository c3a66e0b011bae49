"""Finite-width Monte-Carlo check of the infinite-width covariances.

Draws the network that a KernelProgram describes at a finite width and
averages z z^T over samples and over the width of the final pre-activation
layer.  As the width grows the pooled estimate converges to the program's
analytic kernel at the usual 1/sqrt(width) Monte-Carlo rate.  ``McConfig``
holds only the sampling plan: the program, width, sample count and seed.

The network is the program's own layer recipe (``programs._layer``), read by
``programs._drive`` as ``run_exact`` and ``lowrank_variant`` read it, with
each block applied to a drawn n x width representation (``_apply_block_draw``):

* ``Weight(s, b)`` is a fresh Gaussian layer, iid weights W ~ N(0, s^2 /
  fan_in) and biases b ~ N(0, b^2);
* ``GraphConv`` multiplies by the operator, ``Activation`` is the ReLU and
  ``IndependentAdd`` adds the branch it carries.

So every ``Weight`` of the recipe is a random weight here, the (1 - alpha)
in front of gcnii's conv branch and its mixing map ``Weight(s_l)`` included.
gcnii's skip, ``Weight(alpha)`` of the features, is drawn once per network,
since ``_drive`` computes it once, and every layer adds the same lift.  It
adds no cross-covariance: each layer's conv branch passes through a fresh
zero-mean weight, so E[branch skip^T] = 0, as the analytic rule assumes.

Each Gaussian linear layer is drawn from its conditional distribution given
the layer before it (the structure behind the NNGP construction of Lee et
al. 2018 and Matthews et al. 2018).  A layer with input m (n x fan_in),
weight scale s and bias scale sigma_b has output columns that are iid
N(0, C) with

    C = s^2 / fan_in * m m^T + sigma_b^2 * 1 1^T,

so the output is F @ G for any F with F F^T = C and G standard normal.
``_linear_draw`` picks F by shape alone:

* the column factor [s / sqrt(fan_in) * m, sigma_b * 1], which is n x k with
  k = fan_in (+1 with a bias).  This is the usual weight draw, reorganised:
  it costs k x width normals and an n x k x width matmul.
* an n x n root of C from its eigendecomposition, used when 4 n <= k.  It
  costs n x width normals, an n x n x width matmul and an O(n^3) ``eigh``.
  The rule keeps the column factor where the eigendecomposition would cost
  more than the thinner draw saves: a width-4096 layer on an 8-node graph
  draws 8 rows of normals instead of 4097, while on a Cora-sized graph
  (n = 2708) the column factor stays.

Either factor gives exactly the same finite-width distribution; only the
draw values for a given seed depend on which one is used.

Randomness is organized as one child seed sequence per (sample, draw),
spawned in the order the recipe draws its weights, so results are
bit-reproducible for a fixed seed regardless of how the sample loop might
later be scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .kernels import Activation, GraphConv, IndependentAdd, Weight, _take
from .programs import KernelProgram, _drive, peak_arrays


@dataclass(frozen=True)
class McConfig:
    """Sampling plan for the finite-width network that ``program`` describes.

    The architecture, operator, depth and layer hyperparameters are the
    program's own, so the draws and the analytic kernel of the same program
    describe one network; the plan adds the hidden width, the number of
    network draws and the seed.
    """

    program: KernelProgram
    width: int
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be positive")
        if self.n_samples < 1:
            raise ValueError("need at least one sample")


def _through_root(n: int, k: int) -> bool:
    """Whether a layer whose column factor is n x k draws through the n x n root."""
    return 4 * n <= k


def draw_arrays(program: KernelProgram, n: int, d: int, width: int) -> float:
    """N x N arrays (N = n) ``sample_covariance`` holds at its peak on d features:
    the running sum, z z^T, ``peak_arrays`` representations of n x max(d, width)
    (n x d up to the first draw), and one layer's normals.  A layer whose column
    factor is n x k (k = d in the first layer, width after it, plus one with the
    program's bias, which gcnii and sage do not draw) draws k x width normals, or
    n x width beside the root's 4 n x n arrays (C, eigh's copy and work, root)."""
    w, bias = width / n, program.sigma_b > 0
    normals = [w + 4 if _through_root(n, k) else k * w / n for k in (d + bias, width + bias)]
    return 2 + peak_arrays(program) * max(d, width) / n + max(normals)


def _linear_draw(m: np.ndarray, sigma_w: float, sigma_b: float, width: int,
                 rng) -> np.ndarray:
    """Output (n x width) of one Gaussian linear layer given its input ``m``.

    The weight has scale ``sigma_w`` over the fan-in, the column count of
    ``m``; the bias has scale ``sigma_b``.  The output is F @ G for a square
    root F of the conditional covariance C, chosen by shape alone (see the
    module docstring): the column factor [sigma_w / sqrt(fan_in) * m,
    sigma_b * 1], applied without forming it, or, when 4 n <= k, the n x n
    root of C from ``eigh``.  The root's eigenvalues are clamped at 0; that
    removes only roundoff, as C is PSD by construction, and keeps
    rank-deficient inputs (duplicated nodes) finite.
    """
    n, fan_in = m.shape
    k = fan_in + (sigma_b > 0)
    if _through_root(n, k):
        c = sigma_w * sigma_w / fan_in * (m @ m.T) + sigma_b**2
        vals, vecs = np.linalg.eigh(c)
        root = vecs * np.sqrt(np.maximum(vals, 0.0))
        return root @ rng.standard_normal((n, width))
    g = rng.standard_normal((k, width))
    # the column factor, scaled in place, so that no n x k copy of m is made
    out = m @ g[:fan_in]
    out *= sigma_w / np.sqrt(fan_in)
    if sigma_b > 0:
        out += sigma_b * g[-1]
    return out


def _apply_block_draw(h, block, a_csr, width: int,
                      seq: np.random.SeedSequence) -> np.ndarray:
    """One building block on a drawn network; never changes its input.

    ``h`` is the n x width representation, or a one-element list holding
    it, which is emptied, as ``kernels.apply_block_exact`` takes its
    kernel.  A ``Weight`` draws its layer from the next child of ``seq``;
    ``a_csr`` is the program's operator in CSR form, converted once per
    sampling call.
    """
    h = _take(h)
    if isinstance(block, Weight):
        rng = np.random.default_rng(seq.spawn(1)[0])
        return _linear_draw(h, block.sigma_w, block.sigma_b, width, rng)
    if isinstance(block, GraphConv):
        return a_csr @ h
    if isinstance(block, Activation):
        return np.maximum(h, 0.0)
    if isinstance(block, IndependentAdd):
        return h + block.other
    raise TypeError(f"unknown block {block!r}")


def sample_covariance(cfg: McConfig, features: np.ndarray) -> np.ndarray:
    """Pooled empirical covariance of the final layer over all samples and
    output units, on the program's operator (mlp has none: one node per
    feature row)."""
    a = cfg.program.a
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or (a is not None and features.shape[0] != a.n_nodes):
        raise ValueError("features must be 2-d with one row per node")
    a_csr = None if a is None else a.to_csr()
    n = features.shape[0]
    acc = np.zeros((n, n))
    for seq in np.random.SeedSequence(cfg.seed).spawn(cfg.n_samples):
        apply = partial(_apply_block_draw, a_csr=a_csr, width=cfg.width, seq=seq)
        z = _drive(cfg.program, [features], apply)
        acc += z @ z.T
    return acc / (cfg.n_samples * cfg.width)


def compare_covariance(empirical: np.ndarray, analytic: np.ndarray) -> float:
    """Relative Frobenius error ||emp - ana||_F / ||ana||_F."""
    empirical = np.asarray(empirical, dtype=np.float64)
    analytic = np.asarray(analytic, dtype=np.float64)
    if empirical.shape != analytic.shape:
        raise ValueError("shapes differ")
    denom = np.linalg.norm(analytic)
    if denom == 0:
        raise ValueError("analytic kernel is zero; relative error undefined")
    return float(np.linalg.norm(empirical - analytic) / denom)
