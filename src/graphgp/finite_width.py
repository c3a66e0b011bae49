"""Finite-width Monte-Carlo check of the infinite-width covariances.

Draws the network that a KernelProgram describes (the architecture,
operator, depth and hyperparameters that ``run_exact`` reads) at a finite
width, with iid Gaussian weights W ~ N(0, sigma_w^2 / fan_in) and biases
b ~ N(0, sigma_b^2), runs the forward pass on the node features, and
averages z z^T over samples and over the width of the final pre-activation
layer.  As the width grows the pooled estimate converges to the program's
analytic kernel at the usual 1/sqrt(width) Monte-Carlo rate.  ``McConfig``
holds only the sampling plan: the program, width, sample count and seed.

Each Gaussian linear layer is drawn from its conditional distribution given
the layer before it (the structure behind the NNGP construction of Lee et
al. 2018 and Matthews et al. 2018).  A layer whose inputs are the n-row
matrices m_k, each multiplied by its own weight of scale s_k, plus a bias
of scale sigma_b, has output columns that are iid N(0, C) with

    C = sum_k s_k^2 / fan_in_k * m_k m_k^T + sigma_b^2 * 1 1^T,

so the output is F @ G for any F with F F^T = C and G standard normal.
``_linear_draw`` picks F by shape alone:

* the column factor [s_k / sqrt(fan_in_k) * m_k ..., sigma_b * 1], which is
  n x k with k = sum_k fan_in_k (+1 with a bias).  This is the usual weight
  draw, reorganised: it costs k x width normals and an n x k x width matmul.
* an n x n root of C from its eigendecomposition, used when 4 n <= k.  It
  costs n x width normals, an n x n x width matmul and an O(n^3) ``eigh``.
  The rule keeps the column factor where the eigendecomposition would cost
  more than the thinner draw saves: a width-4096 layer on an 8-node graph
  draws 8 rows of normals instead of 4097, while on a Cora-sized graph
  (n = 2708) the column factor stays.

Either factor gives exactly the same finite-width distribution; only the
draw values for a given seed depend on which one is used.

Randomness is organized as one child seed sequence per (sample, layer), so
results are bit-reproducible for a fixed seed regardless of how the sample
loop might later be scheduled.

The gcnii surrogate draws an independent Gaussian lift of the features for
the skip branch of every layer (and one more for the recursion base); the
analytic rule adds the skip as an independent branch, and sharing one lift
would introduce cross-covariances the rule deliberately drops.  GCNII's
identity path is drawn as a Gaussian weight with the same second moment:
the mixing map (1 - b_l) I + b_l W is one weight of scale
s_l = sqrt((1 - b_l)^2 + b_l^2 sigma_w^2), as in the analytic rule.  An
identity path would pass the ReLU outputs on as non-Gaussian
pre-activations, which the NNGP recursion does not describe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .programs import KernelProgram


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


def _relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def _linear_draw(terms, sigma_b: float, width: int, rng) -> np.ndarray:
    """Output (n x width) of one Gaussian linear layer given its inputs.

    ``terms`` lists the (m, s) pairs of the layer's independent weights, the
    fan-in of each being the column count of its m; the bias has scale
    ``sigma_b``.  The output is F @ G for a square root F of the conditional
    covariance C, chosen by shape alone (see the module docstring): the
    column factor [s / sqrt(fan_in) * m ..., sigma_b * 1], applied block by
    block without forming it, or, when 4 n <= k, the n x n root of C from
    ``eigh``.  The root's eigenvalues are clamped at 0; that removes only
    roundoff, as C is PSD by construction, and keeps rank-deficient inputs
    (duplicated nodes) finite.
    """
    n = terms[0][0].shape[0]
    k = sum(m.shape[1] for m, _ in terms) + (sigma_b > 0)
    if 4 * n <= k:
        c = sum(s * s / m.shape[1] * (m @ m.T) for m, s in terms) + sigma_b**2
        vals, vecs = np.linalg.eigh(c)
        root = vecs * np.sqrt(np.maximum(vals, 0.0))
        return root @ rng.standard_normal((n, width))
    g = rng.standard_normal((k, width))
    # the column factor, applied block by block in place, so that no n x k
    # scaled copy of the inputs is made
    out = sigma_b * g[-1] if sigma_b > 0 else 0.0
    j = 0
    for m, s in terms:
        fan_in = m.shape[1]
        block = m @ g[j:j + fan_in]
        block *= s / np.sqrt(fan_in)
        block += out
        out = block
        j += fan_in
    return out


def _forward(cfg: McConfig, a_csr, x0: np.ndarray, rngs) -> np.ndarray:
    """One network draw; returns the final pre-activation (n_nodes x width)."""
    prog, d = cfg.program, cfg.width
    if prog.uses_initial_skip:
        # rngs[depth] is reserved for the base lift
        h = _linear_draw([(x0, 1.0)], 0.0, d, rngs[prog.depth])
    else:
        h = x0
    for l in range(prog.depth):
        rng = rngs[l]
        inner = _relu(h) if l > 0 else h
        if prog.architecture in ("gcn", "mlp"):
            m = inner if prog.architecture == "mlp" else a_csr @ inner
            h = _linear_draw([(m, prog.sigma_w)], prog.sigma_b, d, rng)
        elif prog.architecture == "gin":
            mid = _linear_draw([(a_csr @ inner, prog.sigma_w)], prog.sigma_b, d, rng)
            h = _linear_draw([(_relu(mid), prog.sigma_w)], prog.sigma_b, d, rng)
        elif prog.architecture == "sage":
            h = _linear_draw([(inner, prog.sigma_w1), (a_csr @ inner, prog.sigma_w2)],
                             0.0, d, rng)
        else:
            skip = _linear_draw([(x0, 1.0)], 0.0, d, rng)
            mixed = (1.0 - prog.alpha) * (a_csr @ inner) + prog.alpha * skip
            h = _linear_draw([(mixed, prog.gcnii_scales[l])], 0.0, d, rng)
    return h


def sample_covariance(cfg: McConfig, features: np.ndarray) -> np.ndarray:
    """Pooled empirical covariance of the final layer over all samples and
    output units, on the program's operator (mlp has none: one node per
    feature row)."""
    a = cfg.program.a
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or (a is not None and features.shape[0] != a.n_nodes):
        raise ValueError("features must be 2-d with one row per node")
    a_csr = None if a is None else a.to_csr()
    streams_per_sample = cfg.program.depth + cfg.program.uses_initial_skip
    n = features.shape[0]
    acc = np.zeros((n, n))
    for seq in np.random.SeedSequence(cfg.seed).spawn(cfg.n_samples):
        rngs = [np.random.default_rng(s) for s in seq.spawn(streams_per_sample)]
        z = _forward(cfg, a_csr, features, rngs)
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
