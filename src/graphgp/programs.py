"""Architecture compositions: whole networks as covariance programs.

A program fixes a graph operator, a depth and the layer hyperparameters;
running it folds the building blocks of kernels.py over either the dense
kernel or the low-rank factor.  Per-layer updates (K dense, Q factor, A the
operator, g the ReLU expectation):

  gcn    K <- sigma_w^2 A g(K) A^T + sigma_b^2
         Q <- [sigma_w A chol(g(Q Q^T)), sigma_b 1]
  gcnii  K <- ((1-a)^2 A g(K) A^T + a^2 K0) * ((1-b_l)^2 + b_l^2 sigma_w^2)
  gin    K <- sigma_w^2 g(B) + sigma_b^2,  B = sigma_w^2 A g(K) A^T + sigma_b^2
  sage   K <- sigma_w1^2 g(K) + sigma_w2^2 A g(K) A^T   (row-normalized A)
  mlp    K <- sigma_w^2 g(K) + sigma_b^2   (gcn without the operator)

The first layer consumes the base covariance K0 directly (no activation in
front of the first linear map); inner activations, like the second stage of
a gin layer, always apply.

Each layer is one block recipe (``_layer``), written against an
``apply(rep, block)`` callable: ``run_exact`` reads it with
``apply_block_exact`` and ``lowrank_variant`` with ``apply_block_lowrank``.
Both keep only the current layer alive and return the final one;
``run_exact``'s ``on_layer(l, K)`` hook sees every layer on the way.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .adjacency import SparseAdjacency, identity_adjacency
from .kernels import (
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
    chol_factor,
)

ARCHITECTURES = ("gcn", "gcnii", "gin", "sage", "mlp")


def gcnii_beta_schedule(depth: int, decay: float = 0.5) -> tuple:
    """Per-layer mixing strengths beta_l = log(decay / l + 1), l = 1..depth."""
    if depth < 1:
        raise ValueError("depth must be positive")
    if not decay >= 0:
        raise ValueError(f"decay must be nonnegative to keep every beta finite, got {decay}")
    layers = np.arange(1, depth + 1)
    return tuple(np.log(decay / layers + 1.0))


@dataclass(frozen=True, eq=False)
class KernelProgram:
    """An architecture bound to its operator, depth and hyperparameters."""

    architecture: str
    a: SparseAdjacency
    depth: int
    sigma_b: float = 0.0
    sigma_w: float = 1.0
    alpha: float = 0.1
    beta_schedule: tuple = ()
    sigma_w1: float = 0.0
    sigma_w2: float = 1.0

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.depth < 1:
            raise ValueError("depth must be positive")
        if min(self.sigma_b, self.sigma_w, self.sigma_w1, self.sigma_w2) < 0:
            raise ValueError("sigma parameters must be nonnegative")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not np.isfinite(self.beta_schedule).all():
            raise ValueError("beta schedule entries must be finite")
        if self.architecture == "gcnii" and len(self.beta_schedule) != self.depth:
            raise ValueError(
                f"gcnii needs one beta per layer: got {len(self.beta_schedule)} "
                f"for depth {self.depth}"
            )

    @property
    def uses_initial_skip(self) -> bool:
        """True when layers re-add the layer-0 covariance (gcnii)."""
        return self.architecture == "gcnii"

    # constructors ---------------------------------------------------------

    @classmethod
    def gcn(cls, a, depth, sigma_b=0.0, sigma_w=1.0):
        return cls("gcn", a, depth, sigma_b=sigma_b, sigma_w=sigma_w)

    @classmethod
    def mlp(cls, n_nodes, depth, sigma_b=0.0, sigma_w=1.0):
        return cls("mlp", identity_adjacency(n_nodes), depth,
                   sigma_b=sigma_b, sigma_w=sigma_w)

    @classmethod
    def gcnii(cls, a, depth, sigma_w=1.0, alpha=0.1, beta_schedule=None):
        if beta_schedule is None:
            beta_schedule = gcnii_beta_schedule(depth)
        return cls("gcnii", a, depth, sigma_w=sigma_w, alpha=alpha,
                   beta_schedule=tuple(beta_schedule))

    @classmethod
    def gin(cls, a, depth, sigma_b=0.0, sigma_w=1.0):
        return cls("gin", a, depth, sigma_b=sigma_b, sigma_w=sigma_w)

    @classmethod
    def sage(cls, a, depth, sigma_w1=0.0, sigma_w2=1.0):
        return cls("sage", a, depth, sigma_w1=sigma_w1, sigma_w2=sigma_w2)


# ---------------------------------------------------------------------------
# the recipe and its driver


def _chain(apply: Callable, rep, *blocks):
    for block in blocks:
        rep = apply(rep, block)
    return rep


def _layer(prog: KernelProgram, layer: int, c, skip, apply: Callable):
    """One layer of the program, written once against ``apply(rep, block)``.

    ``c`` is the layer's input after its activation, which ``_drive`` applies.
    """
    conv = GraphConv(prog.a)
    if prog.architecture == "mlp":
        return _chain(apply, c, Weight(prog.sigma_w), Bias(prog.sigma_b))
    if prog.architecture == "gcn":
        return _chain(apply, c, conv, Weight(prog.sigma_w), Bias(prog.sigma_b))
    if prog.architecture == "gin":
        # the inner Activation is a true pre-activation, so it always applies
        return _chain(apply, c, conv, Weight(prog.sigma_w), Bias(prog.sigma_b),
                      Activation(), Weight(prog.sigma_w), Bias(prog.sigma_b))
    if prog.architecture == "sage":
        neigh = _chain(apply, c, conv, Weight(prog.sigma_w2))
        return _chain(apply, c, Weight(prog.sigma_w1), IndependentAdd(neigh))
    beta = prog.beta_schedule[layer]
    return _chain(apply, c, conv, Weight(1.0 - prog.alpha), IndependentAdd(skip),
                  MixedWeight(1.0 - beta, beta, prog.sigma_w))


def _drive(program: KernelProgram, rep0, apply: Callable,
           on_layer: Optional[Callable] = None):
    """Fold the program's layers over ``rep0``; a failing layer names itself.

    Each layer but the first starts with its activation, applied here so
    that the previous layer's output is released before the layer's
    GraphConv runs.  Only the current representation (and the gcnii skip)
    stays alive: on the dense path a layer peaks near 3 N x N arrays (4 for
    gcnii and sage), not counting ``rep0`` or kernels an observer keeps.
    ``on_layer(l, rep)`` sees each layer's output, l = 1..depth.
    """
    skip = apply(rep0, Weight(program.alpha)) if program.uses_initial_skip else None
    rep = rep0
    for layer in range(program.depth):
        try:
            if layer > 0:
                rep = apply(rep, Activation())
            rep = _layer(program, layer, rep, skip, apply)
        except FactorizationError as err:
            raise FactorizationError(
                f"layer {layer + 1}: {err}", eigenvalue=err.eigenvalue
            ) from err
        if on_layer is not None:
            on_layer(layer + 1, rep)
    return rep


def run_exact(program: KernelProgram, k0: np.ndarray,
              on_layer: Optional[Callable[[int, np.ndarray], None]] = None) -> np.ndarray:
    """Final dense kernel K^(depth); ``on_layer(l, K^(l))`` sees every layer.

    A unit weight and a zero bias pass their input on, so mlp at depth 1
    with sigma_w = 1 and sigma_b = 0 returns ``k0`` itself.
    """
    k0 = np.asarray(k0, dtype=np.float64)
    if k0.shape != (program.a.n_nodes, program.a.n_nodes):
        raise ValueError(
            f"base kernel shape {k0.shape} does not match operator size {program.a.n_nodes}"
        )
    return _drive(program, k0, apply_block_exact, on_layer)


def _read(path: str) -> Optional[str]:
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return None


def _cgroup_headroom(path: str) -> Optional[int]:
    """memory.max less the unreclaimable usage of one cgroup (v2) directory.

    Usage is memory.current less the inactive file cache of memory.stat,
    which the kernel reclaims before it refuses an allocation; None when
    the directory sets no limit.
    """
    limit, usage = _read(path + "/memory.max"), _read(path + "/memory.current")
    if not limit or not usage or limit.strip() == "max":
        return None
    cache = re.search(r"^inactive_file (\d+)$", _read(path + "/memory.stat") or "", re.M)
    return int(limit) - int(usage) + (int(cache.group(1)) if cache else 0)


def available_memory() -> Optional[int]:
    """Bytes the process can still allocate; None when the system does not say.

    MemAvailable from /proc/meminfo, lowered to the least headroom of the
    process's cgroup (v2, found through /proc/self/cgroup) and of every
    cgroup above it that sets ``memory.max``.  Limits of cgroup v1 are not
    read.  Only reads files.
    """
    found = re.search(r"^MemAvailable:\s+(\d+) kB", _read("/proc/meminfo") or "", re.M)
    bounds = [int(found.group(1)) * 1024] if found else []
    own = re.search(r"^0::(/.*)$", _read("/proc/self/cgroup") or "", re.M)
    parts = [p for p in own.group(1).split("/") if p] if own else []
    for depth in range(len(parts) + 1):
        headroom = _cgroup_headroom("/".join(["/sys/fs/cgroup", *parts[:depth]]))
        if headroom is not None:
            bounds.append(headroom)
    return min(bounds) if bounds else None


def require_memory(n_nodes: int, n_arrays: float, what: str) -> None:
    """Raise ValueError when ``n_arrays`` N x N float64 arrays will not fit.

    Meant to run before the first N x N allocation of a dense computation;
    it compares n_arrays * N^2 * 8 bytes with ``available_memory()`` and
    checks nothing when no bound can be read.
    """
    need = 8.0 * n_arrays * n_nodes**2
    avail = available_memory()
    if avail is not None and need > avail:
        raise ValueError(
            f"{what} on {n_nodes} nodes needs about {n_arrays:g} N x N arrays "
            f"({need / 2**30:.2f} GiB), but only {avail / 2**30:.2f} GiB is available"
        )


def nystrom_start(features, landmarks: LandmarkSet,
                  kernel: Callable = base_inner) -> LowRankFactor:
    """Landmark factor of the base covariance without forming it densely.

    Its rank is the numerical rank of the landmark block: at most the
    feature count for ``base_inner``.
    """
    features = np.asarray(features, dtype=np.float64)
    anchors = features[landmarks.indices]
    return chol_factor(kernel(features, anchors), kernel(anchors))


def lowrank_variant(program: KernelProgram, q0: LowRankFactor,
                    landmarks: LandmarkSet) -> LowRankFactor:
    """Run the program on a factor; a failing layer names itself.

    The rank stays bounded: every activation resets the basis to at most
    the landmark count (the numerical rank of the landmark block), bias
    adds one column when sigma_b > 0, and the gcnii skip re-adds rank(Q0)
    columns per layer.
    """
    if q0.n != program.a.n_nodes:
        raise ValueError(
            f"factor size {q0.n} does not match operator size {program.a.n_nodes}"
        )
    return _drive(program, q0, lambda q, b: apply_block_lowrank(q, b, landmarks))
