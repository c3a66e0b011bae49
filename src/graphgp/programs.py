"""Architecture compositions: whole networks as covariance programs.

A program fixes a graph operator (none for mlp), a depth and the layer
hyperparameters; running it folds the building blocks of kernels.py over
either the dense kernel or the low-rank factor.  Per-layer updates (K dense,
Q factor, A the operator, g the ReLU expectation):

  gcn    K <- sigma_w^2 A g(K) A^T + sigma_b^2
         Q <- [sigma_w A chol(g(Q Q^T)), sigma_b 1]
  gcnii  K <- s_l^2 ((1-a)^2 A g(K) A^T + a^2 K0),
         s_l^2 = (1-b_l)^2 + b_l^2 sigma_w^2,  b_l = log(decay / l + 1)
  gin    K <- sigma_w^2 g(B) + sigma_b^2,  B = sigma_w^2 A g(K) A^T + sigma_b^2
  sage   K <- sigma_w1^2 g(K) + sigma_w2^2 A g(K) A^T   (row-normalized A)
  mlp    K <- sigma_w^2 g(K) + sigma_b^2   (gcn without the operator)

The first layer consumes the base covariance K0 directly (no activation in
front of the first linear map); inner activations, like the second stage of
a gin layer, always apply.  gcnii's mixing map (1-b_l) I + b_l W is one
dense layer ``Weight(s_l)``: the Gaussian weight with the map's second
moment, whose NNGP rule is the same scale.

Each layer is one block recipe (``_layer``), written against an
``apply(rep, block)`` callable, and ``_drive`` folds it over the depth.  It
has four readers: ``run_exact`` applies it with ``apply_block_exact``,
``lowrank_variant`` with ``apply_block_lowrank``, the finite-width sampler
(``finite_width.sample_covariance``) draws it as a network, each ``Weight``
a fresh Gaussian layer, and ``peak_arrays`` counts the arrays it holds at
once, which every memory pre-check reads.  All keep only the current layer
alive and return the final one; ``run_exact``'s ``on_layer(l, K)`` hook sees
every layer on the way.
"""

from __future__ import annotations

import math
import re
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import kernels
from .adjacency import SparseAdjacency
from .kernels import (
    Activation,
    FactorizationError,
    GraphConv,
    IndependentAdd,
    LandmarkSet,
    LowRankFactor,
    Weight,
    _take,
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
    if not (math.isfinite(decay) and decay >= 0):
        raise ValueError(f"decay must be nonnegative and finite, got {decay}")
    layers = np.arange(1, depth + 1)
    return tuple(np.log(decay / layers + 1.0))


def check_sigmas(owner) -> None:
    """Each of ``owner``'s sigma_b, sigma_w, sigma_w1 and sigma_w2 must be
    nonnegative and finite; one left unset (None) is not checked."""
    for name in ("sigma_b", "sigma_w", "sigma_w1", "sigma_w2"):
        value = getattr(owner, name)
        if value is not None and not (math.isfinite(value) and value >= 0):
            raise ValueError(
                f"sigma parameters must be nonnegative and finite, got {name} = {value}")


@dataclass(frozen=True, eq=False)
class KernelProgram:
    """An architecture bound to its operator, depth and hyperparameters.

    ``a`` is the graph operator; mlp has none and takes ``a=None``, which
    no other architecture may.  gcnii's ``decay`` (lambda of GCNII) sets its
    per-layer mixing strengths ``gcnii_beta_schedule(depth, decay)``, and
    ``alpha`` the weight of its initial skip.  Every hyperparameter must be
    finite, each sigma and ``decay`` nonnegative and ``alpha`` in [0, 1].
    """

    architecture: str
    a: Optional[SparseAdjacency]
    depth: int
    sigma_b: float = 0.0
    sigma_w: float = 1.0
    alpha: float = 0.1
    decay: float = 0.5
    sigma_w1: float = 0.0
    sigma_w2: float = 1.0

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if (self.a is None) != (self.architecture == "mlp"):
            raise ValueError("mlp has no graph operator; pass a=None" if self.a is not None
                             else f"{self.architecture} needs a graph operator")
        if self.depth < 1:
            raise ValueError("depth must be positive")
        check_sigmas(self)
        if not (math.isfinite(self.decay) and self.decay >= 0):
            raise ValueError(f"decay must be nonnegative and finite, got decay = {self.decay}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")

    @cached_property
    def gcnii_scales(self) -> tuple:
        """Per-layer scale s_l of gcnii's mixing map (1 - b_l) I + b_l W,
        s_l = sqrt((1 - b_l)^2 + b_l^2 sigma_w^2): the one Gaussian weight
        with the map's second moment.  Computed once per program."""
        return tuple(np.sqrt((1.0 - b)**2 + b**2 * self.sigma_w**2)
                     for b in gcnii_beta_schedule(self.depth, self.decay))

    # constructors ---------------------------------------------------------

    @classmethod
    def gcn(cls, a, depth, sigma_b=0.0, sigma_w=1.0):
        return cls("gcn", a, depth, sigma_b=sigma_b, sigma_w=sigma_w)

    @classmethod
    def mlp(cls, depth, sigma_b=0.0, sigma_w=1.0):
        return cls("mlp", None, depth, sigma_b=sigma_b, sigma_w=sigma_w)

    @classmethod
    def gcnii(cls, a, depth, sigma_w=1.0, alpha=0.1, decay=0.5):
        return cls("gcnii", a, depth, sigma_w=sigma_w, alpha=alpha, decay=decay)

    @classmethod
    def gin(cls, a, depth, sigma_b=0.0, sigma_w=1.0):
        return cls("gin", a, depth, sigma_b=sigma_b, sigma_w=sigma_w)

    @classmethod
    def sage(cls, a, depth, sigma_w1=0.0, sigma_w2=1.0):
        return cls("sage", a, depth, sigma_w1=sigma_w1, sigma_w2=sigma_w2)


# ---------------------------------------------------------------------------
# the recipe and its driver


def _chain(apply: Callable, held: list, *blocks):
    """Apply ``blocks`` in turn to the representation in ``held``, a
    one-element list that is emptied.  Each block gets the list, takes its
    input out and puts nothing back; its output goes into the list for the
    next block.  No local keeps an input, so GraphConv can release its
    input once A K exists, and every other block once its output does."""
    for block in blocks:
        held.append(apply(held, block))
    return held.pop()


def _layer(prog: KernelProgram, layer: int, held: list, skip, apply: Callable):
    """One layer of the program, written once against ``apply(held, block)``,
    which takes its input out of the one-element list ``held``.

    ``held`` is a one-element list with the layer's input after its
    activation, which ``_drive`` applies; the layer empties it.
    """
    if prog.architecture == "mlp":
        return _chain(apply, held, Weight(prog.sigma_w, prog.sigma_b))
    conv = GraphConv(prog.a)
    if prog.architecture == "gcn":
        return _chain(apply, held, conv, Weight(prog.sigma_w, prog.sigma_b))
    if prog.architecture == "gin":
        # the inner Activation is a true pre-activation, so it always applies
        dense = Weight(prog.sigma_w, prog.sigma_b)
        return _chain(apply, held, conv, dense, Activation(), dense)
    if prog.architecture == "sage":
        if prog.sigma_w1 == 0.0:  # no self branch: no zero array, no zero columns
            return _chain(apply, held, conv, Weight(prog.sigma_w2))
        # the input feeds both branches: the neighbour branch gets a second
        # list, and the self branch takes the input over
        neigh = _chain(apply, [held[0]], conv, Weight(prog.sigma_w2))
        return _chain(apply, held, Weight(prog.sigma_w1), IndependentAdd(neigh))
    return _chain(apply, held, conv, Weight(1.0 - prog.alpha), IndependentAdd(skip),
                  Weight(prog.gcnii_scales[layer]))


def _drive(program: KernelProgram, held: list, apply: Callable,
           on_layer: Optional[Callable] = None):
    """Fold the program's layers over the representation in ``held``, a
    one-element list that is emptied; a failing layer names itself.

    Each layer but the first starts with its activation, applied here so
    that the previous layer's output is released before the layer's
    GraphConv runs.  Every block gets its input in ``held`` and takes it
    out (``apply(held, block)``), so an input is released as soon as its
    block no longer reads it: GraphConv's once A K is formed, any other
    block's once its output exists.  Only the current representation (and
    the gcnii skip) stays alive, and the starting one is dropped inside
    layer 1 (after the gcnii skip is made), unless the caller keeps its own
    reference.  ``peak_arrays`` counts the arrays this leaves alive at
    once, K0 included, not counting kernels an observer keeps.  On the
    low-rank path a layer peaks near 2 N x r arrays: the Activation's input
    beside the new factor, GraphConv's input beside A P, and A P beside the
    dense layer's [sigma_w A P, sigma_b 1].  ``on_layer(l, rep)`` sees each
    layer's output, l = 1..depth.
    """
    # gcnii's initial skip, made once and re-added by every layer
    skip = apply(held[0], Weight(program.alpha)) if program.architecture == "gcnii" else None
    for layer in range(program.depth):
        try:
            if layer > 0:
                held.append(apply(held, Activation()))
            held.append(_layer(program, layer, held, skip, apply))
        except FactorizationError as err:
            raise FactorizationError(
                f"layer {layer + 1}: {err}", eigenvalue=err.eigenvalue
            ) from err
        if on_layer is not None:
            on_layer(layer + 1, held[0])
    return held.pop()


def run_exact(program: KernelProgram, k0,
              on_layer: Optional[Callable[[int, np.ndarray], None]] = None) -> np.ndarray:
    """Final dense kernel K^(depth); ``on_layer(l, K^(l))`` sees every layer.

    ``k0`` is the N x N base kernel, or a one-element list holding it; N
    is the operator's size, or for mlp, which has no operator, the
    kernel's own.  A list is emptied, which hands K0 over: run_exact then
    holds its only reference and drops it inside layer 1, once its first
    block has read it, so K0 counts among the arrays of the peak
    (``peak_arrays``) and not on top of them.  A caller's array argument,
    by contrast, stays alive until the call returns (on Python 3.10 even
    the unnamed result of an expression does), and so does K0 with it.

    ``Weight(1.0, 0.0)`` passes its input on, so mlp at depth 1 with
    sigma_w = 1 and sigma_b = 0 returns K0 itself.
    """
    held = k0 if isinstance(k0, list) else [k0]
    del k0
    held[0] = np.asarray(held[0], dtype=np.float64)
    shape = held[0].shape
    n = program.a.n_nodes if program.a is not None else shape[0] if shape else 0
    if shape != (n, n):
        raise ValueError(f"base kernel shape {shape} does not match {n} nodes")
    return _drive(program, held, apply_block_exact, on_layer)


class _Token:
    """Stands where a representation array would be (see ``peak_arrays``)."""


def peak_arrays(program: KernelProgram) -> int:
    """Representation arrays the program holds at once, the start one
    included: N x N kernels on the dense path, n x width draws in a sampler.

    Read from the recipe: ``_drive`` runs an applier that makes a weakly
    referenced token wherever an array would be, and Python frees the tokens
    where it would free the arrays, so the count follows the hand-over of
    ``_chain`` and ``_drive``.  GraphConv makes A K beside its input, drops
    the input, then makes the product beside A K; every other block, a unit
    ``Weight`` included, makes its output beside its input.  Buffers of a
    bounded size (the ReLU's row tiles) are not counted.
    """
    alive, peak = weakref.WeakSet(), [0]

    def array():
        token = _Token()
        alive.add(token)
        peak[0] = max(peak[0], len(alive))
        return token

    def apply(rep, block):
        out = array()  # A K, or the block's output, beside the input
        _take(rep)
        return array() if isinstance(block, GraphConv) else out

    _drive(program, [array()], apply)
    return peak[0]


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


def checked_nn(n_nodes: int, n_arrays: float) -> float:
    """What ``require_memory`` checks for ``n_arrays`` N x N float64 arrays,
    in N x N arrays: those, 0.1 for the arrays of O(N) entries beside them
    (the operator, per-node vectors; traced at up to 0.08 at 600-2000
    nodes) and the ReLU's three row-tile buffers."""
    return n_arrays + 0.1 + 3 * kernels._TILE_ELEMENTS / n_nodes**2


def require_memory(n_nodes: int, n_arrays: float, what: str, remedy: str = "") -> None:
    """Raise ValueError when ``n_arrays`` N x N float64 arrays will not fit.

    Meant to run before the first N x N allocation of a dense computation;
    it compares ``checked_nn`` N x N float64 arrays with ``available_memory()``
    and checks nothing when no bound can be read.  ``remedy`` ends the message.
    """
    need = 8.0 * checked_nn(n_nodes, n_arrays) * n_nodes**2
    avail = available_memory()
    if avail is not None and need > avail:
        raise ValueError(
            f"{what} on {n_nodes} nodes needs about {n_arrays:g} N x N arrays "
            f"({need / 2**30:.2f} GiB), but only {avail / 2**30:.2f} GiB is available"
            f"{remedy}"
        )


def nystrom_start(features, landmarks: LandmarkSet,
                  kernel: Callable = base_inner) -> LowRankFactor:
    """Landmark factor of the base covariance without forming it densely.

    Its rank k is the numerical rank of the landmark block: at most the
    feature count for ``base_inner``.  The block is factored first, and
    only the k pivot columns ``kernel(features, anchors[piv])`` are formed.
    """
    features = np.asarray(features, dtype=np.float64)
    anchors = features[landmarks.indices]
    return chol_factor(kernel(anchors), lambda piv: kernel(features, anchors[piv]))


def lowrank_variant(program: KernelProgram, q0,
                    landmarks: LandmarkSet) -> LowRankFactor:
    """Run the program on a factor; a failing layer names itself.

    ``q0`` is the start factor, or a one-element list holding it, which is
    emptied and so handed over, as ``run_exact`` takes K0.  It has one row
    per node of the operator; mlp, which has no operator, takes any number
    of rows.  The rank stays
    bounded: every activation resets the basis to at most the landmark
    count (the numerical rank of the landmark block), a dense layer appends
    one bias column when sigma_b > 0, and the gcnii skip re-adds rank(Q0)
    columns per layer.
    """
    held = q0 if isinstance(q0, list) else [q0]
    del q0
    if program.a is not None and held[0].n != program.a.n_nodes:
        raise ValueError(
            f"factor size {held[0].n} does not match operator size {program.a.n_nodes}"
        )
    return _drive(program, held, lambda q, b: apply_block_lowrank(q, b, landmarks))
