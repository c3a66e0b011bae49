"""Posterior inference for node-level regression and classification.

With training block b and prediction block *, the noisy-observation
posterior mean is

    exact     yhat = K_*b (K_bb + eps I)^{-1} y_b
    low-rank  yhat = Q_* (Q_b^T Q_b + eps I)^{-1} Q_b^T y_b

(the two coincide when K = Q Q^T), and the low-rank predictive variance is

    var = eps * diag( Q_* (Q_b^T Q_b + eps I)^{-1} Q_*^T ) = eps ||Q_* U^{-1}||^2

row by row, with U the upper Cholesky factor of Q_b^T Q_b + eps I.

Classification runs C independent regressions against one-hot targets and
takes the channel argmax (a single class is predicted everywhere).  Both
posteriors start from ``train_block``'s nugget-free system, (K_bb, y_b) or
(Q_b^T Q_b, Q_b^T y_b).  Its finiteness is checked once, there, and each
fit factors its own Fortran-ordered copy in place without checking again.
``nugget_search`` forms it once, gathers the validation rows once, fits
each candidate eps on it, scores the fit on the validation split by
Micro-F1 (classification) or R^2 (regression) with ``score_mean``, and
returns the winning fit itself, ready to predict.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from scipy.linalg import LinAlgError, lapack

from .kernels import FactorizationError, LowRankFactor

# one retry with this relative jitter before giving up on a dense solve
JITTER_REL = 1e-10


@dataclass(frozen=True, eq=False)
class SplitIndices:
    """Disjoint train / validation / test node index sets."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        for name in ("train", "val", "test"):
            idx = np.asarray(getattr(self, name), dtype=np.int64)
            if idx.ndim != 1:
                raise ValueError(f"{name} indices must be 1-d")
            if idx.size and idx.min() < 0:
                raise ValueError(f"{name} indices must be nonnegative")
            if np.unique(idx).size != idx.size:
                raise ValueError(f"{name} indices contain duplicates")
            object.__setattr__(self, name, idx)
        joined = np.concatenate([self.train, self.val, self.test])
        if np.unique(joined).size != joined.size:
            raise ValueError("train/val/test sets must be pairwise disjoint")

    def validate_for(self, n_nodes: int) -> None:
        joined = np.concatenate([self.train, self.val, self.test])
        if joined.size and joined.max() >= n_nodes:
            raise ValueError(
                f"split references node {joined.max()} but the graph has {n_nodes} nodes"
            )


def one_hot_targets(labels: np.ndarray, classes: Optional[np.ndarray] = None):
    """0/1 indicator matrix (not centered) and the class values, sorted."""
    labels = np.asarray(labels)
    if classes is None:
        classes = np.unique(labels)
    mat = (labels[:, None] == classes[None, :]).astype(np.float64)
    return mat, classes


# ---------------------------------------------------------------------------
# fitted solvers


def train_block(kernel_or_factor, train_idx: np.ndarray, y_train: np.ndarray):
    """Nugget-free training system ``(G, B)``, checked once.

    For a dense kernel G = K_bb and B = Y; for a factor G = Q_b^T Q_b and
    B = Q_b^T Y.  Y is the targets as a matrix, one row per training node.
    An inf or NaN in G or B raises ValueError here; the fits that start
    from the pair do not check again.  G is held in Fortran order, so each
    fit's copy of it is a plain memcpy that LAPACK factors in place.
    """
    train_idx = np.asarray(train_idx, dtype=np.int64)
    if train_idx.size == 0:
        raise ValueError("training set is empty")
    y = np.asarray(y_train, dtype=np.float64)
    y = y[:, None] if y.ndim == 1 else y
    if y.shape[0] != train_idx.size:
        raise ValueError(
            f"{y.shape[0]} training targets for {train_idx.size} training nodes"
        )
    if isinstance(kernel_or_factor, LowRankFactor):
        qb = kernel_or_factor.q[train_idx]
        gram, rhs = qb.T @ qb, qb.T @ y
    else:
        kernel = np.asarray(kernel_or_factor, dtype=np.float64)
        gram, rhs = kernel[np.ix_(train_idx, train_idx)], y
    return np.asfortranarray(np.asarray_chkfinite(gram)), np.asarray_chkfinite(rhs)


def _given_or_own(kernel_or_factor, train_idx, y_train, block, size: int):
    """``block``, checked to be size x size, in place of ``y_train``; or train_block's."""
    if block is None:
        return train_block(kernel_or_factor, train_idx, y_train)
    if y_train is not None:
        raise ValueError("give the training targets or a training block, not both")
    gram, rhs = block
    if gram.shape != (size, size) or rhs.shape[0] != size:
        raise ValueError(f"training block must be {size} x {size} with {size} rows")
    return gram, rhs


def _shifted(gram: np.ndarray, nugget: float) -> np.ndarray:
    """Fortran-ordered copy of ``gram`` with ``nugget`` added to its diagonal."""
    out = np.array(gram, order="F")
    np.einsum("ii->i", out)[:] += nugget  # a writable view of the diagonal
    return out


def _cholesky(a: np.ndarray, overwrite: bool) -> np.ndarray:
    """Upper Cholesky factor of ``a`` from LAPACK dpotrf, called as scipy's
    ``cho_factor`` calls it; with ``overwrite`` it is made in place.  Raises
    LinAlgError when ``a`` is not positive definite."""
    c, info = lapack.dpotrf(a, lower=0, overwrite_a=overwrite, clean=0)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    return c


def _cho_shifted(gram: np.ndarray, nugget: float) -> np.ndarray:
    """Upper Cholesky factor of gram + nugget I, made in place on its own copy."""
    return _cholesky(_shifted(gram, nugget), overwrite=True)


class ExactPosterior:
    """Factorized training block of a dense kernel, ready to predict.

    ``block``, ``train_block(kernel, train_idx, y_train)`` formed beforehand,
    replaces ``y_train``; it is copied, never changed, and not checked again.
    """

    def __init__(self, kernel: np.ndarray, train_idx: np.ndarray,
                 y_train: Optional[np.ndarray], nugget: float, block=None):
        if nugget < 0:
            raise ValueError("nugget must be nonnegative")
        kernel = np.asarray(kernel, dtype=np.float64)
        train_idx = np.asarray(train_idx, dtype=np.int64)
        gram, y = _given_or_own(kernel, train_idx, y_train, block, train_idx.size)
        try:
            factor = _cho_shifted(gram, nugget)
        except LinAlgError:
            # the failed factorization overwrote its copy: start again from gram
            kbb = _shifted(gram, nugget)
            jitter = JITTER_REL * np.trace(kbb) / kbb.shape[0]
            np.einsum("ii->i", kbb)[:] += jitter
            try:
                factor = _cholesky(kbb, overwrite=False)
            except LinAlgError as err:
                cond = np.linalg.cond(kbb)
                raise FactorizationError(
                    f"training block is not positive definite even after jitter "
                    f"{jitter:.3e} (condition estimate {cond:.3e})"
                ) from err
        self.kernel = kernel
        self.train_idx = train_idx
        self.nugget = float(nugget)
        self._coef = lapack.dpotrs(factor, y, lower=0)[0]

    def _rows(self, idx: np.ndarray) -> np.ndarray:
        """K[idx, train], which ``mean`` multiplies the coefficients by."""
        return self.kernel[np.ix_(np.asarray(idx, dtype=np.int64), self.train_idx)]

    def mean(self, idx: np.ndarray) -> np.ndarray:
        return self._rows(idx) @ self._coef


class LowRankPosterior:
    """Factorized r x r training Gram of a low-rank kernel factor.

    ``block``, ``train_block(factor, train_idx, y_train)`` formed beforehand,
    replaces ``y_train``; it is copied, never changed, and not checked again.
    """

    def __init__(self, factor: LowRankFactor, train_idx: np.ndarray,
                 y_train: Optional[np.ndarray], nugget: float, block=None):
        if nugget <= 0:
            raise ValueError("low-rank posterior needs a positive nugget")
        gram, qty = _given_or_own(factor, train_idx, y_train, block, factor.rank)
        self.factor = factor
        self.nugget = float(nugget)
        self._cho = _cho_shifted(gram, nugget)
        self._coef = lapack.dpotrs(self._cho, qty, lower=0)[0]

    def _rows(self, idx: np.ndarray) -> np.ndarray:
        """Q[idx], which ``mean`` multiplies the coefficients by."""
        return self.factor.q[np.asarray(idx, dtype=np.int64)]

    def mean(self, idx: np.ndarray) -> np.ndarray:
        return self._rows(idx) @ self._coef

    def variance(self, idx: np.ndarray) -> np.ndarray:
        """Predictive variance diag, eps ||q U^{-1}||^2 for each row q of
        Q[idx], with U^T U = Q_b^T Q_b + eps I.

        U^{-1} comes from LAPACK dtrtri on the r x r factor, and one product
        gives every row, so the result is a sum of squares and never
        negative.  As in ``mean``, the rows of ``idx`` are not checked for
        finiteness.
        """
        inv, _ = lapack.dtrtri(self._cho, lower=0)
        w = self._rows(idx) @ np.triu(inv)
        return self.nugget * np.einsum("ij,ij->i", w, w)


def fit_posterior(kernel_or_factor, train_idx: np.ndarray,
                  y_train: Optional[np.ndarray], nugget: float, block=None):
    """ExactPosterior of a dense kernel or LowRankPosterior of a factor."""
    lowrank = isinstance(kernel_or_factor, LowRankFactor)
    posterior = LowRankPosterior if lowrank else ExactPosterior
    return posterior(kernel_or_factor, train_idx, y_train, nugget, block=block)


def classify_onehot(mean: np.ndarray) -> np.ndarray:
    """Channel argmax; ties resolve to the lowest index."""
    mean = np.asarray(mean)
    if mean.ndim != 2 or mean.shape[1] < 2:
        raise ValueError("need a score matrix with at least two channels")
    return np.argmax(mean, axis=1)


def micro_f1(pred: np.ndarray, truth: np.ndarray) -> float:
    """Single-label micro-averaged F1, which reduces to plain accuracy."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.size == 0:
        raise ValueError("predictions and truth must be nonempty and aligned")
    return float(np.mean(pred == truth))


def r2(pred: np.ndarray, truth: np.ndarray) -> float:
    """Coefficient of determination about the truth mean; nan if truth is constant."""
    pred = np.asarray(pred, dtype=np.float64).ravel()
    truth = np.asarray(truth, dtype=np.float64).ravel()
    if pred.shape != truth.shape or pred.size == 0:
        raise ValueError("predictions and truth must be nonempty and aligned")
    ss_tot = np.sum((truth - truth.mean()) ** 2)
    if ss_tot == 0.0:
        return float("nan")
    return float(1.0 - np.sum((truth - pred) ** 2) / ss_tot)


def default_nugget_grid(lo: float = 1e-3, hi: float = 10.0, count: int = 13) -> np.ndarray:
    """Log-spaced nugget candidates, endpoints included."""
    if lo <= 0 or hi <= lo or count < 1:
        raise ValueError("need 0 < lo < hi and at least one point")
    return np.logspace(np.log10(lo), np.log10(hi), count)


def training_targets(targets: np.ndarray, train_idx: np.ndarray, task: str):
    """Targets of the training nodes as a matrix, and the class values.

    Classification gives one-hot rows over the classes found in ``targets``
    (all nodes) and those classes; regression gives the values and None.
    """
    targets = np.asarray(targets)
    if task == "classification":
        return one_hot_targets(targets[train_idx], np.unique(targets))
    return targets[train_idx].astype(np.float64), None


def score_mean(mean: np.ndarray, truth: np.ndarray, classes: Optional[np.ndarray]):
    """Predictions from a posterior mean and their score.

    With ``classes`` the prediction is the channel argmax, scored by
    Micro-F1; a single class is predicted everywhere.  Without, it is the
    first channel, scored by R^2.
    """
    if classes is None:
        pred = mean[:, 0]
        return pred, r2(pred, truth)
    if mean.shape[1] > 1:
        pred = classes[classify_onehot(mean)]
    else:
        pred = np.full(mean.shape[0], classes[0])
    return pred, micro_f1(pred, truth)


def nugget_search(kernel_or_factor, split: SplitIndices, targets: np.ndarray,
                  grid: Optional[np.ndarray] = None, task: str = "classification"):
    """Validation grid search for the nugget; ties go to the smaller value.

    ``targets`` covers all nodes; the search fits on the train split and
    scores each fit's ``mean`` on the validation split, from rows gathered
    once, by Micro-F1 or R^2.  Returns the winning fit (its nugget is
    ``fit.nugget``) and the (nugget, validation score) trace.  Under a
    RuntimeWarning, a constant regression validation target (R^2 undefined)
    fits only the smallest candidate, and a search with no finite score (a
    NaN in a validation row, say) returns its first fit, at that candidate.
    """
    if task not in ("classification", "regression"):
        raise ValueError(f"unknown task {task!r}")
    if split.val.size == 0:
        raise ValueError("nugget selection needs a nonempty validation split")
    grid = default_nugget_grid() if grid is None else np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise ValueError("empty nugget grid")
    grid = np.sort(grid)
    targets = np.asarray(targets)
    truth_val = targets[split.val]
    y_train, classes = training_targets(targets, split.train, task)
    block = train_block(kernel_or_factor, split.train, y_train)

    def fit_at(eps):
        return fit_posterior(kernel_or_factor, split.train, None, float(eps), block=block)

    if task == "regression" and np.all(truth_val == truth_val[0]):
        warnings.warn(
            "validation target is constant, R^2 is undefined; "
            "falling back to the smallest nugget",
            RuntimeWarning,
        )
        return fit_at(grid[0]), [(float(grid[0]), float("nan"))]

    best_score, rows = -np.inf, None
    trace: List[tuple] = []
    for eps in grid:
        fit = fit_at(eps)
        if rows is None:  # the first fit is the fallback; its rows serve every fit
            best, rows = fit, fit._rows(split.val)
        _, score = score_mean(rows @ fit._coef, truth_val, classes)
        trace.append((float(eps), float(score)))
        if score > best_score:  # strict: equal scores keep the smaller eps
            best, best_score = fit, score
    if best_score == -np.inf:
        warnings.warn("no validation score is finite; falling back to the smallest nugget",
                      RuntimeWarning)
    return best, trace
