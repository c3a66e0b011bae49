import warnings

import numpy as np
import pytest
from scipy.linalg import lapack

from graphgp import (
    ExactPosterior,
    FactorizationError,
    LowRankFactor,
    LowRankPosterior,
    SplitIndices,
    classify_onehot,
    default_nugget_grid,
    micro_f1,
    nugget_search,
    one_hot_targets,
    r2,
)
from graphgp import inference
from graphgp.inference import fit_posterior, score_mean, train_block, training_targets


def test_split_indices_validation():
    with pytest.raises(ValueError, match="duplicates"):
        SplitIndices(np.array([0, 0]), np.array([1]), np.array([2]))
    with pytest.raises(ValueError, match="disjoint"):
        SplitIndices(np.array([0]), np.array([0]), np.array([1]))
    with pytest.raises(ValueError, match="nonnegative"):
        SplitIndices(np.array([-1]), np.array([1]), np.array([2]))
    s = SplitIndices(np.array([0]), np.array([1]), np.array([2]))
    with pytest.raises(ValueError, match="graph has 2 nodes"):
        s.validate_for(2)
    s.validate_for(3)


def test_one_hot_is_unit_indicators():
    mat, classes = one_hot_targets(np.array([2, 0, 2, 1]))
    assert np.array_equal(classes, [0, 1, 2])
    assert np.array_equal(
        mat,
        [[0, 0, 1], [1, 0, 0], [0, 0, 1], [0, 1, 0]],
    )
    assert set(np.unique(mat)) == {0.0, 1.0}  # indicators, never centered


def test_rank_one_posterior_hand_value():
    # Q = [1, 1]^T, train node 0 with y = 2, eps = 1:
    # G = 1 + 1 = 2, coef = 2 / 2 = 1, prediction at node 1 = 1
    q = LowRankFactor(np.ones((2, 1)))
    fit = LowRankPosterior(q, np.array([0]), np.array([2.0]), nugget=1.0)
    assert abs(fit.mean(np.array([1]))[0, 0] - 1.0) <= 1e-14

    # the dense route through K = Q Q^T agrees
    dense = ExactPosterior(q.gram(), np.array([0]), np.array([2.0]), nugget=1.0)
    assert abs(dense.mean(np.array([1]))[0, 0] - 1.0) <= 1e-14


def test_all_ones_kernel_hand_value():
    # K = ones(3), train {0, 1} with y = 3, eps = 1:
    # (K_bb + I) = [[2, 1], [1, 2]], inverse maps [3, 3] to [1, 1],
    # prediction at node 2 = [1, 1] . [1, 1] = 2
    k = np.ones((3, 3))
    fit = ExactPosterior(k, np.array([0, 1]), np.array([3.0, 3.0]), nugget=1.0)
    got = fit.mean(np.array([2]))[0, 0]
    assert abs(got - 2.0) <= 1e-12


def test_lowrank_matches_dense_woodbury():
    rng = np.random.default_rng(0)
    n, r = 30, 6
    q = LowRankFactor(rng.normal(size=(n, r)))
    k = q.gram()
    train = np.arange(12)
    rest = np.arange(12, n)
    y = rng.normal(size=(12, 2))
    for eps in (1e-3, 1.0, 10.0):
        dense = ExactPosterior(k, train, y, eps).mean(rest)
        low = LowRankPosterior(q, train, y, eps).mean(rest)
        scale = np.abs(dense).max()
        assert np.abs(dense - low).max() / scale <= 1e-8, eps


def test_lowrank_variance_matches_dense_woodbury():
    # eps * diag(Q_* G^{-1} Q_*^T) must equal the dense predictive variance
    # diag(K_** - K_*b (K_bb + eps I)^{-1} K_b*) evaluated on K = Q Q^T
    rng = np.random.default_rng(1)
    n, r = 25, 5
    q = LowRankFactor(rng.normal(size=(n, r)))
    k = q.gram()
    train = np.arange(10)
    rest = np.arange(10, n)
    for eps in (1e-3, 1.0, 10.0):
        kbb = k[np.ix_(train, train)] + eps * np.eye(train.size)
        ksb = k[np.ix_(rest, train)]
        dense = np.diag(k[np.ix_(rest, rest)] - ksb @ np.linalg.solve(kbb, ksb.T))
        got = LowRankPosterior(
            q, train, np.zeros(train.size), eps
        ).variance(rest)
        assert np.abs(dense - got).max() <= 1e-8 * max(1.0, np.abs(dense).max()), eps


def test_lowrank_variance_matches_the_dpotrs_form():
    # eps ||q U^{-1}||^2 through dtrtri against eps q^T (U^T U)^{-1} q through
    # dpotrs on r x n_test, at a wide and a narrow factor and three nuggets
    rng = np.random.default_rng(6)
    for n, r in ((400, 40), (60, 3)):
        q = LowRankFactor(rng.normal(size=(n, r)))
        train, rest = np.arange(n // 2), np.arange(n // 2, n)
        for eps in (1e-6, 0.1, 10.0):
            fit = LowRankPosterior(q, train, np.zeros(train.size), eps)
            qs = q.q[rest]
            solved = lapack.dpotrs(fit._cho, qs.T, lower=0)[0]
            ref = eps * np.einsum("ij,ji->i", qs, solved)
            got = fit.variance(rest)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), (n, r, eps)


def test_variance_clamped_nonnegative():
    q = LowRankFactor(np.random.default_rng(2).normal(size=(10, 3)))
    var = LowRankPosterior(q, np.arange(5), np.zeros(5), nugget=1e-12).variance(
        np.arange(6, 10)
    )
    assert np.all(var >= 0.0)


def test_exact_and_lowrank_posterior_means_agree():
    rng = np.random.default_rng(3)
    q = LowRankFactor(rng.normal(size=(8, 3)))
    split = SplitIndices(np.arange(4), np.array([4, 5]), np.array([6, 7]))
    y = rng.normal(size=4)
    exact = ExactPosterior(q.gram(), split.train, y, 0.5)
    low = LowRankPosterior(q, split.train, y, 0.5)
    assert exact.mean(split.test).shape == (2, 1)
    assert np.abs(exact.mean(split.test) - low.mean(split.test)).max() <= 1e-10
    assert exact.nugget == 0.5
    assert exact.mean(split.val).shape == (2, 1)


def test_exact_posterior_jitter_recovers_singular_block():
    # rank-deficient PSD block with zero nugget: first factorization fails,
    # the jittered retry succeeds
    v = np.array([1.0, 1.0, 2.0])
    k = np.outer(v, v)
    fit = ExactPosterior(k, np.array([0, 1]), np.array([1.0, 1.0]), nugget=0.0)
    assert np.isfinite(fit.mean(np.array([2]))).all()


def test_shared_training_block_is_copied_not_changed():
    # the jitter retry fires on this singular block; the block passed in keeps
    # its values, and the fit equals one that forms the block itself
    v = np.array([1.0, 1.0, 2.0])
    k = np.outer(v, v)
    train = np.array([0, 1])
    block = train_block(k, train, np.array([1.0, 1.0]))
    before = [part.copy() for part in block]
    shared = ExactPosterior(k, train, None, nugget=0.0, block=block)
    own = ExactPosterior(k, train, np.array([1.0, 1.0]), nugget=0.0)
    assert all(np.array_equal(a, b) for a, b in zip(block, before))
    assert np.array_equal(shared.mean(np.array([2])), own.mean(np.array([2])))
    q = LowRankFactor(np.random.default_rng(0).normal(size=(6, 2)))
    train = np.array([0, 2, 3])
    block = train_block(q, train, np.ones(3))
    before = [part.copy() for part in block]
    shared = LowRankPosterior(q, train, None, 0.5, block=block)
    own = LowRankPosterior(q, train, np.ones(3), 0.5)
    assert all(np.array_equal(a, b) for a, b in zip(block, before))
    assert np.array_equal(shared.mean(np.arange(6)), own.mean(np.arange(6)))


def test_exact_posterior_indefinite_block_raises():
    k = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    with pytest.raises(FactorizationError, match="not positive definite"):
        ExactPosterior(k, np.array([0, 1]), np.array([0.0, 0.0]), nugget=0.0)


def test_lowrank_posterior_needs_positive_nugget():
    q = LowRankFactor(np.ones((3, 1)))
    with pytest.raises(ValueError, match="positive nugget"):
        LowRankPosterior(q, np.array([0]), np.array([1.0]), nugget=0.0)


def test_target_count_mismatch():
    with pytest.raises(ValueError, match="2 training targets for 3"):
        ExactPosterior(np.eye(4), np.arange(3), np.zeros(2), nugget=1.0)


def test_classify_onehot_ties_take_lowest_index():
    mean = np.array([[0.5, 0.5, 0.1], [0.2, 0.7, 0.7]])
    assert np.array_equal(classify_onehot(mean), [0, 1])
    with pytest.raises(ValueError, match="two channels"):
        classify_onehot(np.ones((3, 1)))


def test_micro_f1_is_accuracy():
    pred = np.array([0, 1, 1, 2])
    truth = np.array([0, 1, 2, 2])
    assert micro_f1(pred, truth) == 0.75
    with pytest.raises(ValueError):
        micro_f1(np.array([]), np.array([]))


def test_r2_reference_points():
    truth = np.array([1.0, 2.0, 3.0])
    assert r2(truth, truth) == 1.0
    assert abs(r2(np.full(3, truth.mean()), truth)) <= 1e-15
    assert np.isnan(r2(np.zeros(2), np.ones(2)))  # constant truth


def test_default_nugget_grid_shape():
    grid = default_nugget_grid()
    assert grid.size == 13
    assert abs(grid[0] - 1e-3) <= 1e-18
    assert abs(grid[-1] - 10.0) <= 1e-12
    with pytest.raises(ValueError):
        default_nugget_grid(lo=0.0)


def test_nugget_search_ties_prefer_smaller():
    # a flat classification score across the grid keeps the smallest eps
    rng = np.random.default_rng(4)
    q = LowRankFactor(rng.normal(size=(12, 4)))
    split = SplitIndices(np.arange(6), np.array([6, 7, 8]), np.array([9, 10, 11]))
    targets = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1])
    fit, trace = nugget_search(q, split, targets, grid=np.array([1.0, 0.1, 10.0]))
    eps = fit.nugget
    scores = [s for _, s in trace]
    if len(set(scores)) == 1:
        assert eps == 0.1  # grid is sorted before the scan
    assert trace[0][0] == 0.1
    assert nugget_search(q, split, targets, grid=np.array([10.0, 1.0, 0.1]))[0].nugget == eps


@pytest.mark.parametrize("lowrank", [False, True])
def test_nugget_search_single_class_takes_smallest_nugget(lowrank):
    # one class: every candidate predicts it everywhere, so all scores tie
    rng = np.random.default_rng(7)
    q = rng.normal(size=(10, 4))
    rep = LowRankFactor(q) if lowrank else q @ q.T
    split = SplitIndices(np.arange(5), np.array([5, 6, 7]), np.array([8, 9]))
    fit, trace = nugget_search(rep, split, np.ones(10, dtype=np.int64))
    grid = default_nugget_grid()
    assert fit.nugget == grid[0]
    assert [e for e, _ in trace] == list(grid)
    assert all(s == 1.0 for _, s in trace)


def test_nugget_search_regression_constant_validation_warns():
    rng = np.random.default_rng(5)
    k = rng.normal(size=(8, 8))
    k = k @ k.T
    split = SplitIndices(np.arange(4), np.array([4, 5]), np.array([6, 7]))
    targets = np.array([0.3, -0.1, 0.5, 0.2, 1.0, 1.0, 0.0, 0.4])
    with pytest.warns(RuntimeWarning, match="constant"):
        fit, trace = nugget_search(k, split, targets, task="regression")
    assert fit.nugget == default_nugget_grid()[0]
    assert np.isnan(trace[0][1])


def test_nugget_search_validation_errors():
    q = LowRankFactor(np.ones((4, 1)))
    no_val = SplitIndices(np.arange(2), np.array([], dtype=np.int64), np.array([2, 3]))
    with pytest.raises(ValueError, match="validation"):
        nugget_search(q, no_val, np.zeros(4, dtype=np.int64))
    split = SplitIndices(np.array([0, 1]), np.array([2]), np.array([3]))
    with pytest.raises(ValueError, match="unknown task"):
        nugget_search(q, split, np.zeros(4, dtype=np.int64), task="ranking")
    with pytest.raises(ValueError, match="empty nugget grid"):
        nugget_search(q, split, np.zeros(4, dtype=np.int64), grid=np.array([]))


def test_nugget_search_picks_regression_optimum():
    # smooth kernel, noisy targets: the search lands on a grid point whose
    # validation score is the max of the trace
    rng = np.random.default_rng(6)
    x = rng.normal(size=(40, 3))
    k = np.exp(-0.5 * ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1))
    f = np.sin(x[:, 0]) + 0.1 * rng.normal(size=40)
    split = SplitIndices(np.arange(20), np.arange(20, 30), np.arange(30, 40))
    fit, trace = nugget_search(k, split, f, task="regression")
    best = max(s for _, s in trace)
    chosen = [s for e, s in trace if e == fit.nugget][0]
    assert chosen == best


def test_train_block_checks_the_training_system():
    with pytest.raises(ValueError, match="training set is empty"):
        train_block(np.eye(3), np.array([], dtype=np.int64), np.zeros(0))
    q = LowRankFactor(np.ones((4, 2)))
    with pytest.raises(ValueError, match="1 training targets for 2"):
        train_block(q, np.array([0, 1]), np.zeros(1))
    gram, qty = train_block(q, np.array([0, 3]), np.array([1.0, 2.0]))
    assert np.array_equal(gram, 2.0 * np.ones((2, 2)))
    assert np.array_equal(qty, [[3.0], [3.0]])


def test_given_training_block_is_the_only_source_of_targets():
    k = 2.0 * np.eye(4)
    train = np.array([0, 2])
    block = train_block(k, train, np.array([1.0, 3.0]))
    with pytest.raises(ValueError, match="not both"):
        ExactPosterior(k, train, np.array([1.0, 3.0]), 0.5, block=block)
    with pytest.raises(ValueError, match="must be 3 x 3"):
        ExactPosterior(k, np.array([0, 1, 2]), None, 0.5, block=block)
    q = LowRankFactor(np.ones((4, 2)))
    gram, qty = train_block(q, train, np.array([1.0, 3.0]))
    with pytest.raises(ValueError, match="not both"):
        LowRankPosterior(q, train, np.array([1.0, 3.0]), 0.5, block=(gram, qty))
    with pytest.raises(ValueError, match="must be 2 x 2"):
        LowRankPosterior(q, train, None, 0.5, block=(gram[:1, :1], qty[:1]))


@pytest.mark.parametrize("lowrank", [False, True])
@pytest.mark.parametrize("task", ["classification", "regression", "constant"])
def test_nugget_search_returns_the_winning_fit(task, lowrank):
    # the returned fit predicts exactly as a fresh fit at its nugget would
    rng = np.random.default_rng(8)
    q = rng.normal(size=(30, 5))
    rep = LowRankFactor(q) if lowrank else q @ q.T
    split = SplitIndices(np.arange(14), np.arange(14, 22), np.arange(22, 30))
    if task == "classification":
        targets = (q[:, 0] > 0).astype(np.int64)
        y, _ = one_hot_targets(targets[split.train], np.unique(targets))
    else:
        targets = q[:, 1] + 0.1 * rng.normal(size=30)
        if task == "constant":
            targets[split.val] = 0.5
        y = targets[split.train]
    search = "regression" if task == "constant" else task
    if task == "constant":
        with pytest.warns(RuntimeWarning, match="constant"):
            fit, trace = nugget_search(rep, split, targets, task=search)
        assert [e for e, _ in trace] == [default_nugget_grid()[0]]
        assert np.isnan(trace[0][1])
    else:
        fit, trace = nugget_search(rep, split, targets, task=search)
    assert fit.nugget in [e for e, _ in trace]
    posterior = LowRankPosterior if lowrank else ExactPosterior
    assert type(fit) is posterior
    fresh = posterior(rep, split.train, y, fit.nugget)
    everyone = np.arange(30)
    assert np.array_equal(fit.mean(everyone), fresh.mean(everyone))
    if lowrank:
        assert np.array_equal(fit.variance(everyone), fresh.variance(everyone))


# ---------------------------------------------------------------------------
# finiteness is checked once, in train_block; fits factor their own copies


def _nan_problem(lowrank, task, row):
    """30-node problem with a NaN in the kernel (or factor) row of ``row``."""
    rng = np.random.default_rng(8)
    q = rng.normal(size=(30, 5))
    split = SplitIndices(np.arange(14), np.arange(14, 22), np.arange(22, 30))
    if task == "classification":
        targets = (q[:, 0] > 0).astype(np.int64)
    else:
        targets = q[:, 1] + 0.1 * rng.normal(size=30)
    if lowrank:
        q[row, 2] = np.nan
        return LowRankFactor(q), split, targets
    k = q @ q.T
    k[row, 4] = k[4, row] = np.nan
    return k, split, targets


def _raised_in_train_block(excinfo):
    return any(entry.name == "train_block" for entry in excinfo.traceback)


@pytest.mark.parametrize("lowrank", [False, True])
@pytest.mark.parametrize("task", ["classification", "regression"])
def test_nan_in_the_training_system_raises_in_train_block(lowrank, task):
    rep, split, targets = _nan_problem(lowrank, task, row=3)
    with pytest.raises(ValueError, match="infs or NaNs") as excinfo:
        nugget_search(rep, split, targets, task=task)
    assert _raised_in_train_block(excinfo)
    y, _ = training_targets(targets, split.train, task)
    with pytest.raises(ValueError, match="infs or NaNs") as excinfo:
        fit_posterior(rep, split.train, y, 0.1)
    assert _raised_in_train_block(excinfo)
    rep, split, targets = _nan_problem(lowrank, "regression", row=25)
    targets[split.train[5]] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs") as excinfo:
        nugget_search(rep, split, targets, task="regression")
    assert _raised_in_train_block(excinfo)


@pytest.mark.parametrize("lowrank", [False, True])
@pytest.mark.parametrize("task", ["classification", "regression"])
@pytest.mark.parametrize("row", [15, 25])  # a validation node, a test node
def test_nan_outside_the_training_block_scores_as_fresh_fits(lowrank, task, row):
    # the search scores each point as a fresh fit's mean on the validation
    # split would, NaN rows included
    rep, split, targets = _nan_problem(lowrank, task, row)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit, trace = nugget_search(rep, split, targets, task=task)
    y, classes = training_targets(targets, split.train, task)
    best, best_score = None, -np.inf
    for eps, score in trace:
        fresh = fit_posterior(rep, split.train, y, eps)
        _, fresh_score = score_mean(fresh.mean(split.val), targets[split.val], classes)
        assert np.array_equal(score, fresh_score, equal_nan=True)
        if fresh_score > best_score:
            best, best_score = fresh, fresh_score
    assert [e for e, _ in trace] == list(default_nugget_grid())
    if best is None:  # no finite score: the smallest nugget, under a warning
        best = fit_posterior(rep, split.train, y, trace[0][0])
        assert [str(w.message) for w in caught] == [
            "no validation score is finite; falling back to the smallest nugget"]
    else:
        assert caught == []
    everyone = np.arange(30)
    assert fit.nugget == best.nugget
    assert np.array_equal(fit.mean(everyone), best.mean(everyone), equal_nan=True)


@pytest.mark.parametrize("lowrank", [False, True])
@pytest.mark.parametrize("grid", [None, [0.1]], ids=["searched", "one-point"])
def test_search_without_a_finite_score_keeps_its_first_fit(monkeypatch, lowrank, grid):
    # a NaN in a validation row makes every R^2 NaN: the search warns and
    # returns the fit it made at the smallest nugget, one fit per grid point
    made = []

    def counted(*args, _fit=inference.fit_posterior, **kwargs):
        made.append(_fit(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(inference, "fit_posterior", counted)
    rep, split, targets = _nan_problem(lowrank, "regression", row=15)
    with pytest.warns(RuntimeWarning, match="no validation score is finite"):
        fit, trace = nugget_search(rep, split, targets, grid, task="regression")
    points = list(default_nugget_grid() if grid is None else grid)
    assert [e for e, _ in trace] == points
    assert np.all(np.isnan([s for _, s in trace]))
    assert len(made) == len(points)
    assert fit is made[0]
    assert fit.nugget == points[0]


@pytest.mark.parametrize("lowrank", [False, True])
def test_search_leaves_its_training_block_unchanged(monkeypatch, lowrank):
    # rank 3 over 14 training nodes: at nugget 0 the dense factorization
    # fails in place and the jitter retry must start again from the block
    made = []

    def recording(*args):
        block = train_block(*args)
        made.append((block, [part.copy() for part in block]))
        return block

    monkeypatch.setattr(inference, "train_block", recording)
    rng = np.random.default_rng(2)
    q = rng.normal(size=(30, 3))
    split = SplitIndices(np.arange(14), np.arange(14, 22), np.arange(22, 30))
    targets = (q[:, 0] > 0).astype(np.int64)
    rep = LowRankFactor(q) if lowrank else q @ q.T
    grid = np.array([1e-3, 0.1]) if lowrank else np.array([0.0, 1e-3, 0.1])
    if not lowrank:
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(rep[np.ix_(split.train, split.train)])
    fit, trace = nugget_search(rep, split, targets, grid=grid)
    (block, before), = made
    assert all(np.array_equal(a, b) for a, b in zip(block, before))
    assert [e for e, _ in trace] == list(grid)
    y, _ = training_targets(targets, split.train, "classification")
    fresh = fit_posterior(rep, split.train, y, fit.nugget)
    assert np.array_equal(fit.mean(np.arange(30)), fresh.mean(np.arange(30)))
