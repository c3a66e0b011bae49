"""End-to-end runs behind the command-line interface.

Each runner consumes a RunConfig, does the work, and returns a Report;
writing the report to disk is the caller's choice.  Runs are reproducible:
identical config and seed give identical predictions, metrics and sampled
quantities (timings, of course, vary).
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .adjacency import normalize_row, normalize_sym
from .datasets import (
    Dataset,
    load_dataset,
    load_features,
    make_splits,
    pca_reduce,
    save_splits,
    synthetic_dataset,
)
from .finite_width import McConfig, compare_covariance, draw_arrays, sample_covariance
from .inference import (
    default_nugget_grid,
    nugget_search,
    score_mean,
    training_targets,
)
from .kernels import LandmarkSet, base_inner, base_poly, base_rbf
from .limits import depth_scan, mlp_fixed_point, scan_arrays
from .programs import (
    ARCHITECTURES,
    KernelProgram,
    check_sigmas,
    lowrank_variant,
    nystrom_start,
    peak_arrays,
    require_memory,
    run_exact,
)
from .reports import Report

ARCH_CHOICES = ("gcn", "gcnii", "gin", "sage", "ggp", "mlp", "rbf")
PATH_CHOICES = ("exact", "lowrank")
ROW_NORMALIZED = ("sage", "ggp")
GAMMA_GRID = tuple(np.logspace(-2, 2, 9))
# N x N float64 arrays an exact-path rbf infer holds at its peak: the gamma
# search builds each candidate's kernel beside the best fit's, which no
# layer recipe shows.  Traced at N = 1000, with tile buffers of 2^12 entries,
# it peaked at 2.63, its arrays of O(N) entries included.
RBF_PEAK_NN = 2.6


@dataclass
class RunConfig:
    """Everything a run needs; unset values fall back to task defaults."""

    dataset: Optional[str] = None
    arch: str = "gcn"
    path: str = "exact"
    layers: int = 2
    sigma_b: Optional[float] = None
    sigma_w: float = 1.0
    sigma_w1: float = 0.0
    sigma_w2: float = 1.0
    alpha: float = 0.1
    decay: float = 0.5
    base: str = "inner"
    gamma: Optional[float] = None
    poly_c: float = 5.0
    poly_d: float = 3.0
    landmarks: Optional[int] = None
    seed: int = 0
    nugget: Optional[float] = None
    nugget_grid: tuple = (1e-3, 10.0, 13)
    pca: Optional[int] = None
    center: bool = False
    out: Optional[str] = None
    width: int = 1024
    samples: int = 50
    sizes: tuple = (1000, 2000, 4000, 8000)
    repeats: int = 3
    degree: float = 4.0
    ratios: tuple = (0.48, 0.32, 0.20)

    def validate(self) -> None:
        if self.arch not in ARCH_CHOICES:
            raise ValueError(f"arch must be one of {ARCH_CHOICES}, got {self.arch!r}")
        if self.path not in PATH_CHOICES:
            raise ValueError(f"path must be one of {PATH_CHOICES}, got {self.path!r}")
        if self.layers < 1:
            raise ValueError("layers must be positive")
        # rbf builds no program that would check them, and ggp's has unit sigmas
        check_sigmas(self)
        if self.landmarks is not None and self.landmarks < 1:
            raise ValueError("landmarks must be positive")
        if self.nugget is not None and not 0 < self.nugget < math.inf:
            raise ValueError(f"nugget must be positive and finite, got {self.nugget}")
        lo, hi, count = self.nugget_grid
        if not (0 < lo < hi < math.inf and int(count) >= 1):
            raise ValueError(
                "nugget-grid must be LO,HI,POINTS with 0 < LO < HI and POINTS >= 1, "
                f"LO and HI finite; got {lo:g},{hi:g},{count}"
            )


class _Phases:
    """Named wall-clock accumulators for the timing table."""

    def __init__(self):
        self.seconds: dict = {}

    @contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + (
                time.perf_counter() - start
            )


def _default_sigma_b(cfg: RunConfig, task: str) -> float:
    if cfg.sigma_b is not None:
        return cfg.sigma_b
    return 0.0 if task == "classification" else float(np.sqrt(0.1))


def _operator_for(arch: str, ds: Dataset):
    """The graph operator of an architecture; None for rbf and mlp."""
    if arch in ("rbf", "mlp"):
        return None
    if arch in ROW_NORMALIZED:
        return normalize_row(ds.graph)
    return normalize_sym(ds.graph)


def _search_grid(cfg: RunConfig) -> np.ndarray:
    """``[cfg.nugget]`` when ``--nugget`` fixes it, a one-point search; else the grid."""
    if cfg.nugget is not None:
        return np.asarray([cfg.nugget])
    lo, hi, count = cfg.nugget_grid
    return default_nugget_grid(lo, hi, int(count))


def _base_kind(cfg: RunConfig) -> str:
    """The base covariance a run starts from: rbf and ggp fix their own."""
    return {"rbf": "rbf", "ggp": "poly"}.get(cfg.arch, cfg.base)


def _base_callable(cfg: RunConfig, gamma: Optional[float]):
    kind = _base_kind(cfg)
    if kind == "inner":
        return base_inner
    if kind == "rbf":
        return partial(base_rbf, gamma=gamma if gamma is not None else 1.0)
    if kind == "poly":
        return partial(base_poly, c=cfg.poly_c, d=cfg.poly_d)
    raise ValueError(f"unknown base kernel {cfg.base!r}")


def _program_for(cfg: RunConfig, a, sigma_b: float) -> KernelProgram:
    """The run's layered program, built from (and so validating) every
    hyperparameter of ``cfg``.  The one place a run rejects ggp and rbf:
    rbf has no program, and ggp's (one GraphConv) only ``infer`` builds."""
    if cfg.arch not in ARCHITECTURES:
        raise ValueError(
            f"this command runs the layered architectures {', '.join(ARCHITECTURES)}, "
            f"not {cfg.arch!r}"
        )
    return KernelProgram(
        cfg.arch, a, cfg.layers, sigma_b=sigma_b, sigma_w=cfg.sigma_w, alpha=cfg.alpha,
        decay=cfg.decay, sigma_w1=cfg.sigma_w1, sigma_w2=cfg.sigma_w2,
    )


def _pick_landmarks(cfg: RunConfig, train_idx: np.ndarray, n_nodes: int) -> LandmarkSet:
    """Default: the training indices.  With ``--landmarks``, a seeded uniform
    draw over all nodes (features carry no labels, so landmark choice is
    transductive); ``LandmarkSet.draw`` rejects more than the node count."""
    if cfg.landmarks is None:
        return LandmarkSet(np.sort(np.asarray(train_idx, dtype=np.int64)))
    return LandmarkSet.draw(np.arange(n_nodes, dtype=np.int64), cfg.landmarks, cfg.seed)


def _preprocess(cfg: RunConfig, ds: Dataset, landmark_count: Optional[int]) -> np.ndarray:
    feats = ds.features
    if cfg.pca is not None:
        if landmark_count is not None and cfg.pca >= landmark_count:
            raise ValueError(
                f"pca dimension {cfg.pca} must stay below the landmark count "
                f"{landmark_count} on the low-rank path"
            )
        feats = pca_reduce(feats, cfg.pca, center=cfg.center)
    elif cfg.center:
        feats = feats - feats.mean(axis=0, keepdims=True)
    return feats


def _build_representation(cfg: RunConfig, program: Optional[KernelProgram], feats,
                          landmarks: Optional[LandmarkSet], gamma: Optional[float]):
    """The run's kernel: dense array (exact) or LowRankFactor (lowrank).

    Both start from the base covariance: rbf, which has no ``program``,
    returns it, and every other architecture runs ``program`` on it.  K0
    or the start factor is handed to ``run_exact`` or ``lowrank_variant``
    in a list, so that it can be released once read."""
    base_fn = _base_callable(cfg, gamma)
    if cfg.path == "exact":
        rep = base_fn(feats)
    else:
        rep = nystrom_start(feats, landmarks, base_fn)
    if program is None:
        return rep
    held = [rep]
    del rep
    if cfg.path == "lowrank":
        return lowrank_variant(program, held, landmarks)
    return run_exact(program, held)


def _predict_and_score(fit, ds: Dataset, names: tuple, phases: _Phases):
    """Predict the named splits from a fit and score them.

    Returns, per split name, the predictions and the metric (Micro-F1 or
    R^2).  A dataset with a single class predicts it everywhere.
    """
    _, classes = training_targets(ds.targets, ds.splits.train, ds.task)
    with phases.phase("predict"):
        means = {name: fit.mean(getattr(ds.splits, name)) for name in names}

    predictions, metrics = {}, {}
    for name, mean in means.items():
        truth = ds.targets[getattr(ds.splits, name)]
        predictions[name], metrics[name] = score_mean(mean, truth, classes)
    return predictions, metrics


def _report_hyperparameters(report: Report, cfg: RunConfig, sigma_b: float) -> None:
    """The sigma lines, then the architecture's own hyperparameters."""
    report.set("sigma_b", float(sigma_b))
    report.set("sigma_w", float(cfg.sigma_w))
    if cfg.arch == "gcnii":
        report.set("alpha", float(cfg.alpha))
        report.set("decay", float(cfg.decay))
    if cfg.arch == "sage":
        report.set("sigma_w1", float(cfg.sigma_w1))
        report.set("sigma_w2", float(cfg.sigma_w2))
    if cfg.arch == "ggp":
        report.set("poly_c", float(cfg.poly_c))
        report.set("poly_d", float(cfg.poly_d))


def run_infer(cfg: RunConfig) -> Report:
    """Posterior inference on a dataset directory; the flagship run."""
    cfg.validate()
    if cfg.dataset is None:
        raise ValueError("infer needs --dataset")
    ds = load_dataset(cfg.dataset)
    task = ds.task
    sigma_b = _default_sigma_b(cfg, task)
    phases = _Phases()

    landmarks = None
    if cfg.path == "lowrank":
        landmarks = _pick_landmarks(cfg, ds.splits.train, ds.n_nodes)
    feats = _preprocess(cfg, ds, landmarks.count if landmarks else None)
    a = _operator_for(cfg.arch, ds)
    program = _program_for(cfg, a, sigma_b) if cfg.arch in ARCHITECTURES else None
    if cfg.arch == "ggp":  # one GraphConv, then Weight(1, 0), which passes it on
        program = KernelProgram.gcn(a, 1)
    if cfg.path == "exact":
        # fail before K0, the first N x N array, is made; the count includes it
        require_memory(ds.n_nodes, RBF_PEAK_NN if program is None else peak_arrays(program),
                       "infer --path exact", "; --path lowrank needs no N x N array")

    # hyperparameter candidates: the rbf baseline grid-searches gamma
    if cfg.arch == "rbf" and cfg.gamma is None:
        gamma_candidates = GAMMA_GRID
    else:
        gamma_candidates = (cfg.gamma,)

    best = None
    search_rows = []
    for gamma in gamma_candidates:
        with phases.phase("kernel_build"):
            rep = _build_representation(cfg, program, feats, landmarks, gamma)
        with phases.phase("nugget_search"):
            fit, trace = nugget_search(rep, ds.splits, ds.targets, _search_grid(cfg), task)
        for eps_i, score_i in trace:
            search_rows.append((gamma, eps_i, score_i))
        score = max(s for _, s in trace)
        if best is None or score > best[2]:
            best = (fit, gamma, score)
        del rep, fit  # the next build runs beside the best fit's kernel alone
    fit, gamma, _ = best

    predictions, metrics = _predict_and_score(fit, ds, ("train", "val", "test"), phases)
    with phases.phase("predict"):
        variance = fit.variance(ds.splits.test) if cfg.path == "lowrank" else None

    report = Report("infer")
    report.set("dataset", ds.name)
    report.set("n_nodes", ds.n_nodes)
    report.set("n_edges_undirected", ds.graph.n_edges // 2)
    report.set("task", task)
    report.set("arch", cfg.arch)
    report.set("path", cfg.path)
    report.set("layers", cfg.layers)
    _report_hyperparameters(report, cfg, sigma_b)
    if cfg.arch == "rbf":
        report.set("gamma", float(gamma if gamma is not None else 1.0))
    report.set("base", _base_kind(cfg))
    report.set("pca", cfg.pca if cfg.pca is not None else "none")
    report.set("center", cfg.center)
    report.set("seed", cfg.seed)
    if landmarks is not None:
        report.set("landmarks", landmarks.count)
    report.set("nugget", fit.nugget)
    report.set("nugget_selected_by", "fixed" if cfg.nugget is not None else "search")
    metric_name = "micro_f1" if task == "classification" else "r2"
    report.set("metric", metric_name)
    for name in ("train", "val", "test"):
        report.set(f"{metric_name}_{name}", float(metrics[name]))

    t = report.table("timing", ("phase", "seconds"))
    for name in ("kernel_build", "nugget_search", "predict"):
        t.add(name, phases.seconds.get(name, 0.0))

    if len(gamma_candidates) > 1:
        t = report.table("hyper_search", ("gamma", "nugget", "val_score"))
        for row in search_rows:
            t.add(float(row[0]), row[1], row[2])
    elif cfg.nugget is None:
        t = report.table("nugget_search", ("nugget", "val_score"))
        for row in search_rows:
            t.add(row[1], row[2])

    header = ["node", "truth", "prediction"]
    if variance is not None:
        header.append("variance")
    t = report.table("predictions", header)
    test_idx = ds.splits.test
    for i, node in enumerate(test_idx):
        row = [int(node), ds.targets[node], predictions["test"][i]]
        if variance is not None:
            row.append(float(variance[i]))
        t.add(*row)
    return report


def run_depth_scan(cfg: RunConfig) -> Report:
    """Layer-by-layer limit diagnostics, with per-depth validation metrics."""
    cfg.validate()
    if cfg.dataset is None:
        raise ValueError("depth-scan needs --dataset")
    ds = load_dataset(cfg.dataset)
    task = ds.task
    sigma_b = _default_sigma_b(cfg, task)
    feats = _preprocess(cfg, ds, None)
    program = _program_for(cfg, _operator_for(cfg.arch, ds), sigma_b)
    # fail before K0, the first N x N array, is made; the count includes it
    require_memory(ds.n_nodes, scan_arrays(program), "depth scan")
    # handed over in a list, so that a graph scan drops K0 in its first layer
    k0 = [_base_callable(cfg, cfg.gamma)(feats)]
    grid = _search_grid(cfg)

    report = Report("depth-scan")
    report.set("dataset", ds.name)
    report.set("n_nodes", ds.n_nodes)
    report.set("task", task)
    report.set("arch", cfg.arch)
    report.set("layers", cfg.layers)
    _report_hyperparameters(report, cfg, sigma_b)

    if cfg.arch == "mlp":
        result = mlp_fixed_point(program.sigma_b, program.sigma_w, k0.pop(), program.depth)
        report.set("regime", result.regime)
        if result.regime == "subcritical":
            report.set("flat_level", float(result.flat_level))
        t = report.table("mlp_trace", ("layer", "limit_gap", "trace", "rho_min"))
        for i in range(result.layers.size):
            t.add(int(result.layers[i]), float(result.gaps[i]),
                  float(result.trace[i]), float(result.rho_min[i]))
        return report

    per_depth_metrics = {}

    def measure(layer: int, kernel: np.ndarray) -> None:
        fit, _ = nugget_search(kernel, ds.splits, ds.targets, grid, task)
        _, metrics = _predict_and_score(fit, ds, ("test",), _Phases())
        per_depth_metrics[layer] = metrics["test"]

    trace = depth_scan(program, k0, per_layer=measure)
    report.set("perron_eigenvalue", float(trace.perron.eigenvalue))
    if np.isfinite(trace.scale_base):
        report.set("scale_base", float(trace.scale_base))
    metric_name = "micro_f1" if task == "classification" else "r2"
    t = report.table(
        "depth_trace",
        ("layer", "rho_min", "trace", "top2_singular_ratio", "scaled_gap",
         "cauchy_gap", f"test_{metric_name}"),
    )
    for i in range(trace.layers.size):
        t.add(int(trace.layers[i]), float(trace.rho_min[i]), float(trace.trace[i]),
              float(trace.top2_singular_ratio[i]), float(trace.scaled_gap[i]),
              float(trace.cauchy_gap[i]), float(per_depth_metrics[int(trace.layers[i])]))
    return report


def run_mc_verify(cfg: RunConfig) -> Report:
    """Finite-width sampling against the analytic kernel."""
    cfg.validate()
    if cfg.dataset is None:
        raise ValueError("mc-verify needs --dataset")
    if cfg.base != "inner":
        raise ValueError("the finite-width surrogate feeds raw features; base must be inner")
    ds = load_dataset(cfg.dataset)
    sigma_b = _default_sigma_b(cfg, ds.task)
    program = _program_for(cfg, _operator_for(cfg.arch, ds), sigma_b)
    # fail before K0, the first N x N array, is made: the sampling plan's checks,
    # then the memory count, the analytic kernel beside the sampler's arrays
    mc = McConfig(program, cfg.width, cfg.samples, cfg.seed)
    require_memory(ds.n_nodes, 1 + draw_arrays(program, *ds.features.shape, cfg.width),
                   "mc-verify")
    analytic = run_exact(program, [base_inner(ds.features)])
    empirical = sample_covariance(mc, ds.features)
    err = compare_covariance(empirical, analytic)

    report = Report("mc-verify")
    report.set("dataset", ds.name)
    report.set("arch", cfg.arch)
    report.set("layers", cfg.layers)
    report.set("width", cfg.width)
    report.set("samples", cfg.samples)
    report.set("seed", cfg.seed)
    _report_hyperparameters(report, cfg, sigma_b)
    report.set("rel_frobenius_error", float(err))
    return report


def run_benchmark(cfg: RunConfig) -> Report:
    """Low-rank kernel-build time against graph size; median of repeats,
    which interleave the sizes."""
    cfg.validate()
    if len(set(cfg.sizes)) < 2:
        raise ValueError(
            f"benchmark needs at least two distinct sizes to fit a slope, got {cfg.sizes}"
        )
    if cfg.repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {cfg.repeats}")
    n_landmarks = cfg.landmarks if cfg.landmarks is not None else 128
    cases = []
    for n in cfg.sizes:
        ds = synthetic_dataset(
            int(n), avg_degree=cfg.degree, n_features=32, n_classes=2, seed=cfg.seed
        )
        landmarks = LandmarkSet.draw(
            ds.splits.train, min(n_landmarks, ds.splits.train.size), cfg.seed
        )
        program = _program_for(cfg, _operator_for(cfg.arch, ds), _default_sigma_b(cfg, ds.task))
        cases.append((int(n), ds, landmarks, program))

    def build(ds, landmarks, program):
        q0 = nystrom_start(ds.features, landmarks, base_inner)
        lowrank_variant(program, q0, landmarks)

    # One untimed build at the largest size first.  A process's first large
    # builds pay one-off costs (heap growth, library buffers); untouched, they
    # land on the size timed first and bias the slope low.
    build(*max(cases, key=lambda c: c[0])[1:])
    # Each repeat times every size once, so a slow phase of the host spreads
    # over all sizes instead of bending the slope.
    times = [[] for _ in cases]
    for _ in range(cfg.repeats):
        for (_, ds, landmarks, program), case_times in zip(cases, times):
            start = time.perf_counter()
            build(ds, landmarks, program)
            case_times.append(time.perf_counter() - start)
    rows = [(n, ds.graph.n_edges // 2 + n, float(np.median(t)), t)
            for (n, ds, _, _), t in zip(cases, times)]

    sizes = np.array([r[1] for r in rows], dtype=np.float64)  # m + n
    medians = np.array([r[2] for r in rows])
    slope = float(np.polyfit(np.log(sizes), np.log(medians), 1)[0])

    report = Report("benchmark")
    report.set("arch", cfg.arch)
    report.set("layers", cfg.layers)
    report.set("landmarks", n_landmarks)
    report.set("repeats", cfg.repeats)
    report.set("seed", cfg.seed)
    report.set("loglog_slope", slope)
    t = report.table("scaling", ("n_nodes", "m_plus_n", "median_build_seconds", "all_seconds"))
    for n, mn, med, times in rows:
        t.add(n, mn, med, "|".join(format(x, ".6g") for x in times))
    return report


def run_make_splits(cfg: RunConfig) -> Report:
    """Generate splits.json for a dataset directory that lacks one."""
    cfg.validate()
    if cfg.dataset is None:
        raise ValueError("make-splits needs --dataset")
    n = load_features(cfg.dataset).shape[0]
    target = os.path.join(cfg.dataset, "splits.json")
    if os.path.exists(target):
        raise FileExistsError(
            f"{target} already exists; delete it first to regenerate"
        )
    splits = make_splits(n, cfg.ratios, cfg.seed)
    save_splits(splits, target)

    report = Report("make-splits")
    report.set("dataset", cfg.dataset)
    report.set("n_nodes", n)
    report.set("seed", cfg.seed)
    report.set("ratios", ",".join(format(r, "g") for r in cfg.ratios))
    report.set("n_train", int(splits.train.size))
    report.set("n_val", int(splits.val.size))
    report.set("n_test", int(splits.test.size))
    return report
