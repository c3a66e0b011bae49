"""End-to-end acceptance checks, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible under ``pytest -s``)
and asserts both the numeric target and its runtime budget.  Criterion 7
needs an exported citation-network directory and skips, with instructions,
when it is absent.
"""

import os
import time

import numpy as np
import pytest

from graphgp import (
    KernelProgram,
    LandmarkSet,
    LowRankFactor,
    LowRankPosterior,
    McConfig,
    RunConfig,
    base_inner,
    build_adjacency,
    compare_covariance,
    correlation_map,
    depth_scan,
    lowrank_variant,
    mlp_fixed_point,
    normalize_row,
    normalize_sym,
    nystrom_start,
    random_connected_edges,
    relu_expectation,
    run_exact,
    sample_covariance,
)
from graphgp.runners import run_benchmark, run_infer

from conftest import random_features, random_psd, sym_operator


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


def test_criterion_1_width_convergence():
    t0 = time.perf_counter()
    a = sym_operator(8, 5, 0)
    x = random_features(8, 6, 1)
    program = KernelProgram.gcn(a, 2, sigma_b=0.1, sigma_w=1.0)
    analytic = run_exact(program, base_inner(x))

    def err(width, samples, seed):
        cfg = McConfig(program, width, samples, seed=seed)
        return compare_covariance(sample_covariance(cfg, x), analytic)

    headline = err(4096, 200, 0)
    means = [
        np.mean([err(w, 20, seed) for seed in range(5)])
        for w in (64, 256, 1024, 4096)
    ]
    decreasing = all(b < a for a, b in zip(means, means[1:]))
    elapsed = time.perf_counter() - t0
    ok = headline <= 0.05 and decreasing and elapsed < 120.0
    report(
        1,
        ok,
        f"rel err {headline:.4f} at width 4096, sweep means "
        f"{[round(float(m), 4) for m in means]}, {elapsed:.0f}s",
    )


def test_criterion_2_all_landmark_coherence():
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(202)
    for case in range(10):
        n = int(rng.integers(10, 31))
        edges = random_connected_edges(n, int(rng.integers(2, n)), rng)
        raw = build_adjacency(edges, n)
        x = rng.normal(size=(n, n + 8))
        k0 = base_inner(x)
        marks = LandmarkSet.all_nodes(n)
        programs = (
            KernelProgram.gcn(normalize_sym(raw), 3, sigma_b=0.3, sigma_w=1.1),
            KernelProgram.gcnii(normalize_sym(raw), 3),
            KernelProgram.gin(normalize_sym(raw), 3, sigma_b=0.2),
            KernelProgram.sage(normalize_row(raw), 3, sigma_w1=0.6),
        )
        for prog in programs:
            exact = run_exact(prog, k0)
            q0 = nystrom_start(x, marks)
            q = lowrank_variant(prog, q0, marks)
            rel = np.linalg.norm(q.q @ q.q.T - exact) / np.linalg.norm(exact)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    report(2, ok, f"worst relative error {worst:.3e} over 10x4 instances, {elapsed:.1f}s")


def test_criterion_3_factored_posterior_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(515)
    worst = 0.0
    for _ in range(3):
        q = rng.normal(size=(30, 6))
        khat = q @ q.T
        order = rng.permutation(30)
        train, test = np.sort(order[:18]), np.sort(order[18:])
        y = rng.normal(size=(18, 2))
        for eps in (1e-3, 1.0, 10.0):
            post = LowRankPosterior(LowRankFactor(q), train, y, eps)
            kbb = khat[np.ix_(train, train)] + eps * np.eye(18)
            ksb = khat[np.ix_(test, train)]
            mean = ksb @ np.linalg.solve(kbb, y)
            var = np.diag(
                khat[np.ix_(test, test)] - ksb @ np.linalg.solve(kbb, ksb.T)
            )
            worst = max(worst, np.abs(post.mean(test) - mean).max())
            worst = max(worst, np.abs(post.variance(test) - var).max())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    report(3, ok, f"max mean/variance deviation {worst:.3e}, {elapsed:.1f}s")


def test_criterion_4_kernel_positive_definiteness():
    # the operator must be nonsingular for the depth-3 kernel to stay
    # visibly positive: a null vector of A orthogonal to the bias column
    # zeroes a direction exactly, so near-singular draws are resampled
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240822)
    worst = np.inf
    done = 0
    while done < 20:
        n = int(rng.integers(8, 27))
        edges = random_connected_edges(n, int(rng.integers(n // 2, n + 1)), rng)
        a = normalize_sym(build_adjacency(edges, n))
        if np.abs(np.linalg.eigvalsh(a.toarray())).min() < 0.03:
            continue
        x = rng.normal(size=(n, n + 5))
        norms = np.linalg.norm(x, axis=1)
        off = ~np.eye(n, dtype=bool)
        assert np.all((np.outer(norms, norms) - np.abs(x @ x.T))[off] > 1e-8)
        k = run_exact(KernelProgram.gcn(a, 3, sigma_b=0.1, sigma_w=1.0), base_inner(x))
        worst = min(worst, np.linalg.eigvalsh(k)[0] / (np.trace(k) / n))
        done += 1
    elapsed = time.perf_counter() - t0
    ok = worst > 1e-10 and elapsed < 30.0
    report(4, ok, f"worst min-eig / (trace/N) = {worst:.3e} over 20 graphs, {elapsed:.1f}s")


def test_criterion_5_depth_limit_regimes():
    t0 = time.perf_counter()

    def k0(n, seed):
        x = random_features(n, 8, seed)
        return x @ x.T

    monotone, floors = True, []
    for n, extra, seed in ((12, 8, 0), (30, 20, 1), (50, 35, 2)):
        prog = KernelProgram.gcn(sym_operator(n, extra, seed), 60,
                                 sigma_b=0.0, sigma_w=np.sqrt(2.0))
        trace = depth_scan(prog, k0(n, seed))
        monotone &= bool(np.all(np.diff(trace.rho_min) >= -1e-12))
        floors.append(trace.rho_min[-1])
    part_a = monotone and min(floors) >= 1.0 - 1e-3

    bounded = True
    for n, extra, seed in ((30, 20, 0), (50, 35, 2)):
        prog = KernelProgram.gcn(sym_operator(n, extra, seed), 60,
                                 sigma_b=np.sqrt(0.1), sigma_w=1.0)
        trace = depth_scan(prog, k0(n, seed + 10))
        bound = n * 0.1 / (1.0 - trace.scale_base) + 1.0
        bounded &= bool(np.all(trace.trace[49:] <= bound))

    prog = KernelProgram.gcn(sym_operator(50, 60, 1), 60, sigma_b=0.0, sigma_w=2.0)
    gap = depth_scan(prog, k0(50, 101)).scaled_gap[-1]
    part_c = gap <= 1e-3

    elapsed = time.perf_counter() - t0
    ok = part_a and bounded and part_c and elapsed < 60.0
    report(
        5,
        ok,
        f"rho_min floor {min(floors):.6f} (monotone {monotone}), "
        f"trace bounded {bounded}, rank-one gap {gap:.3e}, {elapsed:.1f}s",
    )


def test_criterion_6_graph_free_fixed_points():
    t0 = time.perf_counter()
    sub = mlp_fixed_point(np.sqrt(0.1), 1.0, random_psd(10, 3), 60)
    flat = np.abs(sub.flat_level - 0.2) <= 1e-15 and sub.final_gap <= 1e-6

    grow_a = mlp_fixed_point(np.sqrt(0.1), 2.0, 0.7 * np.ones((8, 8)), 60)
    u = np.linspace(0.5, 1.5, 7)
    grow_b = mlp_fixed_point(0.0, 2.0, np.outer(u, u), 60)
    super_ok = grow_a.final_gap <= 1e-4 and grow_b.final_gap <= 1e-4
    profile_ok = (
        np.abs(grow_a.profile - np.sqrt(0.8)).max() == 0.0
        and np.array_equal(grow_b.profile, u)
    )

    elapsed = time.perf_counter() - t0
    ok = flat and super_ok and profile_ok and elapsed < 10.0
    report(
        6,
        ok,
        f"flat gap {sub.final_gap:.2e}, growth gaps {grow_a.final_gap:.2e} / "
        f"{grow_b.final_gap:.2e}, {elapsed:.1f}s",
    )


def cora_directory():
    root = os.environ.get("GRAPHGP_DATA", "data")
    path = os.path.join(root, "cora")
    return path if os.path.isdir(path) else None


def test_criterion_7_cora_reproduction():
    directory = cora_directory()
    if directory is None:
        print("[SKIP] criterion 7: no exported citation dataset found")
        pytest.skip(
            "place an exported directory at data/cora (or set GRAPHGP_DATA); "
            "see scripts/export_planetoid.py for the converter"
        )
    t0 = time.perf_counter()
    gp = run_infer(RunConfig(dataset=directory, arch="gcn", path="exact", layers=2))
    gcn_f1 = gp.scalars["micro_f1_test"]
    rb = run_infer(RunConfig(dataset=directory, arch="rbf", path="exact"))
    rbf_f1 = rb.scalars["micro_f1_test"]
    elapsed = time.perf_counter() - t0
    ok = abs(gcn_f1 - 0.828) <= 0.01 and abs(rbf_f1 - 0.586) <= 0.02 and elapsed < 300.0
    report(7, ok, f"micro-F1 {gcn_f1:.4f} (graph kernel) vs {rbf_f1:.4f} (rbf), {elapsed:.0f}s")


def test_criterion_8_build_time_scaling():
    t0 = time.perf_counter()
    rep = run_benchmark(
        RunConfig(dataset=None, arch="gcn", sizes=(1000, 2000, 4000, 8000),
                  landmarks=128, repeats=3, seed=0)
    )
    slope = rep.scalars["loglog_slope"]
    elapsed = time.perf_counter() - t0
    ok = 0.7 <= slope <= 1.3 and elapsed < 300.0
    report(8, ok, f"log-log build-time slope {slope:.3f}, {elapsed:.1f}s")


def test_criterion_9_activation_map_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(1000):
        r = rng.uniform(-1.0, 1.0, size=2)
        f = correlation_map(r)
        ok &= bool(abs(f[0] - f[1]) <= abs(r[0] - r[1]) + 1e-12)
        ok &= bool(np.all(f >= r - 1e-12))
        m = rng.normal(size=(5, 5))
        k = m @ m.T
        g = relu_expectation(k)
        ok &= bool(np.array_equal(g.diagonal(), 0.5 * k.diagonal()))
        ok &= bool(np.all(g >= k / 2.0 - 1e-10))
        ok &= bool(np.linalg.eigvalsh(g)[0] > -1e-10)
        a = rng.normal(size=(5, 5))
        lhs = np.trace(a @ g @ a.T)
        ok &= bool(lhs <= 0.5 * np.linalg.norm(a, 2) ** 2 * np.trace(k) + 1e-10)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(9, ok, f"contraction, ordering, halving, dominance, trace bound "
                  f"on 1000 cases, {elapsed:.1f}s")
