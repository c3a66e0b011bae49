import math
import re
import tracemalloc

import numpy as np
import pytest

from graphgp import kernels, limits, programs
from graphgp import (
    KernelProgram,
    base_inner,
    build_adjacency,
    depth_scan,
    mlp_fixed_point,
    mlp_recursion,
    normalize_sym,
)

from conftest import (
    every_layer,
    random_features,
    random_psd,
    row_operator,
    sym_operator,
)


def inner_k0(n, d, seed):
    x = random_features(n, d, seed)
    return x @ x.T


# ---------------------------------------------------------------------------
# depth_scan preconditions


def test_scan_rejects_large_graphs(monkeypatch):
    # one byte short of the estimate, less the K0 that exists already: the
    # scan fails before its first layer, so nothing near an N x N array is
    # allocated.  K0 handed over in a list is dropped in layer 1; a K0 the
    # caller keeps adds one array
    n = 300
    prog = KernelProgram.gcn(sym_operator(n, 0, 0), 2)
    k0 = np.eye(n)
    for handed in (True, False):
        # the window and a layer's 2 arrays, K0 among them when handed over
        arrays = limits.CAUCHY_LAG + 2 - handed
        need = math.ceil(8.0 * programs.checked_nn(n, arrays) * n**2)
        monkeypatch.setattr(programs, "available_memory", lambda: need - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(
                    f"depth scan on 300 nodes needs about {arrays:g} N x N")):
                depth_scan(prog, [k0] if handed else k0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8.0 * n * n) <= 0.1
        monkeypatch.setattr(programs, "available_memory", lambda: need)
        assert depth_scan(prog, [k0] if handed else k0).layers.size == 2


def test_scan_runs_past_200_nodes():
    trace = depth_scan(KernelProgram.gcn(sym_operator(201, 30, 0), 3, sigma_b=0.1),
                       inner_k0(201, 8, 0))
    assert np.isfinite(trace.top2_singular_ratio).all()


def test_available_memory_reads_meminfo_and_cgroup(monkeypatch):
    files = {"/proc/meminfo": "MemTotal: 8000 kB\nMemAvailable:     1000 kB\n"}
    monkeypatch.setattr(programs, "_read", files.get)
    assert programs.available_memory() == 1024000
    # the headroom of the process's own cgroup: its limit less its usage,
    # where inactive file cache does not count as used
    files["/proc/self/cgroup"] = "0::/\n"
    files["/sys/fs/cgroup/memory.max"] = "600000\n"
    files["/sys/fs/cgroup/memory.current"] = "300000\n"
    assert programs.available_memory() == 300000
    files["/sys/fs/cgroup/memory.stat"] = "active_file 50000\ninactive_file 200000\n"
    assert programs.available_memory() == 500000
    files["/sys/fs/cgroup/memory.max"] = "max\n"
    assert programs.available_memory() == 1024000
    # a nested cgroup: the least headroom along its path to the root binds
    files["/proc/self/cgroup"] = "0::/user.slice/app.scope\n"
    files["/sys/fs/cgroup/user.slice/app.scope/memory.max"] = "900000\n"
    files["/sys/fs/cgroup/user.slice/app.scope/memory.current"] = "100000\n"
    assert programs.available_memory() == 800000
    files["/sys/fs/cgroup/user.slice/memory.max"] = "400000\n"
    files["/sys/fs/cgroup/user.slice/memory.current"] = "150000\n"
    assert programs.available_memory() == 250000
    # with no bound to read, nothing is checked
    files.clear()
    assert programs.available_memory() is None
    programs.require_memory(10**6, 100.0, "unbounded")


def test_scan_rejects_asymmetric_operator():
    prog = KernelProgram.gcn(row_operator(8, 4, 0), 2)
    with pytest.raises(ValueError, match="symmetric operator"):
        depth_scan(prog, np.eye(8))


def test_scan_rejects_disconnected_graph():
    a = normalize_sym(build_adjacency([(0, 1), (2, 3)], 4))
    prog = KernelProgram.gcn(a, 2)
    with pytest.raises(ValueError, match="irreducible"):
        depth_scan(prog, np.eye(4))


def test_scan_rejects_a_program_without_an_operator():
    with pytest.raises(ValueError, match="needs a graph operator, and mlp has none"):
        depth_scan(KernelProgram.mlp(2), np.eye(3))


def test_scan_rejects_zero_diagonal():
    # raw triangle: symmetric and connected but without the self-loops
    # that make the operator aperiodic
    a = build_adjacency([(0, 1), (1, 2), (0, 2)], 3)
    prog = KernelProgram.gcn(a, 2)
    with pytest.raises(ValueError, match="positive diagonal"):
        depth_scan(prog, np.eye(3))


# ---------------------------------------------------------------------------
# telemetry bookkeeping


def test_trace_sequence_matches_exact_path_bitwise():
    a = sym_operator(12, 8, 2)
    k0 = inner_k0(12, 6, 5)
    prog = KernelProgram.gcn(a, 15, sigma_b=0.3, sigma_w=1.1)
    trace = depth_scan(prog, k0)
    kernels = every_layer(prog, k0)
    assert np.array_equal(trace.layers, np.arange(1, 16))
    assert np.array_equal(trace.trace, [np.trace(k) for k in kernels])


def test_per_layer_callback_sees_every_kernel():
    a = sym_operator(10, 6, 1)
    k0 = inner_k0(10, 5, 7)
    prog = KernelProgram.gcn(a, 8, sigma_b=0.2)
    seen = {}
    depth_scan(prog, k0, per_layer=lambda l, k: seen.__setitem__(l, k.copy()))
    kernels = every_layer(prog, k0)
    assert sorted(seen) == list(range(1, 9))
    for l, k in seen.items():
        assert np.array_equal(k, kernels[l - 1])


def test_cauchy_gap_window():
    a = sym_operator(10, 6, 3)
    k0 = inner_k0(10, 5, 9)
    prog = KernelProgram.gcn(a, 14, sigma_b=0.2)
    trace = depth_scan(prog, k0)
    kernels = every_layer(prog, k0)
    assert np.isnan(trace.cauchy_gap[:10]).all()
    for i in range(10, 14):
        assert trace.cauchy_gap[i] == np.linalg.norm(kernels[i] - kernels[i - 10])


def test_correlations_stay_in_range():
    a = sym_operator(14, 9, 4)
    trace = depth_scan(KernelProgram.gcn(a, 30, sigma_b=0.1), inner_k0(14, 7, 4))
    assert np.all(trace.rho_min >= -1.0)
    assert np.all(trace.rho_min <= 1.0)


def test_rank_one_gap_only_tracked_for_plain_convolution():
    a = sym_operator(10, 6, 5)
    k0 = inner_k0(10, 5, 11)
    gin = depth_scan(KernelProgram.gin(a, 6, sigma_b=0.1), k0)
    assert np.isnan(gin.scaled_gap).all()
    assert np.isnan(gin.scale_base)
    gcnii = depth_scan(KernelProgram.gcnii(a, 12), k0)
    assert np.isfinite(gcnii.rho_min).all()
    assert np.isnan(gcnii.scaled_gap).all()


def test_scale_base_and_perron_recorded():
    a = sym_operator(12, 8, 6)
    trace = depth_scan(KernelProgram.gcn(a, 5, sigma_w=2.0), inner_k0(12, 6, 13))
    # symmetric normalization pins the Perron value at one
    assert abs(trace.perron.eigenvalue - 1.0) <= 1e-6
    assert abs(trace.scale_base - 2.0) <= 1e-6


# ---------------------------------------------------------------------------
# depth limits on the graph recursion


def test_bias_free_correlation_floor_is_monotone():
    rng = np.random.default_rng(321)
    for case in range(10):
        n = int(rng.integers(8, 25))
        a = sym_operator(n, int(rng.integers(2, n)), 1000 + case)
        k0 = inner_k0(n, 8, 2000 + case)
        prog = KernelProgram.gcn(a, 40, sigma_b=0.0, sigma_w=np.sqrt(2.0))
        trace = depth_scan(prog, k0)
        assert np.all(np.diff(trace.rho_min) >= -1e-12)


def test_bias_free_correlations_reach_one():
    a = sym_operator(12, 8, 0)
    prog = KernelProgram.gcn(a, 60, sigma_b=0.0, sigma_w=np.sqrt(2.0))
    trace = depth_scan(prog, inner_k0(12, 8, 0))
    assert trace.rho_min[-1] >= 1.0 - 1e-3


def test_small_weights_keep_trace_bounded():
    n = 30
    a = sym_operator(n, 20, 0)
    prog = KernelProgram.gcn(a, 60, sigma_b=np.sqrt(0.1), sigma_w=1.0)
    trace = depth_scan(prog, inner_k0(n, 8, 1))
    delta = trace.scale_base
    assert delta < 1.0
    bound = n * 0.1 / (1.0 - delta) + 1.0
    assert np.all(trace.trace[49:] <= bound)


def test_large_weights_drive_rank_one_growth():
    a = sym_operator(30, 20, 0)
    prog = KernelProgram.gcn(a, 60, sigma_b=0.0, sigma_w=2.0)
    trace = depth_scan(prog, inner_k0(30, 8, 100))
    assert trace.scale_base > 1.0
    assert trace.scaled_gap[-1] <= 1e-3
    assert trace.top2_singular_ratio[-1] <= 1e-3


def test_top_eigenvector_aligns_with_perron_profile():
    # denser graphs mix faster; this one aligns well below the 1e-4 mark
    a = sym_operator(50, 60, 1)
    prog = KernelProgram.gcn(a, 60, sigma_b=0.0, sigma_w=2.0)
    final = {}
    trace = depth_scan(
        prog, inner_k0(50, 8, 101),
        per_layer=lambda l, k: final.__setitem__("k", k) if l == 60 else None,
    )
    _, vecs = np.linalg.eigh(final["k"])
    cos = abs(vecs[:, -1] @ trace.perron.eigenvector)
    assert np.arccos(min(cos, 1.0)) <= 1e-4
    assert trace.scaled_gap[-1] <= 1e-4


def test_min_correlation_in_row_tiles(monkeypatch):
    # row tiles divide each entry as the whole-matrix expression does, so the
    # minimum is the same float, with no N x N temporary
    monkeypatch.setattr(kernels, "_TILE_ELEMENTS", 2**14)
    n = 1000
    k = inner_k0(n, 16, 3)
    s = np.sqrt(k.diagonal())
    ref = float(np.clip((k / np.outer(s, s)).min(), -1.0, 1.0))
    tracemalloc.start()
    try:
        got = limits._min_correlation(k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == ref
    assert peak / (8.0 * n * n) <= 0.1


# ---------------------------------------------------------------------------
# spectra and gaps of the observer


def svd_ratio(k):
    s = np.linalg.svd(k / np.abs(k).max(), compute_uv=False)
    return s[1] / s[0]


def assert_ratio_close(got, want):
    # the golden report check's tolerance
    assert np.isclose(got, want, rtol=1e-9, atol=1e-14), (got, want)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("arch", ["gcn", "gcnii"])
def test_top2_ratio_matches_svd_on_every_layer(arch):
    # 60 layers on 200 nodes; the bias-free gcn ratio falls from 0.9 to 5e-9
    a = sym_operator(200, 200, 7)
    x = random_features(200, 32, 7)
    prog = (KernelProgram.gcn(a, 60) if arch == "gcn" else KernelProgram.gcnii(a, 60))
    want = {}
    trace = depth_scan(prog, x @ x.T / 32,
                       per_layer=lambda l, k: want.__setitem__(l, svd_ratio(k)))
    for l in trace.layers:
        assert_ratio_close(trace.top2_singular_ratio[l - 1], want[l])
    if arch == "gcn":
        assert trace.top2_singular_ratio[-1] < 1e-8


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("arch", ["gcn", "gcnii"])
def test_top2_ratio_on_a_ring(arch):
    # a ring's kernels from K0 = I are circulant: ones is an eigenvector and
    # every other eigenvalue comes twice, the second largest among them
    n = 40
    a = sym_operator(n, 0, 0)
    prog = KernelProgram.gcn(a, 20, sigma_b=0.1) if arch == "gcn" else KernelProgram.gcnii(a, 20)
    for k in every_layer(prog, np.eye(n)):
        row_sums = k.sum(axis=1)
        assert np.ptp(row_sums) <= 1e-12 * row_sums.max()
        got = limits._top2_ratio(k)
        assert_ratio_close(got, svd_ratio(k))
        assert limits._top2_ratio(k) == got


def doubled_top(n, seed):
    # five nonzero eigenvalues, the largest twice: a Krylov space from any
    # one start vector holds a single copy of it and is used up in 4 steps
    q, _ = np.linalg.qr(random_features(n, n, seed))
    eigenvalues = np.zeros(n)
    eigenvalues[:5] = [3.0, 3.0, 1.0, 1.0, 0.5]
    return (q * eigenvalues) @ q.T


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_top2_ratio_finds_a_doubled_top_eigenvalue(monkeypatch):
    # the second copy of 3 comes only from the fresh directions drawn after
    # the basis turns invariant; without them the ratio would be 1/3
    drawn = []
    draw = limits._random_direction
    monkeypatch.setattr(limits, "_random_direction",
                        lambda rng, basis: drawn.append(basis.shape[0]) or draw(rng, basis))
    k = doubled_top(60, 1)
    assert_ratio_close(limits._top2_ratio(k), 1.0)
    assert drawn[0] == 0 and len(drawn) > 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [2, 3, 4, limits.LANCZOS_BASIS, limits.LANCZOS_BASIS + 1])
def test_top2_ratio_on_small_kernels(n):
    # singular values are eigenvalue magnitudes; the indefinite matrix puts a
    # negative eigenvalue second by magnitude.  Up to LANCZOS_BASIS nodes an
    # SVD gives the ratio, above it the Lanczos solve
    q, _ = np.linalg.qr(random_features(n, n, n))
    for top in ([3.0, 2.0, 1.0, 0.5], [3.0, -2.0, 1.0, 0.5]):
        eigenvalues = np.zeros(n)
        eigenvalues[:4] = top[:n]
        k = (q * eigenvalues) @ q.T
        assert_ratio_close(limits._top2_ratio(k), 2.0 / 3.0)
        assert_ratio_close(limits._top2_ratio(k), svd_ratio(k))
    assert np.isnan(limits._top2_ratio(np.zeros((n, n))))


def test_top2_ratio_is_reproducible():
    # the solve seeds its own directions, so earlier solves, those that drew
    # fresh directions included, change no bit
    k = random_psd(150, 3)
    doubled = doubled_top(60, 1)
    first = limits._top2_ratio(k)
    first_doubled = limits._top2_ratio(doubled)
    assert limits._top2_ratio(k) == first
    assert limits._top2_ratio(k.copy()) == first
    assert limits._top2_ratio(doubled) == first_doubled


def test_observer_gaps_in_row_strips(monkeypatch):
    # one strip forms exactly the whole-matrix expressions; many strips stay
    # within rounding of them, with no N x N temporary
    n = 1000
    k = inner_k0(n, 16, 5)
    old = inner_k0(n, 16, 6)
    v = random_features(n, 1, 7)[:, 0]
    v /= np.linalg.norm(v)
    kappa = k / 3.0
    c = float(v @ kappa @ v)
    want_gap = float(np.linalg.norm(kappa - c * np.outer(v, v)) / np.linalg.norm(kappa))
    want_dist = np.linalg.norm(k - old)
    monkeypatch.setattr(kernels, "_TILE_ELEMENTS", n * n)
    assert limits._rank1_gap(k, 3.0, v) == want_gap
    assert limits._frobenius_distance(k, old) == want_dist
    monkeypatch.setattr(kernels, "_TILE_ELEMENTS", 2**14)
    tracemalloc.start()
    try:
        got_gap = limits._rank1_gap(k, 3.0, v)
        got_dist = limits._frobenius_distance(k, old)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(got_gap - want_gap) <= 1e-12 * want_gap
    assert abs(got_dist - want_dist) <= 1e-12 * want_dist
    assert peak / (8.0 * n * n) <= 0.1


@pytest.mark.parametrize("arch", ["gcn", "gcnii", "gin"])
def test_scan_peak_within_its_estimate(monkeypatch, arch):
    # the observer's strips as small as at a large N; the caller holds K0
    # through the scan, on top of what the scan's pre-check counts
    monkeypatch.setattr(kernels, "_TILE_ELEMENTS", 2**14)
    n = 600
    a = sym_operator(n, 300, 2)
    prog = {"gcn": KernelProgram.gcn(a, 12), "gcnii": KernelProgram.gcnii(a, 12),
            "gin": KernelProgram.gin(a, 12, sigma_b=0.1)}[arch]
    tracemalloc.start()
    try:
        depth_scan(prog, inner_k0(n, 16, 2))
        peak = tracemalloc.get_traced_memory()[1] / (8.0 * n * n)
    finally:
        tracemalloc.stop()
    count = programs.checked_nn(n, 1 + limits.scan_arrays(prog))
    assert limits.CAUCHY_LAG + 3 <= peak <= count


# ---------------------------------------------------------------------------
# graph-free recursion


def test_mlp_recursion_single_step_hand_value():
    k1 = mlp_recursion(np.eye(2), 0.5, 1.0, 1)[0]
    want = 0.25 + np.array([[0.5, 1.0 / (2 * np.pi)], [1.0 / (2 * np.pi), 0.5]])
    assert np.abs(k1 - want).max() <= 1e-15


def test_mlp_recursion_rejects_zero_depth():
    with pytest.raises(ValueError, match="depth must be positive"):
        mlp_recursion(np.eye(2), 0.1, 1.0, 0)


def test_mlp_recursion_runs_at_threshold():
    # sigma_w^2 = 2, sigma_b = 0 makes every diagonal entry a fixed point
    kernels = mlp_recursion(0.7 * np.eye(5), 0.0, np.sqrt(2.0), 60)
    assert len(kernels) == 60
    assert np.abs(kernels[-1].diagonal() - 0.7).max() <= 1e-13


def test_mlp_recursion_rejects_negative_sigma():
    with pytest.raises(ValueError, match="sigma parameters must be nonnegative"):
        mlp_recursion(np.eye(2), -0.1, 1.0, 3)


def test_fixed_point_rejects_threshold_weight():
    with pytest.raises(ValueError, match="critical point"):
        mlp_fixed_point(0.1, np.sqrt(2.0), np.eye(3), 5)


def test_fixed_point_rejects_negative_sigma():
    with pytest.raises(ValueError, match="nonnegative"):
        mlp_fixed_point(-0.1, 1.0, np.eye(3), 5)


# peak of mlp_fixed_point in N x N float64 arrays: the observer keeps no
# kernel, so a 40-layer run peaks where a 5-layer one does
@pytest.mark.parametrize("sigma_w", [1.0, 2.0])
def test_fixed_point_memory_does_not_grow_with_depth(sigma_w):
    n = 400
    k0 = base_inner(random_features(n, 16, 0))
    peaks = {}
    for depth in (5, 40):
        tracemalloc.start()
        try:
            mlp_fixed_point(0.3, sigma_w, k0, depth)
            peaks[depth] = tracemalloc.get_traced_memory()[1] / (8.0 * n * n)
        finally:
            tracemalloc.stop()
    assert peaks[40] <= 7.5
    assert abs(peaks[40] - peaks[5]) <= 0.1


def test_subcritical_flattens_geometrically():
    res = mlp_fixed_point(np.sqrt(0.1), 1.0, random_psd(10, 3), 60)
    assert res.regime == "subcritical"
    assert abs(res.flat_level - 0.2) <= 1e-15
    assert np.all(res.gaps[25:] <= 1e-6)
    assert res.final_gap <= 1e-12
    assert abs(res.trace[-1] - 10 * 0.2) <= 1e-12
    # contraction factor sigma_w^2 / 2; only meaningful above round-off
    g = res.gaps
    live = g[:-1] > 1e-10
    assert np.all(g[1:][live] / g[:-1][live] <= 0.5 + 1e-6)


def test_supercritical_flat_start_converges_fast():
    n = 8
    res = mlp_fixed_point(np.sqrt(0.1), 2.0, 0.7 * np.ones((n, n)), 60)
    assert res.regime == "supercritical"
    assert np.abs(res.profile - np.sqrt(0.8)).max() == 0.0
    # scaled kernel (c + 0.1(1 - 2^-l)) * ones: gap halves every layer
    assert abs(res.gaps[9] - 0.1 * 2.0**-10) <= 1e-10
    assert res.final_gap <= 1e-12


def test_supercritical_rank_one_start_is_stationary():
    u = np.linspace(0.5, 1.5, 7)
    res = mlp_fixed_point(0.0, 2.0, np.outer(u, u), 60)
    assert np.array_equal(res.profile, u)
    assert res.gaps.max() <= 1e-12


def test_supercritical_identity_start_against_scalar_oracle():
    """Exchangeable start: one diagonal and one off-diagonal value suffice.

    Correlations approach one with unit derivative, so the gap decays like
    1/l^2 and is still near 1e-2 at depth 60; the oracle iterates the pair
    recursion directly.
    """
    res = mlp_fixed_point(np.sqrt(0.1), 2.0, np.eye(10), 60)
    d, o = 1.0, 0.0
    expected = np.empty(60)
    for l in range(1, 61):
        rho = min(o / d, 1.0)
        th = np.arccos(rho)
        off = d * (np.sin(th) + (np.pi - th) * rho) / (2 * np.pi)
        d, o = 0.1 + 4.0 * d / 2.0, 0.1 + 4.0 * off
        expected[l - 1] = max(abs(d / 2.0**l - 1.1), abs(o / 2.0**l - 1.1))
    assert np.abs(res.gaps - expected).max() <= 1e-12
    assert np.all(np.diff(res.gaps) < 0)
    assert 1e-3 < res.final_gap < 2e-2


def test_final_gap_property():
    res = mlp_fixed_point(0.1, 1.0, np.eye(4), 7)
    assert res.final_gap == res.gaps[-1]
