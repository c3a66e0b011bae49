"""Three fates of a deep GCN kernel, decided by sigma_w against the graph.

The scan tracks the minimum correlation, the trace, and the distance to a
rank-1 profile while the layer count climbs.
"""

import numpy as np

from graphgp import KernelProgram, build_adjacency, depth_scan, normalize_sym, random_connected_edges

PROBE_LAYERS = (1, 2, 5, 10, 20, 40, 60)


def scan(a, k0, sigma_b, sigma_w, label, column):
    program = KernelProgram.gcn(a, 60, sigma_b=sigma_b, sigma_w=sigma_w)
    trace = depth_scan(program, k0)
    values = {
        "rho_min": trace.rho_min,
        "trace": trace.trace,
        "scaled_gap": trace.scaled_gap,
    }[column]
    print(f"\n{label}  (sigma_b^2={sigma_b**2:.2f}, sigma_w^2={sigma_w**2:.2f}), "
          f"watching {column}")
    for l in PROBE_LAYERS:
        print(f"  layer {l:>2}  {values[l - 1]:.6g}")
    return trace


def main():
    rng = np.random.default_rng(12)
    n = 24
    edges = random_connected_edges(n, 30, rng)
    a = normalize_sym(build_adjacency(edges, n))
    x = rng.normal(size=(n, 10))
    k0 = x @ x.T

    print(f"{n}-node graph, spectral radius 1 after sym normalization")

    # no bias: every pair of nodes ends up perfectly correlated
    scan(a, k0, 0.0, np.sqrt(2.0), "bias-free", "rho_min")

    # weak weights: bias keeps the trace pinned near a finite level
    t = scan(a, k0, np.sqrt(0.1), 1.0, "contracting", "trace")
    print(f"  stationary level for comparison: "
          f"{n * 0.1 / (1.0 - t.scale_base):.6g}")

    # strong weights: growth, but only along one profile
    t = scan(a, k0, 0.0, 2.0, "growing", "scaled_gap")
    print(f"  per-layer growth factor {t.scale_base:.3f}; after rescaling by")
    print("  it, the kernel collapses onto a single rank-1 direction")


if __name__ == "__main__":
    main()
