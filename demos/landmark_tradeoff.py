"""Landmark count against reconstruction error and build time.

The low-rank path never materializes the N x N kernel; it pushes a factor
through the same layer program.  More landmarks buy accuracy at the price
of a wider factor.  With landmarks = all nodes the reconstruction is exact
up to roundoff, which the last table row shows.
"""

import time

import numpy as np

from graphgp import (
    KernelProgram,
    LandmarkSet,
    base_inner,
    lowrank_variant,
    normalize_sym,
    nystrom_start,
    run_exact,
    synthetic_dataset,
)

N_NODES = 600
DEPTH = 2


def main():
    ds = synthetic_dataset(N_NODES, avg_degree=6.0, n_features=32, seed=3)
    a = normalize_sym(ds.graph)
    program = KernelProgram.gcn(a, DEPTH, sigma_b=0.1, sigma_w=1.0)

    t0 = time.perf_counter()
    exact = run_exact(program, base_inner(ds.features))
    exact_s = time.perf_counter() - t0
    scale = np.linalg.norm(exact)
    print(f"{N_NODES} nodes, depth {DEPTH} GCN; exact build {exact_s:.3f}s\n")

    print(f"{'landmarks':>9}  {'rel Frobenius error':>20}  {'build s':>8}")
    for m in (25, 50, 100, 200, 400, N_NODES):
        marks = (LandmarkSet.all_nodes(N_NODES) if m == N_NODES
                 else LandmarkSet.draw(np.arange(N_NODES), m, seed=m))
        t0 = time.perf_counter()
        q0 = nystrom_start(ds.features, marks)
        q = lowrank_variant(program, q0, marks)
        built = time.perf_counter() - t0
        err = np.linalg.norm(q.q @ q.q.T - exact) / scale
        print(f"{marks.count:>9}  {err:>20.3e}  {built:>8.3f}")

    print("\nthe factor width stays near the landmark count through every")
    print("layer, so build cost grows with N * landmarks^2, not N^3")


if __name__ == "__main__":
    main()
