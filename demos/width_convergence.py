"""Watch a finite network's empirical covariance approach the kernel.

A width-d GCN with Gaussian weights induces a distribution over outputs;
averaging outer products over channels and draws estimates the covariance
that the kernel recursion computes in closed form.  Both sides read one
KernelProgram: ``run_exact`` gives its kernel and ``McConfig(program, ...)``
samples its network, so they describe the same GCN by construction.  The
estimate tightens as width grows, which is the whole reason the closed form
is trustworthy.

Run time is about a second, mostly interpreter start-up and imports; the
width sweep itself takes a few tenths of a second on one core.
"""

import time

import numpy as np

from graphgp import (
    KernelProgram,
    McConfig,
    base_inner,
    build_adjacency,
    compare_covariance,
    normalize_sym,
    random_connected_edges,
    run_exact,
    sample_covariance,
)

N_NODES = 8
DEPTH = 2
SIGMA_B, SIGMA_W = 0.1, 1.0
WIDTHS = (32, 128, 512, 2048)
SAMPLES = 30


def main():
    rng = np.random.default_rng(5)
    edges = random_connected_edges(N_NODES, 5, rng)
    a = normalize_sym(build_adjacency(edges, N_NODES))
    x = rng.normal(size=(N_NODES, 6))

    program = KernelProgram.gcn(a, DEPTH, sigma_b=SIGMA_B, sigma_w=SIGMA_W)
    analytic = run_exact(program, base_inner(x))
    print(f"{N_NODES}-node graph, depth {DEPTH} GCN, "
          f"sigma_b={SIGMA_B}, sigma_w={SIGMA_W}")
    print(f"analytic kernel trace {np.trace(analytic):.4f}\n")

    print(f"{'width':>6}  {'rel error, 3-seed mean':>22}  {'seconds':>8}")
    for width in WIDTHS:
        t0 = time.perf_counter()
        errs = []
        for seed in range(3):
            cfg = McConfig(program, width, SAMPLES, seed=seed)
            errs.append(compare_covariance(sample_covariance(cfg, x), analytic))
        print(f"{width:>6}  {np.mean(errs):>22.5f}  "
              f"{time.perf_counter() - t0:>8.2f}")

    print("\nerror shrinks roughly like 1/sqrt(width * samples); the kernel")
    print("recursion is the width -> infinity endpoint of this table")


if __name__ == "__main__":
    main()
