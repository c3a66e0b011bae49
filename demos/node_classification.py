"""Semi-supervised node classification from start to finish.

Builds a synthetic labeled graph, computes a depth-2 GCN kernel, selects
the nugget on the validation split, and reads off test accuracy from the
exact posterior.  The same pipeline then runs through the low-rank path
with a fifth of the nodes as landmarks to show how little accuracy that
costs.

The CLI wraps exactly this flow; see `graphgp infer --help`.
"""

import numpy as np

from graphgp import (
    KernelProgram,
    LandmarkSet,
    LowRankPosterior,
    base_inner,
    classify_onehot,
    lowrank_variant,
    micro_f1,
    normalize_sym,
    nugget_search,
    nystrom_start,
    one_hot_targets,
    run_exact,
    synthetic_dataset,
)


def main():
    ds = synthetic_dataset(300, avg_degree=5.0, n_features=24, n_classes=2,
                           seed=1)
    split = ds.splits
    print(f"dataset: {ds.n_nodes} nodes, {ds.graph.n_edges // 2} edges, "
          f"{len(np.unique(ds.targets))} classes")
    print(f"splits: {split.train.size} train / {split.val.size} val / "
          f"{split.test.size} test\n")

    program = KernelProgram.gcn(normalize_sym(ds.graph), 2, sigma_w=1.0)
    kernel = run_exact(program, base_inner(ds.features))

    # the search returns its winning fit, ready to predict
    fit, trace = nugget_search(kernel, split, ds.targets)
    eps = fit.nugget
    print("nugget search on the validation split:")
    for candidate, score in trace[::3]:
        marker = " <-" if candidate == eps else ""
        print(f"  eps={candidate:9.4f}  val micro-F1 {score:.3f}{marker}")
    print(f"selected eps={eps:.4f}\n")

    y_train, classes = one_hot_targets(ds.targets[split.train])

    def f1(post, idx):
        return micro_f1(classes[classify_onehot(post.mean(idx))],
                        ds.targets[idx])

    print(f"exact path:   train {f1(fit, split.train):.3f}  "
          f"val {f1(fit, split.val):.3f}  test {f1(fit, split.test):.3f}")

    marks = LandmarkSet.draw(np.arange(ds.n_nodes), 60, seed=0)
    factor = lowrank_variant(program, nystrom_start(ds.features, marks), marks)
    lr = LowRankPosterior(factor, split.train, y_train, eps)
    print(f"60 landmarks: train {f1(lr, split.train):.3f}  "
          f"val {f1(lr, split.val):.3f}  test {f1(lr, split.test):.3f}")
    band = np.sqrt(lr.variance(split.test))
    print(f"predictive sd on test nodes: median {np.median(band):.3f}, "
          f"max {band.max():.3f}")


if __name__ == "__main__":
    main()
