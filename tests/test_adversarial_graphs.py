"""Permutation equivariance on adversarial graphs.

One seeded family of small graphs holds, in each graph, two components,
isolated nodes, zero feature rows (dead nodes, one of them isolated),
duplicate feature rows, and fewer features than landmarks; a variant has a
single class.  The five layered architectures run on both paths, with
ragged row tiles, so that the tiled ReLU and its mirror run too.
"""

import math

import numpy as np
import pytest

from graphgp import (
    Dataset,
    KernelProgram,
    LandmarkSet,
    SplitIndices,
    base_inner,
    build_adjacency,
    lowrank_variant,
    normalize_row,
    normalize_sym,
    nystrom_start,
    run_exact,
    save_dataset,
)
from graphgp import kernels
from graphgp.cli import main

ARCHS = ("gcn", "gcnii", "gin", "sage", "mlp")
PATHS = ("exact", "lowrank")
SEEDS = (0, 1, 2)
N, D0 = 40, 3  # 20 training nodes, the default landmarks, against 3 features


@pytest.fixture(autouse=True)
def ragged_tiles(monkeypatch):
    # 3-row ReLU tiles over 40 columns: 13 full tiles and a ragged last one
    monkeypatch.setattr(kernels, "_TILE_ELEMENTS", 2**7)


def adversarial_dataset(seed, n_classes=3):
    """Two components on nodes 0-19 and 20-33, rings with random chords;
    nodes 34-39 isolated.  Nodes 5, 25 and 36 have zero features; 10, 30
    and 37 repeat the features of 3, 21 and 35."""
    rng = np.random.default_rng(seed)
    edges = [(i, (i + 1) % 20) for i in range(20)]
    edges += [(20 + i, 20 + (i + 1) % 14) for i in range(14)]
    edges += [rng.choice(20, 2, replace=False) for _ in range(5)]
    edges += [20 + rng.choice(14, 2, replace=False) for _ in range(3)]
    x = rng.normal(size=(N, D0))
    x[[5, 25, 36]] = 0.0
    x[[10, 30, 37]] = x[[3, 21, 35]]
    order = rng.permutation(N)
    splits = SplitIndices(np.sort(order[:20]), np.sort(order[20:30]), np.sort(order[30:]))
    return Dataset(f"adversarial{seed}", build_adjacency(np.array(edges), N), x,
                   rng.integers(0, n_classes, size=N), splits)


def relabel(ds, perm):
    """The same dataset with new node i the old node perm[i]."""
    inv = np.argsort(perm)
    coo = ds.graph.to_csr().tocoo()
    graph = build_adjacency(np.column_stack([inv[coo.row], inv[coo.col]]), N)
    splits = SplitIndices(*(np.sort(inv[getattr(ds.splits, name)])
                            for name in ("train", "val", "test")))
    return Dataset(ds.name, graph, ds.features[perm], ds.targets[perm], splits)


def kernel(ds, arch, path, landmarks=None):
    """The depth-3 kernel, dense or as the Gram of its factor; the landmarks
    are the training nodes unless given."""
    if arch == "mlp":
        op = None
    else:
        op = normalize_row(ds.graph) if arch == "sage" else normalize_sym(ds.graph)
    prog = KernelProgram(arch, op, 3, sigma_w=1.1, sigma_w1=0.5)
    if path == "exact":
        return run_exact(prog, base_inner(ds.features))
    marks = landmarks or LandmarkSet(np.sort(ds.splits.train))
    return lowrank_variant(prog, nystrom_start(ds.features, marks), marks).gram()


def permutation(seed):
    return np.random.default_rng(100 + seed).permutation(N)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("arch", ARCHS)
def test_kernel_relabels_with_the_nodes(arch, path, seed):
    ds, perm = adversarial_dataset(seed), permutation(seed)
    k = kernel(ds, arch, path)
    inv = np.argsort(perm)
    back = kernel(relabel(ds, perm), arch, path)[np.ix_(inv, inv)]
    assert np.linalg.norm(back - k) <= 1e-13 * np.linalg.norm(k)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("arch", ARCHS)
def test_kernel_is_symmetric_and_psd(arch, path, seed):
    k = kernel(adversarial_dataset(seed), arch, path)
    if path == "exact":
        assert np.array_equal(k, k.T)  # the ReLU mirrors its upper triangle
    else:
        assert np.abs(k - k.T).max() <= 1e-15 * np.abs(k).max()
    eig = np.linalg.eigvalsh(k)
    assert eig[0] >= -1e-12 * eig[-1]
    # the isolated dead node keeps zero variance: no bias revives it
    assert np.all(k[36] == 0.0) and np.all(k[:, 36] == 0.0)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("arch", ARCHS)
def test_all_node_landmarks_give_the_dense_kernel(arch, seed):
    # criterion 2's bound, on graphs the criterion does not draw
    ds = adversarial_dataset(seed)
    exact = kernel(ds, arch, "exact")
    lowrank = kernel(ds, arch, "lowrank", LandmarkSet.all_nodes(N))
    assert np.linalg.norm(lowrank - exact) <= 1e-6 * np.linalg.norm(exact)


def report_lines(out):
    """The nugget and metric lines, and the predictions by node."""
    lines = out.splitlines()
    head = [l for l in lines if l.startswith(("nugget: ", "micro_f1_"))]
    start = lines.index("[predictions]") + 2
    rows = [l.split(",") for l in lines[start:] if l and not l.startswith("[")]
    return head, {int(r[0]): r[1:] for r in rows}


@pytest.mark.parametrize("n_classes", [3, 1], ids=["three-class", "one-class"])
def test_cli_predictions_relabel_with_the_nodes(n_classes, tmp_path, capsys):
    # a permuted dataset directory gives the same nugget and metric lines,
    # each node's truth and prediction, and its variance to 1e-9 relative
    ds, perm = adversarial_dataset(0, n_classes), permutation(0)
    save_dataset(ds, str(tmp_path / "ds"))
    save_dataset(relabel(ds, perm), str(tmp_path / "moved"))
    for arch in ARCHS:
        for path in PATHS:
            seen = []
            for name in ("ds", "moved"):
                code = main(["infer", "--dataset", str(tmp_path / name), "--arch", arch,
                             "--path", path])
                out, err = capsys.readouterr()
                assert (code, err) == (0, "")
                seen.append(report_lines(out))
            (head, rows), (moved_head, moved_rows) = seen
            assert moved_head == head, (arch, path)
            assert len(moved_rows) == len(rows) == ds.splits.test.size
            for node, row in moved_rows.items():
                want = rows[int(perm[node])]
                assert row[:2] == want[:2], (arch, path, node)
                for got, expect in zip(row[2:], want[2:]):
                    assert math.isclose(float(got), float(expect), rel_tol=1e-9,
                                        abs_tol=1e-15), (arch, path, node)
