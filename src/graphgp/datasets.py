"""Dataset directories, splits, and feature preprocessing.

A dataset directory holds:

* ``edges.txt``      undirected edge list, two zero-based ids per line,
                     '#' comments allowed;
* ``features.csv``   one comma-separated row per node, or ``features.bin``
                     with two little-endian uint64 dimensions followed by
                     row-major little-endian float64 data;
* ``targets.txt``    one value per line: bare integers mean class labels,
                     decimal or exponent notation means regression targets;
* ``splits.json``    {"train": [...], "val": [...], "test": [...]}.

The stored graph stays raw (binary, symmetric, no self-loops); callers pick
a normalization.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .adjacency import SparseAdjacency, build_adjacency, read_edge_list
from .inference import SplitIndices

_BIN_MAGIC_DIMS = 2  # uint64 rows, uint64 cols


@dataclass(frozen=True, eq=False)
class Dataset:
    """A loaded dataset; the graph is pre-normalization."""

    name: str
    graph: SparseAdjacency
    features: np.ndarray
    targets: np.ndarray
    splits: SplitIndices

    @property
    def n_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def task(self) -> str:
        return "classification" if np.issubdtype(self.targets.dtype, np.integer) else "regression"


def _load_features_csv(path: str) -> np.ndarray:
    try:
        x = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as err:
        raise ValueError(f"{path}: malformed feature row ({err})") from None
    return x


def _load_features_bin(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        dims = np.fromfile(fh, dtype="<u8", count=_BIN_MAGIC_DIMS)
        if dims.size != _BIN_MAGIC_DIMS:
            raise ValueError(f"{path}: truncated header")
        n, d = int(dims[0]), int(dims[1])
        data = np.fromfile(fh, dtype="<f8", count=n * d)
    if data.size != n * d:
        raise ValueError(
            f"{path}: header promises {n}x{d} values but the file holds {data.size}"
        )
    return data.reshape(n, d)


def _save_features_bin(path: str, x: np.ndarray) -> None:
    with open(path, "wb") as fh:
        np.asarray(x.shape, dtype="<u8").tofile(fh)
        np.ascontiguousarray(x, dtype="<f8").tofile(fh)


def _load_targets(path: str) -> np.ndarray:
    tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            tok = raw.strip()
            if not tok:
                continue
            tokens.append((lineno, tok))
    if not tokens:
        raise ValueError(f"{path}: no target values")
    integral = True
    values = []
    for lineno, tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            integral = False
            break
    if integral:
        return np.asarray(values, dtype=np.int64)
    values = []
    for lineno, tok in tokens:
        try:
            values.append(float(tok))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: cannot parse target {tok!r}") from None
        if not math.isfinite(values[-1]):
            raise ValueError(f"{path}:{lineno}: target {tok!r} is not finite")
    return np.asarray(values, dtype=np.float64)


def _load_splits(path: str) -> SplitIndices:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            blob = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: invalid JSON ({err})") from None
    if not isinstance(blob, dict):
        raise ValueError(f"{path}: expected a JSON object of split arrays")
    missing = {"train", "val", "test"} - set(blob)
    if missing:
        raise ValueError(f"{path}: missing split arrays {sorted(missing)}")
    for name in ("train", "val", "test"):
        ids = blob[name]
        if not isinstance(ids, list) or any(type(i) is not int or abs(i) >= 2**63 for i in ids):
            raise ValueError(f"{path}: {name!r} must be an array of int64 node ids")
    return SplitIndices(*(np.asarray(blob[n], dtype=np.int64) for n in ("train", "val", "test")))


def _need(directory: str, name: str, *alternatives: str) -> str:
    """Path of the first of the named files that exists in ``directory``."""
    for candidate in (name,) + alternatives:
        path = os.path.join(directory, candidate)
        if os.path.exists(path):
            return path
    wanted = " or ".join((name,) + alternatives)
    raise FileNotFoundError(f"{directory}: missing {wanted}")


def load_features(directory: str) -> np.ndarray:
    """A dataset directory's features: features.csv, else features.bin.

    A NaN or infinite entry raises ValueError naming the file and the row.
    """
    path = _need(directory, "features.csv", "features.bin")
    x = _load_features_csv(path) if path.endswith(".csv") else _load_features_bin(path)
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: row {bad[0]} has a non-finite feature "
                         "(rows count from 0, as node ids do)")
    return x


def save_splits(splits: SplitIndices, path: str) -> None:
    """Write splits as the splits.json that load_dataset reads."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({k: getattr(splits, k).tolist() for k in ("train", "val", "test")}, fh)
        fh.write("\n")


def load_dataset(directory: str) -> Dataset:
    """Read a dataset directory, cross-checking every dimension."""
    features = load_features(directory)
    n = features.shape[0]

    targets = _load_targets(_need(directory, "targets.txt"))
    if targets.shape[0] != n:
        raise ValueError(
            f"targets.txt has {targets.shape[0]} values but features describe {n} nodes"
        )

    edges = read_edge_list(_need(directory, "edges.txt"))
    graph = build_adjacency(edges, n)

    splits = _load_splits(_need(directory, "splits.json"))
    splits.validate_for(n)

    return Dataset(
        name=os.path.basename(os.path.normpath(directory)),
        graph=graph,
        features=features,
        targets=targets,
        splits=splits,
    )


def save_dataset(ds: Dataset, directory: str, binary_features: bool = False) -> None:
    """Write a dataset directory in the load_dataset format."""
    os.makedirs(directory, exist_ok=True)
    csr = ds.graph.to_csr().tocoo()
    with open(os.path.join(directory, "edges.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"# {ds.name}: undirected edge list\n")
        for i, j in zip(csr.row, csr.col):
            if i < j:  # store each undirected edge once
                fh.write(f"{i} {j}\n")
    if binary_features:
        _save_features_bin(os.path.join(directory, "features.bin"), ds.features)
    else:
        np.savetxt(os.path.join(directory, "features.csv"), ds.features,
                   delimiter=",", fmt="%.17g")
    with open(os.path.join(directory, "targets.txt"), "w", encoding="utf-8") as fh:
        if ds.task == "classification":
            fh.writelines(f"{int(t)}\n" for t in ds.targets)
        else:
            fh.writelines(f"{float(t):.17g}\n" for t in ds.targets)
    save_splits(ds.splits, os.path.join(directory, "splits.json"))


def make_splits(n_nodes: int, ratios, seed: int) -> SplitIndices:
    """Random disjoint splits by ratio (train, val, test summing to <= 1)."""
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or min(ratios) <= 0 or sum(ratios) > 1.0 + 1e-9:
        raise ValueError("need three positive ratios summing to at most one")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_nodes)
    n_train = int(round(ratios[0] * n_nodes))
    n_val = int(round(ratios[1] * n_nodes))
    n_test = min(int(round(ratios[2] * n_nodes)), n_nodes - n_train - n_val)
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(f"ratios {ratios} leave an empty split for {n_nodes} nodes")
    return SplitIndices(
        np.sort(order[:n_train]),
        np.sort(order[n_train:n_train + n_val]),
        np.sort(order[n_train + n_val:n_train + n_val + n_test]),
    )


def pca_reduce(features: np.ndarray, target_dim: int, center: bool = False) -> np.ndarray:
    """Project onto the top principal directions, deterministically signed.

    Each principal direction is flipped so its largest-magnitude entry is
    positive, which pins the otherwise arbitrary SVD signs.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("features must be 2-d")
    if not 1 <= target_dim <= min(x.shape):
        raise ValueError(
            f"target_dim must be in [1, {min(x.shape)}] for a {x.shape} matrix"
        )
    xc = x - x.mean(axis=0, keepdims=True) if center else x
    _, _, vt = np.linalg.svd(xc, full_matrices=False)
    w = vt[:target_dim]
    anchor = np.argmax(np.abs(w), axis=1)
    signs = np.sign(w[np.arange(target_dim), anchor])
    signs[signs == 0] = 1.0
    return xc @ (w * signs[:, None]).T


# ---------------------------------------------------------------------------
# synthetic data


def random_connected_edges(n_nodes: int, n_extra: int, seed) -> np.ndarray:
    """Ring backbone plus n_extra random chords; connected by construction."""
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    ring = np.stack(
        [np.arange(n_nodes), (np.arange(n_nodes) + 1) % n_nodes], axis=1
    )
    if n_extra == 0:
        return ring.astype(np.int64)
    chords = rng.integers(0, n_nodes, size=(n_extra, 2))
    chords = chords[chords[:, 0] != chords[:, 1]]
    return np.concatenate([ring, chords]).astype(np.int64)


def synthetic_dataset(n_nodes: int, avg_degree: float = 4.0, n_features: int = 16,
                      n_classes: int = 0, seed: int = 0,
                      ratios=(0.5, 0.25, 0.25)) -> Dataset:
    """Random connected graph with Gaussian features; labels follow a
    two-block sign rule when ``n_classes`` > 0, else a smooth regression
    target."""
    rng = np.random.default_rng(seed)
    n_extra = max(0, int(round((avg_degree - 2.0) * n_nodes / 2.0)))
    edges = random_connected_edges(n_nodes, n_extra, rng)
    graph = build_adjacency(edges, n_nodes)
    features = rng.normal(size=(n_nodes, n_features))
    if n_classes > 0:
        targets = (features @ rng.normal(size=n_features) > 0).astype(np.int64)
        if n_classes > 2:
            extra = rng.integers(0, n_classes, size=n_nodes)
            targets = np.where(extra >= 2, extra, targets).astype(np.int64)
    else:
        direction = rng.normal(size=n_features)
        targets = np.tanh(features @ direction / np.sqrt(n_features))
    return Dataset(
        name=f"synthetic-{n_nodes}",
        graph=graph,
        features=features,
        targets=targets,
        splits=make_splits(n_nodes, ratios, seed),
    )
