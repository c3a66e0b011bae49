"""Convert a raw Planetoid citation dataset into a graphgp data directory.

Needs the eight ``ind.<name>.*`` files that every Planetoid distribution
ships (x, tx, allx, y, ty, ally, graph, test.index).  With network access
the script fetches them itself; offline, point ``--raw-dir`` at a folder
that already holds them.  Output is the directory layout ``load_dataset``
reads: edges.txt, features.bin, targets.txt, splits.json.

    python scripts/export_planetoid.py cora --out data/cora

The export preserves the standard fixed split (for cora: 140 train, 500
validation, 1000 test), which is what the accuracy numbers in the README
refer to.  Nothing here is required for the rest of the package; it exists
because the raw files live behind a network boundary that the library
itself never touches.
"""

import argparse
import os
import pickle
import sys
import urllib.request

import numpy as np
import scipy.sparse as sp

try:
    from graphgp import Dataset, SplitIndices, build_adjacency, save_dataset
except ImportError:  # running from a checkout without an install
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    from graphgp import Dataset, SplitIndices, build_adjacency, save_dataset

RAW_BASE = "https://github.com/kimiyoung/planetoid/raw/master/data"
PARTS = ("x", "y", "tx", "ty", "allx", "ally", "graph", "test.index")
NAMES = ("cora", "citeseer", "pubmed")


def fetch_raw(name, raw_dir):
    os.makedirs(raw_dir, exist_ok=True)
    for part in PARTS:
        fname = f"ind.{name}.{part}"
        dest = os.path.join(raw_dir, fname)
        if os.path.exists(dest):
            continue
        url = f"{RAW_BASE}/{fname}"
        print(f"fetching {url}")
        urllib.request.urlretrieve(url, dest)


def load_raw(name, raw_dir):
    def unpickle(part):
        path = os.path.join(raw_dir, f"ind.{name}.{part}")
        with open(path, "rb") as fh:
            # the upstream pickles were written by python 2
            return pickle.load(fh, encoding="latin1")

    x, y, tx, ty, allx, ally, graph = (unpickle(p) for p in PARTS[:7])
    with open(os.path.join(raw_dir, f"ind.{name}.test.index")) as fh:
        test_reorder = np.array([int(line) for line in fh if line.strip()])
    return x, y, tx, ty, allx, ally, graph, test_reorder


def assemble(name, raw):
    """Stack the labeled/unlabeled blocks and undo the test permutation."""
    x, y, tx, ty, allx, ally, graph, test_reorder = raw
    test_sorted = np.sort(test_reorder)

    if name == "citeseer":
        # some citeseer test ids are absent from tx; pad zero rows so the
        # node numbering stays dense
        full = np.arange(test_sorted.min(), test_sorted.max() + 1)
        tx_full = sp.lil_matrix((full.size, tx.shape[1]))
        tx_full[test_sorted - test_sorted.min(), :] = tx.tolil()
        tx = tx_full.tocsr()
        ty_full = np.zeros((full.size, ty.shape[1]), dtype=ty.dtype)
        ty_full[test_sorted - test_sorted.min(), :] = ty
        ty = ty_full

    features = sp.vstack((allx, tx)).tolil()
    features[test_reorder, :] = features[test_sorted, :]
    features = np.asarray(features.todense(), dtype=np.float64)

    labels = np.vstack((ally, ty))
    labels[test_reorder, :] = labels[test_sorted, :]
    targets = labels.argmax(axis=1).astype(np.int64)

    n = features.shape[0]
    pairs = set()
    for i, nbrs in graph.items():
        for j in nbrs:
            if i != j and 0 <= i < n and 0 <= j < n:
                pairs.add((min(i, j), max(i, j)))
    edges = np.array(sorted(pairs), dtype=np.int64)

    # standard protocol: 500 validation nodes right after the train block;
    # all of them sit inside allx, so they never collide with the test tail
    val_stop = min(len(y) + 500, allx.shape[0])
    splits = SplitIndices(
        train=np.arange(len(y)),
        val=np.arange(len(y), val_stop),
        test=test_sorted,
    )
    return Dataset(
        name=name,
        graph=build_adjacency(edges, n),
        features=features,
        targets=targets,
        splits=splits,
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("name", choices=NAMES)
    parser.add_argument("--out", default=None,
                        help="output directory (default: data/<name>)")
    parser.add_argument("--raw-dir", default=None,
                        help="directory with the ind.* files; skips download "
                             "when all eight are present")
    args = parser.parse_args(argv)

    raw_dir = args.raw_dir or os.path.join("data", "_raw", args.name)
    have_all = all(
        os.path.exists(os.path.join(raw_dir, f"ind.{args.name}.{p}"))
        for p in PARTS
    )
    if not have_all:
        if args.raw_dir:
            print(f"error: {raw_dir} is missing some ind.{args.name}.* files",
                  file=sys.stderr)
            return 1
        fetch_raw(args.name, raw_dir)

    ds = assemble(args.name, load_raw(args.name, raw_dir))
    out = args.out or os.path.join("data", args.name)
    save_dataset(ds, out, binary_features=True)
    print(f"wrote {out}: {ds.n_nodes} nodes, {ds.graph.n_edges // 2} edges, "
          f"{ds.features.shape[1]} features, "
          f"splits {len(ds.splits.train)}/{len(ds.splits.val)}/{len(ds.splits.test)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
