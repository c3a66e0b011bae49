import os
import re

import numpy as np
import pytest

from graphgp import (
    Dataset,
    is_connected,
    load_dataset,
    make_splits,
    pca_reduce,
    random_connected_edges,
    save_dataset,
    synthetic_dataset,
)


def test_fixture_directory_loads(fixture_dir):
    ds = load_dataset(fixture_dir)
    assert ds.name == "fixture"
    assert ds.n_nodes == 4
    assert ds.n_features == 2
    assert ds.task == "classification"
    assert np.array_equal(ds.targets, [0, 0, 1, 1])
    assert np.array_equal(ds.splits.train, [0, 2])
    assert np.array_equal(ds.splits.val, [1])
    assert np.array_equal(ds.splits.test, [3])
    # four-node cycle, stored raw
    dense = ds.graph.to_csr().toarray()
    assert np.array_equal(dense, dense.T)
    assert dense.diagonal().sum() == 0
    assert dense.sum() == 8


def roundtrip(ds, directory, **kw):
    save_dataset(ds, directory, **kw)
    return load_dataset(directory)


def test_save_load_roundtrip_csv(tmp_path):
    ds = synthetic_dataset(20, n_features=5, n_classes=3, seed=1)
    back = roundtrip(ds, str(tmp_path / "rt"))
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.targets, ds.targets)
    assert np.array_equal(back.splits.train, ds.splits.train)
    assert np.array_equal(
        back.graph.to_csr().toarray(), ds.graph.to_csr().toarray()
    )


def test_save_load_roundtrip_binary(tmp_path):
    ds = synthetic_dataset(15, n_features=4, seed=2)
    back = roundtrip(ds, str(tmp_path / "rt"), binary_features=True)
    assert back.task == "regression"
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.targets, ds.targets)


def write_fixture_copy(tmp_path, **overrides):
    """Minimal valid directory, with named files replaced by literal text."""
    d = tmp_path / "ds"
    d.mkdir(parents=True)
    content = {
        "edges.txt": "0 1\n1 2\n2 0\n",
        "features.csv": "1.0,2.0\n3.0,4.0\n5.0,6.0\n",
        "targets.txt": "0\n1\n0\n",
        "splits.json": '{"train": [0], "val": [1], "test": [2]}',
    }
    content.update(overrides)
    for name, text in content.items():
        if text is not None:
            (d / name).write_text(text)
    return str(d)


def test_malformed_feature_row(tmp_path):
    d = write_fixture_copy(tmp_path, **{"features.csv": "1.0,2.0\n1.0,zap\n3.0,4.0\n"})
    with pytest.raises(ValueError, match="malformed feature row"):
        load_dataset(d)


def test_truncated_binary_header(tmp_path):
    d = write_fixture_copy(tmp_path, **{"features.csv": None})
    with open(os.path.join(d, "features.bin"), "wb") as fh:
        fh.write(b"\x03\x00\x00\x00\x00\x00\x00\x00")
    with pytest.raises(ValueError, match="truncated header"):
        load_dataset(d)


def test_short_binary_payload(tmp_path):
    d = write_fixture_copy(tmp_path, **{"features.csv": None})
    with open(os.path.join(d, "features.bin"), "wb") as fh:
        np.asarray([3, 2], dtype="<u8").tofile(fh)
        np.zeros(4, dtype="<f8").tofile(fh)
    with pytest.raises(ValueError, match="promises 3x2 values but the file holds 4"):
        load_dataset(d)


def test_integer_targets_mean_classification(tmp_path):
    d = write_fixture_copy(tmp_path, **{"targets.txt": "0\n1\n2\n"})
    ds = load_dataset(d)
    assert ds.task == "classification"
    assert ds.targets.dtype == np.int64


def test_decimal_targets_mean_regression(tmp_path):
    # one decimal entry flips the whole file to regression
    d = write_fixture_copy(tmp_path, **{"targets.txt": "0\n1.5\n2\n"})
    ds = load_dataset(d)
    assert ds.task == "regression"
    assert np.array_equal(ds.targets, [0.0, 1.5, 2.0])
    d2 = write_fixture_copy(tmp_path / "e", **{"targets.txt": "1e-3\n2\n3\n"})
    assert load_dataset(d2).task == "regression"


def test_unparseable_target_names_its_line(tmp_path):
    d = write_fixture_copy(tmp_path, **{"targets.txt": "0\nzap\n1\n"})
    with pytest.raises(ValueError, match=r"targets\.txt:2: cannot parse target 'zap'"):
        load_dataset(d)


def test_empty_targets_rejected(tmp_path):
    d = write_fixture_copy(tmp_path, **{"targets.txt": "\n\n"})
    with pytest.raises(ValueError, match="no target values"):
        load_dataset(d)


def test_target_count_must_match_features(tmp_path):
    d = write_fixture_copy(tmp_path, **{"targets.txt": "0\n1\n"})
    with pytest.raises(ValueError, match="2 values but features describe 3 nodes"):
        load_dataset(d)


def test_missing_files_reported_by_name(tmp_path):
    d = write_fixture_copy(tmp_path, **{"targets.txt": None})
    with pytest.raises(FileNotFoundError, match=r"missing targets\.txt"):
        load_dataset(d)
    d2 = write_fixture_copy(tmp_path / "f", **{"features.csv": None})
    with pytest.raises(FileNotFoundError, match=r"missing features\.csv or features\.bin"):
        load_dataset(d2)


def test_splits_json_errors(tmp_path):
    d = write_fixture_copy(tmp_path, **{"splits.json": "{not json"})
    with pytest.raises(ValueError, match="invalid JSON"):
        load_dataset(d)
    d2 = write_fixture_copy(
        tmp_path / "g", **{"splits.json": '{"train": [0], "test": [2]}'}
    )
    with pytest.raises(ValueError, match=r"missing split arrays \['val'\]"):
        load_dataset(d2)


@pytest.mark.parametrize("text", [
    "5",
    '{"train": [0.7, 1.2], "val": [1], "test": [2]}',
    '{"train": [0], "val": ["a"], "test": [2]}',
    '{"train": [0], "val": [1], "test": [true]}',
    '{"train": [0], "val": [1], "test": [100000000000000000000]}',
], ids=["not-an-object", "float-ids", "string-id", "bool-id", "beyond-int64"])
def test_malformed_splits_name_the_file(tmp_path, text):
    # a float id would be truncated by the int cast, a bool is an int, and an
    # id beyond int64 would overflow it
    d = write_fixture_copy(tmp_path, **{"splits.json": text})
    with pytest.raises(ValueError, match="^" + re.escape(os.path.join(d, "splits.json"))):
        load_dataset(d)


def test_empty_split_array_loads(tmp_path):
    d = write_fixture_copy(tmp_path, **{"splits.json": '{"train": [0], "val": [], "test": [2]}'})
    assert load_dataset(d).splits.val.size == 0


def test_out_of_range_split_rejected(tmp_path):
    d = write_fixture_copy(
        tmp_path, **{"splits.json": '{"train": [0], "val": [1], "test": [7]}'}
    )
    with pytest.raises(ValueError):
        load_dataset(d)


# ---------------------------------------------------------------------------
# split construction


def test_make_splits_disjoint_and_sorted():
    s = make_splits(100, (0.5, 0.25, 0.25), seed=4)
    assert len(s.train) == 50 and len(s.val) == 25 and len(s.test) == 25
    allidx = np.concatenate([s.train, s.val, s.test])
    assert len(np.unique(allidx)) == 100
    for part in (s.train, s.val, s.test):
        assert np.array_equal(part, np.sort(part))


def test_make_splits_can_leave_nodes_unlabeled():
    s = make_splits(100, (0.1, 0.1, 0.1), seed=0)
    assert len(s.train) + len(s.val) + len(s.test) == 30


def test_make_splits_seed_determinism():
    a = make_splits(50, (0.4, 0.3, 0.3), seed=9)
    b = make_splits(50, (0.4, 0.3, 0.3), seed=9)
    c = make_splits(50, (0.4, 0.3, 0.3), seed=10)
    assert np.array_equal(a.train, b.train)
    assert not np.array_equal(a.train, c.train)


def test_make_splits_validation():
    with pytest.raises(ValueError, match="three positive ratios"):
        make_splits(10, (0.5, 0.5), seed=0)
    with pytest.raises(ValueError, match="three positive ratios"):
        make_splits(10, (0.5, -0.1, 0.2), seed=0)
    with pytest.raises(ValueError, match="three positive ratios"):
        make_splits(10, (0.6, 0.3, 0.3), seed=0)
    with pytest.raises(ValueError, match="empty split"):
        make_splits(4, (0.9, 0.05, 0.05), seed=0)


# ---------------------------------------------------------------------------
# pca


def pca_oracle(x, k, center):
    """Eigendecomposition of the feature Gram matrix, same sign convention."""
    xc = x - x.mean(axis=0, keepdims=True) if center else x
    vals, vecs = np.linalg.eigh(xc.T @ xc)
    w = vecs[:, ::-1][:, :k].T
    anchor = np.argmax(np.abs(w), axis=1)
    signs = np.sign(w[np.arange(k), anchor])
    return xc @ (w * signs[:, None]).T


@pytest.mark.parametrize("center", [False, True])
def test_pca_matches_gram_eigenvectors(center):
    rng = np.random.default_rng(6)
    x = rng.normal(size=(30, 7))
    got = pca_reduce(x, 4, center=center)
    want = pca_oracle(x, 4, center)
    assert np.abs(got - want).max() <= 1e-8
    if center:
        assert np.abs(got.mean(axis=0)).max() <= 1e-12


def test_pca_columns_carry_singular_values():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(25, 6))
    p = pca_reduce(x, 3)
    s = np.linalg.svd(x, compute_uv=False)
    gram = p.T @ p
    assert np.abs(gram - np.diag(s[:3] ** 2)).max() <= 1e-8


def test_pca_rank_one_input_keeps_all_variance():
    u = np.linspace(1.0, 2.0, 12)
    w = np.array([3.0, -1.0, 2.0])
    x = np.outer(u, w)
    p = pca_reduce(x, 1)
    assert abs(np.linalg.norm(p) - np.linalg.norm(x)) <= 1e-10


def test_pca_validation():
    with pytest.raises(ValueError, match="2-d"):
        pca_reduce(np.ones(5), 1)
    with pytest.raises(ValueError, match=r"target_dim must be in \[1, 3\]"):
        pca_reduce(np.ones((5, 3)), 4)
    with pytest.raises(ValueError, match="target_dim"):
        pca_reduce(np.ones((5, 3)), 0)


# ---------------------------------------------------------------------------
# synthetic graphs


def test_random_connected_edges_ring_backbone():
    edges = random_connected_edges(6, 0, seed=0)
    assert edges.shape == (6, 2)
    assert np.array_equal(edges[:, 1], (edges[:, 0] + 1) % 6)
    chords = random_connected_edges(6, 10, seed=0)[6:]
    assert np.all(chords[:, 0] != chords[:, 1])
    with pytest.raises(ValueError, match="two nodes"):
        random_connected_edges(1, 0, seed=0)


def test_synthetic_dataset_is_connected_and_typed():
    reg = synthetic_dataset(40, n_features=6, seed=3)
    assert is_connected(reg.graph)
    assert reg.task == "regression"
    assert reg.targets.dtype == np.float64
    cls = synthetic_dataset(40, n_features=6, n_classes=2, seed=3)
    assert cls.task == "classification"
    assert set(np.unique(cls.targets)) <= {0, 1}
    multi = synthetic_dataset(60, n_features=6, n_classes=5, seed=4)
    assert multi.targets.min() >= 0 and multi.targets.max() < 5


def test_synthetic_dataset_degree_tracks_request():
    ds = synthetic_dataset(200, avg_degree=6.0, seed=5)
    n_undirected = ds.graph.to_csr().nnz // 2
    # duplicates collapse, so the realized degree sits a little under target
    assert 2.0 * n_undirected / 200 == pytest.approx(6.0, rel=0.15)
