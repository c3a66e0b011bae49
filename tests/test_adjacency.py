import numpy as np
import pytest

from graphgp import (
    PowerIterationError,
    SparseAdjacency,
    build_adjacency,
    is_connected,
    normalize_row,
    normalize_sym,
    read_edge_list,
    spectral_radius,
)

from conftest import ring_with_chords


def test_build_collapses_duplicates_and_reversals():
    edges = np.array([[0, 1], [1, 0], [0, 1], [2, 3]])
    a = build_adjacency(edges, 4)
    expect = np.zeros((4, 4))
    expect[0, 1] = expect[1, 0] = 1.0
    expect[2, 3] = expect[3, 2] = 1.0
    assert np.array_equal(a.toarray(), expect)
    assert a.n_edges == 4  # directed storage count


def test_build_self_loop_flag():
    edges = np.array([[0, 1], [1, 1]])  # input diagonal entry
    bare = build_adjacency(edges, 3)
    assert np.array_equal(bare.diagonal(), np.zeros(3))
    with pytest.raises(ValueError, match="adds no self-loops"):
        build_adjacency(edges, 3, add_self_loops=True)


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError, match="edge endpoint 5"):
        build_adjacency(np.array([[0, 5]]), 3)
    with pytest.raises(ValueError, match="edge endpoint -1"):
        build_adjacency(np.array([[-1, 0]]), 3)


def test_edge_permutation_builds_identical_structure():
    rng = np.random.default_rng(11)
    edges = np.array([(i, (i + 3) % 10) for i in range(10)] + [(0, 5), (2, 7)])
    a = build_adjacency(edges, 10)
    b = build_adjacency(edges[rng.permutation(len(edges))], 10)
    assert np.array_equal(a.row_offsets, b.row_offsets)
    assert np.array_equal(a.col_indices, b.col_indices)
    assert np.array_equal(a.values, b.values)


def test_degrees_with_isolated_node():
    a = build_adjacency(np.array([[0, 1]]), 3)
    assert np.array_equal(a.degrees(), np.array([1.0, 1.0, 0.0]))


def test_normalize_sym_matches_dense_formula():
    a = ring_with_chords(9, extra=4, seed=3)
    a0 = a.toarray()
    deg = a0.sum(axis=1)
    s = 1.0 / np.sqrt(1.0 + deg)
    expect = (np.eye(9) + a0) * np.outer(s, s)
    got = normalize_sym(a).toarray()
    assert np.abs(got - expect).max() <= 1e-12
    assert np.abs(got - got.T).max() == 0.0


def test_normalize_row_matches_dense_formula():
    a = ring_with_chords(9, extra=4, seed=4)
    a0 = a.toarray()
    deg = a0.sum(axis=1)
    expect = (np.eye(9) + a0) / (1.0 + deg)[:, None]
    got = normalize_row(a).toarray()
    assert np.abs(got - expect).max() <= 1e-12
    assert np.abs(got.sum(axis=1) - 1.0).max() <= 1e-12


def test_normalize_rejects_self_loops():
    looped = normalize_sym(build_adjacency(np.array([[0, 1]]), 2))
    with pytest.raises(ValueError, match="without self-loops"):
        normalize_sym(looped)
    with pytest.raises(ValueError, match="without self-loops"):
        normalize_row(looped)


def test_sym_normalized_radius_is_one():
    # connected graph: the Perron eigenvalue of the self-looped symmetric
    # normalization is exactly 1, eigenvector proportional to sqrt(1 + deg)
    a = ring_with_chords(12, extra=5, seed=9)
    info = spectral_radius(normalize_sym(a))
    assert abs(info.eigenvalue - 1.0) <= 1e-8
    v = np.sqrt(1.0 + a.degrees())
    v = v / np.linalg.norm(v)
    assert np.abs(info.eigenvector - v).max() <= 1e-6


def test_power_iteration_identity_converges_immediately():
    info = spectral_radius(normalize_sym(build_adjacency(np.zeros((0, 2)), 5)))
    assert abs(info.eigenvalue - 1.0) <= 1e-14
    assert info.iterations == 1
    assert info.residual <= 1e-14


def test_power_iteration_rank_one():
    half = SparseAdjacency(
        n_nodes=2,
        row_offsets=np.array([0, 2, 4], dtype=np.int64),
        col_indices=np.array([0, 1, 0, 1], dtype=np.int64),
        values=np.full(4, 0.5),
    )
    info = spectral_radius(half)
    assert abs(info.eigenvalue - 1.0) <= 1e-12
    assert np.abs(info.eigenvector - 1.0 / np.sqrt(2.0)).max() <= 1e-12


def test_power_iteration_reports_nonconvergence():
    # path graph without self-loops is bipartite: eigenvalues come in +/-
    # pairs, the dominant pair ties in magnitude, and the iteration stalls
    path = build_adjacency(np.array([[0, 1], [1, 2]]), 3)
    with pytest.raises(PowerIterationError) as exc:
        spectral_radius(path, tol=1e-12, max_iter=150)
    assert exc.value.residual > 0.0
    assert "150 iterations" in str(exc.value)


def test_is_connected():
    assert is_connected(ring_with_chords(6))
    two_parts = build_adjacency(np.array([[0, 1], [2, 3]]), 4)
    assert not is_connected(two_parts)


def test_read_edge_list(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("# comment\n0 1\n\n  2 3  \n")
    assert np.array_equal(read_edge_list(p), np.array([[0, 1], [2, 3]]))


def test_read_edge_list_wrong_token_count(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("0 1\n1 2 3\n")
    with pytest.raises(ValueError, match=r"2: expected two node ids"):
        read_edge_list(p)


def test_read_edge_list_non_integer(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("0 1\n2 x\n")
    with pytest.raises(ValueError, match=r"2: node ids must be integers"):
        read_edge_list(p)


def test_read_edge_list_empty_file(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("# nothing\n")
    assert read_edge_list(p).shape == (0, 2)


def test_adjacency_validation():
    with pytest.raises(ValueError, match="at least one node"):
        SparseAdjacency(0, np.array([0]), np.array([], dtype=np.int64), np.array([]))
    with pytest.raises(ValueError, match="nonnegative"):
        SparseAdjacency(
            1,
            np.array([0, 1], dtype=np.int64),
            np.array([0], dtype=np.int64),
            np.array([-1.0]),
        )
