"""Sparse graph operators feeding the covariance recursions.

Everything starts from a binary symmetric adjacency without self-loops.
The two normalizations used downstream both add the identity internally:

    sym:  A = (I + D)^{-1/2} (I + A0) (I + D)^{-1/2}
    row:  A = (I + D)^{-1} (I + A0)

where A0 is the raw binary matrix and D holds its row sums.  Operators are
stored in CSR form and treated as immutable once built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


class PowerIterationError(RuntimeError):
    """Raised when the dominant-eigenpair iteration does not converge.

    Carries the last relative residual ||A v - lam v|| / |lam| so callers can
    report how far the iteration got.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class SparseAdjacency:
    """Square sparse operator in CSR form (offsets, column ids, values)."""

    n_nodes: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("adjacency needs at least one node")
        off = self.row_offsets
        if off.shape != (self.n_nodes + 1,) or off[0] != 0:
            raise ValueError("row_offsets must have length n_nodes+1 and start at 0")
        if np.any(np.diff(off) < 0) or off[-1] != self.col_indices.shape[0]:
            raise ValueError("row_offsets must be nondecreasing and end at the stored-entry count")
        if self.col_indices.shape != self.values.shape:
            raise ValueError("col_indices and values must have matching length")
        if self.col_indices.size and (
            self.col_indices.min() < 0 or self.col_indices.max() >= self.n_nodes
        ):
            raise ValueError("column index out of range")
        if self.values.size and self.values.min() < 0:
            raise ValueError("adjacency values must be nonnegative")

    @property
    def n_edges(self) -> int:
        """Stored nonzeros (directed count)."""
        return int(self.values.shape[0])

    def to_csr(self) -> sp.csr_matrix:
        # shares the underlying arrays, no copy
        return sp.csr_matrix(
            (self.values, self.col_indices, self.row_offsets),
            shape=(self.n_nodes, self.n_nodes),
        )

    def toarray(self) -> np.ndarray:
        return self.to_csr().toarray()

    def degrees(self) -> np.ndarray:
        """Row sums of the stored matrix."""
        return np.asarray(self.to_csr().sum(axis=1)).ravel()

    def diagonal(self) -> np.ndarray:
        return self.to_csr().diagonal()


@dataclass(frozen=True, eq=False)
class SpectralInfo:
    """Dominant eigenpair found by power iteration."""

    eigenvalue: float
    eigenvector: np.ndarray
    iterations: int
    residual: float


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _from_scipy(m: sp.spmatrix, n_nodes: int) -> SparseAdjacency:
    m = sp.csr_matrix(m)
    m.sort_indices()
    return SparseAdjacency(
        n_nodes=n_nodes,
        row_offsets=_freeze(m.indptr.astype(np.int64)),
        col_indices=_freeze(m.indices.astype(np.int64)),
        values=_freeze(m.data.astype(np.float64)),
    )


def build_adjacency(
    edges: np.ndarray, n_nodes: int, add_self_loops: bool = False
) -> SparseAdjacency:
    """Assemble the raw binary symmetric adjacency of an undirected edge list.

    Duplicate and reversed pairs collapse to a single stored value of 1.0;
    the result is in canonical CSR order, so any permutation of the input
    edge list builds the identical structure.  Input diagonal entries are
    dropped, since ``normalize_sym`` and ``normalize_row`` add the identity
    themselves; ``add_self_loops`` is accepted only as False.
    """
    if add_self_loops:
        raise ValueError("build_adjacency adds no self-loops; the normalizations add them")
    if n_nodes < 1:
        raise ValueError("n_nodes must be positive")
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError("edges must be an (m, 2) array of node ids")
    if edges.size and (edges.min() < 0 or edges.max() >= n_nodes):
        bad = edges.min() if edges.min() < 0 else edges.max()
        raise ValueError(f"edge endpoint {bad} outside [0, {n_nodes})")

    u = np.concatenate([edges[:, 0], edges[:, 1]])
    v = np.concatenate([edges[:, 1], edges[:, 0]])
    offdiag = u != v
    u, v = u[offdiag], v[offdiag]
    m = sp.coo_matrix(
        (np.ones(u.shape[0]), (u, v)), shape=(n_nodes, n_nodes)
    ).tocsr()
    m.data[:] = 1.0  # duplicates summed above, collapse back to binary
    return _from_scipy(m, n_nodes)


def _normalize(a: SparseAdjacency, op: str, symmetric: bool) -> SparseAdjacency:
    """I + A0 scaled by (I+D)^{-1/2} on both sides, or by (I+D)^{-1} on the left."""
    if np.any(a.diagonal() != 0):
        raise ValueError(
            f"{op} expects the raw adjacency without self-loops; "
            "it adds the identity internally"
        )
    one_plus_deg = 1.0 + a.degrees()
    scale = 1.0 / (np.sqrt(one_plus_deg) if symmetric else one_plus_deg)
    m = (a.to_csr() + sp.identity(a.n_nodes, format="csr")).tocoo()
    data = m.data * scale[m.row]
    if symmetric:
        data *= scale[m.col]
    out = sp.coo_matrix((data, (m.row, m.col)), shape=m.shape)
    return _from_scipy(out, a.n_nodes)


def normalize_sym(a: SparseAdjacency) -> SparseAdjacency:
    """Symmetric normalization (I+D)^{-1/2} (I+A0) (I+D)^{-1/2}."""
    return _normalize(a, "normalize_sym", symmetric=True)


def normalize_row(a: SparseAdjacency) -> SparseAdjacency:
    """Row normalization (I+D)^{-1} (I+A0); rows sum to one."""
    return _normalize(a, "normalize_row", symmetric=False)


def is_connected(a: SparseAdjacency) -> bool:
    n_comp, _ = connected_components(a.to_csr(), directed=False)
    return n_comp == 1


def spectral_radius(
    a: SparseAdjacency, tol: float = 1e-10, max_iter: int = 10000
) -> SpectralInfo:
    """Dominant eigenpair of a symmetric nonnegative operator by power iteration.

    Starts from the all-ones direction, so for an irreducible nonnegative
    matrix the iteration converges to the Perron pair and the returned
    eigenvector is entrywise nonnegative with unit norm.  Convergence is
    declared when ||A v - lam v|| <= tol * |lam|.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    m = a.to_csr()
    v = np.ones(a.n_nodes) / np.sqrt(a.n_nodes)
    residual = np.inf
    lam = 0.0
    for it in range(1, max_iter + 1):
        w = m @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            # ones is in the kernel; the matrix is zero on the reachable cone
            return SpectralInfo(0.0, v, it, 0.0)
        v_next = w / norm
        lam = float(v_next @ (m @ v_next))
        residual = float(np.linalg.norm(m @ v_next - lam * v_next))
        v = v_next
        if residual <= tol * abs(lam):
            return SpectralInfo(lam, v, it, residual)
    raise PowerIterationError(
        f"power iteration did not reach tol={tol:g} within {max_iter} iterations "
        f"(last residual {residual:.3e})",
        residual=residual,
    )


def read_edge_list(path) -> np.ndarray:
    """Parse an edge file: two whitespace-separated node ids per line.

    Blank lines and lines starting with '#' are ignored.  Returns an (m, 2)
    int array; malformed lines raise with the file name and line number.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected two node ids, got {raw.rstrip()!r}"
                )
            try:
                rows.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: node ids must be integers, got {raw.rstrip()!r}"
                ) from None
    return np.asarray(rows, dtype=np.int64).reshape(-1, 2)
