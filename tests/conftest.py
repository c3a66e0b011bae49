import os

import numpy as np
import pytest

from graphgp import build_adjacency, normalize_row, normalize_sym, run_exact

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "data", "fixture")


@pytest.fixture
def fixture_dir():
    return FIXTURE_DIR


def ring_with_chords(n, extra=0, seed=0):
    """Connected raw adjacency: a ring plus ``extra`` random chords."""
    rng = np.random.default_rng(seed)
    edges = [(i, (i + 1) % n) for i in range(n)]
    while extra > 0:
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.append((int(i), int(j)))
            extra -= 1
    return build_adjacency(np.asarray(edges), n)


def sym_operator(n, extra=0, seed=0):
    return normalize_sym(ring_with_chords(n, extra, seed))


def row_operator(n, extra=0, seed=0):
    return normalize_row(ring_with_chords(n, extra, seed))


def random_psd(n, seed, rank=None):
    """Random PSD matrix B B^T / r with controllable rank."""
    rng = np.random.default_rng(seed)
    r = n if rank is None else rank
    b = rng.normal(size=(n, r))
    return b @ b.T / r


def random_features(n, d, seed):
    return np.random.default_rng(seed).normal(size=(n, d))


def every_layer(prog, k0):
    """Each layer's kernel, as run_exact's on_layer hook sees them."""
    seen = []
    final = run_exact(prog, k0, on_layer=lambda l, k: seen.append((l, k)))
    assert [l for l, _ in seen] == list(range(1, prog.depth + 1))
    assert seen[-1][1] is final
    return [k for _, k in seen]
