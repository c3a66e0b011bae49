import ctypes
import glob
import os

import numpy as np
import pytest

from graphgp import build_adjacency, kernels, normalize_row, normalize_sym, run_exact

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "data", "fixture")


@pytest.fixture
def fixture_dir():
    return FIXTURE_DIR


def _numpy_blas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None."""
    here = os.path.dirname(np.__file__)
    for path in (glob.glob(os.path.join(here, os.pardir, "numpy.libs", "*openblas*"))
                 + glob.glob(os.path.join(here, ".dylibs", "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                return get, put
    return None


@pytest.fixture
def pool_width(monkeypatch):
    """``pool_width(w)`` gives the kernels a row-tile pool of w threads, the
    caller included, in place of the one the BLAS thread count sets.  It
    returns the list of the pool's submissions, which grows as tiles are
    shared.  BLAS is held to one thread meanwhile, as it is whenever the
    pool is on: a threaded BLAS splits each product among its own threads,
    and how it splits a tile is not how it splits the whole.  Every pool
    made is shut down afterwards."""
    blas = _numpy_blas_threads()
    if blas is None and kernels._blas_threads() != 1:
        pytest.skip("needs numpy's OpenBLAS held to one thread (OPENBLAS_NUM_THREADS=1)")
    if blas is not None:
        threads = blas[0]()
        blas[1](1)
    made = []

    def use(workers):
        monkeypatch.setattr(kernels, "_pool_width", lambda: workers)
        monkeypatch.setattr(kernels, "_pool_state", None)
        executor = kernels._tile_pool()[1]
        submitted = []
        if executor is not None:
            made.append(executor)
            submit = executor.submit
            monkeypatch.setattr(executor, "submit",
                                lambda *args: submitted.append(args) or submit(*args))
        return submitted

    yield use
    for executor in made:
        executor.shutdown()
    if blas is not None:
        blas[1](threads)


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
