"""The benchmark's workloads: generated dataset directories, the CLI calls
made on them, and the checks every written report must pass.

Every input comes from ``synthetic_dataset`` or the fixed criterion-1
graph, so nothing is downloaded.  ``WORKLOADS[name](workdir, seed)`` writes
the directories and returns the calls of one round; the same seed gives the
same directories and calls.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from graphgp.adjacency import build_adjacency
from graphgp.datasets import Dataset, make_splits, save_dataset, synthetic_dataset

HERE = os.path.dirname(os.path.abspath(__file__))
# infer's default --nugget-grid 1e-3,10,13
NUGGET_GRID = np.logspace(-3.0, 1.0, 13)
MC_ERROR_BOUND = 0.05  # acceptance criterion 1
SCAN_LAYERS = 60

Tables = Dict[str, Tuple[List[str], List[List[str]]]]


@dataclass(frozen=True)
class Call:
    """One CLI call of a round; ``check`` lists what is wrong with its report."""

    argv: Tuple[str, ...]
    check: Callable[[Dict[str, str], Tables], List[str]]


def parse_report(text: str) -> Tuple[Dict[str, str], Tables]:
    """Scalars (``key: value`` before the first section) and CSV sections."""
    scalars: Dict[str, str] = {}
    tables: Tables = {}
    current = None
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            tables[current] = ([], [])
        elif current is None:
            key, sep, value = line.partition(": ")
            if not sep:
                raise ValueError(f"malformed scalar line {line!r}")
            scalars[key] = value
        elif not tables[current][0]:
            tables[current][0].extend(line.split(","))
        else:
            tables[current][1].append(line.split(","))
    return scalars, tables


def _column(tables: Tables, section: str, name: str) -> np.ndarray:
    header, rows = tables[section]
    j = header.index(name)
    return np.array([float(r[j]) for r in rows])


def reference_scores() -> Dict[str, dict]:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)["test_score"]


# ---------------------------------------------------------------------------
# checks


def check_infer(scalars, tables, *, test_nodes: np.ndarray, reference: dict,
                lowrank: bool) -> List[str]:
    problems = []
    metric = scalars.get("metric")
    if metric != reference["metric"]:
        return [f"metric is {metric!r}, expected {reference['metric']!r}"]
    score = float(scalars[f"{metric}_test"])
    if not abs(score - reference["value"]) <= reference["tolerance"]:
        problems.append(
            f"{metric}_test {score} is not within {reference['tolerance']} "
            f"of {reference['value']}"
        )
    nugget = float(scalars["nugget"])
    if not np.any(np.isclose(NUGGET_GRID, nugget, rtol=1e-9, atol=0.0)):
        problems.append(f"nugget {nugget} is not a grid point")
    if "predictions" not in tables:
        return problems + ["no [predictions] section"]
    nodes = _column(tables, "predictions", "node").astype(np.int64)
    if nodes.size != test_nodes.size or not np.array_equal(np.sort(nodes), test_nodes):
        problems.append(f"[predictions] has {nodes.size} rows for {test_nodes.size} test nodes")
    if not np.all(np.isfinite(_column(tables, "predictions", "prediction"))):
        problems.append("non-finite prediction")
    if lowrank:
        var = _column(tables, "predictions", "variance")
        if not np.all(np.isfinite(var) & (var >= 0.0)):
            problems.append("variance not finite and nonnegative")
    return problems


def check_mc_verify(scalars, tables) -> List[str]:
    err = float(scalars.get("rel_frobenius_error", "nan"))
    if not err <= MC_ERROR_BOUND:
        return [f"rel_frobenius_error {err} exceeds {MC_ERROR_BOUND}"]
    return []


def check_depth_scan(scalars, tables) -> List[str]:
    if "depth_trace" not in tables:
        return ["no [depth_trace] section"]
    header, rows = tables["depth_trace"]
    if len(rows) != SCAN_LAYERS:
        return [f"[depth_trace] has {len(rows)} rows, expected {SCAN_LAYERS}"]
    score = next(h for h in header if h.startswith("test_"))
    problems = []
    for name in ("layer", "rho_min", "trace", "top2_singular_ratio", score):
        if not np.all(np.isfinite(_column(tables, "depth_trace", name))):
            problems.append(f"non-finite {name}")
    rho = _column(tables, "depth_trace", "rho_min")
    if not np.all((rho >= -1.0) & (rho <= 1.0)):
        problems.append("rho_min outside [-1, 1]")
    return problems


# ---------------------------------------------------------------------------
# workloads


def _infer(workdir: str, seed: int, name: str, ds: Dataset, flags: Tuple[str, ...],
           binary_features: bool = False) -> List[Call]:
    path = os.path.join(workdir, name)
    save_dataset(ds, path, binary_features=binary_features)
    lowrank = "lowrank" in flags
    reference = reference_scores()[name]

    def check(scalars, tables):
        return check_infer(scalars, tables, test_nodes=ds.splits.test,
                           reference=reference, lowrank=lowrank)

    argv = ("infer", "--dataset", path, "--seed", str(seed)) + flags
    return [Call(argv, check)]


def _infer_exact(workdir: str, seed: int) -> List[Call]:
    ds = synthetic_dataset(4000, n_features=64, n_classes=2, seed=seed)
    return _infer(workdir, seed, "infer_exact", ds, ("--arch", "gcn", "--layers", "2"))


def _infer_lowrank(workdir: str, seed: int) -> List[Call]:
    # features.bin, as scripts/export_planetoid.py writes large graphs
    ds = synthetic_dataset(32000, n_features=64, seed=seed)
    return _infer(workdir, seed, "infer_lowrank", ds,
                  ("--path", "lowrank", "--landmarks", "512", "--arch", "gcn",
                   "--layers", "3"), binary_features=True)


def criterion1_dataset() -> Dataset:
    """Acceptance criterion 1's graph: a ring of 8 nodes plus 5 chords drawn
    with seed 0, and 8 x 6 standard normal features drawn with seed 1."""
    n = 8
    rng = np.random.default_rng(0)
    edges = [(i, (i + 1) % n) for i in range(n)]
    while len(edges) < n + 5:
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.append((int(i), int(j)))
    x = np.random.default_rng(1).normal(size=(n, 6))
    return Dataset(
        name="criterion1",
        graph=build_adjacency(np.asarray(edges), n, add_self_loops=False),
        features=x,
        targets=(x[:, 0] > 0).astype(np.int64),
        splits=make_splits(n, (0.5, 0.25, 0.25), 0),
    )


def _mc_verify(workdir: str, seed: int) -> List[Call]:
    path = os.path.join(workdir, "criterion1")
    save_dataset(criterion1_dataset(), path)
    argv = ("mc-verify", "--dataset", path, "--arch", "gcn", "--layers", "2",
            "--sigma-b", "0.1", "--width", "4096", "--samples", "20", "--seed", str(seed))
    return [Call(argv, check_mc_verify)]


def _depth_scan(workdir: str, seed: int) -> List[Call]:
    path = os.path.join(workdir, "scan200")
    save_dataset(synthetic_dataset(200, n_features=32, n_classes=2, seed=seed), path)
    return [
        Call(("depth-scan", "--dataset", path, "--arch", arch,
              "--layers", str(SCAN_LAYERS)), check_depth_scan)
        for arch in ("gcn", "gcnii")
    ]


WORKLOADS = {
    "infer_exact": _infer_exact,
    "infer_lowrank": _infer_lowrank,
    "mc_verify": _mc_verify,
    "depth_scan": _depth_scan,
}
