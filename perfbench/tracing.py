"""Span tracing of graphgp's layers from outside the package.

The traced run swaps the module attributes graphgp resolves at call time
(``graphgp.runners.run_exact``, ``graphgp.programs.apply_block_exact``, ...)
for timing wrappers, and puts the originals back when it ends.  Nothing
under ``src/`` knows about it.  Spans are kept in memory as (name, start,
end, parent, run) and written out once, after the run.

A span's self time is its duration minus the durations of its child spans.
Posterior fits and predictions made inside ``nugget_search`` open no span of
their own, so the search's self time keeps its factorisations; the fits are
counted on the search span (``fits``).
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

ROOT_SPAN = "cli.main"
SEARCH_SPAN = "inference.nugget_search"
BLOCK_KINDS = ("GraphConv", "Activation", "Weight", "Bias", "MixedWeight", "IndependentAdd")


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: Optional[int] = None
    run: int = 0
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one per traced run, never shared."""

    def __init__(self):
        self.spans: List[Span] = []
        self.run = 0
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), parent=parent, run=self.run)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def current(self) -> Optional[Span]:
        return self.spans[self._stack[-1]] if self._stack else None

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "run": s.run, **s.attrs}
                for s in self.spans
            ], fh)


def self_times(spans: List[Span]) -> List[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


# ---------------------------------------------------------------------------
# wrappers


def _plain(tracer: Tracer, name: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _block(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """apply_block_*(rep, block, ...): the span is named by the block type."""
    def wrapper(*args, **kwargs):
        block = args[1] if len(args) > 1 else kwargs.get("block")
        with tracer.span("kernels." + type(block).__name__):
            return fn(*args, **kwargs)
    return wrapper


def _in_search(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Posterior method: a span of its own, or a count on the enclosing search."""
    def wrapper(*args, **kwargs):
        cur = tracer.current()
        if cur is not None and cur.name == SEARCH_SPAN:
            if name == "inference.solve":
                cur.attrs["fits"] = cur.attrs.get("fits", 0) + 1
            return fn(*args, **kwargs)
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _peak(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """run_exact(program, k0) / lowrank_variant(program, q0, landmarks): also
    the tracemalloc peak over the call, in units of 8 N^2 or 8 N r bytes."""
    def wrapper(*args, **kwargs):
        with tracer.span(name) as rec:
            tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            try:
                n = args[0].a.n_nodes
                r = n if name == "programs.run_exact" else (
                    args[2] if len(args) > 2 else kwargs["landmarks"]).count
            except (AttributeError, IndexError, KeyError):
                return result  # signature changed: no peak for this span
            rec.attrs["peak_bytes"] = peak
            rec.attrs["unit_bytes"] = 8.0 * n * r
            return result
    return wrapper


def _sampler(tracer: Tracer, name: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        with tracer.span(name) as rec:
            samples = getattr(args[0] if args else kwargs.get("cfg"), "n_samples", None)
            if samples:
                rec.attrs["samples"] = samples
            return fn(*args, **kwargs)
    return wrapper


# (owner, attribute, span name, wrapper factory); owner is a module path,
# optionally followed by a class name
TARGETS = (
    ("graphgp.runners", "load_dataset", "datasets.load_dataset", _plain),
    ("graphgp.runners", "normalize_sym", "adjacency.normalize", _plain),
    ("graphgp.runners", "normalize_row", "adjacency.normalize", _plain),
    ("graphgp.runners", "base_inner", "kernels.base_inner", _plain),
    ("graphgp.runners", "run_exact", "programs.run_exact", _peak),
    ("graphgp.runners", "nystrom_start", "programs.nystrom_start", _plain),
    ("graphgp.runners", "lowrank_variant", "programs.lowrank_variant", _peak),
    ("graphgp.runners", "nugget_search", SEARCH_SPAN, _plain),
    ("graphgp.runners", "sample_covariance", "finite_width.sample_covariance", _sampler),
    ("graphgp.runners", "compare_covariance", "finite_width.compare_covariance", _plain),
    ("graphgp.runners", "depth_scan", "limits.depth_scan", _plain),
    ("graphgp.programs", "apply_block_exact", "kernels.block", _block),
    ("graphgp.programs", "apply_block_lowrank", "kernels.block", _block),
    ("graphgp.programs", "chol_factor", "kernels.chol_factor", _plain),
    ("graphgp.kernels", "chol_factor", "kernels.chol_factor", _plain),
    ("graphgp.limits", "spectral_radius", "adjacency.spectral_radius", _plain),
    ("graphgp.reports:Report", "to_text", "reports.to_text", _plain),
    # the posterior classes are shared by runners and inference, so wrapping
    # their methods covers both call sites
    ("graphgp.inference:ExactPosterior", "__init__", "inference.solve", _in_search),
    ("graphgp.inference:LowRankPosterior", "__init__", "inference.solve", _in_search),
    ("graphgp.inference:ExactPosterior", "mean", "inference.predict", _in_search),
    ("graphgp.inference:LowRankPosterior", "mean", "inference.predict", _in_search),
    ("graphgp.inference:LowRankPosterior", "variance", "inference.predict", _in_search),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(obj, cls, None) if cls else obj


@contextmanager
def installed(tracer: Tracer, targets=TARGETS) -> Iterator[set]:
    """Wrap every target that exists; yield the span names now produced.

    A target whose owner or attribute is gone is skipped, and the metrics
    built on its span name read as missing.  Every swapped attribute is put
    back on exit, even when the traced code raised.
    """
    swapped = []
    available = set()
    try:
        for owner_path, attr, name, factory in targets:
            owner = _owner(owner_path)
            if owner is None or attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            setattr(owner, attr, factory(tracer, name, original))
            swapped.append((owner, attr, original))
            available.update(
                ["kernels." + k for k in BLOCK_KINDS] if factory is _block else [name]
            )
        yield available
    finally:
        for owner, attr, original in reversed(swapped):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics


def _self_metrics() -> Dict[str, str]:
    """Metric name -> span name whose summed self time it reports."""
    names = ["kernels." + k for k in BLOCK_KINDS] + [
        "kernels.chol_factor", "kernels.base_inner",
        "programs.run_exact", "programs.lowrank_variant", "programs.nystrom_start",
        SEARCH_SPAN,
        "finite_width.sample_covariance", "finite_width.compare_covariance",
        "limits.depth_scan", "adjacency.spectral_radius", "adjacency.normalize",
        "datasets.load_dataset", "reports.to_text",
    ]
    out = {n + ".self_s": n for n in names}
    out["inference.solve_s"] = "inference.solve"
    out["inference.predict_s"] = "inference.predict"
    out["runners.self_s"] = ROOT_SPAN
    return out


SELF_METRICS = _self_metrics()
CALL_METRICS = {f"kernels.{k}.calls": f"kernels.{k}"
                for k in BLOCK_KINDS + ("chol_factor",)}
PEAK_METRICS = {"programs.traced_peak_nn": "programs.run_exact",
                "programs.traced_peak_nr": "programs.lowrank_variant"}
OTHER_METRICS = {"inference.nugget_search.fits": SEARCH_SPAN,
                 "finite_width.per_sample_s": "finite_width.sample_covariance"}
SOURCES = {**SELF_METRICS, **CALL_METRICS, **PEAK_METRICS, **OTHER_METRICS}
UNITS = {
    **{m: "s" for m in SELF_METRICS},
    **{m: "count" for m in CALL_METRICS},
    "programs.traced_peak_nn": "NxN",
    "programs.traced_peak_nr": "Nxr",
    "inference.nugget_search.fits": "count",
    "finite_width.per_sample_s": "s",
}


def round_metrics(spans: List[Span]) -> Dict[int, Dict[str, float]]:
    """Per-layer values for each traced round, keyed by the spans' run id."""
    selfs = self_times(spans)
    groups: Dict[int, Dict[str, List[int]]] = {}
    for i, s in enumerate(spans):
        groups.setdefault(s.run, {}).setdefault(s.name, []).append(i)

    out = {}
    for run, by_name in groups.items():
        vals = {}
        for metric, name in SELF_METRICS.items():
            vals[metric] = sum(selfs[i] for i in by_name.get(name, ()))
        for metric, name in CALL_METRICS.items():
            vals[metric] = float(len(by_name.get(name, ())))
        for metric, name in PEAK_METRICS.items():
            vals[metric] = max(
                (spans[i].attrs["peak_bytes"] / spans[i].attrs["unit_bytes"]
                 for i in by_name.get(name, ()) if "unit_bytes" in spans[i].attrs),
                default=0.0,
            )
        searches = by_name.get(SEARCH_SPAN, ())
        vals["inference.nugget_search.fits"] = (
            sum(spans[i].attrs.get("fits", 0) for i in searches) / len(searches)
            if searches else 0.0
        )
        vals["finite_width.per_sample_s"] = sum(
            spans[i].duration / spans[i].attrs["samples"]
            for i in by_name.get("finite_width.sample_covariance", ())
            if "samples" in spans[i].attrs
        )
        out[run] = vals
    return out


def summarize(spans: List[Span], available: set) -> Dict[str, Optional[float]]:
    """Median over rounds of each per-layer metric; None where the span
    that feeds it could not be installed."""
    rounds = list(round_metrics(spans).values())
    out: Dict[str, Optional[float]] = {}
    for metric, name in SOURCES.items():
        if name not in available and name != ROOT_SPAN:
            out[metric] = None
        else:
            out[metric] = statistics.median(r[metric] for r in rounds)
    return out
