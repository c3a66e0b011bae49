"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from graphgp import cli  # noqa: E402
from graphgp.datasets import save_dataset, synthetic_dataset  # noqa: E402
from tracing import Span, Tracer, installed, round_metrics, self_times, summarize  # noqa: E402


def _tree():
    # cli.main [0, 10]
    #   inference.nugget_search [1, 4] (13 fits)
    #     kernels.GraphConv [2, 3]   (cannot occur in graphgp; tests nesting)
    #   kernels.Activation [5, 9]
    #     kernels.chol_factor [6, 8.5]
    return [
        Span("cli.main", 0.0, 10.0, None, 0),
        Span("inference.nugget_search", 1.0, 4.0, 0, 0, {"fits": 13}),
        Span("kernels.GraphConv", 2.0, 3.0, 1, 0),
        Span("kernels.Activation", 5.0, 9.0, 0, 0),
        Span("kernels.chol_factor", 6.0, 8.5, 3, 0),
    ]


def test_self_time_arithmetic_on_synthetic_tree():
    assert self_times(_tree()) == pytest.approx([3.0, 2.0, 1.0, 1.5, 2.5])
    m = round_metrics(_tree())[0]
    assert m["runners.self_s"] == pytest.approx(3.0)
    assert m["inference.nugget_search.self_s"] == pytest.approx(2.0)
    assert m["inference.nugget_search.fits"] == 13
    assert m["kernels.Activation.self_s"] == pytest.approx(1.5)
    assert m["kernels.chol_factor.self_s"] == pytest.approx(2.5)
    assert m["kernels.chol_factor.calls"] == 1
    assert m["kernels.Bias.calls"] == 0
    # the self times of a round add up to its root spans
    assert sum(self_times(_tree())) == pytest.approx(10.0)


def test_rounds_are_kept_apart_and_medianed():
    second = [Span(s.name, s.start + 20, s.end + 20 + (s.parent is None) * 4.0,
                   s.parent if s.parent is None else s.parent + 5, 1, s.attrs)
              for s in _tree()]
    spans = _tree() + second
    per_round = round_metrics(spans)
    assert per_round[0]["runners.self_s"] == pytest.approx(3.0)
    assert per_round[1]["runners.self_s"] == pytest.approx(7.0)
    all_names = {name for _, _, name, _ in tracing.TARGETS} | {"kernels.Activation"}
    assert summarize(spans, all_names)["runners.self_s"] == pytest.approx(5.0)


@pytest.fixture
def tiny_dir(tmp_path):
    path = str(tmp_path / "tiny")
    save_dataset(synthetic_dataset(80, n_features=8, seed=3), path)
    return path


def _originals():
    return {(owner, attr): vars(tracing._owner(owner))[attr]
            for owner, attr, _, _ in tracing.TARGETS}


def test_wrappers_leave_graphgp_unpatched(tiny_dir, tmp_path):
    before = _originals()
    tracer = Tracer()
    with installed(tracer) as available:
        with tracer.span(tracing.ROOT_SPAN):
            code = cli.main(["infer", "--dataset", tiny_dir, "--path", "lowrank",
                             "--landmarks", "20", "--out", str(tmp_path / "r.txt")])
        assert code == 0
        assert vars(tracing._owner("graphgp.runners"))["run_exact"] is not before[
            ("graphgp.runners", "run_exact")]
    after = _originals()
    assert all(after[key] is before[key] for key in before)
    names = {s.name for s in tracer.spans}
    assert {"programs.lowrank_variant", "kernels.Activation", "kernels.chol_factor",
            "inference.nugget_search", "inference.solve", "reports.to_text"} <= names
    metrics = summarize(tracer.spans, available)
    assert metrics["inference.nugget_search.fits"] == 13
    assert metrics["programs.traced_peak_nr"] > 0
    assert None not in metrics.values()

    with pytest.raises(RuntimeError):
        with installed(Tracer()):
            raise RuntimeError("traced code failed")
    assert all(_originals()[key] is before[key] for key in before)


def test_missing_target_reads_as_missing():
    targets = tracing.TARGETS + (("graphgp.programs", "no_such_loop", "programs.loop",
                                  tracing._plain),)
    targets = tuple(t for t in targets if t[2] != "limits.depth_scan")
    with installed(Tracer(), targets) as available:
        pass
    assert "programs.loop" not in available
    metrics = summarize([Span("cli.main", 0.0, 1.0)], available)
    assert metrics["limits.depth_scan.self_s"] is None
    assert metrics["runners.self_s"] == pytest.approx(1.0)


def _real_report(tiny_dir, tmp_path):
    out = str(tmp_path / "good.txt")
    assert cli.main(["infer", "--dataset", tiny_dir, "--path", "lowrank",
                     "--landmarks", "20", "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        return fh.read()


def _call_for(text):
    scalars, _ = workloads.parse_report(text)
    reference = {"metric": "r2", "value": float(scalars["r2_test"]), "tolerance": 1e-9}
    test_nodes = synthetic_dataset(80, n_features=8, seed=3).splits.test

    def check(s, t):
        return workloads.check_infer(s, t, test_nodes=test_nodes, reference=reference,
                                     lowrank=True)
    return workloads.Call(("infer",), check)


def _corruptions(text):
    lines = text.splitlines(keepends=True)
    last = lines[-1].split(",")
    negative = "".join(lines[:-1]) + ",".join(last[:-1] + ["-0.5\n"])
    return {"dropped row": "".join(lines[:-1]), "negative variance": negative}


def test_corrupted_reports_count_as_failed(tiny_dir, tmp_path):
    good = _real_report(tiny_dir, tmp_path)
    call = _call_for(good)
    assert call.check(*workloads.parse_report(good)) == []

    for label, text in {"good": good, **_corruptions(good)}.items():
        runner = run.Runner([call], str(tmp_path))

        def fake_main(argv, text=text):
            with open(argv[argv.index("--out") + 1], "w", encoding="utf-8") as fh:
                fh.write(text)
            return 0

        runner.main = fake_main
        try:
            runner.round()
        finally:
            runner.close()
        assert runner.attempted == 1
        assert runner.failed == (0 if label == "good" else 1), label


def test_nonzero_exit_counts_as_failed(tmp_path):
    runner = run.Runner([workloads.Call(("infer",), lambda s, t: [])], str(tmp_path))
    runner.main = lambda argv: 1
    try:
        runner.round()
    finally:
        runner.close()
    assert (runner.attempted, runner.failed) == (1, 1)


def test_depth_scan_and_mc_checks():
    rows = "\n".join(f"{i},0.5,1.0,0.1,nan,nan,0.6" for i in range(1, 61))
    header = "layer,rho_min,trace,top2_singular_ratio,scaled_gap,cauchy_gap,test_micro_f1"
    good = f"command: depth-scan\n\n[depth_trace]\n{header}\n{rows}\n"
    assert workloads.check_depth_scan(*workloads.parse_report(good)) == []
    short = good.rsplit("\n", 2)[0] + "\n"
    assert workloads.check_depth_scan(*workloads.parse_report(short))
    bad_rho = good.replace("\n7,0.5,", "\n7,1.5,")
    assert workloads.check_depth_scan(*workloads.parse_report(bad_rho))
    assert workloads.check_mc_verify({"rel_frobenius_error": "0.01"}, {}) == []
    assert workloads.check_mc_verify({"rel_frobenius_error": "0.2"}, {})
    assert workloads.check_mc_verify({}, {})


def test_same_seed_same_inputs(tmp_path):
    a = workloads.WORKLOADS["depth_scan"](str(tmp_path / "a"), 5)
    b = workloads.WORKLOADS["depth_scan"](str(tmp_path / "b"), 5)
    for name in ("edges.txt", "features.csv", "targets.txt", "splits.json"):
        with open(tmp_path / "a" / "scan200" / name, "rb") as fa, \
                open(tmp_path / "b" / "scan200" / name, "rb") as fb:
            assert fa.read() == fb.read()
    assert [c.argv[3:] for c in a] == [c.argv[3:] for c in b]
    assert np.array_equal(workloads.criterion1_dataset().features,
                          workloads.criterion1_dataset().features)


def test_benchmark_json_names_what_the_runs_print():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)
    assert [m["name"] for m in spec["end_to_end"]] == ["call_s", "setup_s", "peak_rss_mb"]
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.SOURCES) + ["trace.overhead_s"]
    assert all(m["unit"] == tracing.UNITS[m["name"]] for m in spec["per_layer"][:-1])
