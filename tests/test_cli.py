import contextlib
import dataclasses
import io
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import graphgp
from graphgp import (
    ExactPosterior,
    KernelProgram,
    LandmarkSet,
    LowRankPosterior,
    base_inner,
    classify_onehot,
    lowrank_variant,
    normalize_sym,
    nugget_search,
    nystrom_start,
    report_schema,
    run_exact,
    save_dataset,
    synthetic_dataset,
)
from graphgp import cli, kernels, limits, programs, runners
from graphgp.cli import main
from graphgp.runners import ARCH_CHOICES, RunConfig, run_benchmark

from conftest import FIXTURE_DIR

GOLDEN_SCHEMA = os.path.join(os.path.dirname(__file__), "data", "infer_schema.txt")
GOLDEN_REPORTS = os.path.join(os.path.dirname(__file__), "data", "fixture_reports.txt")
GOLDEN_RUNS = (
    *(("infer", "--arch", arch) for arch in ARCH_CHOICES),
    ("infer", "--arch", "gcn", "--path", "lowrank"),
    ("infer", "--nugget", "0.1"),
    ("infer", "--path", "lowrank", "--nugget", "0.1"),
    ("infer", "--arch", "rbf", "--nugget", "0.1"),
    ("depth-scan", "--arch", "gcn", "--layers", "12"),
    ("depth-scan", "--arch", "mlp", "--layers", "12"),
    ("depth-scan", "--arch", "gcn", "--layers", "4", "--nugget", "0.1"),
    # feature preprocessing and the base kernels
    ("infer", "--pca", "1"),
    ("infer", "--center"),
    ("infer", "--path", "lowrank", "--pca", "1", "--center"),
    ("infer", "--base", "rbf", "--gamma", "0.5"),
    ("infer", "--base", "poly", "--poly-c", "2", "--poly-d", "2"),
    ("infer", "--arch", "ggp", "--poly-c", "2", "--poly-d", "2"),
    ("depth-scan", "--base", "poly", "--layers", "4"),
    # a dense layer with a non-unit weight and a bias, on both paths
    ("infer", "--sigma-w", "1.5", "--sigma-b", "0.3"),
    ("infer", "--path", "lowrank", "--sigma-w", "1.5", "--sigma-b", "0.3"),
    ("infer", "--arch", "gin", "--sigma-w", "1.5", "--sigma-b", "0.3"),
    ("infer", "--arch", "mlp", "--path", "lowrank", "--sigma-w", "0.8", "--sigma-b", "0.5"),
    ("depth-scan", "--arch", "gcn", "--layers", "4", "--sigma-w", "1.5", "--sigma-b", "0.3"),
    # the finite-width sampler, a biased dense layer at each of three layers
    *(("mc-verify", "--arch", arch, "--layers", "3", "--width", "64", "--samples", "5",
       "--sigma-b", "0.3") for arch in ("gcn", "mlp")),
    # sage with a self branch, which gcn has not, on both paths
    *(("infer", "--arch", "sage", "--path", path, "--sigma-w1", "0.5")
      for path in ("exact", "lowrank")),
    # ggp's one GraphConv on the factor
    ("infer", "--arch", "ggp", "--path", "lowrank", "--poly-c", "2", "--poly-d", "2"),
    # every layered architecture through the pivoted Nystrom factor
    *(("infer", "--arch", arch, "--path", "lowrank") for arch in ("gcnii", "gin", "sage", "mlp")),
    *(("infer", "--arch", arch, "--path", path, "--sigma-w", "1.5", "--sigma-b", "0.3")
      for arch, path in (("gin", "lowrank"), ("mlp", "exact"), ("mlp", "lowrank"))),
    # feature preprocessing and the base kernels at their default parameters
    *(("infer", "--path", "lowrank", *flags)
      for flags in (("--pca", "1"), ("--center",), ("--base", "rbf"), ("--base", "poly"))),
    ("infer", "--base", "rbf"),
    ("infer", "--base", "poly"),
    ("infer", "--arch", "sage", "--layers", "3", "--sigma-w", "1.5", "--center",
     "--nugget-grid", "0.01,1,5"),
    *(("depth-scan", "--arch", arch, "--layers", "20") for arch in ("gcn", "gcnii", "mlp")),
    # the sampler draws every layered network, each with a ReLU between two maps
    *(("mc-verify", "--arch", arch, "--layers", "3", "--width", "64", "--samples", "5")
      for arch in ("gcn", "gcnii", "gin", "sage", "mlp")),
    ("mc-verify", "--arch", "gin", "--layers", "3", "--width", "64", "--samples", "5",
     "--sigma-b", "0.3"),
    # ggp's one GraphConv on the factor, at the default poly parameters
    ("infer", "--arch", "ggp", "--path", "lowrank"),
)
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def run_cli(capsys, *args):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def table_rows(text, name):
    lines = text.splitlines()
    start = lines.index(f"[{name}]")
    rows = []
    for line in lines[start + 2:]:
        if not line or line.startswith("["):
            break
        rows.append(line.split(","))
    return rows


def strip_timing(text):
    keep, skip = [], False
    for line in text.splitlines():
        if line.startswith("["):
            skip = line == "[timing]"
        if not skip:
            keep.append(line)
    return "\n".join(keep)


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "graphgp 0.1.0" in capsys.readouterr().out


def test_infer_schema_is_frozen(capsys):
    code, out, _ = run_cli(capsys, "infer", "--dataset", FIXTURE_DIR, "--layers", "2")
    assert code == 0
    with open(GOLDEN_SCHEMA, encoding="utf-8") as fh:
        assert report_schema(out) == fh.read().splitlines()


def fixture_reports():
    """Each golden run's report on the fixture outside [timing], under a
    '# graphgp ...' line naming the run.

    tests/data/fixture_reports.txt holds this text.  Rewriting that file is
    a deliberate change of report bytes, recorded in CHANGES.md; a new run
    is appended to GOLDEN_RUNS, and its block to the file.  Under the
    suite's RuntimeWarning rule no run may warn of a numerical fault.
    """
    parts = []
    for args in GOLDEN_RUNS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main([*args, "--dataset", FIXTURE_DIR]) == 0
        parts.append(f"# graphgp {' '.join(args)}\n{strip_timing(buf.getvalue())}\n")
    return "".join(parts)


def test_fixture_reports_match_golden():
    # text exactly, numbers to 1e-9 relative, since another BLAS may round a
    # 12th digit; and to 1e-14 absolute, since a singular-value ratio near
    # 1e-11 (depth-scan's last layers) moves by about 1e-16 with the order
    # of the rounding
    with open(GOLDEN_REPORTS, encoding="utf-8") as fh:
        want = fh.read().splitlines()
    got = fixture_reports().splitlines()
    assert len(got) == len(want)
    for got_line, want_line in zip(got, want):
        got_parts, want_parts = NUMBER.split(got_line), NUMBER.split(want_line)
        assert got_parts[::2] == want_parts[::2], got_line
        for g, w in zip(got_parts[1::2], want_parts[1::2]):
            assert math.isclose(float(g), float(w), rel_tol=1e-9, abs_tol=1e-14), (
                got_line, want_line)


# runs on graphs larger than the fixture: depth scans take the Lanczos
# top-two ratio above its SVD cutoff, and the low-rank infer's 3000 x 100
# factor is two row tiles and two column blocks of L^{-T}, each last one ragged
@pytest.mark.parametrize("n, data, args", [
    (400, {"n_features": 32, "n_classes": 2}, ("depth-scan", "--arch", "gcn", "--layers", "8")),
    (400, {"n_features": 32, "n_classes": 2}, ("depth-scan", "--arch", "gcnii", "--layers", "8")),
    (3000, {}, ("infer", "--path", "lowrank", "--landmarks", "100")),
], ids=["depth-scan-gcn-400", "depth-scan-gcnii-400", "infer-lowrank-3000"])
def test_runs_beyond_the_fixture(n, data, args, tmp_path, capsys):
    save_dataset(synthetic_dataset(n, seed=0, **data), str(tmp_path / "ds"))
    code, _, err = run_cli(capsys, *args, "--dataset", str(tmp_path / "ds"))
    assert (code, err) == (0, "")


def test_infer_is_reproducible_outside_timing(capsys):
    args = ("infer", "--dataset", FIXTURE_DIR, "--layers", "2", "--seed", "5")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first != second  # wall-clock rows differ
    assert strip_timing(first) == strip_timing(second)


def test_exact_and_all_landmark_lowrank_predict_alike(capsys):
    code, exact, _ = run_cli(capsys, "infer", "--dataset", FIXTURE_DIR)
    assert code == 0
    code, lowrank, _ = run_cli(
        capsys, "infer", "--dataset", FIXTURE_DIR, "--path", "lowrank",
        "--landmarks", "4",
    )
    assert code == 0
    a = table_rows(exact, "predictions")
    b = table_rows(lowrank, "predictions")
    assert [r[0] for r in a] == [r[0] for r in b]
    assert [r[2] for r in a] == [r[2] for r in b]
    # the factored path also reports a predictive variance column
    assert "variance" in lowrank.splitlines()[lowrank.splitlines().index("[predictions]") + 1]


@pytest.mark.parametrize("path", ["exact", "lowrank"])
def test_infer_predicts_as_the_library_pipeline(path, tmp_path, capsys):
    # infer is nugget_search on the run's kernel, then the winning fit's mean
    ds = synthetic_dataset(120, n_classes=2, seed=2)
    save_dataset(ds, str(tmp_path / "ds"))
    code, out, err = run_cli(capsys, "infer", "--dataset", str(tmp_path / "ds"),
                             "--path", path)
    assert (code, err) == (0, "")

    program = KernelProgram.gcn(normalize_sym(ds.graph), 2)
    if path == "exact":
        rep = run_exact(program, base_inner(ds.features))
    else:
        marks = LandmarkSet(np.sort(ds.splits.train))
        rep = lowrank_variant(program, nystrom_start(ds.features, marks), marks)
    fit, _ = nugget_search(rep, ds.splits, ds.targets)
    classes = np.unique(ds.targets)
    pred = classes[classify_onehot(fit.mean(ds.splits.test))]

    rows = table_rows(out, "predictions")
    assert [int(r[0]) for r in rows] == ds.splits.test.tolist()
    assert [int(r[2]) for r in rows] == pred.tolist()
    assert f"nugget: {fit.nugget:.12g}" in out.splitlines()
    if path == "lowrank":
        var = fit.variance(ds.splits.test)
        assert [r[3] for r in rows] == [format(v, ".12g") for v in var]


@pytest.mark.parametrize("path", ["exact", "lowrank"])
def test_infer_fits_once_per_grid_point_and_never_refits(path, capsys, monkeypatch):
    # a searched infer constructs one posterior per grid point, all inside
    # nugget_search, and predicts from the winner; --nugget is a one-point
    # search, so it constructs one posterior, inside nugget_search too
    inside, made = [], []
    for cls in (ExactPosterior, LowRankPosterior):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            made.append(bool(inside))
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)

    def search(*args, _search=runners.nugget_search, **kwargs):
        inside.append(True)
        try:
            return _search(*args, **kwargs)
        finally:
            inside.pop()
    monkeypatch.setattr(runners, "nugget_search", search)
    args = ("infer", "--dataset", FIXTURE_DIR, "--path", path, "--landmarks", "4")
    args = args if path == "lowrank" else args[:-2]
    assert run_cli(capsys, *args)[0] == 0
    assert made == [True] * 13
    made.clear()
    assert run_cli(capsys, *args, "--nugget", "0.5")[0] == 0
    assert made == [True]


@pytest.mark.parametrize("flags", [(), ("--nugget", "0.1")], ids=["searched", "fixed"])
def test_infer_without_a_finite_validation_score_reports(flags, monkeypatch, capsys):
    # a NaN feature on a validation node makes its rbf kernel row NaN, so
    # every validation R^2 is NaN; the run warns and reports the fit at the
    # smallest candidate instead of failing.  A features file with a NaN is
    # rejected when it is read, so the dataset reaches the runner in memory.
    ds = synthetic_dataset(60, seed=3)
    ds.features[ds.splits.val[0], 0] = np.nan
    monkeypatch.setattr(runners, "load_dataset", lambda path: ds)
    with pytest.warns(RuntimeWarning, match="no validation score is finite"):
        code, out, err = run_cli(capsys, "infer", "--dataset", "in-memory",
                                 "--arch", "rbf", "--gamma", "0.5", *flags)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert "r2_val: nan" in lines
    assert f"nugget: {flags[1] if flags else '0.001'}" in lines
    assert ("[nugget_search]" in lines) == (not flags)


def test_warning_prints_one_stable_stderr_line(tmp_path, capsys):
    # a constant regression validation target leaves R^2 undefined; the
    # warning reaches stderr as one line, without the file and line that
    # raised it, so the stderr of a run does not move with the source
    ds = synthetic_dataset(60, seed=3)
    ds.targets[ds.splits.val] = 0.5
    save_dataset(ds, str(tmp_path / "ds"))
    src = os.path.dirname(os.path.dirname(graphgp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "graphgp.cli", "infer", "--dataset", str(tmp_path / "ds")],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0
    assert proc.stderr == (
        "warning: validation target is constant, R^2 is undefined; "
        "falling back to the smallest nugget\n"
    )
    assert "r2_val: nan" in proc.stdout.splitlines()
    # the format is the call's own: main leaves the warnings module as it found it
    before = warnings.formatwarning
    with pytest.warns(RuntimeWarning, match="constant"):
        assert run_cli(capsys, "infer", "--dataset", str(tmp_path / "ds"))[0] == 0
    assert warnings.formatwarning is before


def test_config_file_supplies_defaults_flags_override(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[infer]\nlayers = 3\nsigma-w = 1.5\n")
    _, out, _ = run_cli(capsys, "infer", "--dataset", FIXTURE_DIR, "--config", str(ini))
    assert "layers: 3" in out
    assert "sigma_w: 1.5" in out
    _, out, _ = run_cli(
        capsys, "infer", "--dataset", FIXTURE_DIR, "--config", str(ini),
        "--layers", "1",
    )
    assert "layers: 1" in out
    assert "sigma_w: 1.5" in out


def untimed(text):
    """A report's lines without its wall-clock values: [timing], and the
    benchmark's slope and build seconds."""
    keep, table = [], None
    for line in strip_timing(text).splitlines():
        if line.startswith("["):
            table = line
        elif table == "[scaling]":
            line = ",".join(line.split(",")[:2])
        if not line.startswith("loglog_slope: "):
            keep.append(line)
    return keep


# every kind of value a config key takes: int, float, str, both spellings of
# a key, center true and false, a nugget grid, sizes and ratios
@pytest.mark.parametrize("command, values", [
    ("infer", {"arch": "sage", "layers": "3", "sigma-w": "1.5", "sigma_w1": "0.5",
               "base": "poly", "poly-c": "2", "center": "true", "nugget-grid": "0.01,1,5",
               "seed": "3"}),
    ("infer", {"path": "lowrank", "landmarks": "3", "pca": "1", "center": "false"}),
    ("depth-scan", {"layers": "3", "base": "rbf", "gamma": "0.5", "nugget": "0.1"}),
    ("mc-verify", {"arch": "gcnii", "alpha": "0.3", "decay": "1", "width": "64",
                   "samples": "5"}),
    ("benchmark", {"sizes": "100,200", "landmarks": "16", "repeats": "1", "degree": "3"}),
    ("make-splits", {"ratios": "0.5,0.25,0.25", "seed": "1"}),
], ids=["infer-exact", "infer-lowrank", "depth-scan", "mc-verify", "benchmark",
        "make-splits"])
def test_config_file_matches_flags(command, values, tmp_path, capsys):
    dataset = tmp_path / "ds"
    shutil.copytree(FIXTURE_DIR, dataset)
    if command != "benchmark":
        values = {"dataset": str(dataset), **values}
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{command}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
    flags = []
    for key, value in values.items():
        if key == "center":
            flags += ["--center"] * (value == "true")
        else:
            flags += ["--" + key.replace("_", "-"), value]
    outputs = []
    for args in (["--config", str(ini)], flags):
        if command == "make-splits":
            (dataset / "splits.json").unlink(missing_ok=True)
        code, out, err = run_cli(capsys, command, *args)
        assert (code, err) == (0, "")
        outputs.append(untimed(out))
    assert outputs[0] == outputs[1]


def test_unknown_config_key_is_an_error(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[infer]\nbogus = 1\n")
    code, _, err = run_cli(
        capsys, "infer", "--dataset", FIXTURE_DIR, "--config", str(ini)
    )
    assert code == 1
    assert "unknown key 'bogus' in [infer]" in err


@pytest.mark.parametrize("command, line", [
    ("infer", "width = 5"),  # mc-verify's
    ("infer", "repeats = 0"),  # benchmark's, a value its flag rejects
    ("make-splits", "layers = 0"),  # the runner would reject it
    ("mc-verify", "nugget-grid = 0.01,1,5"),
    ("mc-verify", "poly_c = 2"),
])
def test_config_section_takes_only_its_own_flags(command, line, tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{command}]\n{line}\n")
    code, out, err = run_cli(capsys, command, "--dataset", FIXTURE_DIR, "--config", str(ini))
    assert (code, out) == (1, "")
    assert f"unknown key {line.split()[0]!r} in [{command}]" in err


def test_config_default_section_is_shared(tmp_path, capsys):
    # a [DEFAULT] key reaches every section: where another subcommand takes
    # it, it is skipped; a key no subcommand takes is an error
    ini = tmp_path / "run.ini"
    ini.write_text("[DEFAULT]\nlayers = 3\nwidth = 64\nsamples = 5\n[infer]\n[mc-verify]\n")
    code, out, err = run_cli(capsys, "infer", "--dataset", FIXTURE_DIR, "--config", str(ini))
    assert (code, err) == (0, "")
    assert "layers: 3" in out.splitlines()
    code, out, err = run_cli(capsys, "mc-verify", "--dataset", FIXTURE_DIR,
                             "--config", str(ini))
    assert (code, err) == (0, "")
    assert {"layers: 3", "width: 64", "samples: 5"} <= set(out.splitlines())
    ini.write_text("[DEFAULT]\nbogus = 1\n[infer]\n")
    code, out, err = run_cli(capsys, "infer", "--dataset", FIXTURE_DIR, "--config", str(ini))
    assert (code, out) == (1, "")
    assert "unknown key 'bogus' in [DEFAULT]" in err


def test_config_without_the_section_leaves_the_defaults(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[DEFAULT]\nlayers = 3\n[depth-scan]\nlayers = 4\n")
    _, plain, _ = run_cli(capsys, "infer", "--dataset", FIXTURE_DIR)
    code, out, err = run_cli(capsys, "infer", "--dataset", FIXTURE_DIR, "--config", str(ini))
    assert (code, err) == (0, "")
    assert strip_timing(out) == strip_timing(plain)


@pytest.mark.parametrize("line, message", [
    ("center = maybe", "bad value for 'center': not a boolean: 'maybe'"),
    ("layers = two", "bad value for 'layers': invalid literal for int()"),
    ("nugget-grid = 0.1,1", "bad value for 'nugget-grid': expected LO,HI,POINTS"),
])
def test_bad_config_value_is_an_error(line, message, tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(f"[infer]\n{line}\n")
    code, out, err = run_cli(capsys, "infer", "--dataset", FIXTURE_DIR, "--config", str(ini))
    assert (code, out) == (1, "")
    assert message in err


@pytest.mark.parametrize("args, message", [
    (("infer", "--nugget-grid", "0.1,1"), "expected LO,HI,POINTS"),
    (("infer", "--nugget-grid", "0.1,1,x"), "invalid literal for int()"),
    (("benchmark", "--sizes", "100,x"), "invalid literal for int()"),
    (("make-splits", "--ratios", "0.5,x"), "could not convert string to float"),
])
def test_malformed_list_flags_are_rejected(args, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("layers = 2\n", "File contains no section headers."),
    ("[infer]\nlayers = 2\nlayers = 3\n", "option 'layers' in section 'infer' already exists"),
], ids=["no-section-header", "key-set-twice"])
def test_malformed_config_file_is_an_error(text, message, tmp_path, capsys):
    # configparser's own errors end in one error line, not a traceback
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    code, out, err = run_cli(capsys, "infer", "--dataset", FIXTURE_DIR, "--config", str(ini))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {ini}: ") and message in err
    assert err.count("\n") == 1


def test_every_run_config_field_is_a_flag():
    # each RunConfig field is some subcommand's flag, and each flag a field
    taken = [name for _, _, fields in cli.SUBCOMMANDS.values() for name in fields]
    assert set(taken) == {f.name for f in dataclasses.fields(RunConfig)}
    assert all(len(set(fields)) == len(fields) for _, _, fields in cli.SUBCOMMANDS.values())


def test_missing_config_file(capsys):
    code, _, err = run_cli(
        capsys, "infer", "--dataset", FIXTURE_DIR, "--config", "/no/such.ini"
    )
    assert code == 1
    assert err.startswith("error: config file not found")


def test_missing_dataset_is_a_clean_error(capsys):
    code, out, err = run_cli(capsys, "infer", "--dataset", "/no/such/dir")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "missing features.csv or features.bin" in err


def test_out_writes_the_report(tmp_path, capsys):
    path = str(tmp_path / "report.txt")
    code, out, err = run_cli(
        capsys, "infer", "--dataset", FIXTURE_DIR, "--out", path
    )
    assert code == 0
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == out
    assert path in err


def test_unwritable_out_is_one_error_line(tmp_path, capsys):
    path = str(tmp_path / "missing" / "report.txt")
    code, _, err = run_cli(capsys, "infer", "--dataset", FIXTURE_DIR, "--out", path)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path in err


def test_make_splits_writes_once(tmp_path, capsys):
    d = tmp_path / "ds"
    d.mkdir()
    for name in ("edges.txt", "features.csv", "targets.txt"):
        shutil.copy(os.path.join(FIXTURE_DIR, name), d / name)
    code, out, _ = run_cli(
        capsys, "make-splits", "--dataset", str(d), "--ratios", "0.5,0.25,0.25"
    )
    assert code == 0
    assert (d / "splits.json").exists()
    assert "n_train: 2" in out
    code, _, err = run_cli(
        capsys, "make-splits", "--dataset", str(d), "--ratios", "0.5,0.25,0.25"
    )
    assert code == 1
    assert "delete it first" in err


def test_depth_scan_smoke(capsys):
    code, out, _ = run_cli(
        capsys, "depth-scan", "--dataset", FIXTURE_DIR, "--layers", "6",
        "--sigma-w", "1.2",
    )
    assert code == 0
    rows = table_rows(out, "depth_trace")
    assert len(rows) == 6
    assert [r[0] for r in rows] == [str(l) for l in range(1, 7)]
    assert "perron_eigenvalue: " in out


@pytest.mark.parametrize("flags, regime", [
    ((), "subcritical"), (("--sigma-w", "2.0"), "supercritical"),
])
def test_depth_scan_mlp_reports_the_graph_free_limit(flags, regime, capsys):
    code, out, err = run_cli(
        capsys, "depth-scan", "--dataset", FIXTURE_DIR, "--arch", "mlp", "--layers", "6",
        *flags,
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert f"regime: {regime}" in lines
    has_flat_level = any(line.startswith("flat_level: ") for line in lines)
    assert has_flat_level == (regime == "subcritical")
    rows = table_rows(out, "mlp_trace")
    assert [r[0] for r in rows] == [str(l) for l in range(1, 7)]
    assert all(np.isfinite(float(x)) for r in rows for x in r[1:])


def test_depth_scan_mlp_rejects_the_critical_point(capsys):
    code, out, err = run_cli(
        capsys, "depth-scan", "--dataset", FIXTURE_DIR, "--arch", "mlp",
        "--sigma-w", "1.4142135623730951",
    )
    assert (code, out) == (1, "")
    assert "critical point" in err


# each architecture's own hyperparameters, far from their defaults: a sampler
# that dropped any of them would miss the analytic kernel by far more than the
# bound
MC_HYPERPARAMETERS = {
    "gcn": ("--sigma-b", "1.5", "--sigma-w", "2.0"),
    "gcnii": ("--alpha", "0.6", "--decay", "3.0", "--sigma-w", "1.5"),
    "gin": ("--sigma-b", "1.5", "--sigma-w", "2.0"),
    "sage": ("--sigma-w1", "1.5", "--sigma-w2", "0.5"),
    "mlp": ("--sigma-b", "1.5", "--sigma-w", "2.0"),
}


@pytest.mark.parametrize("arch", list(MC_HYPERPARAMETERS))
def test_mc_verify_smoke(arch, capsys):
    # observed errors at this budget: below 0.008 at seed 0, at most 0.015 over seeds 0-7
    code, out, _ = run_cli(
        capsys, "mc-verify", "--dataset", FIXTURE_DIR, "--arch", arch,
        "--width", "2048", "--samples", "100", *MC_HYPERPARAMETERS[arch],
    )
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("rel_frobenius_error:"))
    assert float(line.split(":")[1]) <= 0.05


@pytest.mark.parametrize("command", ["mc-verify", "depth-scan"])
@pytest.mark.parametrize("arch, flags, lines", [
    ("gcnii", ("--alpha", "0.6", "--decay", "3.0"), ["alpha: 0.6", "decay: 3"]),
    ("sage", ("--sigma-w1", "1.5", "--sigma-w2", "0.5"), ["sigma_w1: 1.5", "sigma_w2: 0.5"]),
])
def test_diagnostics_report_arch_hyperparameters(command, arch, flags, lines, capsys):
    size = ("--width", "64", "--samples", "5") if command == "mc-verify" else ()
    code, out, _ = run_cli(
        capsys, command, "--dataset", FIXTURE_DIR, "--arch", arch, "--layers", "3",
        *size, *flags,
    )
    assert code == 0
    assert all(line in out.splitlines() for line in lines)


def test_benchmark_smoke(capsys):
    code, out, _ = run_cli(
        capsys, "benchmark", "--sizes", "100,200", "--landmarks", "16",
        "--repeats", "1",
    )
    assert code == 0
    assert len(table_rows(out, "scaling")) == 2
    assert "loglog_slope: " in out


@pytest.mark.parametrize("sizes", [(200, 200), (200,)])
def test_benchmark_needs_two_distinct_sizes(sizes, capsys):
    with pytest.raises(ValueError, match="at least two distinct sizes"):
        run_benchmark(RunConfig(sizes=sizes, landmarks=16, repeats=1))
    code, out, err = run_cli(
        capsys, "benchmark", "--sizes", ",".join(map(str, sizes)), "--repeats", "1"
    )
    assert code == 1
    assert out == ""
    assert "at least two distinct sizes" in err


def test_benchmark_needs_a_repeat(capsys):
    with pytest.raises(ValueError, match="repeats must be at least 1, got 0"):
        run_benchmark(RunConfig(sizes=(100, 200), landmarks=16, repeats=0))
    code, out, err = run_cli(capsys, "benchmark", "--sizes", "100,200", "--repeats", "0")
    assert code == 1
    assert out == ""
    assert "repeats must be at least 1" in err


def test_benchmark_repeats_interleave_the_sizes(monkeypatch):
    built = []
    real = runners.lowrank_variant

    def recording(program, q0, landmarks):
        built.append(q0.n)
        return real(program, q0, landmarks)

    monkeypatch.setattr(runners, "lowrank_variant", recording)
    rep = run_benchmark(RunConfig(sizes=(100, 300, 200), landmarks=16, repeats=3))
    # one untimed build at the largest size, then one pass over every size per repeat
    assert built == [300] + [100, 300, 200] * 3
    scaling, = rep.tables
    assert [len(row[3].split("|")) for row in scaling.rows] == [3, 3, 3]


@pytest.mark.parametrize("command", ["benchmark", "depth-scan", "mc-verify"])
def test_benchmark_times_the_chosen_arch(command, capsys):
    # the commands that run a layered program reject ggp and rbf alike
    if command == "benchmark":
        code, out, _ = run_cli(
            capsys, "benchmark", "--arch", "mlp", "--sizes", "100,200", "--landmarks", "16",
            "--repeats", "1",
        )
        assert code == 0
        assert "arch: mlp" in out.splitlines()
    flags = ("--repeats", "1") if command == "benchmark" else ("--dataset", FIXTURE_DIR)
    for arch in ("ggp", "rbf"):
        if command == "benchmark":
            with pytest.raises(ValueError, match="architectures gcn, gcnii, gin, sage, mlp"):
                run_benchmark(RunConfig(arch=arch, sizes=(100, 200), landmarks=16, repeats=1))
        code, out, err = run_cli(capsys, command, "--arch", arch, *flags)
        assert code == 1
        assert out == ""
        assert (f"this command runs the layered architectures gcn, gcnii, gin, sage, mlp, "
                f"not {arch!r}") in err


def test_single_class_dataset_runs(tmp_path, capsys):
    # the nugget search used to stop at "at least two channels" on one class
    d = tmp_path / "one_class"
    shutil.copytree(FIXTURE_DIR, d)
    (d / "targets.txt").write_text("1\n1\n1\n1\n")
    for path in ("exact", "lowrank"):
        code, out, err = run_cli(capsys, "infer", "--dataset", str(d), "--path", path)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert "nugget: 0.001" in lines  # all scores tie: the smallest nugget
        assert "micro_f1_test: 1" in lines
    code, out, err = run_cli(capsys, "depth-scan", "--dataset", str(d), "--layers", "3")
    assert (code, err) == (0, "")
    assert [r[-1] for r in table_rows(out, "depth_trace")] == ["1", "1", "1"]


@pytest.mark.parametrize("args, message", [
    (("infer", "--arch", "gcnii", "--alpha", "1.5"), "alpha must be in [0, 1]"),
    (("infer", "--arch", "gcnii", "--alpha", "-0.5"), "alpha must be in [0, 1]"),
    (("infer", "--arch", "gcnii", "--decay", "-2"), "decay must be nonnegative"),
    (("infer", "--arch", "gcnii", "--decay", "-1"), "decay must be nonnegative"),
    (("infer", "--arch", "sage", "--sigma-w", "-1"), "sigma parameters must be nonnegative"),
    (("infer", "--arch", "gcnii", "--sigma-b", "-1"), "sigma parameters must be nonnegative"),
    (("depth-scan", "--arch", "mlp", "--alpha", "2"), "alpha must be in [0, 1]"),
    (("infer", "--path", "lowrank", "--landmarks", "5"),
     "cannot draw 5 landmarks from a pool of 4"),
], ids=["alpha-above-one", "alpha-below-zero", "decay-minus-two", "decay-minus-one",
        "sage-sigma-w", "gcnii-sigma-b", "depth-scan-mlp-alpha", "too-many-landmarks"])
def test_invalid_hyperparameters_are_rejected(args, message, capsys):
    code, out, err = run_cli(capsys, *args, "--dataset", FIXTURE_DIR)
    assert (code, out) == (1, "")
    assert message in err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("args, name", [
    (("--nugget", "{}"), "nugget must be positive and finite"),
    (("--nugget-grid", "0.1,{},5"), "nugget-grid must be"),
    (("--base", "rbf", "--gamma", "{}"), "gamma must be positive and finite"),
    (("--base", "poly", "--poly-c", "{}"), "c must be nonnegative and finite"),
    (("--base", "poly", "--poly-d", "{}"), "d must be finite"),
    (("--sigma-b", "{}"), "got sigma_b = "),
    (("--sigma-w", "{}"), "got sigma_w = "),
    (("--arch", "sage", "--sigma-w1", "{}"), "got sigma_w1 = "),
    (("--arch", "sage", "--sigma-w2", "{}"), "got sigma_w2 = "),
], ids=["nugget", "nugget-grid", "gamma", "poly-c", "poly-d", "sigma-b", "sigma-w",
        "sigma-w1", "sigma-w2"])
def test_non_finite_hyperparameters_fail_at_their_flag(args, name, value, capsys):
    code, out, err = run_cli(capsys, "infer", "--dataset", FIXTURE_DIR,
                             *(arg.format(value) for arg in args))
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert name in lines[0] and value in lines[0], err


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("flag", ["--sigma-b", "--sigma-w"])
@pytest.mark.parametrize("arch", ["rbf", "ggp"])
def test_graph_free_and_ggp_sigmas_fail_at_their_flag(arch, flag, value, capsys):
    # rbf builds no program and ggp's has unit sigmas, yet both take the flags
    code, out, err = run_cli(capsys, "infer", "--dataset", FIXTURE_DIR, "--arch", arch,
                             flag, value)
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0] == ("error: sigma parameters must be nonnegative and finite, got "
                        f"{flag[2:].replace('-', '_')} = {float(value)}"), err


@pytest.mark.parametrize("path", ["exact", "lowrank"])
def test_a_non_finite_feature_fails_when_read(path, tmp_path, capsys):
    # GraphConv would spread a NaN over the kernel, and the ReLU floor would
    # then zero every node: infer used to exit 0 with a micro-F1 of 0
    d = tmp_path / "nan_feature"
    shutil.copytree(FIXTURE_DIR, d)
    rows = (d / "features.csv").read_text().splitlines()
    rows[2] = "nan," + rows[2].split(",", 1)[1]
    (d / "features.csv").write_text("\n".join(rows) + "\n")
    code, out, err = run_cli(capsys, "infer", "--dataset", str(d), "--path", path)
    assert (code, out) == (1, "")
    assert err == (f"error: {d / 'features.csv'}: row 2 has a non-finite feature "
                   "(rows count from 0, as node ids do)\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_non_finite_target_fails_when_read(value, tmp_path, capsys):
    # a regression run on such a target used to exit 0 with r2_test: nan
    d = tmp_path / "nan_target"
    shutil.copytree(FIXTURE_DIR, d)
    (d / "targets.txt").write_text(f"0.5\n{value}\n0.2\n1.0\n")
    code, out, err = run_cli(capsys, "infer", "--dataset", str(d))
    assert (code, out) == (1, "")
    assert err == f"error: {d / 'targets.txt'}:2: target '{value}' is not finite\n"


def test_nugget_grid_needs_a_point(capsys):
    with pytest.raises(ValueError, match=r"0 < LO < HI and POINTS >= 1"):
        RunConfig(nugget_grid=(1.0, 10.0, 0)).validate()
    code, _, err = run_cli(
        capsys, "infer", "--dataset", FIXTURE_DIR, "--nugget-grid", "1,10,0"
    )
    assert code == 1
    assert "POINTS >= 1" in err


def preloaded(monkeypatch, n, n_features=16, **kwargs):
    """A RunConfig whose dataset is a synthetic graph already in memory, so
    that a traced run_infer makes nothing but its own arrays."""
    ds = synthetic_dataset(n, n_features=n_features, n_classes=2, seed=0)
    monkeypatch.setattr(runners, "load_dataset", lambda path: ds)
    return RunConfig(dataset="preloaded", **kwargs)


def traced_run(monkeypatch, run, cfg, n):
    """``run(cfg)``'s traced peak and what its memory pre-check checks
    (``checked_nn``), both in N x N float64 arrays, and its report."""
    counts = []
    check = runners.require_memory

    def spy(n_nodes, n_arrays, *args):
        counts.append(programs.checked_nn(n_nodes, n_arrays))
        check(n_nodes, n_arrays, *args)

    monkeypatch.setattr(runners, "require_memory", spy)
    tracemalloc.start()
    try:
        report = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8.0 * n * n), counts[0], report


# peak of an exact-path infer in N x N float64 arrays, with K0 made inside the
# traced window, within the pre-flight count: the arrays ``peak_arrays`` reads
# from the recipe (ggp's is one GraphConv), or rbf's named count, whose gamma
# search builds each candidate beside the best fit's kernel.  The runner hands
# K0 over and GraphConv drops it once A K is formed, so a block's input and
# output (plus the gcnii skip) include it; sage's self branch keeps the input
# while the neighbour branch is made.  The third value, part of each test's
# id, is the looser count of a layer that kept its input through GraphConv
# (3.1, or 4.1 for gcnii and sage)
@pytest.mark.parametrize("arch, depth, bound", [
    ("gcn", 2, 3.1), ("gcn", 8, 3.1), ("gin", 2, 3.1), ("gin", 8, 3.1),
    ("mlp", 2, 3.1), ("mlp", 8, 3.1), ("gcnii", 2, 4.1), ("gcnii", 8, 4.1),
    ("sage", 2, 4.1), ("sage", 8, 4.1), ("ggp", 2, 3.1), ("rbf", 2, 3.1),
])
def test_infer_exact_peak_memory_counts_k0(monkeypatch, arch, depth, bound):
    monkeypatch.setattr(kernels, "_TILE_ELEMENTS", 2**12)
    n = 1000
    # non-unit weights and a bias, so that no block hands its input back
    cfg = preloaded(monkeypatch, n, arch=arch, layers=depth, sigma_w=1.2, sigma_b=0.1,
                    sigma_w1=0.5)
    peak, count, _ = traced_run(monkeypatch, runners.run_infer, cfg, n)
    assert peak <= bound
    assert peak <= count
    # 2 N x N arrays a layer, 3 with a gcnii skip or a sage self branch
    arrays = {"gcnii": 3, "sage": 3, "rbf": runners.RBF_PEAK_NN}.get(arch, 2)
    assert count == programs.checked_nn(n, arrays)


# the same for infer and scans at the default row tiles, whose three buffers
# (6 MiB) are most of an N x N array at these sizes; a fixed nugget keeps the
# traced scan short
@pytest.mark.parametrize("command, flags", [
    ("infer", dict(arch="gcn", n=1000)), ("infer", dict(arch="gcnii", n=1000)),
    ("depth-scan", dict(arch="mlp", layers=8, n=600)),
    ("depth-scan", dict(arch="gin", layers=12, n=600, nugget=0.1)),
], ids=["infer-gcn", "infer-gcnii", "scan-mlp", "scan-gin"])
def test_peak_memory_within_its_count_at_default_tiles(monkeypatch, command, flags):
    flags = dict(flags)
    n = flags.pop("n")
    cfg = preloaded(monkeypatch, n, sigma_w=1.2, sigma_b=0.1, **flags)
    run = runners.run_infer if command == "infer" else runners.run_depth_scan
    peak, count, _ = traced_run(monkeypatch, run, cfg, n)
    assert peak <= count


# peak of a low-rank infer in N x r float64 arrays (r the landmark count): a
# layer's input is handed on through its blocks and dropped once used, and
# the activation factors the r x r landmark block before it forms only the
# pivot columns, so a layer holds about two N x r arrays, its input and its
# output, plus a few r x r blocks (1/16 N x r each at this size).  gcnii
# carries the 16-wide start factor as its skip; sage's layer holds both
# branches and their r + r wide sum
@pytest.mark.parametrize("arch, depth, bound", [
    ("gcn", 2, 2.3), ("gcn", 8, 2.4), ("gin", 2, 2.4), ("gin", 8, 2.4),
    ("mlp", 2, 2.3), ("mlp", 8, 2.4), ("gcnii", 2, 2.55), ("gcnii", 8, 2.55),
    ("sage", 2, 4.2), ("sage", 8, 4.2),
])
def test_infer_lowrank_peak_memory(monkeypatch, arch, depth, bound):
    monkeypatch.setattr(kernels, "_TILE_ELEMENTS", 2**12)  # tile buffers negligible
    n, r = 4000, 256
    # non-unit weights and a bias, so that no block hands its input back
    cfg = preloaded(monkeypatch, n, arch=arch, layers=depth, sigma_w=1.2, sigma_b=0.1,
                    sigma_w1=0.5, path="lowrank", landmarks=r)
    tracemalloc.start()
    try:
        runners.run_infer(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8.0 * n * r) <= bound


@pytest.mark.parametrize("arch", ["gcn", "gcnii", "rbf"])
def test_infer_exact_rejects_large_graphs_before_k0(monkeypatch, arch):
    # one byte short of the estimate: infer fails before K0 is made, so
    # nothing near an N x N array is allocated; exactly enough runs
    n = 500
    cfg = preloaded(monkeypatch, n, arch=arch)
    count = {"gcn": 2, "gcnii": 3, "rbf": runners.RBF_PEAK_NN}[arch]
    need = math.ceil(8.0 * programs.checked_nn(n, count) * n**2)
    monkeypatch.setattr(programs, "available_memory", lambda: need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=(
                f"infer --path exact on 500 nodes needs about {count:g} N x N arrays "
                r".*; --path lowrank needs no N x N array$")):
            runners.run_infer(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8.0 * n * n) <= 0.1
    monkeypatch.setattr(programs, "available_memory", lambda: need)
    assert runners.run_infer(cfg).scalars["n_nodes"] == n
    # the factor path makes no N x N array and is not checked
    monkeypatch.setattr(programs, "available_memory", lambda: 0)
    cfg.path = "lowrank"
    assert runners.run_infer(cfg).scalars["path"] == "lowrank"


# peak of mc-verify and of an mlp depth scan in N x N float64 arrays, K0 made
# inside the traced window, within the pre-flight count; mc-verify's grows
# with max(d, width) / N, for the draws' n x width arrays and the first
# layer's n x d ones (d features)
@pytest.mark.parametrize("command, flags", [
    ("mc-verify", dict(arch="gcn", width=64)), ("mc-verify", dict(arch="gcnii", width=64)),
    ("mc-verify", dict(arch="gcn", width=1000)), ("mc-verify", dict(arch="sage", width=1000)),
    ("mc-verify", dict(arch="gcn", width=1000, n=200)),  # fan-in above 4 N
    ("mc-verify", dict(arch="gcnii", width=3000, layers=3)),  # the skip beside a draw
    ("depth-scan", dict(arch="mlp", layers=8)),
    ("depth-scan", dict(arch="mlp", layers=8, sigma_w=2.0)),
    ("mc-verify", dict(arch="gcn", width=4000, n=200)),
    ("mc-verify", dict(arch="gin", width=2000, n=200, layers=3)),
    ("mc-verify", dict(arch="gcn", width=64, n_features=1500)),  # A X wider than a draw
], ids=["mc-gcn", "mc-gcnii", "mc-gcn-wide", "mc-sage-wide", "mc-gcn-n-by-n-root",
        "mc-gcnii-3n", "mlp-sub", "mlp-super", "mc-gcn-n-by-n-root-20n", "mc-gin-n-by-n-root",
        "mc-gcn-features-above-width"])
def test_dense_diagnostics_peak_within_their_counts(monkeypatch, command, flags):
    monkeypatch.setattr(kernels, "_TILE_ELEMENTS", 2**12)
    flags = dict(flags)
    n = flags.pop("n", 1000)
    cfg = preloaded(monkeypatch, n, sigma_b=0.1, samples=1, **flags)
    run = runners.run_mc_verify if command == "mc-verify" else runners.run_depth_scan
    peak, count, report = traced_run(monkeypatch, run, cfg, n)
    if command == "depth-scan":
        assert report.scalars["regime"] == ("supercritical" if "sigma_w" in flags else
                                            "subcritical")
    else:
        # and close to it, so that mc-verify refuses no run that fits
        assert count <= peak + 3
    assert peak <= count


# peak of a graph depth scan in N x N float64 arrays, K0 made inside the
# traced window: the runner hands K0 over, so it is dropped in layer 1, and
# a 12-layer scan holds the CAUCHY_LAG kept kernels and the layer in flight,
# 2 arrays, 3 with the gcnii skip (12.04 and 13.04 here; one more when the
# runner kept K0).  A fixed nugget keeps the traced run short
@pytest.mark.parametrize("arch, in_flight", [("gcn", 2), ("gcnii", 3)])
def test_depth_scan_peak_memory_drops_k0(monkeypatch, arch, in_flight):
    monkeypatch.setattr(kernels, "_TILE_ELEMENTS", 2**12)
    n = 600
    cfg = preloaded(monkeypatch, n, arch=arch, layers=12, sigma_b=0.1, nugget=0.1)
    peak, count, _ = traced_run(monkeypatch, runners.run_depth_scan, cfg, n)
    assert peak <= count
    assert count == programs.checked_nn(n, limits.CAUCHY_LAG + in_flight)


@pytest.mark.parametrize("command, arch", [
    ("mc-verify", "gcn"), ("mc-verify", "gcnii"), ("depth scan", "mlp"),
])
def test_dense_diagnostics_reject_large_graphs_before_k0(monkeypatch, command, arch):
    # one byte short of the estimate: the run fails before K0 is made, so
    # nothing near an N x N array is allocated; exactly enough runs
    n = 500
    cfg = preloaded(monkeypatch, n, arch=arch, width=64, samples=2)
    if command == "mc-verify":
        # the analytic kernel, the running sum and z z^T, beside a draw's
        # arrays (as many as a build's: 2, 3 with the gcnii skip) and normals
        w = 64 / n
        run, count = runners.run_mc_verify, 3 + ({"gcnii": 3}.get(arch, 2) + w) * w
    else:
        # K0, which mlp_fixed_point keeps, beside a layer's input and output
        run, count = runners.run_depth_scan, 3
    need = math.ceil(8.0 * programs.checked_nn(n, count) * n**2)
    monkeypatch.setattr(programs, "available_memory", lambda: need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=(
                f"^{command} on 500 nodes needs about {count:g} N x N arrays")):
            run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8.0 * n * n) <= 0.1
    monkeypatch.setattr(programs, "available_memory", lambda: need)
    assert run(cfg).scalars["arch"] == arch


@pytest.mark.parametrize("field, message", [
    ("width", "width must be positive"), ("samples", "need at least one sample"),
])
def test_mc_verify_rejects_its_plan_before_k0(monkeypatch, field, message):
    # the sampling plan is checked before K0, the first N x N array, is made
    n = 500
    cfg = preloaded(monkeypatch, n, width=64, samples=2)
    cfg = dataclasses.replace(cfg, **{field: 0})
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{message}$"):
            runners.run_mc_verify(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8.0 * n * n) <= 0.1
