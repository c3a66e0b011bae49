"""Command-line front end.

Subcommands:
    infer        posterior prediction on a dataset directory
    depth-scan   layer-by-layer limit diagnostics
    mc-verify    finite-width sampling against the analytic kernel
    benchmark    low-rank build-time scaling on synthetic graphs
    make-splits  generate splits.json for a dataset directory

Values resolve in three tiers: built-in defaults, then the [section] of an
INI file passed via --config (section name = subcommand), then explicit
flags.  Config keys are flag names with hyphens replaced by underscores.

A warning raised during a call prints as one stderr line, ``warning:
<message>``, without the file and line that raised it.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import sys
import warnings
from typing import Optional, Sequence

from .adjacency import PowerIterationError
from .kernels import FactorizationError
from .runners import (
    ARCH_CHOICES,
    PATH_CHOICES,
    RunConfig,
    run_benchmark,
    run_depth_scan,
    run_infer,
    run_make_splits,
    run_mc_verify,
)

COMMANDS = {
    "infer": run_infer,
    "depth-scan": run_depth_scan,
    "mc-verify": run_mc_verify,
    "benchmark": run_benchmark,
    "make-splits": run_make_splits,
}


def _parse_grid(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected LO,HI,POINTS")
    try:
        return (float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _parse_list(kind: type):
    """Parser of a comma-separated list of ``kind`` values."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(p) for p in text.split(",") if p.strip())
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    return parse


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# how to parse a config-file string for each RunConfig field
_FIELD_PARSERS = {
    "dataset": str,
    "arch": str,
    "path": str,
    "base": str,
    "out": str,
    "layers": int,
    "landmarks": int,
    "pca": int,
    "width": int,
    "samples": int,
    "repeats": int,
    "seed": int,
    "sigma_b": float,
    "sigma_w": float,
    "sigma_w1": float,
    "sigma_w2": float,
    "alpha": float,
    "decay": float,
    "gamma": float,
    "poly_c": float,
    "poly_d": float,
    "nugget": float,
    "degree": float,
    "center": _parse_bool,
    "nugget_grid": _parse_grid,
    "sizes": _parse_list(int),
    "ratios": _parse_list(float),
}


def _add(parser: argparse.ArgumentParser, *names: str) -> None:
    """Attach the named RunConfig fields as optional flags (default None)."""
    for name in names:
        flag = "--" + name.replace("_", "-")
        if name == "center":
            parser.add_argument(flag, action="store_const", const=True, default=None,
                                help="mean-center features before use")
            continue
        kind = _FIELD_PARSERS[name]
        kwargs = {"default": None}
        if name == "arch":
            kwargs["choices"] = ARCH_CHOICES
        elif name == "path":
            kwargs["choices"] = PATH_CHOICES
        else:
            kwargs["type"] = kind
            if name == "nugget_grid":
                kwargs["metavar"] = "LO,HI,POINTS"
            elif kind not in (int, float, str):
                kwargs["metavar"] = "A,B,..."
        parser.add_argument(flag, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="graphgp",
        description="Gaussian-process kernels from wide graph networks",
    )
    parser.add_argument("--version", action="version", version=f"graphgp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("infer", help="posterior prediction on a dataset directory")
    p.add_argument("--config", help="INI file; values read from its [infer] section")
    _add(p, "dataset", "arch", "path", "layers", "sigma_b", "sigma_w", "sigma_w1",
         "sigma_w2", "alpha", "decay", "base", "gamma", "poly_c", "poly_d",
         "landmarks", "seed", "nugget", "nugget_grid", "pca",
         "center", "out")

    p = sub.add_parser("depth-scan", help="layer-by-layer limit diagnostics")
    p.add_argument("--config", help="INI file; values read from its [depth-scan] section")
    _add(p, "dataset", "arch", "layers", "sigma_b", "sigma_w", "sigma_w1", "sigma_w2",
         "alpha", "decay", "base", "gamma", "poly_c", "poly_d", "seed", "nugget",
         "nugget_grid", "pca", "center", "out")

    p = sub.add_parser("mc-verify", help="finite-width sampling against the kernel")
    p.add_argument("--config", help="INI file; values read from its [mc-verify] section")
    _add(p, "dataset", "arch", "layers", "sigma_b", "sigma_w", "sigma_w1", "sigma_w2",
         "alpha", "decay", "width", "samples", "seed", "out")

    p = sub.add_parser("benchmark", help="low-rank build-time scaling")
    p.add_argument("--config", help="INI file; values read from its [benchmark] section")
    _add(p, "arch", "layers", "sigma_b", "sigma_w", "sigma_w1", "sigma_w2", "alpha",
         "decay", "landmarks", "sizes", "repeats", "degree", "seed", "out")

    p = sub.add_parser("make-splits", help="write splits.json for a dataset directory")
    p.add_argument("--config", help="INI file; values read from its [make-splits] section")
    _add(p, "dataset", "ratios", "seed", "out")
    return parser


def _config_overrides(path: str, section: str) -> dict:
    ini = configparser.ConfigParser()
    read = ini.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    if not ini.has_section(section):
        return {}
    overrides = {}
    for key, raw in ini.items(section):
        name = key.replace("-", "_")
        if name not in _FIELD_PARSERS:
            raise ValueError(f"{path}: unknown key {key!r} in [{section}]")
        try:
            overrides[name] = _FIELD_PARSERS[name](raw)
        except (ValueError, argparse.ArgumentTypeError) as err:
            raise ValueError(f"{path}: bad value for {key!r}: {err}") from None
    return overrides


def resolve_config(args: argparse.Namespace) -> RunConfig:
    updates = {}
    if getattr(args, "config", None):
        updates.update(_config_overrides(args.config, args.command))
    for name in _FIELD_PARSERS:
        value = getattr(args, name, None)
        if value is not None:
            updates[name] = value
    return dataclasses.replace(RunConfig(), **updates)


def _format_warning(message, category, filename, lineno, line=None) -> str:
    """``warning: <message>``, free of the source file and line that raised it."""
    return f"warning: {message}\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    # Only the format changes, for the duration of the call: the filters
    # (``-W error::RuntimeWarning``) and the display hook, which
    # ``pytest.warns`` and ``catch_warnings(record=True)`` replace, stay.
    previous, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        try:
            cfg = resolve_config(args)
            report = COMMANDS[args.command](cfg)
        except (ValueError, OSError, FactorizationError, PowerIterationError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        text = report.to_text()
        sys.stdout.write(text)
        if cfg.out:
            report.write(cfg.out)
            print(f"report written to {cfg.out}", file=sys.stderr)
        return 0
    finally:
        warnings.formatwarning = previous


if __name__ == "__main__":
    raise SystemExit(main())
