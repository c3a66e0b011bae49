"""Command-line front end.

Each subcommand (infer, depth-scan, mc-verify, benchmark, make-splits) is one
entry of SUBCOMMANDS: its runner, its help line and the RunConfig fields it
takes as flags.  A field's flag parses its text with the type RunConfig
annotates (``Optional[int]`` reads an int); only center, nugget_grid, sizes
and ratios have their own text forms.

Values resolve in three tiers: built-in defaults, then the [section] of an
INI file passed via --config (section name = subcommand), then explicit
flags.  Config keys are flag names, with or without hyphens replaced by
underscores, and a section takes exactly its subcommand's flags.  Keys under
[DEFAULT] reach every section: one that another subcommand takes is skipped
where it does not apply, and one that no subcommand takes is an error.

A warning raised during a call prints as one stderr line, ``warning:
<message>``, without the file and line that raised it.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import sys
import typing
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

# the layered program's flags, shared by four subcommands, and the base kernel's
_MODEL = ("arch", "layers", "sigma_b", "sigma_w", "sigma_w1", "sigma_w2", "alpha", "decay")
_BASE = ("base", "gamma", "poly_c", "poly_d")
# name: (runner, help line, RunConfig fields taken as flags, in --help order)
SUBCOMMANDS = {
    "infer": (run_infer, "posterior prediction on a dataset directory",
              ("dataset", _MODEL[0], "path", *_MODEL[1:], *_BASE, "landmarks", "seed",
               "nugget", "nugget_grid", "pca", "center", "out")),
    "depth-scan": (run_depth_scan, "layer-by-layer limit diagnostics",
                   ("dataset", *_MODEL, *_BASE, "seed", "nugget", "nugget_grid", "pca",
                    "center", "out")),
    "mc-verify": (run_mc_verify, "finite-width sampling against the kernel",
                  ("dataset", *_MODEL, "width", "samples", "seed", "out")),
    "benchmark": (run_benchmark, "low-rank build-time scaling",
                  (*_MODEL, "landmarks", "sizes", "repeats", "degree", "seed", "out")),
    "make-splits": (run_make_splits, "write splits.json for a dataset directory",
                    ("dataset", "ratios", "seed", "out")),
}
_CHOICES = {"arch": ARCH_CHOICES, "path": PATH_CHOICES}
_METAVARS = {"nugget_grid": "LO,HI,POINTS", "sizes": "A,B,...", "ratios": "A,B,..."}


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


# how to parse a flag's or a config value's text: the annotated type, with
# Optional dropped, unless the field has its own text form
_TEXT_FORMS = {"center": _parse_bool, "nugget_grid": _parse_grid,
               "sizes": _parse_list(int), "ratios": _parse_list(float)}
_PARSERS = {name: _TEXT_FORMS.get(name, (*typing.get_args(hint), hint)[0])
            for name, hint in typing.get_type_hints(RunConfig).items()}


def _add(parser: argparse.ArgumentParser, name: str) -> None:
    """Attach a RunConfig field as an optional flag (default None)."""
    flag = "--" + name.replace("_", "-")
    if name == "center":
        parser.add_argument(flag, action="store_const", const=True, default=None,
                            help="mean-center features before use")
    else:
        parser.add_argument(flag, default=None, type=_PARSERS[name],
                            choices=_CHOICES.get(name), metavar=_METAVARS.get(name))


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="graphgp",
        description="Gaussian-process kernels from wide graph networks",
    )
    parser.add_argument("--version", action="version", version=f"graphgp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, fields) in SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        p.add_argument("--config", help=f"INI file; values read from its [{command}] section")
        for name in fields:
            _add(p, name)
    return parser


def _config_overrides(path: str, command: str) -> dict:
    """The values of the file's [command] section, parsed; only the
    command's own flags are accepted.  A key inherited from [DEFAULT] that
    another subcommand takes is skipped."""
    ini = configparser.ConfigParser()
    # the same file with [DEFAULT] an ordinary section, so that the keys
    # written in [command] itself are known
    own = configparser.ConfigParser(default_section="", interpolation=None)
    try:
        if not ini.read(path):
            raise FileNotFoundError(f"config file not found: {path}")
        if not ini.has_section(command):
            return {}
        own.read(path)
        items = ini.items(command)
    except configparser.Error as err:  # no section header, a key set twice, ...
        raise ValueError(f"{path}: {' '.join(str(err).split())}") from None
    fields = SUBCOMMANDS[command][2]
    overrides = {}
    for key, raw in items:
        name = key.replace("-", "_")
        if name not in fields:
            section = command if key in own[command] else ini.default_section
            if section != command and any(name in f for _, _, f in SUBCOMMANDS.values()):
                continue
            raise ValueError(f"{path}: unknown key {key!r} in [{section}]")
        try:
            overrides[name] = _PARSERS[name](raw)
        except (ValueError, argparse.ArgumentTypeError) as err:
            raise ValueError(f"{path}: bad value for {key!r}: {err}") from None
    return overrides


def resolve_config(args: argparse.Namespace) -> RunConfig:
    updates = _config_overrides(args.config, args.command) if args.config else {}
    for name in SUBCOMMANDS[args.command][2]:
        value = getattr(args, name)
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
            report = SUBCOMMANDS[args.command][0](cfg)
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
