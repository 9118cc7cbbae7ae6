"""Command line interface: lflow sample|coeffs|observe|correlate|render|nonic|reproduce."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

# before numpy loads: lflow calls no BLAS, and OpenBLAS's idle pool threads spin
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import pipeline
from .dynamics import CUMULATIVE, FINAL
from .errors import LflowError, read_text
from .pipeline import RunConfig, build_config


class _Parser(argparse.ArgumentParser):  # argparse alone takes -2 or -1.5 for a value, but -2e0 for an option
    def _parse_optional(self, arg_string):  # None (a value, not an option) for every word that float() reads
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)


def _config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="key=value config file")
    p.add_argument("--preset", choices=sorted(pipeline.PRESETS), help="named parameter bundle")
    for f in fields(RunConfig):
        meta = f.metadata
        p.add_argument(meta["flag"], dest=f.name, metavar=meta["metavar"], help=meta["help"], **meta["cli"])


def _config_from(args: argparse.Namespace) -> RunConfig:
    overrides = {}
    for f in fields(RunConfig):
        value = getattr(args, f.name)  # nargs options arrive as lists
        overrides[f.name] = tuple(value) if isinstance(value, list) else value
    return build_config(preset=args.preset, config_file=args.config, flag_overrides=overrides)


# A handler takes the parsed arguments and the run config and returns the
# text or bytes the command produces and the file they go to (None: stdout).


def _sample(args, cfg):
    manifest, eligible = pipeline.cmd_sample(cfg)
    print(f"eligible classes: {eligible}", file=sys.stderr)
    return manifest, args.output


def _coeffs(args, cfg):
    return pipeline.cmd_coeffs(args.label, cfg), None


def _observe(args, cfg):
    rows = pipeline.cmd_observe(pipeline.parse_manifest(read_text(args.manifest)), cfg)
    return pipeline.observations_to_csv(rows, cfg.iterations), args.output


def _correlate(args, cfg):
    return pipeline.cmd_correlate(read_text(args.csv), cfg.alpha), args.output


def _render(args, cfg):
    return pipeline.cmd_render(args.selector, cfg, args.width, args.height, args.escape_mode), args.output


def _nonic(args, cfg):
    return "".join(f"{c}\n" for c in pipeline.cmd_nonic(args.label, cfg)), None


def _reproduce(args, cfg):
    result = pipeline.cmd_reproduce(cfg, args.output)
    print(f"artifacts written to {args.output}", file=sys.stderr)
    return pipeline.format_report(result["report"], result["excluded"]), None


def _arg(*names, **kwargs):
    return names, kwargs


def _output(metavar: str, help: str, **kwargs):
    return _arg("-o", "--output", metavar=metavar, help=help, **kwargs)


# command: (help, its own arguments, handler)
COMMANDS = {
    "sample": ("stratified sample of eligible curves",
               [_output("FILE", "manifest file (default: stdout)")], _sample),
    "coeffs": ("build and cache Dirichlet coefficients for a curve", [_arg("label")], _coeffs),
    "observe": ("L(1) and escape rate for each manifest curve",
                [_arg("manifest", help="file with one curve label per line"),
                 _output("FILE", "observations CSV (default: stdout)")], _observe),
    "correlate": ("rank correlation report from an observations CSV",
                  [_arg("csv", help="observations CSV file"),
                   _output("FILE", "report file (default: stdout)")], _correlate),
    "render": ("escape-time image of a map",
               [_arg("selector", help="curve label | nonic:<label> | exp:<lambda> | zeta"),
                _output("FILE", "output PGM (P5)", required=True),
                _arg("--width", type=int, default=320), _arg("--height", type=int, default=240),
                _arg("--escape-mode", choices=[CUMULATIVE, FINAL], default=CUMULATIVE,
                     help="test every iterate or only the last")],
               _render),
    "nonic": ("print the 10 integer coefficients of a curve's nonic", [_arg("label")], _nonic),
    "reproduce": ("sample + observe + correlate into an output directory",
                  [_output("DIR", "output directory (default: lflow-out)", default="lflow-out")],
                  _reproduce),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lflow", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)  # declared once, the parent of every command
    _config_flags(config)
    for command, (help_text, arguments, _) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False, parents=[config])
        for names, kwargs in arguments:
            p.add_argument(*names, **kwargs)
    return parser


def _emit(data, path) -> None:
    if path is None:
        sys.stdout.write(data)
    elif isinstance(data, bytes):
        Path(path).write_bytes(data)
    else:
        Path(path).write_text(data, encoding="ascii")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _, _, handler = COMMANDS[args.command]
    try:
        _emit(*handler(args, _config_from(args)))
    except (LflowError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
