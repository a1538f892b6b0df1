"""Command-line interface.

Verbs: ``select`` (band selection only), ``classify`` (one method end to
end), ``compare`` (several methods plus a comparison table), ``synth``
(generate a synthetic dataset), ``render`` (class or estimated-class maps).

Exit codes: 0 success, 2 configuration error, 3 data error, 4 method
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from . import raster
from .errors import ConfigError, DataError, MethodError, build_record
from .errors import cast_value, integer, read_json_object, sequence
from .pipeline import load_dataset, run_compare
from .report import RunConfig, selection_lines
from .selection import METHODS, build_estimated_gt, greedy_select
from .synth import SynthSpec, generate_cube


class _Parser(argparse.ArgumentParser):
    """Usage errors raise a one-line ConfigError, and any argument ``float()``
    reads is a value (argparse alone takes ``-2e-2`` for a flag)."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _add_record_flags(sub, cls, skip=()):
    """``--config`` plus one flag per field of the record ``cls`` not in
    ``skip``: the field's ``flag``, else its report key (or name) with ``-``
    for ``_``. Every flag is a plain string: the record casts and checks it."""
    sub.add_argument("--config", help=f"JSON file with {cls.__name__} fields; flags override it")
    for f in fields(cls):
        if f.name not in skip:
            key = f.metadata.get("key") or f.name
            flag = f.metadata.get("flag", "--" + key.replace("_", "-"))
            sub.add_argument(flag, dest=f.name, help=f.metadata.get("help"))


def _record(cls, args):
    """The record ``cls`` from the ``--config`` file, if any, overridden by
    every flag given that names one of its fields."""
    raw = read_json_object(args.config, ConfigError) if getattr(args, "config", None) else {}
    for f in fields(cls):
        value = getattr(args, f.name, None)
        if value is not None:
            raw[f.name] = value
    return build_record(cls, raw, ConfigError)


def _one_method(args) -> RunConfig:
    config = _record(RunConfig, args)
    if len(config.methods) != 1:
        raise ConfigError(f"--method takes one method, got {args.methods!r}")
    return config


def cmd_select(args) -> int:
    config = _one_method(args)
    qcube, gt = load_dataset(config)
    result = greedy_select(
        qcube, gt, config.methods[0], config.k,
        beta=config.beta, threshold=config.threshold, lam=config.lam,
    )
    print("\n".join([f"method = {result.method}", *selection_lines(result)]))
    return 0


def cmd_classify(args) -> int:
    config = _one_method(args)
    outcome = run_compare(config)[0]
    if outcome.error is not None:
        print(f"{outcome.method}: failed: {outcome.error}", file=sys.stderr)
        return 4
    print(
        f"{outcome.method}: OA {100 * outcome.report.oa:.2f}% "
        f"kappa {100 * outcome.report.kappa:.2f}% "
        f"({len(outcome.selection.selected)} bands, reports in {config.out})"
    )
    return 0


def cmd_compare(args) -> int:
    config = _record(RunConfig, args)
    outcomes = run_compare(config)
    with open(f"{config.out}/comparison.txt", "r", encoding="utf-8") as fh:
        print(fh.read(), end="")
    return 4 if any(o.error is not None for o in outcomes) else 0


def cmd_synth(args) -> int:
    spec = _record(SynthSpec, args)
    cube, gt, meta = generate_cube(spec)
    # the ground truth first: it alone can fail on the generated data (u16
    # range), and nothing is written then
    gt_path = raster.save_gt(gt, args.out + ".gt.raw")
    header_path, raw_path = raster.save_cube(cube, args.out)
    meta_path = args.out + ".meta.json"
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {header_path}, {raw_path}, {gt_path}, {meta_path}")
    return 0


def cmd_render(args) -> int:
    config = _record(RunConfig, args)
    if args.bands is not None:
        if not config.cube:
            raise ConfigError("--bands needs --cube to build the estimated map")
        bands = cast_value(args.bands, sequence(integer), ConfigError, "bands")
        qcube, gt = load_dataset(config)
        est = build_estimated_gt(qcube, gt, bands)
        grid = raster.series_to_grid(est.symbols, gt, offset=1)
    else:
        rows = cols = None
        if config.cube:  # the cube lends the ground truth its geometry only
            header = raster.read_header(config.cube)
            rows, cols = header.rows, header.cols
        grid = raster.load_gt(config.gt, rows=rows, cols=cols).labels
    raster.export_map(grid, config.out)
    print(f"wrote {config.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="igbs",
        description="Information-gain band selection and classification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for verb, func, text in (
        ("select", cmd_select, "select bands with one method"),
        ("classify", cmd_classify, "select, train and evaluate one method"),
    ):
        p_one = sub.add_parser(verb, help=text)
        p_one.add_argument("--method", dest="methods", required=True, help=" | ".join(METHODS))
        _add_record_flags(p_one, RunConfig, skip=("methods",))
        p_one.set_defaults(func=func)

    p_compare = sub.add_parser("compare", help="run several methods and tabulate")
    p_compare.add_argument(
        "--methods", help=f"comma-separated subset of {','.join(METHODS)} (default all)"
    )
    _add_record_flags(p_compare, RunConfig, skip=("methods",))
    p_compare.set_defaults(func=cmd_compare)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_record_flags(p_synth, SynthSpec)
    p_synth.add_argument("--out", required=True, help="output base path")
    p_synth.set_defaults(func=cmd_synth)

    p_render = sub.add_parser("render", help="render ground truth or estimated maps")
    p_render.add_argument("--cube", help="cube base path (needed for raw gt or --bands)")
    p_render.add_argument("--gt", required=True)
    p_render.add_argument("--bands", help="band list for an estimated-class map")
    p_render.add_argument("--levels", help="quantization levels for --bands (default 16)")
    p_render.add_argument("--out", required=True, help="output .ppm path")
    p_render.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # numpy names the allocation it refused; Python's own MemoryError is bare
        print(f"data error: input too large to hold in memory. {exc}".rstrip(), file=sys.stderr)
        return 3
    except MethodError as exc:
        print(f"method failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
