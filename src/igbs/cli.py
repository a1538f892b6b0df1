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
from .datamodel import quantize_cube
from .errors import ConfigError, DataError, MethodError, build_record, cast_fields
from .errors import integer, read_json_object, sequence
from .pipeline import load_dataset, run_compare
from .report import RunConfig
from .selection import METHODS, build_estimated_gt, greedy_select
from .synth import SynthSpec, generate_cube


class _Parser(argparse.ArgumentParser):
    """Usage errors raise a one-line ConfigError instead of printing the
    usage text and exiting."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _add_run_flags(sub):
    # every flag is a plain string: the record casts and checks it
    sub.add_argument("--config", help="JSON file with RunConfig fields; flags override it")
    sub.add_argument("--cube", help="cube base path or .hdr.json path")
    sub.add_argument("--gt", help="ground truth path (.gt.raw or .csv)")
    sub.add_argument("--k", help="number of bands to select")
    sub.add_argument("--levels", help="quantization levels")
    sub.add_argument("--beta", help="MIFS redundancy weight")
    sub.add_argument("--threshold", help="MIBF acceptance threshold")
    sub.add_argument("--lambda", dest="lam", help="IGBS interaction weight")
    sub.add_argument("--classifier", help="svm or 1nn")
    sub.add_argument("--svm-c", dest="svm_c")
    sub.add_argument("--svm-gamma", dest="svm_gamma")
    sub.add_argument("--svm-tol", dest="svm_tol")
    sub.add_argument("--fraction", help="train fraction of labeled pixels")
    sub.add_argument("--seed")
    sub.add_argument("--out", help="output directory")


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
    cube, gt = load_dataset(config)
    qcube = quantize_cube(cube, config.levels)
    result = greedy_select(
        qcube, gt, config.methods[0], config.k,
        beta=config.beta, threshold=config.threshold, lam=config.lam,
    )
    lines = [
        f"method = {result.method}",
        "selected_bands = " + " ".join(str(b) for b in result.selected),
        "step_scores = " + " ".join(f"{s:.6f}" for s in result.step_scores),
    ]
    print("\n".join(lines))
    return 0


def cmd_classify(args) -> int:
    config = _one_method(args)
    outcomes = run_compare(config)
    outcome = outcomes[0]
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
    header_path, raw_path = raster.save_cube(cube, args.out)
    gt_path = raster.save_gt(gt, args.out + ".gt.raw")
    meta_path = args.out + ".meta.json"
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {header_path}, {raw_path}, {gt_path}, {meta_path}")
    return 0


def cmd_render(args) -> int:
    config = _record(RunConfig, args)
    if args.bands and not config.cube:
        raise ConfigError("--bands needs --cube to build the estimated map")
    if config.cube:
        cube, gt = load_dataset(config)
    else:
        gt = raster.load_gt(config.gt)
    if args.bands:
        cast_fields(args, [("bands", sequence(integer))], ConfigError)
        est = build_estimated_gt(quantize_cube(cube, config.levels), gt, args.bands)
        grid = raster.series_to_grid(est.symbols, gt, offset=1)
    else:
        grid = gt.labels
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
        _add_run_flags(p_one)
        p_one.set_defaults(func=func)

    p_compare = sub.add_parser("compare", help="run several methods and tabulate")
    p_compare.add_argument(
        "--methods", help=f"comma-separated subset of {','.join(METHODS)} (default all)"
    )
    _add_run_flags(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--config", help="JSON file with synth spec fields")
    for name in ("rows", "cols", "bands", "classes", "seed"):
        p_synth.add_argument("--" + name)
    p_synth.add_argument("--informative", dest="informative_bands",
                         help="comma-separated informative band indices")
    p_synth.add_argument("--noise-sigma", dest="noise_sigma")
    p_synth.add_argument("--separation", dest="class_separation")
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
    except MethodError as exc:
        print(f"method failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
