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

from . import raster
from .datamodel import quantize_cube
from .errors import ConfigError, DataError, MethodError
from .pipeline import load_dataset, run_compare
from .report import RunConfig, read_json_config
from .selection import METHODS, build_estimated_gt, greedy_select
from .synth import SynthSpec, generate_cube

_CONFIG_FLAGS = (
    "cube", "gt", "k", "levels", "beta", "threshold", "lam", "classifier",
    "svm_c", "svm_gamma", "svm_tol", "fraction", "seed", "out",
)


def _add_run_flags(sub):
    sub.add_argument("--config", help="JSON file with RunConfig fields; flags override it")
    sub.add_argument("--cube", help="cube base path or .hdr.json path")
    sub.add_argument("--gt", help="ground truth path (.gt.raw or .csv)")
    sub.add_argument("--k", type=int, help="number of bands to select")
    sub.add_argument("--levels", type=int, help="quantization levels")
    sub.add_argument("--beta", type=float, help="MIFS redundancy weight")
    sub.add_argument("--threshold", type=float, help="MIBF acceptance threshold")
    sub.add_argument("--lambda", dest="lam", type=float, help="IGBS interaction weight")
    sub.add_argument("--classifier", choices=("svm", "1nn"))
    sub.add_argument("--svm-c", dest="svm_c", type=float)
    sub.add_argument("--svm-gamma", dest="svm_gamma", type=float)
    sub.add_argument("--svm-tol", dest="svm_tol", type=float)
    sub.add_argument("--fraction", type=float, help="train fraction of labeled pixels")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--out", help="output directory")


def _config_from_args(args, methods) -> RunConfig:
    raw = {}
    if args.config:
        raw.update(read_json_config(args.config))
    for name in _CONFIG_FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            raw[name] = value
    if methods is not None:
        raw["methods"] = methods
    return RunConfig.from_dict(raw)


def cmd_select(args) -> int:
    config = _config_from_args(args, methods=(args.method,))
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
    config = _config_from_args(args, methods=(args.method,))
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
    methods = None
    if args.methods:
        methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    config = _config_from_args(args, methods=methods)
    outcomes = run_compare(config)
    with open(f"{config.out}/comparison.txt", "r", encoding="utf-8") as fh:
        print(fh.read(), end="")
    return 4 if any(o.error is not None for o in outcomes) else 0


def cmd_synth(args) -> int:
    raw = {}
    if args.config:
        raw.update(read_json_config(args.config))
    for name in ("rows", "cols", "bands", "classes", "noise_sigma",
                 "class_separation", "seed"):
        value = getattr(args, name, None)
        if value is not None:
            raw[name] = value
    if args.informative is not None:
        raw["informative_bands"] = tuple(
            int(b) for b in args.informative.split(",") if b.strip()
        )
    if "informative_bands" in raw:
        raw["informative_bands"] = tuple(raw["informative_bands"])
    try:
        spec = SynthSpec(**raw)
    except TypeError as exc:
        raise ConfigError(f"bad synth config: {exc}") from exc
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
    if args.bands and not args.cube:
        raise ConfigError("--bands needs --cube to build the estimated map")
    if args.cube:
        cube = raster.load_cube(raster.cube_header_path(args.cube))
        gt = raster.load_gt(args.gt, rows=cube.rows, cols=cube.cols)
    else:
        gt = raster.load_gt(args.gt)
    if args.bands:
        try:
            bands = [int(b) for b in args.bands.split(",") if b.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --bands {args.bands!r}: {exc}") from exc
        est = build_estimated_gt(quantize_cube(cube, args.levels), gt, bands)
        grid = raster.series_to_grid(est.symbols, gt, offset=1)
    else:
        grid = gt.labels
    raster.export_map(grid, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igbs",
        description="Information-gain band selection and classification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_select = sub.add_parser("select", help="select bands with one method")
    p_select.add_argument("--method", required=True, choices=METHODS)
    _add_run_flags(p_select)
    p_select.set_defaults(func=cmd_select)

    p_classify = sub.add_parser("classify", help="select, train and evaluate one method")
    p_classify.add_argument("--method", required=True, choices=METHODS)
    _add_run_flags(p_classify)
    p_classify.set_defaults(func=cmd_classify)

    p_compare = sub.add_parser("compare", help="run several methods and tabulate")
    p_compare.add_argument(
        "--methods", help=f"comma-separated subset of {','.join(METHODS)} (default all)"
    )
    _add_run_flags(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--config", help="JSON file with synth spec fields")
    p_synth.add_argument("--rows", type=int)
    p_synth.add_argument("--cols", type=int)
    p_synth.add_argument("--bands", type=int)
    p_synth.add_argument("--classes", type=int)
    p_synth.add_argument("--informative", help="comma-separated informative band indices")
    p_synth.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    p_synth.add_argument("--separation", dest="class_separation", type=float)
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--out", required=True, help="output base path")
    p_synth.set_defaults(func=cmd_synth)

    p_render = sub.add_parser("render", help="render ground truth or estimated maps")
    p_render.add_argument("--cube", help="cube base path (needed for raw gt or --bands)")
    p_render.add_argument("--gt", required=True)
    p_render.add_argument("--bands", help="band list for an estimated-class map")
    p_render.add_argument("--levels", type=int, default=16)
    p_render.add_argument("--out", required=True, help="output .ppm path")
    p_render.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
