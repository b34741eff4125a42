"""Command-line interface: train, infer, eval, params, gradcheck.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 numeric
abort (non-finite loss), 4 checkpoint/spec mismatch, 5 gradient-check
failure. Nothing is printed to stderr on success.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .autograd import Rng
from .config import ConfigError, RunConfig, load_config, render_config
from .data import (
    CheckpointError,
    DataError,
    NiftiError,
    build_slice_dataset,
    generate_phantom,
    load_checkpoint,
    load_into_model,
    read_nifti,
    write_pgm,
)
from .gradcheck import TOLERANCE, run_suite
from .model import (
    VARIANTS,
    ModelSpec,
    build_model,
    count_parameters,
    format_parameter_table,
    parameter_table_csv,
    predict_masks,
)
from .preprocess import prepare_slice
from .train import LESION_CLASS, NumericError, kfold_split, split_slices, train, evaluate

EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_MISMATCH = 4
EXIT_GRADCHECK = 5

PHANTOM_RE = re.compile(r"^phantoms:(\d+)x(\d+)$")


def _config(args) -> RunConfig:
    return load_config(args.config) if args.config else RunConfig()


def _phantoms(spec: str, cfg: RunConfig):
    """Samples of a phantoms:NxS directive, or None for any other spec."""
    m = PHANTOM_RE.match(spec)
    if not m:
        return None
    return generate_phantom(Rng(cfg.train.seed, 9), int(m.group(2)), int(m.group(1)))


def _load_dataset(data_spec: str, cfg: RunConfig):
    """Either a phantoms:NxS directive or a directory of paired
    volume-<id>.nii / segmentation-<id>.nii files."""
    phantoms = _phantoms(data_spec, cfg)
    if phantoms is not None:
        return phantoms, True
    if not os.path.isdir(data_spec):
        raise DataError(f"data directory {data_spec!r} does not exist")
    volumes, masks = {}, {}
    for fname in sorted(os.listdir(data_spec)):
        m = re.match(r"^volume-(.+)\.nii$", fname)
        if not m:
            continue
        vid = m.group(1)
        mask_path = os.path.join(data_spec, f"segmentation-{vid}.nii")
        if not os.path.exists(mask_path):
            raise DataError(f"missing mask volume for {vid!r}")
        volumes[vid] = read_nifti(os.path.join(data_spec, fname))
        masks[vid] = read_nifti(mask_path)
    if not volumes:
        raise DataError(f"no volume-*.nii files found in {data_spec!r}")
    samples = build_slice_dataset(volumes, masks, cfg.window, resize=cfg.data.resize,
                                  slice_filter="lesion")
    return samples, False


def cmd_train(args):
    cfg = _config(args)
    samples, is_phantom = _load_dataset(args.data, cfg)
    by_slice = is_phantom or len({s.volume_id for s in samples}) < cfg.data.folds
    split = split_slices if by_slice else kfold_split
    train_set, val_set = split(samples, cfg.data.folds, cfg.data.fold_index, cfg.train.seed)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "config.resolved"), "w") as fh:
        fh.write(render_config(cfg))

    def log(rec):
        print(f"iter {rec.iteration}: loss {rec.loss:.4f} "
              f"train_dice {rec.train_dice:.3f} val_dice {rec.val_dice:.3f}")

    train(cfg.model, cfg.train, train_set, val_set, out_dir=args.out, log_fn=log)
    print(f"wrote best.ckpt and final.ckpt to {args.out}")
    return 0


def _load_model_from_checkpoint(args, cfg):
    model = build_model(cfg.model, Rng(cfg.train.seed, 0))
    load_into_model(model, load_checkpoint(args.checkpoint))
    return model


def _input_images(path, cfg):
    """(1, S, S) model inputs, one per slice of a phantoms:NxS spec or a NIfTI volume."""
    phantoms = _phantoms(path, cfg)
    if phantoms is not None:
        return [s.image for s in phantoms]
    vol = read_nifti(path)
    return [prepare_slice(hu, cfg.window, cfg.data.resize)[None] for hu in vol.voxels]


def cmd_infer(args):
    cfg = _config(args)
    model = _load_model_from_checkpoint(args, cfg)
    masks = predict_masks(model, _input_images(args.input, cfg), 8, args.lesion_class)
    os.makedirs(args.out, exist_ok=True)
    for i, mask in enumerate(masks):
        write_pgm(mask, os.path.join(args.out, f"slice_{i:04d}.pgm"))
    with open(os.path.join(args.out, "summary.txt"), "w") as fh:
        fh.write("slice_index,lesion_pixels\n")
        for i, mask in enumerate(masks):
            fh.write(f"{i},{int(mask.sum())}\n")
    print(f"wrote {len(masks)} slice masks to {args.out}")
    return 0


def cmd_eval(args):
    cfg = _config(args)
    model = _load_model_from_checkpoint(args, cfg)
    samples, _ = _load_dataset(args.data, cfg)
    rows, means = evaluate(model, samples, lesion_class=args.lesion_class)
    header = f"{'volume':<12} {'overlap':>8} {'dice':>8} {'jaccard':>8} " \
             f"{'overlap_g':>10} {'dice_g':>8} {'jaccard_g':>10}"
    print(header)
    for r in rows:
        print(f"{r['volume_id']:<12} {r['overlap']:>8.4f} {r['dice']:>8.4f} "
              f"{r['jaccard']:>8.4f} {r['overlap_global']:>10.4f} "
              f"{r['dice_global']:>8.4f} {r['jaccard_global']:>10.4f}")
    print(f"{'mean':<12} {means['overlap']:>8.4f} {means['dice']:>8.4f} "
          f"{means['jaccard']:>8.4f} {means['overlap_global']:>10.4f} "
          f"{means['dice_global']:>8.4f} {means['jaccard_global']:>10.4f}")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("volume_id,overlap,dice,jaccard,overlap_global,dice_global,jaccard_global\n")
            for r in rows:
                fh.write(f"{r['volume_id']},{r['overlap']},{r['dice']},{r['jaccard']},"
                         f"{r['overlap_global']},{r['dice_global']},{r['jaccard_global']}\n")
    return 0


def cmd_params(args):
    def table(variant):
        spec = ModelSpec(variant=variant, base_depth=args.base_depth,
                         num_classes=args.num_classes, kernel=args.kernel)
        model = build_model(spec, Rng(0, 0))
        return count_parameters(model)

    if args.compare:
        _, proposed_total = table("proposed")
        _, baseline_total = table("baseline-unet")
        print(f"proposed total:  {proposed_total}")
        print(f"baseline total:  {baseline_total}")
        print(f"reduction ratio: {baseline_total / proposed_total:.2f}x")
        return 0
    rows, total = table(args.variant)
    if args.csv:
        print(parameter_table_csv(rows, total))
    else:
        print(format_parameter_table(rows, total))
    return 0


def cmd_gradcheck(args):
    results = run_suite(args.scope)
    worst = {}
    for name, wrt, _, err in results:
        key = (name, wrt)
        worst[key] = max(worst.get(key, 0.0), err)
    failed = None
    for (name, wrt), err in sorted(worst.items()):
        status = "ok" if err <= TOLERANCE else "FAIL"
        print(f"{name}[{wrt}]: max_rel_err={err:.3e} {status}")
        if err > TOLERANCE and failed is None:
            failed = f"{name}[{wrt}]"
    if failed:
        print(f"gradient check failed for {failed}")
        return EXIT_GRADCHECK
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sepseg",
        description="Lightweight separable-convolution CT lesion segmentation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--data", required=True, help="data dir or phantoms:NxS")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("infer", help="segment a volume with a checkpoint")
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help=".nii volume or phantoms:NxS")
    p.add_argument("--out", required=True)
    p.add_argument("--lesion-class", type=int, default=LESION_CLASS)
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("eval", help="score a checkpoint against labelled data")
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--lesion-class", type=int, default=LESION_CLASS)
    p.add_argument("--csv", help="also write machine-readable rows here")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("params", help="parameter audit")
    p.add_argument("--variant", choices=VARIANTS, default=ModelSpec.variant)
    p.add_argument("--base-depth", type=int, default=ModelSpec.base_depth)
    p.add_argument("--kernel", type=int, default=ModelSpec.kernel)
    p.add_argument("--num-classes", type=int, default=ModelSpec.num_classes)
    p.add_argument("--compare", action="store_true",
                   help="print both totals and the reduction ratio")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(fn=cmd_params)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("scope", choices=("layers", "block", "model"))
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, NiftiError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except CheckpointError as exc:
        print(f"checkpoint mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
