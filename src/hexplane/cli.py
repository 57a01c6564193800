"""Command-line entry point.

Subcommands: synth, project, train, eval, gradcheck. Every command is
deterministic given its config and seed. Exit codes: 0 success,
1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import config as cfg
from . import gradcheck as gc
from .checkpoint import load_checkpoint, save_checkpoint
from .cloud import CloudFormatError, load_pointcloud, save_pointcloud
from .images import export_plane_images, save_projection_index
from .metrics import ConfusionMatrix, report_json, report_table, segmentation_scores
from .model import HexPlaneModel
from .projection import hexplane_project, rasterize_labels
from .training import (DivergenceError, NonFiniteGradientError, evaluate,
                       require_labels, train_toy, write_log)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


def cmd_synth(args) -> int:
    scene = {"seed": args.seed, "num_points": args.points, "num_classes": args.classes}
    tree = cfg.load_config(args.config, {"seed": args.seed, "scene": scene})
    cloud = cfg.build_scene(tree["scene"])
    save_pointcloud(args.out, cloud, format=args.format)
    print(f"wrote {cloud.n} points to {args.out}")
    return EXIT_OK


def cmd_project(args) -> int:
    tree = cfg.load_config(args.config)
    cloud = load_pointcloud(args.input)
    spec_fn = cfg.plane_spec_builder(tree["planes"])
    hexset = hexplane_project(cloud, spec_fn(cloud))
    label_images = None
    num_classes = None
    if cloud.labels is not None:
        label_images = rasterize_labels(cloud, hexset)
        num_classes = int(cloud.labels.max()) + 1
    out_dir = Path(args.out_dir)
    written = export_plane_images(out_dir, args.stem, hexset, label_images,
                                  num_classes)
    sidecar = out_dir / f"{args.stem}.index.bin"
    save_projection_index(sidecar, hexset)
    written.append(sidecar)
    for path in written:
        print(path)
    return EXIT_OK


def cmd_train(args) -> int:
    tree = cfg.load_config(args.config, {"output_dir": args.output_dir, "seed": args.seed,
                                         "training": {"steps": args.steps}})

    train_cloud = cfg.build_scene(tree["scene"])
    eval_cloud = None
    if tree["eval_scene"] is not None:
        eval_cloud = require_labels(cfg.build_scene(tree["eval_scene"], "eval_scene"),
                                    "evaluation")
        cfg.label_classes(eval_cloud.labels, "eval_scene")  # refused before step 0
    num_classes = cfg.scene_num_classes(tree, train_cloud)
    clouds = [c for c in (train_cloud, eval_cloud) if c is not None]
    model_config = cfg.build_model_config(tree, num_classes, clouds)
    settings = cfg.build_train_settings(tree)
    spec_fn = cfg.plane_spec_builder(tree["planes"])

    out_dir = Path(tree["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    result = train_toy(
        train_cloud, model_config, settings, spec_fn,
        eval_cloud=eval_cloud, seed=tree["seed"],
    )
    ckpt = out_dir / "checkpoint.bin"
    save_checkpoint(ckpt, result.model.parameters())
    log_path = out_dir / "log.jsonl"
    write_log(log_path, result.log)
    print(f"checkpoint: {ckpt}")
    print(f"log: {log_path}")
    print(f"final oa: {result.final_oa:.4f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    # --cloud X is the eval scene {kind: file, path: X}, laid over the config's
    cloud_scene = None if args.cloud is None else {"kind": "file", "path": args.cloud}
    tree = cfg.load_config(args.config, {"eval_scene": cloud_scene})

    if args.pred is not None or args.gt is not None:
        if not (args.pred and args.gt):
            raise ValueError("--pred and --gt must be given together")
        if args.on_range_image:
            raise ValueError("--on-range-image needs --checkpoint")
        for flag in ("checkpoint", "cloud"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} cannot be used with --pred/--gt")
        pred = load_pointcloud(args.pred)
        gt = load_pointcloud(args.gt)
        if pred.labels is None or gt.labels is None:
            raise ValueError("--pred/--gt clouds must carry labels")
        if pred.n != gt.n:
            raise ValueError("--pred/--gt point counts differ")
        num_classes = int(max(pred.labels.max(), gt.labels.max())) + 1
        cm = ConfusionMatrix(num_classes).update(pred.labels, gt.labels)
    else:
        if args.checkpoint is None:
            raise ValueError("eval needs either --checkpoint or --pred/--gt")
        section = "scene" if tree["eval_scene"] is None else "eval_scene"
        cloud = cfg.build_scene(tree[section], section)
        require_labels(cloud, "evaluation")
        params = load_checkpoint(args.checkpoint)
        head = params.get("head/point/W")  # its width is the trained class count
        if head is None or head.ndim != 2:
            raise ValueError(f"{args.checkpoint}: no 2-axis head/point/W to count classes by")
        model = HexPlaneModel(cfg.build_model_config(tree, head.shape[1], [cloud]))
        cfg.check_trained_widths(model.config, params)
        model.load_parameters(params)
        cm = evaluate(model, cloud, cfg.plane_spec_builder(tree["planes"]), args.on_range_image)

    scores = segmentation_scores(cm)
    report = report_json(scores)
    print(report_table(scores))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report: {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    for flag, value in (("--eps", args.eps), ("--tol", args.tol)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{flag} must be positive and finite, got {value:g}")
    report = gc.grad_check(args.component, seed=args.seed, eps=args.eps)
    for line in report.lines(args.tol):
        print(line)
    if not report.passed(args.tol):
        print(f"FAILED: max relative error {report.max_error:.3e} >= {args.tol:g}")
        return EXIT_NUMERICAL
    print(f"ok: max relative error {report.max_error:.3e}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexplane",
        description="Six-plane point-cloud projection, fusion, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled scene")
    p.add_argument("--config", help="YAML config file")
    p.add_argument("--seed", type=int, help="override the scene seed")
    p.add_argument("--points", type=int, help="override the point budget")
    p.add_argument("--classes", type=int, help="override the class count")
    p.add_argument("--format", choices=["ascii", "binary"], default="binary")
    p.add_argument("--out", required=True, help="output cloud path")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("project", help="rasterize a cloud onto the six planes")
    p.add_argument("input", help="point cloud file")
    p.add_argument("--config", help="YAML config file")
    p.add_argument("--out-dir", default=".", help="directory for images")
    p.add_argument("--stem", default="planes", help="output filename stem")
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("train", help="run the toy training loop")
    p.add_argument("--config", help="YAML config file")
    p.add_argument("--output-dir", help="override training.output_dir")
    p.add_argument("--steps", type=int, help="override training.steps")
    p.add_argument("--seed", type=int, help="override the master seed")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint or a prediction cloud")
    p.add_argument("--config", help="YAML config file")
    p.add_argument("--checkpoint", help="checkpoint to evaluate")
    p.add_argument("--cloud", help="labeled cloud to evaluate on")
    p.add_argument("--pred", help="cloud whose labels are predictions")
    p.add_argument("--gt", help="cloud whose labels are ground truth")
    p.add_argument("--on-range-image", action="store_true",
                   help="score on the cylindrical range image instead of points")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of a component")
    p.add_argument("component", help=f"one of: {', '.join(sorted(gc.CHECKS))}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=gc.DEFAULT_EPS)
    p.add_argument("--tol", type=float, default=gc.DEFAULT_TOL)
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code:  # argparse's usage error exits 2, which is the numerical-failure code
            return EXIT_VALIDATION
        raise  # --help
    try:
        return args.fn(args)
    except (DivergenceError, NonFiniteGradientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (cfg.ConfigError, CloudFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
