"""Command-line front end: train, eval, sweep, compare, match, warp.

Every run is a pure function of its files, flags, and mandatory seed;
reruns produce byte-identical outputs. Exit codes: 0 success, 2 I/O or
image errors, 3 training infeasible, 4 model format or mismatch errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import dataset, evaluate
from .errors import (
    CorruptModel,
    FernkitError,
    FormatError,
    InsufficientKeypoints,
    InvalidArgument,
)
from .ferns import FernModel
from .image import AffineDeform, GrayImage, read_pgm, write_pgm
from .keypoints import detect_keypoints, select_stable_classes, window_fits
from .trees import TreeForest

EXIT_OK = 0
EXIT_IO = 2
EXIT_TRAIN = 3
EXIT_MODEL = 4

SELECTION_VIEWS = 50

MATCH_HEADER = "scene_x,scene_y,class_id,model_x,model_y,log_score"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fernkit", description="Keypoint recognition with random ferns."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, image=True, model=False):
        if image:
            p.add_argument("--image", required=True, help="reference PGM image")
        if model:
            p.add_argument("--model", required=True, help="model file path")
        p.add_argument("--seed", type=int, required=True, help="RNG seed (mandatory)")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--out", help="output path (default: stdout for CSVs)")

    def view_flags(p):
        p.add_argument("--views-per-degree", type=int, default=2)
        p.add_argument("--degrees", type=int, default=360)

    def train_flags(p):
        p.add_argument("--classes", type=int, default=200)
        p.add_argument("--ferns", type=int, default=30)
        p.add_argument("--fern-size", type=int, default=10)
        p.add_argument("--patch", type=int, default=31)
        view_flags(p)

    def eval_flags(p):
        p.add_argument("--tests", type=int, default=1000)
        p.add_argument("--noise", type=float, default=10.0)

    p = sub.add_parser("train", help="select classes, synthesize views, train ferns")
    common(p, model=True)
    train_flags(p)

    p = sub.add_parser("eval", help="recognition rate of a model on fresh test views")
    common(p, model=True)
    eval_flags(p)

    p = sub.add_parser("sweep", help="recognition rate versus number of units")
    common(p)
    train_flags(p)
    eval_flags(p)
    p.add_argument("--units", default="1,5,10,20,30", help="comma-separated counts")
    p.add_argument(
        "--method",
        default="FernNB",
        choices=[m.value for m in evaluate.Method],
    )

    p = sub.add_parser("compare", help="four-way ferns/trees x NB/averaging run")
    common(p)
    train_flags(p)
    eval_flags(p)
    p.add_argument("--units", type=int, default=20)

    p = sub.add_parser("match", help="detect and classify keypoints in a scene")
    common(p, model=True)

    p = sub.add_parser("warp", help="render one protocol view plus its manifest")
    common(p)
    p.add_argument("--kind", choices=["train", "test"], default="test")
    p.add_argument("--view-id", type=int, default=0)
    view_flags(p)
    eval_flags(p)
    p.add_argument("--manifest", help="manifest CSV path (default: <out>.manifest.csv)")
    p.add_argument(
        "--identity",
        action="store_true",
        help="render view --view-id of the --kind stream with the identity deformation",
    )
    return parser


def _read_image(path: str) -> GrayImage:
    with open(path, "rb") as f:
        return read_pgm(f.read())


def _load_model(path: str):
    with open(path, "rb") as f:
        data = f.read()
    for kind in (FernModel, TreeForest):
        if data.startswith(kind.magic):
            return kind.load(data)
    raise FormatError(f"unrecognized model magic {data[:8]!r}")


def _check_patch(model, frame: GrayImage, name: str) -> None:
    if frame.width < model.patch_size or frame.height < model.patch_size:
        raise FormatError(
            f"model patch {model.patch_size} exceeds {name} "
            f"{frame.width}x{frame.height}"
        )


def _check_fits(model, img: GrayImage) -> None:
    _check_patch(model, img, "image")
    x, y = model.classes.coords.T
    if not window_fits(x, y, img.width, img.height, model.classes.margin).all():
        raise FormatError("model keypoints fall outside this image")


def _write_text(path: str | None, text: str) -> None:
    if path:
        with open(path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _records_csv(records) -> str:
    import io

    buf = io.StringIO()
    evaluate.write_records_csv(records, buf)
    return buf.getvalue()


def _select_classes(args, img: GrayImage):
    return select_stable_classes(
        img,
        args.classes,
        SELECTION_VIEWS,
        dataset.derive_rng(args.seed, dataset.STREAM_CLASSES),
        patch_size=args.patch,
    )


def cmd_train(args) -> int:
    img = _read_image(args.image)
    classes = _select_classes(args, img)
    model = FernModel.random(
        classes,
        args.ferns,
        args.fern_size,
        dataset.derive_rng(args.seed, dataset.STREAM_MODEL),
    )
    spec = dataset.DatasetSpec(args.views_per_degree, args.degrees)
    stats = dataset.GenStats()
    model.train(
        dataset._blocks(
            img, classes, spec, args.seed, dataset.STREAM_TRAIN, stats, args.threads
        )
    )
    with open(args.model, "wb") as f:
        f.write(model.save())
    print(
        f"trained {len(classes)} classes, {model.num_ferns} ferns of size "
        f"{model.fern_size}: {stats.samples} samples from {stats.views} views "
        f"({sum(stats.skips.values())} skips) -> {args.model}"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    model = _load_model(args.model)
    img = _read_image(args.image)
    _check_fits(model, img)
    spec = dataset.DatasetSpec(0, 0, args.tests, args.noise)
    patches, labels = evaluate.materialize(
        dataset._blocks(
            img, model.classes, spec, args.seed, dataset.STREAM_TEST,
            threads=args.threads,
        )
    )
    record = evaluate.record(
        evaluate.Method.of(model), model, patches, labels, args.seed
    )
    _write_text(args.out, _records_csv([record]))
    rate, n = record.recognition_rate, record.patches_evaluated
    print(f"recognition_rate {rate!r} over {n} patches")
    return EXIT_OK


def _protocol(args) -> dataset.DatasetSpec:
    return dataset.DatasetSpec(
        args.views_per_degree, args.degrees, args.tests, args.noise
    )


def _sweep_setup(args):
    img = _read_image(args.image)
    return img, _select_classes(args, img), _protocol(args)


def cmd_sweep(args) -> int:
    counts = []
    for v in filter(None, args.units.split(",")):
        try:
            counts.append(int(v))
        except ValueError:
            raise InvalidArgument(f"--units holds {v!r}, not an integer") from None
    img, classes, spec = _sweep_setup(args)
    records = evaluate.sweep_units(
        img,
        classes,
        spec,
        evaluate.Method(args.method),
        counts,
        args.seed,
        fern_size=args.fern_size,
        threads=args.threads,
    )
    _write_text(args.out, _records_csv(records))
    return EXIT_OK


def cmd_compare(args) -> int:
    img, classes, spec = _sweep_setup(args)
    records = evaluate.compare_methods(
        img,
        classes,
        spec,
        args.units,
        args.seed,
        fern_size=args.fern_size,
        threads=args.threads,
    )
    _write_text(args.out, _records_csv(records))
    return EXIT_OK


def cmd_match(args) -> int:
    model = _load_model(args.model)
    scene = _read_image(args.image)
    # scenes need not match the reference frame; only the patch must fit
    _check_patch(model, scene, "scene")
    found = detect_keypoints(
        scene, max_count=4 * model.num_classes, patch_size=model.patch_size
    )
    rows = []
    for kp in found:
        label, score = model.classify(scene, kp)
        ref = model.classes.keypoints[label]
        rows.append((kp.x, kp.y, label, ref.x, ref.y, score))
    rows.sort(key=lambda r: (-r[5], r[1], r[0]))
    lines = [MATCH_HEADER]
    for sx, sy, label, mx, my, score in rows:
        lines.append(f"{sx!r},{sy!r},{label},{mx!r},{my!r},{score!r}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_warp(args) -> int:
    img = _read_image(args.image)
    spec = _protocol(args)
    stream = dataset.STREAM_TRAIN if args.kind == "train" else dataset.STREAM_TEST
    deform = None
    if args.identity:
        cx, cy = img.center
        deform = AffineDeform(0.0, 0.0, 1.0, 1.0, tx=cx, ty=cy)
    view = dataset.protocol_view(img, spec, args.seed, stream, args.view_id, deform)
    out = args.out or "view.pgm"
    with open(out, "wb") as f:
        f.write(write_pgm(view.image))
    manifest = args.manifest or out + ".manifest.csv"
    with open(manifest, "w") as f:
        dataset.write_manifest([dataset.manifest_row(view)], f)
    print(f"wrote {out} and {manifest}")
    return EXIT_OK


# main's parser, built on first use: parsing leaves it unchanged, and
# building it costs milliseconds per call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = {
        "train": cmd_train,
        "eval": cmd_eval,
        "sweep": cmd_sweep,
        "compare": cmd_compare,
        "match": cmd_match,
        "warp": cmd_warp,
    }[args.command]
    try:
        # every subcommand takes --threads and --seed; reject them before
        # any work starts
        if args.threads < 1:
            raise InvalidArgument(f"threads must be >= 1, got {args.threads}")
        if args.seed < 0:
            raise InvalidArgument(f"seed must be >= 0, got {args.seed}")
        return handler(args)
    except InsufficientKeypoints as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAIN
    except (FormatError, CorruptModel) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (OSError, FernkitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
