"""Command-line front end: train, eval, sweep, compare, match, warp.

Every run is a pure function of its files, flags, and mandatory seed;
reruns produce byte-identical outputs. Exit codes: 0 success, 2 flag, I/O
or image errors, 3 training infeasible, 4 model format or mismatch errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import dataset, evaluate
from .errors import (
    CorruptModel,
    FernkitError,
    FormatError,
    InsufficientKeypoints,
    InvalidArgument,
)
from .ferns import MAX_DEPTH, FernModel
from .image import AffineDeform, GrayImage, read_pgm, write_pgm
from .keypoints import detect_keypoints, select_stable_classes, window_fits
from .trees import TreeForest

EXIT_OK = 0
EXIT_IO = 2
EXIT_TRAIN = 3
EXIT_MODEL = 4

SELECTION_VIEWS = 50

MATCH_HEADER = "scene_x,scene_y,class_id,model_x,model_y,log_score"


def _unit_counts(units) -> list[int]:
    """The counts a --units value holds: one int, or comma-separated ints."""
    counts = []
    for v in filter(None, str(units).split(",")):
        try:
            counts.append(int(v))
        except ValueError:
            raise InvalidArgument(f"--units holds {v!r}, not an integer") from None
    return counts


# A flag rule: a test of the parsed value, what the value must be, and the
# name the error gives the value when it is not the flag's.
ANY = (lambda v: True, "any value", None)
AT_LEAST_0 = (lambda v: v >= 0, ">= 0", None)
AT_LEAST_1 = (lambda v: v >= 1, ">= 1", None)
DEPTH = (lambda v: 1 <= v <= MAX_DEPTH, f"in [1, {MAX_DEPTH}]", None)
ODD = (lambda v: v >= 3 and v % 2 == 1, "odd and >= 3", None)
SIGMA = (lambda v: math.isfinite(v) and v >= 0, "finite and >= 0", "noise_sigma")
COUNTS = (lambda v: min(_unit_counts(v), default=0) >= 1, "one or more counts >= 1", None)

# flag: (rule, argparse keywords). A flag has one rule whichever subcommand
# takes it, and main checks them all before a handler reads any file.
FLAGS = {
    "image": (ANY, dict(required=True, help="reference PGM image")),
    "model": (ANY, dict(required=True, help="model file path")),
    "seed": (AT_LEAST_0, dict(type=int, required=True, help="RNG seed (mandatory)")),
    "threads": (AT_LEAST_1, dict(type=int, default=1)),
    "out": (ANY, dict(help="output path (default: stdout for CSVs)")),
    "classes": (AT_LEAST_1, dict(type=int, default=200)),
    "ferns": (AT_LEAST_1, dict(type=int, default=30)),
    "fern-size": (DEPTH, dict(type=int, default=10)),
    "patch": (ODD, dict(type=int, default=31)),
    "views-per-degree": (AT_LEAST_1, dict(type=int, default=2)),
    "degrees": (AT_LEAST_1, dict(type=int, default=360)),
    "tests": (AT_LEAST_1, dict(type=int, default=1000)),
    "noise": (SIGMA, dict(type=float, default=10.0)),
    "units": (COUNTS, dict(default="1,5,10,20,30", help="comma-separated counts")),
    "method": (ANY, dict(default="FernNB", choices=[m.value for m in evaluate.Method])),
    "kind": (ANY, dict(choices=["train", "test"], default="test")),
    # protocol_view rejects an id beyond the stream before it renders
    "view-id": (ANY, dict(type=int, default=0)),
    "manifest": (ANY, dict(help="manifest CSV path (default: <out>.manifest.csv)")),
    "identity": (ANY, dict(action="store_true", help=(
        "render view --view-id of the --kind stream with the identity deformation"))),
}


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
    """Select classes, synthesize views, train ferns."""
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
    """Recognition rate of a model on fresh test views."""
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
    """Recognition rate versus number of units."""
    img, classes, spec = _sweep_setup(args)
    records = evaluate.sweep_units(
        img,
        classes,
        spec,
        evaluate.Method(args.method),
        _unit_counts(args.units),
        args.seed,
        fern_size=args.fern_size,
        threads=args.threads,
    )
    _write_text(args.out, _records_csv(records))
    return EXIT_OK


def cmd_compare(args) -> int:
    """Four-way ferns/trees x NB/averaging run."""
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
    """Detect and classify keypoints in a scene."""
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
    """Render one protocol view plus its manifest."""
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


COMMON = ("image", "seed", "threads", "out")
VIEWS = ("views-per-degree", "degrees")
TESTS = ("tests", "noise")
TRAIN = ("classes", "ferns", "fern-size", "patch", *VIEWS)
PROTOCOL = (*COMMON, *TRAIN, *TESTS)

# subcommand: (handler, flags), the handler's docstring its help; a (flag,
# keywords) pair overrides the keywords of the flag's row
COMMANDS = {
    "train": (cmd_train, ("model", *COMMON, *TRAIN)),
    "eval": (cmd_eval, ("model", *COMMON, *TESTS)),
    "sweep": (cmd_sweep, (*PROTOCOL, "units", "method")),
    "compare": (cmd_compare, (*PROTOCOL, ("units", dict(type=int, default=20)))),
    "match": (cmd_match, ("model", *COMMON)),
    "warp": (cmd_warp, (*COMMON, "kind", "view-id", *VIEWS, *TESTS,
                        "manifest", "identity")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fernkit", description="Keypoint recognition with random ferns."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=handler.__doc__)
        for flag in flags:
            flag, form = flag if isinstance(flag, tuple) else (flag, {})
            p.add_argument("--" + flag, **{**FLAGS[flag][1], **form})
    return parser


# main's parser, built on first use: parsing leaves it unchanged, and
# building it costs milliseconds per call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        for dest, value in vars(args).items():
            flag = dest.replace("_", "-")
            test, must, name = FLAGS[flag][0] if flag in FLAGS else ANY
            if not test(value):
                raise InvalidArgument(f"{name or flag} must be {must}, got {value!r}")
        return COMMANDS[args.command][0](args)
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
