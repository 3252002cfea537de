"""Command-line front end: train, eval, sweep, compare, match, warp.

Every run is a pure function of its files, flags, and mandatory seed;
reruns produce byte-identical outputs. Exit codes: 0 success, 2 flag, I/O
or image errors, 3 training infeasible, 4 model format or mismatch errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import dataset, evaluate
from .errors import (
    CorruptModel,
    FernkitError,
    FormatError,
    InsufficientKeypoints,
    InvalidArgument,
    checked_count,
    checked_patch_size,
    checked_sigma,
)
from .ferns import DEFAULT_FERN_COUNT, DEFAULT_FERN_SIZE, FernModel, checked_depth
from .image import AffineDeform, GrayImage, read_pgm, write_pgm
from .keypoints import DEFAULT_PATCH_SIZE, detect_keypoints, select_stable_classes, window_fits
from .trees import TreeForest

EXIT_OK = 0
EXIT_IO = 2
EXIT_TRAIN = 3
EXIT_MODEL = 4

SELECTION_VIEWS = 50

MATCH_HEADER = "scene_x,scene_y,class_id,model_x,model_y,log_score"


def _unit_counts(units, name: str = "units") -> list[int]:
    """The counts a --units value holds, one int or comma-separated ints,
    each an integer >= 1; there must be at least one."""
    counts = []
    for v in filter(None, str(units).split(",")):
        try:
            counts.append(int(v))
        except ValueError:
            raise InvalidArgument(f"--{name} holds {v!r}, not an integer") from None
    if not counts:
        raise InvalidArgument(f"{name} must hold one or more counts, got {units!r}")
    return [checked_count(n, name, low=1) for n in counts]


# a count the library needs >= 1: a model's units, classes, views
POSITIVE = functools.partial(checked_count, low=1)

# flag: (the library's checker, which main calls with the parsed value and
# the flag's name before a handler reads any file, or None; argparse keywords)
FLAGS = {
    "image": (None, dict(required=True, help="reference PGM image")),
    "model": (None, dict(required=True, help="model file path")),
    "seed": (checked_count, dict(type=int, required=True, help="RNG seed (mandatory)")),
    "threads": (functools.partial(checked_count, low=1, high=1), dict(
        type=int, default=1, help="only 1: views render on one thread")),
    "out": (None, dict(help="output path (default: stdout for CSVs)")),
    "classes": (POSITIVE, dict(type=int, default=200)),
    "ferns": (POSITIVE, dict(type=int, default=DEFAULT_FERN_COUNT)),
    "fern-size": (checked_depth, dict(type=int, default=DEFAULT_FERN_SIZE)),
    "patch": (checked_patch_size, dict(type=int, default=DEFAULT_PATCH_SIZE)),
    "views-per-degree": (POSITIVE, dict(type=int, default=2)),
    "degrees": (POSITIVE, dict(type=int, default=360)),
    "tests": (POSITIVE, dict(type=int, default=1000)),
    "noise": (checked_sigma, dict(type=float, default=10.0)),
    "units": (_unit_counts, dict(default="1,5,10,20,30", help="comma-separated counts")),
    "method": (None, dict(default="FernNB", choices=[m.value for m in evaluate.Method])),
    "kind": (None, dict(choices=["train", "test"], default="test")),
    # protocol_view rejects an id beyond the stream before it renders
    "view-id": (None, dict(type=int, default=0)),
    "manifest": (None, dict(help="manifest CSV path (default: <out>.manifest.csv)")),
    "identity": (None, dict(action="store_true", help=(
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
    model.train(dataset._blocks(img, classes, spec, args.seed, dataset.STREAM_TRAIN))
    with open(args.model, "wb") as f:
        f.write(model.save())
    # each view is one block, and each sample adds 1 to one leaf of every unit
    views, samples = spec.training_views, int(model.counts[0].sum())
    print(
        f"trained {len(classes)} classes, {model.num_units} ferns of size "
        f"{model.depth}: {samples} samples from {views} views "
        f"({views * len(classes) - samples} skips) -> {args.model}"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    """Recognition rate of a model on fresh test views."""
    model = _load_model(args.model)
    img = _read_image(args.image)
    _check_fits(model, img)
    spec = dataset.DatasetSpec(0, 0, args.tests, args.noise)
    patches, labels = evaluate.materialize(
        dataset._blocks(img, model.classes, spec, args.seed, dataset.STREAM_TEST)
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
    method, units = evaluate.Method(args.method), _unit_counts(args.units)
    records = evaluate.sweep_units(
        img, classes, spec, method, units, args.seed, fern_size=args.fern_size
    )
    _write_text(args.out, _records_csv(records))
    return EXIT_OK


def cmd_compare(args) -> int:
    """Four-way ferns/trees x NB/averaging run."""
    img, classes, spec = _sweep_setup(args)
    records = evaluate.compare_methods(
        img, classes, spec, args.units, args.seed, fern_size=args.fern_size
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
    labels, scores = np.empty(len(found), dtype=np.intp), np.empty(len(found))
    for i, (x, y, _) in enumerate(found.tolist()):
        labels[i], scores[i] = model.classify(scene, x, y)
    # best score first, then by y and x; lexsort is stable, so ties keep
    # detection order
    order = np.lexsort((found[:, 0], found[:, 1], -scores))
    refs = model.classes.coords.tolist()
    lines = [MATCH_HEADER]
    rows = zip(found[order].tolist(), labels[order].tolist(), scores[order].tolist())
    for (sx, sy, _), label, score in rows:
        mx, my = refs[label]
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


COMMON = ("image", "seed", "out")
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
    "match": (cmd_match, ("model", *COMMON, "threads")),
    "warp": (cmd_warp, ("image", "seed", "out", "kind", "view-id", *VIEWS, *TESTS,
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
            check = FLAGS[flag][0] if flag in FLAGS else None
            if check is not None:
                check(value, flag)
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
