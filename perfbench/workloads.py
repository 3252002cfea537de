"""The benchmark's three workloads, each a closed loop with one caller.

A workload makes its inputs from the workload seed, sets up, and then runs
one operation at a time; ``check`` looks at each operation's output and
returns the problems it found. Sizes come from ``spec.json`` (or a toy
table in the self-test), never from the seed.
"""

from __future__ import annotations

import hashlib
import itertools
from pathlib import Path

import numpy as np

from fernkit import cli, evaluate, keypoints
from fernkit.dataset import (
    STREAM_CLASSES,
    STREAM_MODEL,
    DatasetSpec,
    derive_rng,
    generate_test_set,
    generate_training_set,
    test_views,
)
from fernkit.ferns import FernModel
from fernkit.image import GrayImage, box_smooth, read_pgm, warp_points, write_pgm

MATCH_RADIUS_PX = 2.0


def texture(width: int, height: int, seed: int) -> GrayImage:
    """The README's reference-image recipe at any size: 8-px blocks plus noise."""
    rng = np.random.default_rng(seed)
    coarse = np.kron(
        rng.integers(0, 256, (height // 8 + 2, width // 8 + 2)), np.ones((8, 8))
    )[:height, :width]
    mix = 0.6 * coarse + 0.4 * rng.integers(0, 256, (height, width))
    return box_smooth(GrayImage.from_array(np.clip(np.rint(mix), 0, 255).astype(np.int64)), 1)


def _sha(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


class Workload:
    """Base class; subclasses set ``name``/``item`` and the hooks below."""

    name = ""
    item = ""
    items_per_op = 1

    def __init__(self, sizes: dict, seed: int, workdir: Path, inputs: dict):
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        vars(self).update(inputs)  # image, and frames for scene-match

    @classmethod
    def make_inputs(cls, sizes: dict, seed: int, workdir: Path) -> dict:
        """What a user would bring (the reference image), made once per run."""
        return {"image": texture(sizes["width"], sizes["height"], seed)}

    def setup(self) -> None:
        """Library work done once before the timed loop."""

    def run(self, i: int):
        """The timed operation; returns what ``check`` inspects."""
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        raise NotImplementedError

    def unseen(self) -> list[int]:
        """Operations to run untimed after the loop so results cover every input."""
        return []

    def finish(self) -> dict:
        """Untimed results after the loop: rate, model_bytes, sha256."""
        raise NotImplementedError


class DeskCompare(Workload):
    """The acceptance-suite desk protocol, one compare_methods call per op."""

    name = "desk-compare"
    item = "view"

    def setup(self):
        z = self.sizes
        self.classes = keypoints.select_stable_classes(
            self.image, z["classes"], z["selection_views"],
            derive_rng(self.seed, STREAM_CLASSES), patch_size=z["patch"],
        )
        self.spec = DatasetSpec(
            z["views_per_degree"], z["rotation_degrees"], z["test_views"], z["noise_sigma"]
        )
        self.items_per_op = self.spec.training_views + self.spec.test_views
        self.first = None

    def run(self, i):
        z = self.sizes
        return evaluate.compare_methods(
            self.image, self.classes, self.spec, z["units"], self.seed,
            fern_size=z["unit_size"], threads=1,
        )

    def check(self, i, records):
        rates = {r.method: r.recognition_rate for r in records}
        problems = [f"{m} rate {v} outside [0, 1]" for m, v in rates.items() if not 0 <= v <= 1]
        for structure in ("Fern", "Tree"):
            gap = rates[f"{structure}NB"] - rates[f"{structure}Avg"]
            if gap < 0.05:
                problems.append(f"{structure}NB beats {structure}Avg by {gap:.3f} < 0.05")
        for combo in ("NB", "Avg"):
            delta = abs(rates[f"Fern{combo}"] - rates[f"Tree{combo}"])
            if delta > 0.05:
                problems.append(f"|Fern{combo} - Tree{combo}| = {delta:.3f} > 0.05")
        outcome = [(r.method, r.units, r.recognition_rate, r.patches_evaluated) for r in records]
        if self.first is None:
            self.first = outcome
        elif outcome != self.first:
            problems.append("records differ from the first call's")
        return problems

    def finish(self):
        z = self.sizes
        ferns = FernModel.random(
            self.classes, z["units"], z["unit_size"], derive_rng(self.seed, STREAM_MODEL)
        )
        text = repr(self.first).encode()
        return {
            "recognition_rate": next(r for m, _, r, _ in self.first if m == "FernNB"),
            "model_bytes": len(ferns.save()),
            "sha256": _sha(text),
        }


def train_cli_model(image: GrayImage, z: dict, seed: int):
    """The CLI's default fern model, trained on a reduced training protocol."""
    classes = keypoints.select_stable_classes(
        image, z["classes"], z["selection_views"],
        derive_rng(seed, STREAM_CLASSES), patch_size=z["patch"],
    )
    model = FernModel.random(classes, z["ferns"], z["fern_size"], derive_rng(seed, STREAM_MODEL))
    spec = DatasetSpec(z["train_views_per_degree"], z["train_degrees"])
    return model.train(generate_training_set(image, classes, spec, seed, threads=1))


class ClassifyBatch(Workload):
    """One classify_patches call over the whole materialised test set per op."""

    name = "classify-batch"
    item = "patch"

    def setup(self):
        z = self.sizes
        trained = train_cli_model(self.image, z, self.seed)
        self.data = trained.save()
        self.model = FernModel.load(self.data)
        spec = DatasetSpec(0, 0, z["max_test_views"], z["noise_sigma"])
        stream = generate_test_set(self.image, trained.classes, spec, self.seed, threads=1)
        self.patches, self.labels = evaluate.materialize(
            itertools.islice(stream, z["test_patches"])
        )
        if self.labels.size != z["test_patches"]:
            raise RuntimeError(
                f"{z['max_test_views']} test views gave only {self.labels.size} patches"
            )
        self.expected, _ = trained.classify_patches(self.patches)
        self.items_per_op = self.labels.size

    def run(self, i):
        m = self.model
        before = m.pixel_comparisons, m.table_lookups
        labels, _ = m.classify_patches(self.patches)
        return labels, m.pixel_comparisons - before[0], m.table_lookups - before[1]

    def check(self, i, out):
        labels, comparisons, lookups = out
        z, n = self.sizes, self.labels.size
        problems = []
        if not np.array_equal(labels, self.expected):
            changed = int(np.count_nonzero(labels != self.expected))
            problems.append(f"loaded model disagrees with in-memory model on {changed} labels")
        if comparisons != n * z["ferns"] * z["fern_size"]:
            problems.append(f"{comparisons / n} pixel comparisons per patch, not S*M")
        if lookups != n * z["ferns"]:
            problems.append(f"{lookups / n} table lookups per patch, not S")
        return problems

    def finish(self):
        hits = np.count_nonzero(self.expected == self.labels)
        return {
            "recognition_rate": float(hits) / self.labels.size,
            "model_bytes": len(self.data),
            "sha256": _sha(self.expected.astype("<i8").tobytes()),
        }


class SceneMatch(Workload):
    """One in-process ``fernkit match`` call on one 640x480 frame per op."""

    name = "scene-match"
    item = "frame"

    @classmethod
    def make_inputs(cls, sizes, seed, workdir):
        """The reference image plus test-protocol frames written as PGM files."""
        inputs = super().make_inputs(sizes, seed, workdir)
        spec = DatasetSpec(0, 0, sizes["frames"], sizes["noise_sigma"])
        inputs["frames"] = []
        for view in test_views(inputs["image"], spec, seed, threads=1):
            path = workdir / f"frame_{view.view_id:03d}.pgm"
            path.write_bytes(write_pgm(view.image))
            inputs["frames"].append((path, view.deform))
        return inputs

    def setup(self):
        z = self.sizes
        trained = train_cli_model(self.image, z, self.seed)
        self.model_path = self.workdir / "model.bin"
        self.model_bytes = self.model_path.write_bytes(trained.save())
        self.classes = trained.classes
        self.out_path = self.workdir / "matches.csv"
        self.first_csv: dict[int, bytes] = {}
        self.detections: dict[int, int] = {}

    def _frame(self, i: int) -> int:
        return i % len(self.frames)

    def run(self, i):
        path, _ = self.frames[self._frame(i)]
        return cli.main([
            "match", "--image", str(path), "--model", str(self.model_path),
            "--seed", str(self.seed), "--threads", "1", "--out", str(self.out_path),
        ])

    def check(self, i, code):
        if code != 0:
            return [f"match exited with {code}"]
        k = self._frame(i)
        csv = self.out_path.read_bytes()
        lines = csv.decode().splitlines()
        if k not in self.detections:
            frame = read_pgm(self.frames[k][0].read_bytes())
            self.detections[k] = len(keypoints.detect_keypoints(
                frame, 4 * len(self.classes), patch_size=self.classes.patch_size
            ))
        problems = []
        if lines[:1] != [cli.MATCH_HEADER]:
            problems.append("missing CSV header")
        if len(lines) - 1 != self.detections[k]:
            problems.append(f"{len(lines) - 1} CSV rows for {self.detections[k]} detections")
        ids = [int(row.split(",")[2]) for row in lines[1:]]
        if any(not 0 <= c < len(self.classes) for c in ids):
            problems.append("class_id out of range")
        if self.first_csv.setdefault(k, csv) != csv:
            problems.append(f"frame {k} output differs from its first run")
        return problems

    def unseen(self) -> list[int]:
        """Frames the timed loop did not reach; they run untimed so rates cover all."""
        return [k for k in range(len(self.frames)) if k not in self.first_csv]

    def finish(self):
        inliers = correct = 0
        w, h = self.sizes["width"], self.sizes["height"]
        csvs = [self.first_csv.get(k, b"") for k in range(len(self.frames))]
        for (_, deform), csv in zip(self.frames, csvs):
            truth = warp_points(deform, w, h, self.classes.coords)
            for row in csv.decode().splitlines()[1:]:
                x, y, label = row.split(",")[:3]
                dist = np.hypot(truth[:, 0] - float(x), truth[:, 1] - float(y))
                nearest = int(np.argmin(dist))
                if dist[nearest] <= MATCH_RADIUS_PX:
                    inliers += 1
                    correct += int(label) == nearest
        return {
            "recognition_rate": correct / inliers if inliers else 0.0,
            "inliers": inliers,
            "model_bytes": self.model_bytes,
            "sha256": _sha(*csvs),
        }


WORKLOADS = {w.name: w for w in (DeskCompare, ClassifyBatch, SceneMatch)}
