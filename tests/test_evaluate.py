import csv
import io

import numpy as np
import pytest

from fernkit import (
    DatasetSpec,
    EmptyTestSet,
    EvalRecord,
    FernModel,
    GrayImage,
    InvalidArgument,
    Method,
    compare_methods,
    recognition_rate,
    sweep_units,
)
from fernkit import dataset, write_pgm
from fernkit.cli import main
from fernkit.dataset import STREAM_MODEL, derive_rng, generate_test_set
from fernkit.evaluate import CSV_HEADER, materialize, record, write_records_csv

from support import cached, random_patches, rate_oracle


class StubModel:
    """Duck-typed classifier with a fixed answer per patch checksum."""

    def __init__(self, answers):
        self.answers = answers

    def classify_patches(self, patches, combination=None):
        labels = np.array([self.answers(p) for p in patches])
        return labels, np.zeros(len(labels))


def labeled_stream(n, h, size=9, seed=0):
    """(GrayImage patch, int label) pairs, with their patches and labels."""
    rng = np.random.default_rng(seed)
    patches = random_patches(rng, n, size)
    labels = rng.integers(0, h, n)
    return [(GrayImage(p), int(l)) for p, l in zip(patches, labels)], patches, labels


class TestRecognitionRate:
    def test_oracle_model_scores_one(self):
        pairs, patches, labels = labeled_stream(30, 4)
        lookup = {p.tobytes(): int(l) for p, l in zip(patches, labels)}
        model = StubModel(lambda p: lookup[p.tobytes()])
        assert recognition_rate(model, iter(pairs)) == 1.0

    def test_constant_model_on_balanced_two_classes(self):
        pairs, _, _ = labeled_stream(40, 2)
        pairs = [(patch, label) for (patch, _), label in zip(pairs, [0, 1] * 20)]
        model = StubModel(lambda p: 0)
        assert recognition_rate(model, iter(pairs)) == 0.5

    def test_matches_confusion_matrix_oracle(self, small_model, texture_small, small_classes):
        spec = DatasetSpec(1, 1, test_views=30)
        pairs = list(generate_test_set(texture_small, small_classes, spec, seed=2))
        rate = recognition_rate(small_model, iter(pairs))
        patches, labels = materialize(iter(pairs))
        predicted, _ = small_model.classify_patches(patches)
        assert rate == pytest.approx(rate_oracle(labels, predicted), abs=1e-12)

    def test_empty_stream(self, small_model):
        with pytest.raises(EmptyTestSet):
            recognition_rate(small_model, iter([]))


class TestMethodOf:
    def test_fern_and_forest_methods(self, small_model, small_forest):
        from fernkit import Combination, TreeForest

        nb = TreeForest(small_forest.classes, small_forest.tests, Combination.NAIVE_BAYES)
        assert Method.of(small_model) is Method.FERN_NB
        assert Method.of(small_forest) is Method.TREE_AVG
        assert Method.of(nb) is Method.TREE_NB


class TestEvalRecord:
    def test_rate_bounds_enforced(self):
        with pytest.raises(InvalidArgument):
            EvalRecord("FernNB", 1, 1.5, 10, 1.0, 0)

    def test_patch_count_enforced(self):
        with pytest.raises(InvalidArgument):
            EvalRecord("FernNB", 1, 0.5, 0, 1.0, 0)

    def test_record_counts_units_without_building_a_table(self, small_model):
        model = FernModel.load(small_model.save())
        patches = random_patches(np.random.default_rng(5), 1, model.patch_size)
        row = record(Method.FERN_NB, model, patches, np.array([0]), seed=5)
        assert row.units == model.num_units
        assert cached(model, "log_table") is None


class TestSweep:
    def test_record_per_unit_count_and_prefix_property(
        self, texture_small, small_classes
    ):
        spec = DatasetSpec(1, 30, test_views=25)
        counts = [1, 3, 6]
        records = sweep_units(
            texture_small, small_classes, spec, Method.FERN_NB, counts, seed=13,
            fern_size=5,
        )
        assert [r.units for r in records] == counts
        assert all(r.method == "FernNB" for r in records)
        assert all(r.seed == 13 for r in records)

        # prefix oracle: a freshly built and trained 3-fern model from the
        # same seed reproduces the k=3 sweep point exactly
        from fernkit.dataset import generate_training_set

        fresh = FernModel.random(
            small_classes, 3, 5, derive_rng(13, STREAM_MODEL)
        )
        fresh.train(
            generate_training_set(texture_small, small_classes, spec, 13)
        )
        fresh_rate = recognition_rate(
            fresh, generate_test_set(texture_small, small_classes, spec, 13)
        )
        assert fresh_rate == pytest.approx(records[1].recognition_rate, abs=1e-12)

    def test_tree_sweep_runs(self, texture_small, small_classes):
        spec = DatasetSpec(1, 20, test_views=15)
        records = sweep_units(
            texture_small, small_classes, spec, Method.TREE_NB, [1, 2], seed=3,
            fern_size=4,
        )
        assert [r.units for r in records] == [1, 2]
        assert all(r.method == "TreeNB" for r in records)

    def test_empty_unit_counts_rejected(self, texture_small, small_classes):
        with pytest.raises(InvalidArgument):
            sweep_units(
                texture_small, small_classes, DatasetSpec(1, 1), Method.FERN_NB,
                [], seed=1,
            )


class TestCompareMethods:
    def test_emits_four_records_sharing_everything(
        self, texture_small, small_classes
    ):
        spec = DatasetSpec(1, 30, test_views=25)
        records = compare_methods(
            texture_small, small_classes, spec, units=4, seed=21, fern_size=5
        )
        assert [r.method for r in records] == [
            "FernNB",
            "FernAvg",
            "TreeNB",
            "TreeAvg",
        ]
        assert len({r.patches_evaluated for r in records}) == 1
        assert all(r.units == 4 for r in records)

    def test_rerun_identical(self, texture_small, small_classes):
        spec = DatasetSpec(1, 20, test_views=15)
        a = compare_methods(texture_small, small_classes, spec, 3, 8, fern_size=4)
        b = compare_methods(texture_small, small_classes, spec, 3, 8, fern_size=4)
        assert [r.recognition_rate for r in a] == [r.recognition_rate for r in b]


class TestViewBlockCallers:
    def test_no_per_patch_pair_is_made(self, texture_small, small_classes, monkeypatch, tmp_path):
        """compare, sweep, and the CLI's train and eval stack view blocks,
        not the per-patch (patch, label) pairs of the public streams."""

        def refuse(*args):
            raise AssertionError("a block stream was flattened into pairs")

        monkeypatch.setattr(dataset, "_pairs", refuse)
        spec = DatasetSpec(1, 10, test_views=8)
        compare_methods(texture_small, small_classes, spec, 3, 5, fern_size=4)
        sweep_units(
            texture_small, small_classes, spec, Method.TREE_AVG, [1, 2], seed=5, fern_size=4
        )
        image, model = tmp_path / "ref.pgm", tmp_path / "model.bin"
        image.write_bytes(write_pgm(texture_small))
        common = ["--image", str(image), "--model", str(model), "--seed", "5"]
        assert main(["train", *common, "--classes", "6", "--ferns", "3", "--fern-size", "4",
                     "--patch", "21", "--views-per-degree", "1", "--degrees", "10"]) == 0
        assert main(["eval", *common, "--tests", "5", "--out", str(tmp_path / "e.csv")]) == 0


class TestCsv:
    def test_header_and_parse(self):
        records = [
            EvalRecord("FernNB", 5, 0.75, 100, 1234.5, 42),
            EvalRecord("TreeAvg", 5, 0.5, 100, 999.0, 42),
        ]
        buf = io.StringIO()
        write_records_csv(records, buf)
        buf.seek(0)
        reader = csv.DictReader(buf)
        assert reader.fieldnames == CSV_HEADER
        rows = list(reader)
        assert rows[0]["method"] == "FernNB"
        assert float(rows[0]["recognition_rate"]) == 0.75
        assert int(rows[1]["seed"]) == 42
        assert CSV_HEADER == [
            "method",
            "units",
            "recognition_rate",
            "patches",
            "ns_per_patch",
            "seed",
        ]
