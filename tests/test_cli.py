import csv
import struct

import numpy as np
import pytest

from fernkit import FernModel, TreeForest, read_pgm, write_pgm
from fernkit.cli import main

from support import make_texture, v1_fern_file


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    img = make_texture(160, 120, seed=7)
    (path / "ref.pgm").write_bytes(write_pgm(img))
    return path


@pytest.fixture(scope="module")
def trained(workdir):
    model_path = workdir / "model.bin"
    code = main(
        [
            "train",
            "--image", str(workdir / "ref.pgm"),
            "--model", str(model_path),
            "--seed", "11",
            "--classes", "10",
            "--ferns", "16",
            "--fern-size", "8",
            "--patch", "21",
            "--views-per-degree", "1",
            "--degrees", "360",
        ]
    )
    assert code == 0
    return model_path


def run(*argv):
    return main([str(a) for a in argv])


class TestTrain:
    def test_model_headers_reflect_flags(self, trained):
        model = FernModel.load(trained.read_bytes())
        assert model.num_classes == 10
        assert model.num_ferns == 16
        assert model.fern_size == 8
        assert model.patch_size == 21

    def test_deterministic_model_files(self, workdir, trained):
        again = workdir / "model2.bin"
        code = run(
            "train", "--image", workdir / "ref.pgm", "--model", again,
            "--seed", 11, "--classes", 10, "--ferns", 16, "--fern-size", 8,
            "--patch", 21, "--views-per-degree", 1, "--degrees", 360,
        )
        assert code == 0
        assert again.read_bytes() == trained.read_bytes()

    def test_summary_printed(self, workdir, capsys):
        run(
            "train", "--image", workdir / "ref.pgm",
            "--model", workdir / "m3.bin", "--seed", 1, "--classes", 5,
            "--ferns", 2, "--fern-size", 4, "--patch", 21,
            "--views-per-degree", 1, "--degrees", 20,
        )
        out = capsys.readouterr().out
        assert "5 classes" in out and "views" in out and "skips" in out

    def test_too_many_classes_exits_3(self, workdir, capsys):
        code = run(
            "train", "--image", workdir / "ref.pgm",
            "--model", workdir / "nope.bin", "--seed", 1,
            "--classes", 100000, "--patch", 21,
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "100000 requested" in err
        assert "stable keypoints available" in err

    def test_missing_image_exits_2(self, workdir):
        code = run(
            "train", "--image", workdir / "missing.pgm",
            "--model", workdir / "x.bin", "--seed", 1,
        )
        assert code == 2


class TestEval:
    def test_non_finite_noise_exits_2(self, workdir, trained, capsys):
        code = run(
            "eval", "--image", workdir / "ref.pgm", "--model", trained,
            "--seed", 5, "--tests", 3, "--noise", "nan",
            "--out", workdir / "nan.csv",
        )
        assert code == 2
        assert "noise_sigma" in capsys.readouterr().err
        assert not (workdir / "nan.csv").exists()

    def test_csv_contract_and_rerun(self, workdir, trained, capsys):
        out = workdir / "eval.csv"
        code = run(
            "eval", "--image", workdir / "ref.pgm", "--model", trained,
            "--seed", 5, "--tests", 30, "--noise", 5, "--out", out,
        )
        assert code == 0
        printed = capsys.readouterr().out
        with open(out) as f:
            reader = csv.DictReader(f)
            assert reader.fieldnames == [
                "method", "units", "recognition_rate", "patches",
                "ns_per_patch", "seed",
            ]
            rows = list(reader)
        assert len(rows) == 1
        assert rows[0]["method"] == "FernNB"
        assert rows[0]["units"] == "16"
        assert rows[0]["patches"] == str(30 * 10 - 0) or int(rows[0]["patches"]) > 0
        assert rows[0]["recognition_rate"] in printed
        first = out.read_text()

        run(
            "eval", "--image", workdir / "ref.pgm", "--model", trained,
            "--seed", 5, "--tests", 30, "--noise", 5, "--out", out,
        )
        second = out.read_text()
        # timing differs between runs; everything else must not
        strip = lambda text: [
            r[:4] + r[5:] for r in csv.reader(text.splitlines())
        ]
        assert strip(first) == strip(second)

    def test_corrupted_model_exits_4(self, workdir, capsys):
        bad = workdir / "bad.bin"
        bad.write_bytes(b"NOTAMODEL" * 10)
        code = run(
            "eval", "--image", workdir / "ref.pgm", "--model", bad, "--seed", 1,
        )
        assert code == 4
        assert "magic" in capsys.readouterr().err

    def test_forest_model_file_evaluates(self, workdir):
        from fernkit import Combination, TreeForest, select_stable_classes
        from fernkit.dataset import (
            DatasetSpec,
            derive_rng,
            generate_training_set,
        )

        ref = read_pgm((workdir / "ref.pgm").read_bytes())
        classes = select_stable_classes(
            ref, 6, 20, derive_rng(3, 3), patch_size=21
        )
        forest = TreeForest.random(
            classes, 4, 5, derive_rng(3, 2), Combination.NAIVE_BAYES
        )
        forest.train(
            generate_training_set(ref, classes, DatasetSpec(1, 60), 3)
        )
        path = workdir / "forest.bin"
        path.write_bytes(forest.save())

        out = workdir / "forest_eval.csv"
        code = run(
            "eval", "--image", workdir / "ref.pgm", "--model", path,
            "--seed", 5, "--tests", 10, "--out", out,
        )
        assert code == 0
        with open(out) as f:
            rows = list(csv.DictReader(f))
        assert rows[0]["method"] == "TreeNB"
        assert rows[0]["units"] == "4"

    def test_image_too_small_for_model_exits_4(self, workdir, trained):
        tiny = workdir / "tiny.pgm"
        tiny.write_bytes(write_pgm(make_texture(16, 16, seed=1)))
        code = run(
            "eval", "--image", tiny, "--model", trained, "--seed", 1,
        )
        assert code == 4


class TestSweepCompare:
    def test_sweep_row_per_unit(self, workdir):
        out = workdir / "sweep.csv"
        code = run(
            "sweep", "--image", workdir / "ref.pgm", "--seed", 4,
            "--classes", 8, "--fern-size", 5, "--patch", 21,
            "--views-per-degree", 1, "--degrees", 40, "--tests", 20,
            "--units", "1,2,4", "--out", out,
        )
        assert code == 0
        with open(out) as f:
            rows = list(csv.DictReader(f))
        assert [r["units"] for r in rows] == ["1", "2", "4"]
        assert all(r["method"] == "FernNB" for r in rows)

    def test_compare_emits_exactly_four_rows(self, workdir):
        out = workdir / "compare.csv"
        code = run(
            "compare", "--image", workdir / "ref.pgm", "--seed", 4,
            "--classes", 8, "--fern-size", 5, "--patch", 21,
            "--views-per-degree", 1, "--degrees", 40, "--tests", 20,
            "--units", 3, "--out", out,
        )
        assert code == 0
        with open(out) as f:
            rows = list(csv.DictReader(f))
        assert [r["method"] for r in rows] == [
            "FernNB", "FernAvg", "TreeNB", "TreeAvg",
        ]


class TestMatch:
    def test_self_match_recovers_class_locations(self, workdir, trained):
        out = workdir / "match.csv"
        code = run(
            "match", "--image", workdir / "ref.pgm", "--model", trained,
            "--seed", 2, "--out", out,
        )
        assert code == 0
        with open(out) as f:
            rows = list(csv.DictReader(f))
        model = FernModel.load(trained.read_bytes())

        scores = [float(r["log_score"]) for r in rows]
        assert scores == sorted(scores, reverse=True)

        recovered = 0
        redetected = 0
        for k in model.classes.keypoints:
            near = [
                r
                for r in rows
                if abs(float(r["scene_x"]) - k.x) <= 2
                and abs(float(r["scene_y"]) - k.y) <= 2
            ]
            if not near:
                continue
            redetected += 1
            best = near[0]
            if (
                abs(float(best["model_x"]) - k.x) <= 2
                and abs(float(best["model_y"]) - k.y) <= 2
            ):
                recovered += 1
        assert redetected > 0
        assert recovered / redetected >= 0.8

    def test_blank_scene_header_only(self, workdir, trained):
        blank = workdir / "blank.pgm"
        blank.write_bytes(write_pgm(make_texture(160, 120, seed=7).__class__(
            np.full((120, 160), 90, dtype=np.uint8)
        )))
        out = workdir / "blank.csv"
        code = run(
            "match", "--image", blank, "--model", trained, "--seed", 2,
            "--out", out,
        )
        assert code == 0
        assert out.read_text() == (
            "scene_x,scene_y,class_id,model_x,model_y,log_score\n"
        )


class TestModelFiles:
    def test_version_1_model_exits_4(self, workdir, trained, capsys):
        old = workdir / "v1.bin"
        old.write_bytes(v1_fern_file(FernModel.load(trained.read_bytes())))
        code = run("match", "--image", workdir / "ref.pgm", "--model", old, "--seed", 1)
        assert code == 4
        assert "version 1" in capsys.readouterr().err

    @pytest.mark.parametrize("depth", [62, 63])
    def test_oversized_forest_depth_exits_4(self, workdir, trained, depth):
        classes = FernModel.load(trained.read_bytes()).classes
        forest = TreeForest.random(classes, 2, 3, np.random.default_rng(0))
        data = bytearray(forest.save())
        struct.pack_into("<I", data, len(forest.magic) + 12, depth)
        bad = workdir / f"depth{depth}.bin"
        bad.write_bytes(bytes(data))
        code = run("match", "--image", workdir / "ref.pgm", "--model", bad, "--seed", 1)
        assert code == 4


class TestWarp:
    def test_identity_with_zero_noise_reproduces_input(self, workdir):
        out = workdir / "id.pgm"
        code = run(
            "warp", "--image", workdir / "ref.pgm", "--seed", 3,
            "--identity", "--noise", 0, "--out", out,
        )
        assert code == 0
        assert out.read_bytes() == (workdir / "ref.pgm").read_bytes()

    def test_manifest_replay_and_determinism(self, workdir):
        from fernkit.dataset import STREAM_TEST, derive_rng, read_manifest
        from fernkit.image import add_noise, warp_image

        out = workdir / "view.pgm"
        for _ in range(2):
            code = run(
                "warp", "--image", workdir / "ref.pgm", "--seed", 9,
                "--kind", "test", "--view-id", 2, "--tests", 5,
                "--noise", 4, "--out", out,
            )
            assert code == 0
        first = out.read_bytes()

        with open(str(out) + ".manifest.csv") as f:
            row = read_manifest(f)[0]
        assert row["view_id"] == 2
        ref = read_pgm((workdir / "ref.pgm").read_bytes())
        clean = warp_image(ref, row["deform"], ref.width, ref.height)
        rng = derive_rng(9, STREAM_TEST, 2)
        for _ in range(4):
            rng.uniform()
        replay = add_noise(clean, row["noise_sigma"], rng)
        assert write_pgm(replay) == first

    def test_train_kind_view(self, workdir):
        out = workdir / "trainview.pgm"
        code = run(
            "warp", "--image", workdir / "ref.pgm", "--seed", 9,
            "--kind", "train", "--view-id", 0, "--views-per-degree", 1,
            "--degrees", 10, "--out", out,
        )
        assert code == 0
        img = read_pgm(out.read_bytes())
        assert (img.width, img.height) == (160, 120)
