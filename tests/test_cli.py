import csv
import hashlib
import struct

import numpy as np
import pytest

from fernkit import FernModel, TreeForest, read_pgm, write_pgm
from fernkit.cli import main

from support import (
    KEYPOINT_WORD,
    WIDTH_WORD,
    make_texture,
    read_manifest,
    v1_fern_file,
    v2_fern_file,
)


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
        assert model.num_units == 16
        assert model.depth == 8
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
        model = workdir / "m3.bin"
        code = run(
            "train", "--image", workdir / "ref.pgm",
            "--model", model, "--seed", 1, "--classes", 5,
            "--ferns", 2, "--fern-size", 4, "--patch", 21,
            "--views-per-degree", 1, "--degrees", 20,
        )
        assert code == 0
        # 20 views x 5 classes = 89 samples + 11 skips
        assert capsys.readouterr().out == (
            "trained 5 classes, 2 ferns of size 4: 89 samples from 20 views "
            f"(11 skips) -> {model}\n"
        )

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

    def test_zero_threads_exits_2(self, workdir, capsys):
        # views render on one thread, so train takes no --threads at all
        with pytest.raises(SystemExit) as exit:
            run(
                "train", "--image", workdir / "ref.pgm",
                "--model", workdir / "zero.bin", "--seed", 1, "--classes", 5,
                "--ferns", 2, "--fern-size", 4, "--patch", 21,
                "--views-per-degree", 1, "--degrees", 20, "--threads", 0,
            )
        assert exit.value.code == 2
        assert "unrecognized arguments: --threads 0" in capsys.readouterr().err
        assert not (workdir / "zero.bin").exists()


class TestImageErrors:
    def test_truncated_pgm_exits_2(self, workdir, capsys):
        path = workdir / "truncated.pgm"
        path.write_bytes((workdir / "ref.pgm").read_bytes()[:-100])
        code = run("warp", "--image", path, "--seed", 1, "--out", workdir / "t.pgm")
        assert code == 2
        assert "truncated raster" in capsys.readouterr().err
        assert not (workdir / "t.pgm").exists()

    def test_ascii_pgm_exits_2(self, workdir, capsys):
        path = workdir / "ascii.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        code = run("warp", "--image", path, "--seed", 1, "--out", workdir / "a.pgm")
        assert code == 2
        assert "P2" in capsys.readouterr().err
        assert not (workdir / "a.pgm").exists()


class TestDefaults:
    def test_threads_default_to_one(self):
        from fernkit.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["match", "--image", "x.pgm", "--model", "m", "--seed", "1"])
        assert args.threads == 1
        args = parser.parse_args(["compare", "--image", "x.pgm", "--seed", "1"])
        assert not hasattr(args, "threads")


class TestEval:
    def test_non_finite_noise_exits_2(self, workdir, trained, capsys):
        code = run(
            "eval", "--image", workdir / "ref.pgm", "--model", trained,
            "--seed", 5, "--tests", 3, "--noise", "nan",
            "--out", workdir / "nan.csv",
        )
        assert code == 2
        assert capsys.readouterr().err == "error: noise must be a finite real >= 0, got nan\n"
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

    @pytest.mark.parametrize(
        "combination, row",
        [("NAIVE_BAYES", ["TreeNB", "4", "0.4375", "48", "5"]),
         ("AVERAGE", ["TreeAvg", "4", "0.4166666666666667", "48", "5"])],
    )
    def test_forest_eval_rows_are_pinned(self, workdir, combination, row):
        # every column but ns_per_patch, as the CLI wrote it before eval
        # shared its record and method lookup with the evaluate module
        from fernkit import Combination, select_stable_classes
        from fernkit.dataset import DatasetSpec, derive_rng, generate_training_set

        ref = read_pgm((workdir / "ref.pgm").read_bytes())
        classes = select_stable_classes(ref, 6, 20, derive_rng(3, 3), patch_size=21)
        forest = TreeForest.random(
            classes, 4, 5, derive_rng(3, 2), Combination[combination]
        )
        forest.train(generate_training_set(ref, classes, DatasetSpec(1, 60), 3))
        path = workdir / f"forest_{combination}.bin"
        path.write_bytes(forest.save())
        out = workdir / f"forest_{combination}.csv"
        code = run(
            "eval", "--image", workdir / "ref.pgm", "--model", path,
            "--seed", 5, "--tests", 10, "--out", out,
        )
        assert code == 0
        rows = [r[:4] + r[5:] for r in csv.reader(out.read_text().splitlines())]
        assert rows == [["method", "units", "recognition_rate", "patches", "seed"], row]

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

    @pytest.mark.parametrize("units", ["a", "1,x"])
    def test_sweep_rejects_a_unit_count_that_is_not_an_integer(
        self, workdir, capsys, units
    ):
        out = workdir / "sweep_bad_units.csv"
        code = run(
            "sweep", "--image", workdir / "ref.pgm", "--seed", 4,
            "--units", units, "--out", out,
        )
        assert code == 2
        bad = units.split(",")[-1]
        assert f"error: --units holds '{bad}', not an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_rejects_units_holding_no_count(self, workdir, capsys, pgm_reads):
        out = workdir / "sweep_no_units.csv"
        code = run("sweep", "--image", workdir / "ref.pgm", "--seed", 4, "--units", ",",
                   "--out", out)
        assert code == 2
        assert capsys.readouterr().err == "error: units must hold one or more counts, got ','\n"
        assert not out.exists()
        assert pgm_reads == []

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
        for x, y in model.classes.coords.tolist():
            near = [
                r
                for r in rows
                if abs(float(r["scene_x"]) - x) <= 2
                and abs(float(r["scene_y"]) - y) <= 2
            ]
            if not near:
                continue
            redetected += 1
            best = near[0]
            if (
                abs(float(best["model_x"]) - x) <= 2
                and abs(float(best["model_y"]) - y) <= 2
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


class TestMatchGolden:
    """Pinned match CSVs of a noisy test frame, so detection and one-patch
    scoring keep every byte: at patch 31, and at patch 3, where keypoints
    sit next to the clipped border windows of the response."""

    PINS = {
        31: "da3399f76d2a1005e847e377c787ff3e7189cc2d99c902f339db9e9ef3e7e772",
        3: "9e63686970295a6e77c765f357d80ca5676f4b52d82d8f28c186ad5a66ceece3",
    }

    @pytest.mark.parametrize("patch", sorted(PINS))
    def test_csv_bytes_are_pinned(self, workdir, patch):
        model = workdir / f"golden{patch}.bin"
        code = run(
            "train", "--image", workdir / "ref.pgm", "--model", model,
            "--seed", 5, "--classes", 12, "--ferns", 6, "--fern-size", 5,
            "--patch", patch, "--views-per-degree", 1, "--degrees", 60,
        )
        assert code == 0
        frame = workdir / f"golden_frame{patch}.pgm"
        code = run(
            "warp", "--image", workdir / "ref.pgm", "--seed", 5, "--kind", "test",
            "--view-id", 2, "--tests", 3, "--out", frame,
        )
        assert code == 0
        out = workdir / f"golden{patch}.csv"
        code = run("match", "--image", frame, "--model", model, "--seed", 5, "--out", out)
        assert code == 0
        assert len(out.read_text().splitlines()) > 20
        assert sha256(out) == self.PINS[patch]


class TestModelFiles:
    def test_version_1_model_exits_4(self, workdir, trained, capsys):
        old = workdir / "v1.bin"
        old.write_bytes(v1_fern_file(FernModel.load(trained.read_bytes())))
        code = run("match", "--image", workdir / "ref.pgm", "--model", old, "--seed", 1)
        assert code == 4
        assert "version 1" in capsys.readouterr().err

    def test_version_2_model_exits_4(self, workdir, trained, capsys):
        old = workdir / "v2.bin"
        old.write_bytes(v2_fern_file(FernModel.load(trained.read_bytes())))
        code = run("match", "--image", workdir / "ref.pgm", "--model", old, "--seed", 1)
        assert code == 4
        assert "version 2" in capsys.readouterr().err

    def test_trained_model_stores_narrow_counts(self, trained):
        data = trained.read_bytes()
        model = FernModel.load(data)
        assert struct.unpack_from("<I", data, WIDTH_WORD) == (1,)
        assert len(data) == WIDTH_WORD + 4 + model.num_classes * 8 + 16 * 8 * 8 + model.counts.size

    def test_non_finite_keypoint_exits_4(self, workdir, trained, capsys):
        data = bytearray(trained.read_bytes())
        struct.pack_into("<f", data, KEYPOINT_WORD, float("nan"))
        bad = workdir / "nan_keypoint.bin"
        bad.write_bytes(bytes(data))
        out = workdir / "nan_keypoint.csv"
        code = run(
            "match", "--image", workdir / "ref.pgm", "--model", bad, "--seed", 1,
            "--out", out,
        )
        assert code == 4
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

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


class TestFrameChecks:
    """eval and match refuse frames the model's windows do not fit."""

    def test_eval_with_class_windows_outside_the_image_exits_4(
        self, workdir, trained, capsys
    ):
        # holds the 21-pixel patch, but not the windows of every class
        crop = workdir / "crop.pgm"
        crop.write_bytes(write_pgm(make_texture(40, 40, seed=1)))
        model = FernModel.load(trained.read_bytes())
        assert model.classes.coords.max() > 40 - 1 - 10
        code = run(
            "eval", "--image", crop, "--model", trained, "--seed", 1, "--tests", 3,
        )
        assert code == 4
        assert "fall outside" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "match"])
    def test_frame_smaller_than_the_patch_exits_4(
        self, workdir, trained, capsys, command
    ):
        tiny = workdir / "tiny20.pgm"
        tiny.write_bytes(write_pgm(make_texture(40, 20, seed=1)))
        out = workdir / f"tiny_{command}.csv"
        code = run(
            command, "--image", tiny, "--model", trained, "--seed", 1, "--out", out,
        )
        assert code == 4
        assert "model patch 21 exceeds" in capsys.readouterr().err
        assert not out.exists()


class TestProtocolFlags:
    """Every subcommand parses the protocol flags it takes with one type and
    default, and train and eval take only their own."""

    VIEWS = {"views_per_degree": (int, 2), "degrees": (int, 360)}
    TESTS = {"tests": (int, 1000), "noise": (float, 10.0)}

    @pytest.mark.parametrize("command, flags, absent", [
        ("warp", {**VIEWS, **TESTS}, {}),
        ("sweep", {**VIEWS, **TESTS}, {}),
        ("compare", {**VIEWS, **TESTS}, {}),
        ("train", VIEWS, TESTS),
        ("eval", TESTS, VIEWS),
    ], ids=["warp", "sweep", "compare", "train", "eval"])
    def test_types_and_defaults(self, command, flags, absent):
        from fernkit.cli import build_parser

        parser = build_parser()
        argv = [command, "--image", "x.pgm", "--seed", "1"]
        if command in ("train", "eval"):
            argv += ["--model", "m.bin"]
        args = parser.parse_args(argv)
        for dest, (kind, default) in flags.items():
            value = getattr(args, dest)
            assert type(value) is kind and value == default
            flag = "--" + dest.replace("_", "-")
            value = getattr(parser.parse_args(argv + [flag, "7"]), dest)
            assert type(value) is kind and value == 7
        assert not any(hasattr(args, dest) for dest in absent)


class TestThreads:
    def test_warp_takes_no_threads(self, workdir, capsys):
        out = workdir / "threads.pgm"
        with pytest.raises(SystemExit) as exit:
            run("warp", "--image", workdir / "ref.pgm", "--seed", 3, "--threads", 1,
                "--out", out)
        assert exit.value.code == 2
        assert "unrecognized arguments: --threads 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval", "sweep", "compare"])
    def test_protocol_commands_take_no_threads(self, workdir, capsys, command):
        out = workdir / f"threads-{command}.csv"
        model = ("--model", workdir / "model.bin") if command in ("train", "eval") else ()
        with pytest.raises(SystemExit) as exit:
            run(command, "--image", workdir / "ref.pgm", *model, "--seed", 3,
                "--threads", 1, "--out", out)
        assert exit.value.code == 2
        assert "unrecognized arguments: --threads 1" in capsys.readouterr().err
        assert not out.exists()

    def test_match_rejects_threads_below_one(self, workdir, trained, capsys):
        out = workdir / "threads0.csv"
        code = run(
            "match", "--image", workdir / "ref.pgm", "--model", trained,
            "--seed", 1, "--threads", 0, "--out", out,
        )
        assert code == 2
        assert "threads" in capsys.readouterr().err
        assert not out.exists()

    def test_match_takes_only_one_thread(self, workdir, trained, capsys):
        out = workdir / "threads2.csv"
        match = ("match", "--image", workdir / "ref.pgm", "--model", trained, "--seed", 1)
        assert run(*match, "--threads", 2, "--out", out) == 2
        assert "threads must be an integer in [1, 1], got 2" in capsys.readouterr().err
        assert not out.exists()
        assert run(*match, "--threads", 1, "--out", out) == 0
        assert run(*match, "--out", workdir / "threads-default.csv") == 0
        assert out.read_bytes() == (workdir / "threads-default.csv").read_bytes()


@pytest.fixture
def pgm_reads(monkeypatch):
    """The PGM images the CLI reads in a test, by size in bytes."""
    from fernkit import cli

    reads = []
    real = cli.read_pgm

    def spy(data):
        reads.append(len(data))
        return real(data)

    monkeypatch.setattr(cli, "read_pgm", spy)
    return reads


TRAINING = ("train", "sweep", "compare")
VIEWING = ("train", "sweep", "compare", "warp")
TESTING = ("eval", "sweep", "compare", "warp")

# flag, a value that breaks its rule, the error (the library checker's, naming
# the flag), and the subcommands taking it
RULES = [
    ("classes", 0, "classes must be an integer >= 1, got 0", TRAINING),
    ("ferns", 0, "ferns must be an integer >= 1, got 0", TRAINING),
    ("fern-size", 0, "fern-size must be an integer in [1, 63], got 0", TRAINING),
    ("patch", 30, "patch must be an odd integer >= 3, got 30", TRAINING),
    ("views-per-degree", 0, "views-per-degree must be an integer >= 1, got 0", VIEWING),
    ("degrees", 0, "degrees must be an integer >= 1, got 0", VIEWING),
    ("tests", 0, "tests must be an integer >= 1, got 0", TESTING),
    ("noise", -1, "noise must be a finite real >= 0, got -1.0", TESTING),
    ("units", "1,0", "units must be an integer >= 1, got 0", ("sweep",)),
    ("units", 0, "units must be an integer >= 1, got 0", ("compare",)),
]


class TestSeed:
    """A flag value that breaks its rule exits 2 with an error line naming the
    flag, before any image is read or output written: a negative seed on
    every subcommand, and each other rule on every subcommand taking it."""

    @pytest.mark.parametrize("command, flag, value, message", [
        *[
            pytest.param(command, "seed", -1, "seed must be an integer >= 0, got -1", id=command)
            for command in ["train", "eval", "sweep", "compare", "match", "warp"]
        ],
        *[
            pytest.param(command, flag, value, message, id=f"{command}-{flag}")
            for flag, value, message, commands in RULES
            for command in commands
        ],
    ])
    def test_negative_seed_exits_2_before_any_output(
        self, workdir, trained, capsys, pgm_reads, command, flag, value, message
    ):
        out = workdir / f"rule_{command}_{flag}.out"
        # a repeated flag takes its last value
        argv = [command, "--image", workdir / "ref.pgm", "--seed", 1, f"--{flag}", value]
        if command == "train":
            argv += ["--model", out]
        else:
            if command in ("eval", "match"):
                argv += ["--model", trained]
            argv += ["--out", out]
        assert run(*argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        assert pgm_reads == []


class TestUnitDepth:
    """A fern size or tree depth above 63 exits 2 before the image is read;
    tests or counts too large to allocate exit 2 with an error line."""

    @pytest.mark.parametrize(
        "command, method", [("train", None), ("sweep", "TreeNB"), ("compare", None)]
    )
    def test_depth_64_exits_2(self, workdir, capsys, pgm_reads, command, method):
        out = workdir / f"depth64_{command}.out"
        argv = [command, "--image", workdir / "ref.pgm", "--seed", 1, "--classes", 4,
                "--patch", 21, "--fern-size", 64, "--degrees", 10]
        if command == "train":
            argv += ["--ferns", 2, "--model", out]
        else:
            argv += ["--units", 1, "--out", out]
        if method:
            argv += ["--method", method]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "64" in err
        assert not out.exists()
        assert pgm_reads == []

    # 2 x 2^56 x 4 counts are 512 PiB, more than a 57-bit address space
    # holds; 2 x 2^62 x 4 are past numpy's size limit
    @pytest.mark.parametrize("size", [56, 62])
    def test_counts_past_memory_exit_2(self, workdir, capsys, size):
        out = workdir / f"counts_depth{size}.bin"
        code = run(
            "train", "--image", workdir / "ref.pgm", "--model", out, "--seed", 1,
            "--classes", 4, "--ferns", 2, "--fern-size", size, "--patch", 21,
            "--degrees", 10,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot allocate counts of shape (2, {1 << size}, 4)\n"
        assert not out.exists()

    def test_tree_tests_past_memory_exit_2(self, workdir, capsys):
        # a depth-40 tree has 2^40 - 1 node tests, 32 TiB of offsets
        out = workdir / "tree_depth40.csv"
        code = run(
            "sweep", "--image", workdir / "ref.pgm", "--seed", 1, "--classes", 4,
            "--method", "TreeNB", "--fern-size", 40, "--patch", 21, "--degrees", 10,
            "--units", 1, "--out", out,
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: cannot allocate {(1 << 40) - 1} tests\n"
        assert not out.exists()


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
        from fernkit.dataset import STREAM_TEST, derive_rng
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

    def test_identity_training_view_is_the_reference_without_noise(self, workdir):
        out = workdir / "id_train.pgm"
        code = run(
            "warp", "--image", workdir / "ref.pgm", "--seed", 9, "--identity",
            "--kind", "train", "--view-id", 5, "--out", out,
        )
        assert code == 0
        # training views carry no noise, whatever --noise says
        assert out.read_bytes() == (workdir / "ref.pgm").read_bytes()
        with open(str(out) + ".manifest.csv") as f:
            row = read_manifest(f)[0]
        assert row["view_id"] == 5
        assert row["noise_sigma"] == 0.0

    def test_identity_test_view_draws_its_own_noise(self, workdir):
        from fernkit.dataset import STREAM_TEST, derive_rng
        from fernkit.image import add_noise

        out = workdir / "id_test.pgm"
        code = run(
            "warp", "--image", workdir / "ref.pgm", "--seed", 9, "--identity",
            "--kind", "test", "--view-id", 3, "--noise", 4, "--out", out,
        )
        assert code == 0
        with open(str(out) + ".manifest.csv") as f:
            row = read_manifest(f)[0]
        assert (row["view_id"], row["noise_sigma"]) == (3, 4.0)
        # a given deform draws nothing, so the noise is the rng's first draws
        ref = read_pgm((workdir / "ref.pgm").read_bytes())
        replay = add_noise(ref, 4.0, derive_rng(9, STREAM_TEST, 3))
        assert out.read_bytes() == write_pgm(replay)

    def test_identity_view_id_beyond_the_stream(self, workdir, capsys):
        code = run(
            "warp", "--image", workdir / "ref.pgm", "--seed", 9, "--identity",
            "--kind", "train", "--view-id", 720, "--out", workdir / "id_beyond.pgm",
        )
        assert code == 2
        assert "view id 720 beyond" in capsys.readouterr().err

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


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestWarpOneView:
    """``fernkit warp`` renders only the view it writes; the pins are the
    bytes of the same views taken from the protocol's view iterators."""

    KINDS = {
        "test": (
            ("--kind", "test", "--view-id", 4, "--tests", 5, "--noise", 4),
            "6b4f2fc384bd5d4c916991246651f18d39b9914a6d3cfb73f111384b1e880286",
            "5cf556ed047862e209b44d8733a6e5383022296104d813109a61dd9dc9085324",
        ),
        "train": (
            ("--kind", "train", "--view-id", 9, "--views-per-degree", 1, "--degrees", 10),
            "72e438a3664167ac03588a5cc4a10eabcf4c8b1e33c07eef2f0013c76e229ab8",
            "4f27b643bad3ac5c8939359cad15ef11516b9d89321de3243c64ba19617054d8",
        ),
        "identity": (
            ("--identity", "--noise", 6),
            "26cf8c4f347b9780ec6aa10cec7bd05486305a94d42b407a880fcdcb57e384b2",
            "df5a415af3d593f4792a2f8b378f4e22376adefa88cc9f93325b5bf18f43a8bc",
        ),
    }

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_last_view_renders_once_with_pinned_bytes(self, workdir, warp_calls, kind):
        flags, pgm_sha, manifest_sha = self.KINDS[kind]
        out = workdir / f"one_{kind}.pgm"
        code = run(
            "warp", "--image", workdir / "ref.pgm", "--seed", 9, "--out", out, *flags
        )
        assert code == 0
        assert len(warp_calls) == 1
        assert sha256(out) == pgm_sha
        assert sha256(workdir / f"one_{kind}.pgm.manifest.csv") == manifest_sha

    @pytest.mark.parametrize(
        "flags, view_id",
        [(("--kind", "test", "--tests", 5), 5), (("--kind", "test"), -1),
         (("--kind", "train", "--views-per-degree", 1, "--degrees", 10), 10)],
    )
    def test_out_of_range_view_renders_nothing(
        self, workdir, warp_calls, capsys, flags, view_id
    ):
        out = workdir / "beyond.pgm"
        code = run(
            "warp", "--image", workdir / "ref.pgm", "--seed", 9, "--out", out,
            "--view-id", view_id, *flags,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"view id {view_id} beyond the protocol's view count" in err
        assert warp_calls == []
        assert not out.exists()

    def test_main_parses_every_call_with_one_parser(self):
        from fernkit import cli

        parser = cli._parser()
        match = ["match", "--image", "x.pgm", "--model", "m.bin", "--seed", "2", "--threads", "3"]
        warp = ["warp", "--image", "x.pgm", "--seed", "1"]
        parser.parse_args(match)
        # nothing of the earlier call leaks into the next one
        assert vars(parser.parse_args(warp)) == vars(cli.build_parser().parse_args(warp))
        assert cli._parser() is parser
