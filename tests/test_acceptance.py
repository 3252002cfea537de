"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
The desk-scale protocol (criteria 2-4) uses a fixed 320x240 synthetic
texture, 50 classes, 20 units of size 8, 2 views per degree of training,
and 500 noisy test views under one seed.
"""

import statistics
import time

import numpy as np
import pytest

from fernkit import (
    DatasetSpec,
    FernModel,
    GrayImage,
    read_pgm,
    select_stable_classes,
    write_pgm,
)
from fernkit.dataset import (
    STREAM_CLASSES, STREAM_MODEL, STREAM_TEST, STREAM_TRAIN, _blocks, derive_rng,
)
from fernkit.dataset import test_views as render_test_views
from fernkit.evaluate import Method, compare_methods, sweep_units
from fernkit.ferns import random_tests

from support import (
    frames_found,
    grid_classes,
    make_texture,
    posterior_oracle,
    random_patches,
    tree_leaf_oracle,
)

TEXTURE_SEED = 7
RUN_SEED = 1

DESK = dict(h=50, units=20, fern_size=8, patch=31)


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def desk_image():
    return make_texture(320, 240, seed=TEXTURE_SEED)


@pytest.fixture(scope="module")
def desk_classes(desk_image):
    return select_stable_classes(
        desk_image,
        DESK["h"],
        num_views=50,
        rng=derive_rng(RUN_SEED, STREAM_CLASSES),
        patch_size=DESK["patch"],
    )


@pytest.fixture(scope="module")
def desk_spec():
    return DatasetSpec(
        views_per_degree=2, rotation_degrees=360, test_views=500, noise_sigma=10.0
    )


@pytest.fixture(scope="module")
def desk_records(desk_image, desk_classes, desk_spec):
    start = time.perf_counter()
    records = compare_methods(
        desk_image,
        desk_classes,
        desk_spec,
        units=DESK["units"],
        seed=RUN_SEED,
        fern_size=DESK["fern_size"],
    )
    elapsed = time.perf_counter() - start
    return {r.method: r.recognition_rate for r in records}, elapsed


class TestCriterion1:
    def test_oracle_equivalence_small_configs(self):
        start = time.perf_counter()
        worst = 0.0
        rng = np.random.default_rng(100)
        patch_size = 9
        for s in (1, 2, 3):
            for m in (1, 2, 3):
                for h in (1, 2, 3, 4):
                    model = FernModel.random(grid_classes(h, patch_size), s, m, rng)
                    train_patches = random_patches(rng, 30 * h, patch_size)
                    labels = rng.integers(0, h, 30 * h)
                    model.train(
                        (GrayImage(p), int(l))
                        for p, l in zip(train_patches, labels)
                    )
                    for p in random_patches(rng, 200, patch_size):
                        got = model.posterior(GrayImage(p), 4, 4)
                        expected = [float(v) for v in posterior_oracle(model, p)]
                        worst = max(worst, float(np.max(np.abs(got - expected))))
        elapsed = time.perf_counter() - start
        report(
            1,
            worst < 1e-9 and elapsed < 10.0,
            f"max |posterior - exact-rational oracle| = {worst:.2e} over "
            f"36 configs x 200 patches in {elapsed:.1f}s (< 10s)",
        )


class TestCriterion2:
    def test_naive_bayes_beats_averaging(self, desk_records):
        rates, elapsed = desk_records
        fern_gap = (rates["FernNB"] - rates["FernAvg"]) * 100
        tree_gap = (rates["TreeNB"] - rates["TreeAvg"]) * 100
        report(
            2,
            fern_gap >= 5.0 and tree_gap >= 5.0 and elapsed < 300.0,
            f"FernNB-FernAvg = {fern_gap:.1f} pts, TreeNB-TreeAvg = "
            f"{tree_gap:.1f} pts (>= 5 required) in {elapsed:.0f}s (< 300s)",
        )


class TestCriterion3:
    def test_structure_immaterial(self, desk_records):
        rates, _ = desk_records
        nb_delta = abs(rates["FernNB"] - rates["TreeNB"]) * 100
        avg_delta = abs(rates["FernAvg"] - rates["TreeAvg"]) * 100
        report(
            3,
            nb_delta <= 5.0 and avg_delta <= 5.0,
            f"|FernNB-TreeNB| = {nb_delta:.1f} pts, |FernAvg-TreeAvg| = "
            f"{avg_delta:.1f} pts (<= 5 required)",
        )


class TestDeskGoldenRates:
    def test_desk_rates_are_pinned(self, desk_records):
        """Exact desk rates; synthesis or classifier changes must keep them."""
        rates, _ = desk_records
        assert rates == {
            "FernNB": 0.7168109504600463,
            "FernAvg": 0.6190454607261026,
            "TreeNB": 0.7126410732901237,
            "TreeAvg": 0.6167338983819064,
        }


@pytest.fixture(scope="module")
def desk_fern_file(desk_image, desk_classes, desk_spec, tmp_path_factory):
    """The FernNB model of ``desk_records``, trained alone and saved."""
    rng = derive_rng(RUN_SEED, STREAM_MODEL)
    model = FernModel.random(desk_classes, DESK["units"], DESK["fern_size"], rng)
    model.train(_blocks(desk_image, desk_classes, desk_spec, RUN_SEED, STREAM_TRAIN))
    path = tmp_path_factory.mktemp("desk") / "desk.fern"
    path.write_bytes(model.save())
    return path


class TestDeskFramesFound:
    def test_match_frames_found_is_pinned(self, desk_image, desk_classes, desk_fern_file,
                                          tmp_path):
        """Frames of the test protocol in which ``fernkit match`` locates the
        object; a detection or scoring change must say how it moves."""
        views = render_test_views(desk_image, DatasetSpec(0, 0, 40, 10.0), 5)
        assert frames_found(desk_fern_file, views, desk_classes.coords, tmp_path) == 21


class TestCriterion4:
    def test_more_units_help(self, desk_image, desk_classes, desk_spec):
        counts = [1, 5, 10, 20, 30]
        records = sweep_units(
            desk_image,
            desk_classes,
            desk_spec,
            Method.FERN_NB,
            counts,
            seed=RUN_SEED,
            fern_size=DESK["fern_size"],
        )
        rates = [r.recognition_rate for r in records]
        growth = (rates[-1] - rates[0]) * 100
        band_ok = all(
            rates[i + 1] >= rates[i] - 0.02 for i in range(len(rates) - 1)
        )
        curve = ", ".join(f"{k}:{r:.3f}" for k, r in zip(counts, rates))
        report(
            4,
            growth >= 20.0 and band_ok,
            f"rate(30)-rate(1) = {growth:.1f} pts (>= 20 required), curve "
            f"non-decreasing within 2-pt band [{curve}]",
        )


class TestCriterion5:
    def test_protocol_counts(self):
        start = time.perf_counter()
        img = make_texture(64, 64, seed=TEXTURE_SEED)
        classes = select_stable_classes(
            img, 3, num_views=20, rng=derive_rng(RUN_SEED, STREAM_CLASSES),
            patch_size=21,
        )
        spec = DatasetSpec(
            views_per_degree=30, rotation_degrees=360, test_views=1000,
            noise_sigma=10.0,
        )
        # each view of a stream is one block
        train_views, test_views = (
            sum(1 for _ in _blocks(img, classes, spec, RUN_SEED, stream))
            for stream in (STREAM_TRAIN, STREAM_TEST)
        )
        elapsed = time.perf_counter() - start
        report(
            5,
            train_views == 10800
            and test_views == 1000
            and elapsed < 120.0,
            f"training generator emitted {train_views} views (10800 "
            f"required), test generator {test_views} (1000 required) "
            f"in {elapsed:.0f}s (< 120s)",
        )


class TestCriterion6:
    def test_invariant_suite(self, small_model):
        start = time.perf_counter()
        failures = []
        rng = np.random.default_rng(600)
        p = small_model.patch_size

        # monotone-intensity invariance: 500 patches x 3 strictly increasing maps
        patches = random_patches(rng, 500, p, low=0, high=85)
        base_leaves = small_model.leaf_indices(patches)
        base_labels, _ = small_model.classify_patches(patches)
        for name, remap in (
            ("+100", lambda v: v + 100),
            ("x2", lambda v: 2 * v),
            ("x3", lambda v: 3 * v),
        ):
            mapped = remap(patches.astype(np.int64)).astype(np.uint8)
            if not np.array_equal(small_model.leaf_indices(mapped), base_leaves):
                failures.append(f"leaves changed under {name}")
            labels, _ = small_model.classify_patches(mapped)
            if not np.array_equal(labels, base_labels):
                failures.append(f"labels changed under {name}")

        # leaf-distribution normalization and count conservation
        sums = np.exp(small_model.log_table).sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > 1e-9:
            failures.append("leaf distributions not normalized")
        totals = small_model.counts.sum(axis=1)
        if not np.all(totals == totals[0]):
            failures.append("count conservation violated")

        # training-order invariance
        train_patches = random_patches(rng, 80, p)
        train_labels = rng.integers(0, small_model.num_classes, 80)
        samples = [
            (GrayImage(q), int(l)) for q, l in zip(train_patches, train_labels)
        ]
        a = FernModel(small_model.classes, small_model.tests).train(iter(samples))
        shuffled = list(samples)
        np.random.default_rng(601).shuffle(shuffled)
        b = FernModel(small_model.classes, small_model.tests).train(iter(shuffled))
        if not (
            np.array_equal(a.counts, b.counts)
            and np.array_equal(a.log_table, b.log_table)
        ):
            failures.append("training order changed the model")

        # model round trip: behavioral identity on 1000 patches
        probe = random_patches(rng, 1000, p)
        loaded = FernModel.load(small_model.save())
        la, sa = small_model.classify_patches(probe)
        lb, sb = loaded.classify_patches(probe)
        if not (np.array_equal(la, lb) and np.array_equal(sa, sb)):
            failures.append("round-tripped model behaves differently")

        # PGM bit-exact round trip
        img = GrayImage(rng.integers(0, 256, (120, 160)).astype(np.uint8))
        if read_pgm(write_pgm(img)) != img or write_pgm(read_pgm(write_pgm(img))) != write_pgm(img):
            failures.append("PGM round trip not bit-exact")

        # fern vs level-shared-test tree equivalence on 1000 patches
        level_tests = random_tests(6, p, rng)
        # breadth-first: level l holds nodes 2^l - 1 to 2^(l+1) - 2
        tree = np.repeat(level_tests, 1 << np.arange(6), axis=0)
        fern_model = FernModel(small_model.classes, level_tests[None])
        tree_leaves = np.array([tree_leaf_oracle(q, tree) for q in probe])
        if not np.array_equal(fern_model.leaf_indices(probe)[:, 0], tree_leaves):
            failures.append("fern and shared-test tree disagree on leaves")

        elapsed = time.perf_counter() - start
        report(
            6,
            not failures and elapsed < 60.0,
            f"monotone maps, normalization, conservation, order invariance, "
            f"round trips, fern-tree equivalence all hold in {elapsed:.1f}s "
            f"(< 60s)" if not failures else "; ".join(failures),
        )


class TestCriterion7:
    def test_cost_contract(self):
        model = FernModel.random(grid_classes(200, 31), 30, 10, np.random.default_rng(700))
        probe = random_patches(np.random.default_rng(701), 20000, 32)
        model.classify_patches(probe)  # warm up
        before = model.pixel_comparisons
        timings = []
        for _ in range(3):
            start = time.perf_counter_ns()
            model.classify_patches(probe)
            timings.append(time.perf_counter_ns() - start)
        per_patch = (model.pixel_comparisons - before) / (3 * len(probe))
        per_second = 1e9 * len(probe) / statistics.median(timings)
        count_ok = per_patch == 30 * 10
        soft = "meets" if per_second >= 50_000 else "misses"
        report(
            7,
            count_ok,
            f"pixel comparisons per patch = {per_patch:g} "
            f"(S*M = 300 required); throughput {per_second:,.0f} patches/s "
            f"{soft} the 50,000/s soft target (reported, not asserted)",
        )
