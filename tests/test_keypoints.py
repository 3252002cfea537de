from dataclasses import replace

import numpy as np
import pytest

from fernkit import (
    AffineDeform,
    ClassSet,
    GrayImage,
    InsufficientKeypoints,
    InvalidArgument,
    add_noise,
    detect_keypoints,
    select_stable_classes,
)
from fernkit.keypoints import _local_maxima, _response, _response_sums, window_fits

from support import (
    detect_keypoints_oracle,
    local_maxima_oracle,
    make_texture,
    response_map_oracle,
    separation_oracle,
)


def is_empty(found) -> bool:
    """Whether a detection result is the (0, 3) float64 array of no rows."""
    return found.shape == (0, 3) and found.dtype == np.float64


class TestDetect:
    def test_constant_image_empty(self):
        img = GrayImage(np.full((64, 64), 50, dtype=np.uint8))
        assert is_empty(detect_keypoints(img, 10))

    def test_no_count_is_empty(self, texture_small):
        assert is_empty(detect_keypoints(texture_small, 0, patch_size=21))

    def test_negative_count_rejected(self, texture_small):
        # it read as no count, and so gave no rows
        with pytest.raises(InvalidArgument, match=r"^max_count must be an integer >= 0, got -3$"):
            detect_keypoints(texture_small, -3, patch_size=21)

    def test_single_bright_pixel_wins(self):
        pixels = np.zeros((64, 64), dtype=np.uint8)
        pixels[10, 10] = 255
        kps = detect_keypoints(GrayImage(pixels), 5, patch_size=9)
        assert kps.dtype == np.float64 and kps.shape[1] == 3
        assert kps[0, :2].tolist() == [10.0, 10.0]

    def test_sorted_by_response(self, texture_small):
        kps = detect_keypoints(texture_small, 200, patch_size=21)
        assert len(kps) > 20
        rows = kps.tolist()
        assert rows == sorted(rows, key=lambda k: (-k[2], k[1], k[0]))

    def test_max_count_cap(self, texture_small):
        assert len(detect_keypoints(texture_small, 7, patch_size=21)) == 7

    def test_border_margin_excluded(self):
        pixels = np.zeros((64, 64), dtype=np.uint8)
        pixels[2, 2] = 255  # inside the image but inside the margin
        assert is_empty(detect_keypoints(GrayImage(pixels), 10, patch_size=31))

    def test_margin_respected_on_texture(self, texture_small):
        margin = 21 // 2
        for x, y, _ in detect_keypoints(texture_small, 500, patch_size=21).tolist():
            assert margin <= x <= texture_small.width - 1 - margin
            assert margin <= y <= texture_small.height - 1 - margin

    def test_image_smaller_than_patch_is_empty(self):
        img = GrayImage(np.full((8, 8), 9, dtype=np.uint8))
        assert is_empty(detect_keypoints(img, 10, patch_size=31))

    def test_two_separated_peaks_both_found(self):
        pixels = np.zeros((64, 64), dtype=np.uint8)
        pixels[20, 20] = 200
        pixels[40, 44] = 255
        kps = detect_keypoints(GrayImage(pixels), 10, patch_size=9)
        spots = {(x, y) for x, y, _ in kps[:2].tolist()}
        assert spots == {(20.0, 20.0), (44.0, 40.0)}


class TestWindowFits:
    """The one rule for which windows a frame holds: a window reaching
    ``margin`` pixels around its centre lies wholly inside the frame."""

    W, H, M = 40, 30, 5

    @pytest.mark.parametrize("axis", [0, 1])
    def test_edges_fit_and_one_pixel_beyond_does_not(self, axis):
        size = (self.W, self.H)[axis]
        across = (self.W // 2, self.H // 2)[1 - axis]
        for centre, fits in [
            (self.M, True), (size - 1 - self.M, True),
            (self.M - 1, False), (size - self.M, False),
        ]:
            x, y = (centre, across) if axis == 0 else (across, centre)
            assert bool(window_fits(x, y, self.W, self.H, self.M)) is fits

    def test_ints_floats_and_arrays_agree(self):
        steps = np.arange(-2.0, max(self.W, self.H) + 2.0, 0.5)
        xs, ys = np.meshgrid(steps, steps)
        grid = window_fits(xs, ys, self.W, self.H, self.M)
        assert grid.dtype == bool and grid.shape == xs.shape
        whole = (xs % 1 == 0) & (ys % 1 == 0)
        assert np.count_nonzero(grid & whole) == (self.W - 2 * self.M) * (self.H - 2 * self.M)
        ints = window_fits(xs.astype(np.int64), ys.astype(np.int64), self.W, self.H, self.M)
        assert np.array_equal(ints[whole], grid[whole])
        for x, y, fits, is_whole in zip(
            xs.ravel().tolist(), ys.ravel().tolist(), grid.ravel().tolist(),
            whole.ravel().tolist(),
        ):
            assert window_fits(x, y, self.W, self.H, self.M) == fits
            if is_whole:
                assert window_fits(int(x), int(y), self.W, self.H, self.M) == fits

    @pytest.mark.parametrize("width, height", [(2 * M, 30), (40, 2 * M), (1, 1), (0, 0)])
    def test_frame_narrower_than_a_window_fits_nothing(self, width, height):
        steps = np.arange(-2.0, 45.0, 0.5)
        xs, ys = np.meshgrid(steps, steps)
        assert not window_fits(xs, ys, width, height, self.M).any()
        # one pixel wider holds only the centre line
        fits = window_fits(xs, ys, 2 * self.M + 1, 2 * self.M + 1, self.M)
        assert list(zip(xs[fits].tolist(), ys[fits].tolist())) == [(self.M, self.M)]


def tied_image(kind: str, seed: int) -> GrayImage:
    """Images whose maxima share responses exactly.

    With every pixel a multiple of 9, the ring mean and the contrast are
    exact dyadic numbers, so equal neighbourhoods give bit-equal responses.
    """
    rng = np.random.default_rng(seed)
    if kind == "levels":
        return GrayImage((9 * rng.integers(0, 3, (70, 90))).astype(np.uint8))
    if kind == "spots":
        pixels = np.zeros((70, 90), dtype=np.uint8)
        spots = pixels[5:-5:6, 5:-5:6]
        spots[:] = 9 * rng.choice([14, 20, 28], size=spots.shape, p=[0.2, 0.6, 0.2])
        return GrayImage(pixels)
    return make_texture(90, 70, seed)


def keypoint_bytes(found) -> bytes:
    assert found.dtype == np.float64 and found.ndim == 2 and found.shape[1] == 3
    return found.tobytes()


class TestTopKSelection:
    """Ranking only the maxima that can reach max_count, against a full lexsort."""

    @pytest.mark.parametrize("kind", ["levels", "spots", "texture"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_full_ranking(self, kind, seed):
        img, patch = tied_image(kind, seed), 9
        ranked = detect_keypoints_oracle(img, img.width * img.height, patch)
        n = len(ranked)
        assert n > 10
        responses = ranked[:, 2].tolist()
        # cut-offs that split a run of equal responses
        split = [i for i in range(1, n) if responses[i - 1] == responses[i]]
        if kind != "texture":
            assert len(split) > n // 4
        for max_count in {1, 2, n // 2, n - 1, n, n + 1, 3 * n, *split[:: max(1, len(split) // 12)]}:
            got = detect_keypoints(img, max_count, patch)
            want = detect_keypoints_oracle(img, max_count, patch)
            assert len(got) == min(max_count, n)
            assert keypoint_bytes(got) == keypoint_bytes(want)

    def test_all_maxima_tied(self):
        pixels = np.zeros((60, 60), dtype=np.uint8)
        pixels[8:-8:5, 8:-8:5] = 180
        img = GrayImage(pixels)
        ranked = detect_keypoints_oracle(img, 10**6, 9)
        assert len(set(ranked[:len(ranked) // 2, 2].tolist())) == 1
        for max_count in (1, 7, len(ranked) // 2, len(ranked)):
            got = detect_keypoints(img, max_count, 9)
            assert keypoint_bytes(got) == keypoint_bytes(ranked[:max_count])


class TestDetectEqualsOracle:
    """Every detected row, response bytes included, equals the float
    oracle's, on frames small enough that most cells touch a clipped border
    and on frames that hold a 31-pixel patch."""

    @pytest.mark.parametrize("shape", [(3, 3), (3, 7), (9, 4), (33, 31), (40, 35)])
    @pytest.mark.parametrize("kind", ["random", "binary", "constant"])
    @pytest.mark.parametrize("patch", [3, 5, 31])
    def test_keypoint_bytes(self, shape, kind, patch):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        pixels = {
            "random": lambda: rng.integers(0, 256, shape),
            "binary": lambda: 255 * rng.integers(0, 2, shape),
            "constant": lambda: np.full(shape, 77),
        }[kind]()
        img = GrayImage(pixels.astype(np.uint8))
        for max_count in (1, 7, 800, 10**6):
            got = detect_keypoints(img, max_count, patch)
            want = detect_keypoints_oracle(img, max_count, patch)
            assert keypoint_bytes(got) == keypoint_bytes(want)


def response_map(img: GrayImage) -> np.ndarray:
    """The float64 response of every cell, from its exact integer sum."""
    return _response(_response_sums(img))


class TestResponseMap:
    """The integer response sums, taken to floats, equal the float oracle's
    map byte for byte, so detection keeps the float ranking and ties."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (6, 1), (2, 2), (3, 3), (37, 53)])
    def test_bytes_equal_oracle(self, shape):
        rng = np.random.default_rng(shape[0] * 31 + shape[1])
        img = GrayImage(rng.integers(0, 256, shape).astype(np.uint8))
        assert response_map(img).tobytes() == response_map_oracle(img).tobytes()

    @pytest.mark.parametrize("kind", ["levels", "spots", "texture"])
    def test_bytes_equal_oracle_on_tied_images(self, kind):
        img = tied_image(kind, 3)
        assert response_map(img).tobytes() == response_map_oracle(img).tobytes()
        got = detect_keypoints(img, 10**6, 3)
        assert keypoint_bytes(got) == keypoint_bytes(detect_keypoints_oracle(img, 10**6, 3))

    @pytest.mark.parametrize("kind", ["noise", "noisy_texture", "lone_255", "0_in_255_ring"])
    def test_bytes_equal_oracle_on_full_frames(self, kind):
        h, w = 480, 640
        if kind == "noise":
            pixels = np.random.default_rng(48).integers(0, 256, (h, w)).astype(np.uint8)
        elif kind == "noisy_texture":
            pixels = add_noise(make_texture(w, h, 48), 8.0, np.random.default_rng(49)).pixels
        else:
            # the largest contrast a ring allows: 8 * 255 before the 1/8
            pixels = np.zeros((h, w), dtype=np.uint8)
            pixels[200, 300] = 255
            if kind == "0_in_255_ring":
                pixels[199:202, 299:302] = 255 - pixels[199:202, 299:302]
        img = GrayImage(pixels)
        assert response_map(img).tobytes() == response_map_oracle(img).tobytes()
        got = detect_keypoints(img, 800, 31)
        assert keypoint_bytes(got) == keypoint_bytes(detect_keypoints_oracle(img, 800, 31))


class TestLocalMaxima:
    """The separable 3x3 max against the eight-neighbour loop it replaced."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 31), (29, 1), (2, 2), (37, 53)])
    @pytest.mark.parametrize("kind", ["float", "integer", "plateau"])
    def test_mask_equals_neighbour_oracle(self, shape, kind):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        resp = {
            "float": lambda: rng.random(shape),
            "integer": lambda: rng.integers(0, 4, shape).astype(np.float64),
            "plateau": lambda: np.kron(
                rng.integers(0, 3, (shape[0] // 4 + 1, shape[1] // 4 + 1)), np.ones((4, 4))
            )[: shape[0], : shape[1]].astype(np.float64),
        }[kind]()
        assert np.array_equal(_local_maxima(resp), local_maxima_oracle(resp))

    def test_response_map_of_texture(self, texture_small):
        # the float map and the integer sums it comes from share their maxima
        sums = _response_sums(texture_small)
        resp = _response(sums)
        assert np.array_equal(_local_maxima(resp), local_maxima_oracle(resp))
        assert np.array_equal(_local_maxima(sums), local_maxima_oracle(resp))


class TestClassSet:
    def test_separation_invariant_enforced(self):
        with pytest.raises(InvalidArgument):
            ClassSet([(20, 20), (22, 20)], patch_size=21)

    def test_even_patch_rejected(self):
        with pytest.raises(InvalidArgument):
            ClassSet([(20, 20)], patch_size=20)

    @pytest.mark.parametrize("patch_size", [15.0, np.float64(15), True, "15", None])
    def test_non_integer_patch_size_rejected(self, patch_size):
        with pytest.raises(InvalidArgument, match="integer"):
            ClassSet([(20, 20)], patch_size=patch_size)

    @pytest.mark.parametrize("patch_size", [np.int64(15), np.uint8(15), np.int32(15)])
    def test_numpy_integer_patch_size_is_a_python_int(self, patch_size):
        classes = ClassSet([(20, 20)], patch_size=patch_size)
        assert type(classes.patch_size) is int and classes.patch_size == 15
        assert classes == ClassSet([(20, 20)], 15)
        assert hash(classes) == hash(ClassSet([(20, 20)], 15))

    @pytest.mark.parametrize("coords", [
        [(20.0, 20.0, 1.0)],  # (H, 3): detection rows, not positions
        [(20.0, 20.0, 1.0), (40.0, 40.0, 2.0)],
        [20.0, 20.0],  # 1-D, though it holds one (x, y)
        [[[20.0, 20.0]]],
        np.empty((0, 2)),
        [],
    ])
    def test_only_a_non_empty_h_by_2_array(self, coords):
        with pytest.raises(InvalidArgument, match="H, 2"):
            ClassSet(coords, 9)

    @pytest.mark.parametrize("coords", [
        "ab",
        [["a", "b"]],
        [("20", "20")],
        [(True, False)],
        [(20.0, 1j)],
        [(20.0, None)],
        [(20.0, 20.0), (40.0,)],  # ragged
    ])
    def test_non_numeric_coordinates_rejected(self, coords):
        with pytest.raises(InvalidArgument):
            ClassSet(coords, 9)

    @pytest.mark.parametrize(
        "x, y", [(np.nan, 5.0), (5.0, np.nan), (np.inf, 5.0), (5.0, -np.inf),
                 (1e39, 0.0), (0.0, -1e39)]  # beyond float32
    )
    def test_non_finite_coordinates_rejected(self, x, y):
        with pytest.raises(InvalidArgument, match="finite"):
            ClassSet([(x, y)], patch_size=9)
        with pytest.raises(InvalidArgument, match="finite"):
            ClassSet([(50.0, 50.0), (x, y)], patch_size=9)

    def test_coords_built_once_and_read_only(self):
        given = np.array([[10, 12], [40.5, 12], [10, 50]], dtype=np.float32)
        classes = ClassSet(given, patch_size=9)
        coords = classes.coords
        assert coords is classes.coords
        assert coords.dtype == np.float64 and coords.shape == (3, 2)
        assert coords.tolist() == [[10.0, 12.0], [40.5, 12.0], [10.0, 50.0]]
        assert len(classes) == 3
        with pytest.raises(ValueError):
            coords[0, 0] = 1.0
        # the caller's array stays writeable and is not shared
        given[0, 0] = 11.0
        assert coords[0, 0] == 10.0
        # equality and hashing see the coordinates and the patch size
        same = ClassSet(coords.tolist(), 9)
        assert same == classes and hash(same) == hash(classes)
        assert ClassSet(coords[:2], 9) != classes
        assert ClassSet(coords, 11) != classes
        assert classes != "not a ClassSet"
        moved = replace(classes, coords=coords[:2])
        assert moved.coords.tolist() == [[10.0, 12.0], [40.5, 12.0]]

    def test_coordinates_held_at_float32_precision(self):
        classes = ClassSet([(40.1, 20.0), (10.0, 40.0)], 9)
        assert classes.coords.dtype == np.float64
        assert classes.coords[0, 0] == float(np.float32(40.1)) != 40.1
        assert classes == ClassSet(classes.coords.astype(np.float32), 9)

    def test_negative_zero_compares_and_hashes_as_zero(self):
        plus = ClassSet([(0.0, 0.0), (20.0, 0.0)], 9)
        minus = ClassSet([(-0.0, 0.0), (20.0, -0.0)], 9)
        assert plus.coords.tobytes() != minus.coords.tobytes()
        assert plus == minus and hash(plus) == hash(minus)

    def test_infinitely_far_points_rejected(self):
        # inf - inf is nan, which no distance comparison catches
        with pytest.raises(InvalidArgument, match="finite"):
            ClassSet([(np.inf, 5), (np.inf, 50)], 9)


def separation_verdict(coords: np.ndarray, patch_size: int) -> bool:
    """Whether ClassSet rejects the points as too close."""
    try:
        ClassSet(coords, patch_size)
    except InvalidArgument:
        return True
    return False


class TestSeparationOracle:
    """The blocked separation check agrees with one row operation per point."""

    @pytest.mark.parametrize("h", [1, 2, 63, 64, 65, 130, 200])
    @pytest.mark.parametrize("patch_size", [9, 31])
    def test_random_sets(self, h, patch_size):
        rng = np.random.default_rng(h * 100 + patch_size)
        min_sep = patch_size / 2.0
        # a grid at exactly the separation, jittered by a few float32 steps
        # (ClassSet holds float32 values), shuffled so close pairs land in
        # any block
        cols = int(np.ceil(np.sqrt(h)))
        grid = np.stack([np.arange(h) % cols, np.arange(h) // cols], axis=1) * min_sep
        verdicts = set()
        for scale in (0.0, 1e-6, 3e-6, 1e-5):
            jittered = grid + rng.uniform(-scale, scale, grid.shape)
            coords = rng.permutation(jittered.astype(np.float32).astype(np.float64))
            want = separation_oracle(coords, min_sep)
            assert separation_verdict(coords, patch_size) == want
            verdicts.add(want)
        if h > 1:
            assert verdicts == {False, True}

    @pytest.mark.parametrize("h", [2, 64, 65, 130, 200])
    def test_one_close_pair_in_any_block(self, h):
        patch_size, min_sep = 9, 4.5
        cols = int(np.ceil(np.sqrt(h)))
        grid = np.stack([np.arange(h) % cols, np.arange(h) // cols], axis=1) * 2 * min_sep
        assert not separation_oracle(grid, min_sep)
        assert not separation_verdict(grid, patch_size)
        for i, j in {(0, 1), (0, h - 1), (h - 2, h - 1), (min(63, h - 2), min(64, h - 1))}:
            coords = grid.copy()
            coords[j] = coords[i] + (min_sep / 2, 0.0)
            assert separation_oracle(coords, min_sep)
            assert separation_verdict(coords, patch_size)

    @pytest.mark.parametrize("patch_size", [9, 21, 31])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_pairs_at_the_threshold(self, patch_size, axis):
        min_sep = patch_size / 2.0
        # float32 steps: ClassSet holds its coordinates at that precision
        edge = np.float32(np.sqrt(min_sep**2 - 1e-9))
        verdicts = set()
        for ulps in range(-3, 4):
            d = edge + np.float32(ulps) * np.spacing(edge)
            coords = np.zeros((3, 2))
            coords[1, axis] = d
            coords[2] = (100.0, 100.0)
            want = separation_oracle(coords, min_sep)
            assert separation_verdict(coords, patch_size) == want
            assert separation_verdict(coords[::-1].copy(), patch_size) == want
            verdicts.add(want)
        assert verdicts == {False, True}


class TestSelectStableClasses:
    def test_deterministic(self, texture_small):
        runs = [
            select_stable_classes(
                texture_small, 8, 10, np.random.default_rng(5), patch_size=21
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_single_identity_view_matches_detector(self, texture_small, monkeypatch):
        img = texture_small
        # the one view drawn is the identity (its centre is set to the image's)
        identity = AffineDeform(0, 0, 1, 1)
        monkeypatch.setattr("fernkit.keypoints.sample_deformation", lambda rng: identity)
        got = select_stable_classes(img, 10, 1, np.random.default_rng(0), patch_size=21)
        # walk the detector's ordering, applying the same separation rule
        min_sep2 = (21 / 2.0) ** 2
        expected = []
        for x, y, _ in detect_keypoints(img, 4 * 10, patch_size=21).tolist():
            if any((x - ex) ** 2 + (y - ey) ** 2 < min_sep2 for ex, ey in expected):
                continue
            expected.append([x, y])
            if len(expected) == 10:
                break
        assert got.coords.tolist() == expected

    def test_unique_blob_dominates_checkerboard(self):
        # checkerboard: every cell corner is an equally good keypoint;
        # one odd blob must out-vote them across 50 views
        tiles = np.indices((96, 96)).sum(axis=0) // 12 % 2 * 120 + 40
        pixels = tiles.astype(np.uint8)
        pixels[46:50, 46:50] = 255
        img = GrayImage(pixels)
        got = select_stable_classes(
            img, 1, 50, np.random.default_rng(3), patch_size=15
        )
        kx, ky = got.coords[0].tolist()
        assert abs(kx - 47.5) <= 2.5 and abs(ky - 47.5) <= 2.5

        # independent recount: replay the same deform draws, detect, unwarp,
        # and tally votes around the blob
        from dataclasses import replace

        from fernkit import sample_deformation, warp_image
        from fernkit.image import unwarp_points

        rng = np.random.default_rng(3)
        cx, cy = img.center
        deforms = [
            replace(sample_deformation(rng), tx=cx, ty=cy) for _ in range(50)
        ]
        near_blob = 0
        for d in deforms:
            view = warp_image(img, d, 96, 96)
            for x, y, _ in detect_keypoints(view, 4, patch_size=15).tolist():
                r = unwarp_points(d, 96, 96, [(x, y)])[0]
                if abs(r[0] - 47.5) <= 3 and abs(r[1] - 47.5) <= 3:
                    near_blob += 1
        assert near_blob >= 25  # the blob collects a majority of the views

    def test_min_separation_holds(self, texture_small):
        got = select_stable_classes(
            texture_small, 15, 12, np.random.default_rng(9), patch_size=21
        )
        coords = got.coords
        for i in range(len(coords)):
            for j in range(i + 1, len(coords)):
                assert np.linalg.norm(coords[i] - coords[j]) >= 21 / 2.0

    def test_insufficient_keypoints_reports_found(self):
        img = GrayImage(np.full((64, 64), 30, dtype=np.uint8))
        with pytest.raises(InsufficientKeypoints) as err:
            select_stable_classes(img, 5, 3, np.random.default_rng(1))
        assert err.value.found == 0 and err.value.requested == 5

    def test_class_centers_inside_margin(self, small_classes, texture_small):
        m = small_classes.margin
        for x, y in small_classes.coords.tolist():
            assert m <= x <= texture_small.width - 1 - m
            assert m <= y <= texture_small.height - 1 - m
