import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fernkit import (
    AffineDeform,
    GrayImage,
    InvalidArgument,
    ParseError,
    UnsupportedFormat,
    add_noise,
    box_smooth,
    deform_matrix,
    inverse_deform,
    read_pgm,
    sample_deformation,
    warp_image,
    write_pgm,
)
from fernkit import image
from fernkit.image import (
    BACKGROUND,
    _padded,
    _sample_inside,
    _scratch,
    box_mean,
    unwarp_points,
    warp_points,
    window_sums,
)

from support import (
    bilinear_oracle,
    box_mean_corner_oracle,
    box_mean_oracle,
    peak_traced_bytes,
    window_sums_oracle,
)


def image_from(rows):
    return GrayImage.from_array(np.array(rows))


class TestGrayImage:
    def test_rejects_wrong_dtype(self):
        with pytest.raises(InvalidArgument):
            GrayImage(np.zeros((2, 2), dtype=np.float32))

    def test_from_array_range_check(self):
        with pytest.raises(InvalidArgument):
            GrayImage.from_array([[0, 300]])

    def test_immutable(self):
        img = image_from([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 9

    @pytest.mark.parametrize("writeable", [True, False])
    def test_strided_input_copied_once(self, writeable):
        frame = np.random.default_rng(5).integers(0, 256, (400, 800)).astype(np.uint8)
        frame.flags.writeable = writeable
        strided = frame[:, ::2]
        made = []
        peak = peak_traced_bytes(lambda: made.append(GrayImage(strided)))
        # one copy of the image; two would be 2x its bytes
        assert peak < 1.5 * strided.size
        px = made[0].pixels
        assert px.flags.c_contiguous and not px.flags.writeable
        assert not np.shares_memory(px, frame)
        assert px.tobytes() == np.ascontiguousarray(strided).tobytes()

    def test_writeable_input_copied_and_read_only_kept(self):
        arr = np.arange(12, dtype=np.uint8).reshape(3, 4)
        img = GrayImage(arr)
        arr[0, 0] = 99
        assert img.at(0, 0) == 0 and not img.pixels.flags.writeable
        arr.flags.writeable = False
        assert GrayImage(arr).pixels is arr

    def test_equality_and_at(self):
        img = image_from([[1, 2], [3, 4]])
        assert img == image_from([[1, 2], [3, 4]])
        assert img != image_from([[1, 2], [3, 5]])
        assert img.at(1, 0) == 2  # (x, y) indexing


class TestPgm:
    def test_read_minimal(self):
        img = read_pgm(b"P5\n2 1\n255\n" + bytes([7, 200]))
        assert img.width == 2 and img.height == 1
        assert list(img.pixels[0]) == [7, 200]

    def test_wrong_magic_is_unsupported(self):
        with pytest.raises(UnsupportedFormat):
            read_pgm(b"P6\n1 1\n255\n" + bytes(3))

    def test_garbage_is_parse_error(self):
        with pytest.raises(ParseError):
            read_pgm(b"hello world")

    @pytest.mark.parametrize("maxval, raster, message", [
        (15, [7, 200], r"sample 200 at \(1, 0\) exceeds maxval 15"),
        (1, [0, 1, 2], r"sample 2 at \(2, 0\) exceeds maxval 1"),
        (254, [0, 254, 255], r"sample 255 at \(2, 0\) exceeds maxval 254"),
    ])
    def test_sample_above_maxval_is_a_parse_error(self, maxval, raster, message):
        head = f"P5\n{len(raster)} 1\n{maxval}\n".encode()
        with pytest.raises(ParseError, match=message):
            read_pgm(head + bytes(raster))
        within = [min(v, maxval) for v in raster]
        assert read_pgm(head + bytes(within)).pixels.tolist() == [within]

    def test_maxval_above_255_unsupported(self):
        with pytest.raises(UnsupportedFormat):
            read_pgm(b"P5\n1 1\n65535\n\0\0")

    def test_truncated_raster(self):
        with pytest.raises(ParseError):
            read_pgm(b"P5\n4 4\n255\n" + bytes(7))

    def test_comments_and_whitespace_tolerated(self):
        data = b"P5 # a comment\n# another\n 2\t1 \n255 " + bytes([1, 2])
        img = read_pgm(data)
        assert list(img.pixels[0]) == [1, 2]

    def test_write_minimal(self):
        assert write_pgm(image_from([[0]])) == b"P5\n1 1\n255\n\x00"

    def test_write_row_major(self):
        img = image_from([[0, 1, 2], [3, 4, 5]])
        assert write_pgm(img).endswith(bytes([0, 1, 2, 3, 4, 5]))

    def test_round_trip_640x480(self):
        rng = np.random.default_rng(3)
        img = GrayImage(rng.integers(0, 256, (480, 640)).astype(np.uint8))
        encoded = write_pgm(img)
        assert read_pgm(encoded) == img
        assert write_pgm(read_pgm(encoded)) == encoded

    @given(
        w=st.integers(1, 40),
        h=st.integers(1, 40),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, w, h, seed):
        rng = np.random.default_rng(seed)
        img = GrayImage(rng.integers(0, 256, (h, w)).astype(np.uint8))
        assert read_pgm(write_pgm(img)) == img


class TestDeformMatrix:
    def test_identity(self):
        m = deform_matrix(AffineDeform(0, 0, 1, 1))
        assert np.allclose(m, np.eye(2), atol=1e-15)

    def test_pure_rotation(self):
        m = deform_matrix(AffineDeform(math.pi / 2, 0, 1, 1))
        assert np.allclose(m, [[0, -1], [1, 0]], atol=1e-12)

    def test_pure_scale(self):
        m = deform_matrix(AffineDeform(0, 0, 2.0, 0.5))
        assert np.allclose(m, [[2, 0], [0, 0.5]], atol=1e-15)

    def test_degenerate_scale_rejected(self):
        with pytest.raises(InvalidArgument):
            AffineDeform(0, 0, 0.0, 1.0)

    def test_matrix_and_inverse_are_built_once_per_deform(self):
        d = AffineDeform(0.7, 2.1, 0.8, 1.3, tx=5.0, ty=-2.0)
        scale = np.diag([d.lambda1, d.lambda2])
        rot = image._rotation
        want = rot(d.theta) @ rot(-d.phi) @ scale @ rot(d.phi)
        m = deform_matrix(d)
        assert m.tobytes() == want.tobytes()
        assert d._inverse.tobytes() == np.linalg.inv(want).tobytes()
        assert d._matrix is d._matrix and d._inverse is d._inverse
        assert not d._matrix.flags.writeable and not d._inverse.flags.writeable
        # callers get their own copy, and the cache is not part of the value
        assert m.flags.writeable and not np.shares_memory(m, d._matrix)
        twin = AffineDeform(0.7, 2.1, 0.8, 1.3, tx=5.0, ty=-2.0)
        assert d == twin and hash(d) == hash(twin)

    @given(
        theta=st.floats(0, 2 * math.pi - 1e-9),
        phi=st.floats(0, 2 * math.pi - 1e-9),
        l1=st.floats(0.6, 1.5),
        l2=st.floats(0.6, 1.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_determinant_is_scale_product(self, theta, phi, l1, l2):
        m = deform_matrix(AffineDeform(theta, phi, l1, l2))
        assert abs(np.linalg.det(m) - l1 * l2) < 1e-9


class TestWarp:
    def test_identity_is_exact(self, texture_small):
        img = texture_small
        cx, cy = img.center
        d = AffineDeform(0, 0, 1, 1, tx=cx, ty=cy)
        assert warp_image(img, d, img.width, img.height) == img

    def test_constant_field(self):
        img = GrayImage(np.full((64, 64), 100, dtype=np.uint8))
        d = AffineDeform(0.7, 1.2, 0.8, 1.3, tx=31.5, ty=31.5)
        out = warp_image(img, d, 64, 64)
        assert set(np.unique(out.pixels)) <= {100, BACKGROUND}
        # the center always maps to the source anchor, so it is covered
        assert out.at(31, 31) == 100 and out.at(32, 32) == 100

    def test_source_is_padded_once(self, texture_small, monkeypatch):
        calls = []
        padded = image._padded
        monkeypatch.setattr(image, "_padded", lambda px: calls.append(1) or padded(px))
        src = GrayImage(texture_small.pixels.copy())  # no pad cached yet
        cx, cy = src.center
        for i in range(3):
            warp_image(src, AffineDeform(0.1 * i, 0.2, 1.1, 0.9, tx=cx, ty=cy), 160, 120)
        assert len(calls) == 1 and not src._edge_padded.flags.writeable

    def test_shrink_fills_background(self):
        img = GrayImage(np.full((64, 64), 100, dtype=np.uint8))
        d = AffineDeform(0, 0, 0.25, 0.25, tx=31.5, ty=31.5)
        out = warp_image(img, d, 64, 64)
        assert out.at(0, 0) == BACKGROUND
        assert out.at(31, 31) == 100

    def test_round_trip_through_analytic_inverse(self, texture_small):
        # Band-limit first: the bound measures geometry, not the loss of
        # single-pixel noise to interpolation.
        img = box_smooth(texture_small, 2)
        cx, cy = img.center
        rng = np.random.default_rng(5)
        for _ in range(5):
            d = sample_deformation(rng)
            d = AffineDeform(d.theta, d.phi, d.lambda1, d.lambda2, tx=cx, ty=cy)
            once = warp_image(img, d, img.width, img.height)
            back = warp_image(
                once, inverse_deform(d, img.width, img.height), img.width, img.height
            )
            interior = (slice(30, img.height - 30), slice(30, img.width - 30))
            diff = np.abs(
                back.pixels[interior].astype(float) - img.pixels[interior].astype(float)
            )
            assert diff.mean() < 3.0

    def test_point_maps_invert_each_other(self):
        d = AffineDeform(0.9, 0.2, 1.2, 0.7, tx=10.0, ty=20.0)
        pts = np.array([[3.0, 4.0], [15.5, 2.25], [0.0, 0.0]])
        fwd = warp_points(d, 50, 40, pts)
        assert np.allclose(unwarp_points(d, 50, 40, fwd), pts, atol=1e-9)

    def test_inverse_deform_matrix_is_matrix_inverse(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = sample_deformation(rng)
            inv = inverse_deform(d, 64, 48)
            product = deform_matrix(d) @ deform_matrix(inv)
            assert np.allclose(product, np.eye(2), atol=1e-12)


def _edge_coords(n: int) -> list[float]:
    """Grid-edge coordinates for an axis of n pixels, each one ulp either side."""
    coords = []
    for edge in (0.0, n - 1.0):
        coords += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
    return coords


def sample_inside(pixels, sx, sy):
    """``_sample_inside`` at the coordinates on the grid, and which those are."""
    h, w = pixels.shape
    inside = (sx >= 0) & (sx <= w - 1) & (sy >= 0) & (sy <= h - 1)
    n = np.count_nonzero(inside)
    return _sample_inside(_padded(pixels), sx[inside], sy[inside], _scratch(n)), inside


class TestBilinear:
    """In-grid samples against the fancy-index oracle; that outside pixels
    read BACKGROUND is checked through warp_image's oracle tests."""

    @given(
        w=st.integers(1, 9),
        h=st.integers(1, 9),
        seed=st.integers(0, 2**31),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_take_gather_matches_fancy_index_oracle(self, w, h, seed, data):
        rng = np.random.default_rng(seed)
        pixels = rng.integers(0, 256, (h, w)).astype(np.uint8)
        xs = _edge_coords(w) + [float(x) for x in rng.uniform(-2, w + 1, 8)]
        ys = _edge_coords(h) + [float(y) for y in rng.uniform(-2, h + 1, 8)]
        n = data.draw(st.integers(1, 40))
        sx = np.array(data.draw(st.lists(st.sampled_from(xs), min_size=n, max_size=n)))
        sy = np.array(data.draw(st.lists(st.sampled_from(ys), min_size=n, max_size=n)))
        got, inside = sample_inside(pixels, sx, sy)
        assert got.tobytes() == bilinear_oracle(pixels, sx, sy)[inside].tobytes()

    def test_every_edge_pair_matches_oracle(self):
        pixels = np.arange(12, dtype=np.uint8).reshape(3, 4) * 20
        sx, sy = (c.ravel() for c in np.meshgrid(_edge_coords(4), _edge_coords(3)))
        got, inside = sample_inside(pixels, sx, sy)
        assert got.size == 4 * 4  # both edges and the inner side of each
        assert got.tobytes() == bilinear_oracle(pixels, sx, sy)[inside].tobytes()


class TestMaskedWarp:
    @given(
        src_w=st.integers(1, 12),
        src_h=st.integers(1, 12),
        out_w=st.integers(1, 12),
        out_h=st.integers(1, 12),
        theta=st.floats(0, 2 * math.pi - 1e-9),
        phi=st.floats(0, 2 * math.pi - 1e-9),
        l1=st.floats(0.6, 1.5),
        l2=st.floats(0.6, 1.5),
        tx=st.floats(-3, 14),
        ty=st.floats(-3, 14),
        seed=st.integers(0, 2**31),
    )
    @example(src_w=9, src_h=1, out_w=9, out_h=1, theta=0.3, phi=0.1, l1=1.1,
             l2=0.9, tx=4.0, ty=0.0, seed=1)
    @example(src_w=1, src_h=9, out_w=1, out_h=9, theta=0.3, phi=0.1, l1=1.1,
             l2=0.9, tx=0.0, ty=4.0, seed=2)
    @settings(max_examples=200, deadline=None)
    def test_mask_keeps_full_render_bytes(
        self, src_w, src_h, out_w, out_h, theta, phi, l1, l2, tx, ty, seed
    ):
        rng = np.random.default_rng(seed)
        src = GrayImage(rng.integers(0, 256, (src_h, src_w)).astype(np.uint8))
        d = AffineDeform(theta, phi, l1, l2, tx=tx, ty=ty)
        mask = rng.random((out_h, out_w)) < rng.uniform(0, 1)
        full = warp_image(src, d, out_w, out_h).pixels
        masked = warp_image(src, d, out_w, out_h, mask=mask).pixels
        assert np.array_equal(masked[mask], full[mask])
        assert np.all(masked[~mask] == BACKGROUND)

    @pytest.mark.parametrize(
        "mask", [np.ones((4, 5), dtype=bool), np.ones((5, 4), dtype=np.uint8)]
    )
    def test_mask_must_be_boolean_output_shape(self, mask):
        src = GrayImage(np.zeros((4, 5), dtype=np.uint8))
        with pytest.raises(InvalidArgument):
            warp_image(src, AffineDeform(0, 0, 1, 1), 4, 5, mask=mask)


class TestSampleDeformation:
    def test_deterministic(self):
        a = sample_deformation(np.random.default_rng(42))
        b = sample_deformation(np.random.default_rng(42))
        assert a == b

    def test_ranges_and_scale_mean(self):
        rng = np.random.default_rng(0)
        draws = [sample_deformation(rng) for _ in range(100_000)]
        l1 = np.array([d.lambda1 for d in draws])
        for d in draws:
            assert 0 <= d.theta < 2 * math.pi
            assert 0 <= d.phi < 2 * math.pi
            assert 0.6 <= d.lambda1 <= 1.5
            assert 0.6 <= d.lambda2 <= 1.5
        # mean of uniform([0.6, 1.5]) is 1.05
        assert abs(l1.mean() - 1.05) < 0.01


class TestNoise:
    def test_zero_sigma_identity(self, texture_small):
        out = add_noise(texture_small, 0.0, np.random.default_rng(1))
        assert out == texture_small

    def test_sigma_moment(self):
        img = GrayImage(np.full((250, 400), 128, dtype=np.uint8))  # 1e5 pixels
        out = add_noise(img, 10.0, np.random.default_rng(8))
        assert 9.5 <= out.pixels.astype(float).std() <= 10.5

    def test_clamped_at_zero(self):
        img = GrayImage(np.zeros((100, 100), dtype=np.uint8))
        out = add_noise(img, 10.0, np.random.default_rng(2))
        assert out.pixels.min() >= 0 and out.pixels.dtype == np.uint8

    def test_negative_sigma(self):
        img = GrayImage(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(InvalidArgument):
            add_noise(img, -1.0, np.random.default_rng(0))

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma(self, sigma):
        img = GrayImage(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(InvalidArgument):
            add_noise(img, sigma, np.random.default_rng(0))


class TestBoxSmooth:
    def test_radius_zero_identity(self, texture_small):
        assert box_smooth(texture_small, 0) == texture_small

    def test_constant_unchanged(self):
        img = GrayImage(np.full((9, 9), 77, dtype=np.uint8))
        for radius in (1, 2, 5):
            assert box_smooth(img, radius) == img

    def test_center_spike(self):
        img = image_from([[0, 0, 0], [0, 9, 0], [0, 0, 0]])
        assert box_smooth(img, 1).at(1, 1) == 1  # mean 9/9

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(4)
        values = rng.integers(0, 256, (13, 17))
        for radius in (1, 2, 4):
            got = box_mean(values, radius)
            assert np.allclose(got, box_mean_oracle(values, radius), atol=1e-9)


class TestBoxMeanCorners:
    """Separable sums and the edge-strip quotient against four fancy-index
    gathers from a summed-area table and one full-frame division."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 23), (19, 1), (2, 3), (13, 17), (48, 64)])
    @pytest.mark.parametrize("radius", [0, 1, 2, 12, 64])
    @pytest.mark.parametrize("kind", ["uint8", "int64", "plateau"])
    def test_bytes_equal_corner_oracle(self, shape, radius, kind):
        rng = np.random.default_rng(sum(shape) + radius)
        values = {
            "uint8": lambda: rng.integers(0, 256, shape).astype(np.uint8),
            "int64": lambda: rng.integers(-1000, 1000, shape),
            "plateau": lambda: rng.integers(0, 2, shape).astype(np.uint8) * 200,
        }[kind]()
        got = box_mean(values, radius)
        want = box_mean_corner_oracle(values, radius)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", ["float64", "float32", "bool"])
    def test_non_integer_values_rejected(self, dtype):
        with pytest.raises(InvalidArgument, match="integer"):
            box_mean(np.ones((4, 5), dtype=dtype), 1)


class TestWindowSumsRowAdds:
    """int64 sums against the summed-area table, bytes and dtype alike, on
    1-row frames and radii past the height among others."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 29), (2, 3), (17, 1), (31, 40)])
    @pytest.mark.parametrize("radius", [1, 2, 16, 40])
    @pytest.mark.parametrize("kind", ["int64"])
    def test_bytes_equal_cumsum_oracle(self, shape, radius, kind):
        rng = np.random.default_rng(shape[0] * 100 + shape[1] + radius)
        values = rng.integers(-(2**40), 2**40, shape)
        got = window_sums(values, radius)
        want = window_sums_oracle(values, radius)
        assert got.dtype == want.dtype == np.dtype(kind)
        assert got.tobytes() == want.tobytes()


class TestWindowSumsSeparable:
    """Integer input is summed by rows then columns at a narrow width; the
    sums equal the summed-area table's."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 23), (19, 1), (2, 3), (31, 40)])
    @pytest.mark.parametrize("radius", [0, 1, 2, 12, 64])
    @pytest.mark.parametrize("dtype", ["uint8", "int8", "uint16", "int32", "int64"])
    def test_equal_to_the_table(self, shape, radius, dtype):
        info = np.iinfo(dtype)
        rng = np.random.default_rng(shape[0] * 100 + shape[1] + radius)
        values = rng.integers(max(info.min, -(2**40)), min(info.max, 2**40), shape,
                              endpoint=True).astype(dtype)
        got = window_sums(values, radius)
        assert got.dtype.kind == "i"
        assert np.array_equal(got, window_sums_oracle(values, radius))

    @pytest.mark.parametrize("dtype", ["uint8", "int8", "uint16", "int16"])
    @pytest.mark.parametrize("radius", [1, 5, 200])
    def test_extreme_values_do_not_wrap(self, dtype, radius):
        info = np.iinfo(dtype)
        for value in (info.min, info.max):
            values = np.full((150, 160), value, dtype=dtype)
            got = window_sums(values, radius)
            assert np.array_equal(got, window_sums_oracle(values, radius))


class TestWindowSumsBeyondInt64:
    """Arrays whose dtype can hold values that int64 sums cannot are bounded
    by the values they hold; sums int64 cannot hold are an error, not a wrap."""

    def test_uint64_beyond_int64_rejected(self):
        with pytest.raises(InvalidArgument, match="exceed int64"):
            window_sums(np.array([[2**63]], np.uint64), 0)

    def test_box_mean_of_wide_int64_rejected(self):
        with pytest.raises(InvalidArgument, match="exceed int64"):
            box_mean(np.full((1, 3), 2**62), 1)

    @pytest.mark.parametrize("value", [2**63 - 1, 2**62, 1])
    def test_uint64_values_int64_holds_are_summed(self, value):
        values = np.array([[value, 0]], np.uint64)
        assert window_sums(values, 0).tolist() == [[value, 0]]
        # the bound counts a full 3-cell row window, clipped or not
        third = np.array([[value // 3, 0]], np.uint64)
        assert window_sums(third, 1).tolist() == [[value // 3] * 2]

    @pytest.mark.parametrize("low, high", [(-(2**63), 0), (-(2**61), 2**61 - 1)])
    def test_int64_at_the_int64_bounds(self, low, high):
        values = np.array([[low, high], [0, 0]])
        assert window_sums(values, 0).tolist() == values.tolist()
        with pytest.raises(InvalidArgument, match="exceed int64"):
            window_sums(np.array([[low, high], [0, low]]), 1)


class TestDeterminism:
    def test_equal_seeds_byte_identical(self, texture_small):
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            d = sample_deformation(rng)
            cx, cy = texture_small.center
            d = AffineDeform(d.theta, d.phi, d.lambda1, d.lambda2, tx=cx, ty=cy)
            view = warp_image(texture_small, d, 80, 60)
            outs.append(write_pgm(add_noise(view, 5.0, rng)))
        assert outs[0] == outs[1]
