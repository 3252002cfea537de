"""Shared test fixtures and independent oracle implementations.

The oracles deliberately avoid the library's fast paths: probabilities are
exact rationals, leaf indices come from per-bit evaluation with string
packing, and window means come from nested loops.
"""

import csv
import hashlib
import math
import struct
import tracemalloc
from fractions import Fraction

import numpy as np

from fernkit import AffineDeform, ClassSet, GrayImage, InvalidArgument, box_smooth, cli
from fernkit.dataset import MANIFEST_HEADER, extract_patches
from fernkit.ferns import random_tests
from fernkit.image import BACKGROUND, unwarp_points, warp_points, write_pgm


def make_texture(width: int, height: int, seed: int, block: int = 8) -> GrayImage:
    """Deterministic test texture: coarse blocks mixed with fine noise."""
    rng = np.random.default_rng(seed)
    coarse = rng.integers(0, 256, (height // block + 2, width // block + 2))
    up = np.kron(coarse, np.ones((block, block), dtype=np.int64))
    up = up[:height, :width]
    fine = rng.integers(0, 256, (height, width))
    mix = np.clip(np.rint(0.6 * up + 0.4 * fine), 0, 255).astype(np.int64)
    return box_smooth(GrayImage.from_array(mix), 1)


def random_patches(rng, count: int, size: int, low: int = 0, high: int = 256):
    """(count, size, size) uint8 batch of uniform noise patches."""
    return rng.integers(low, high, (count, size, size)).astype(np.uint8)


def grid_classes(h: int, patch_size: int) -> ClassSet:
    """H synthetic keypoints on a spaced grid; positions are irrelevant to
    table arithmetic but must satisfy the separation invariant."""
    step = patch_size
    cols = int(np.ceil(np.sqrt(h)))
    coords = [
        (patch_size + step * (i % cols), patch_size + step * (i // cols))
        for i in range(h)
    ]
    return ClassSet(coords, patch_size)


def fern_tests(s: int, m: int, patch_size: int, rng) -> np.ndarray:
    """(S, M, 4) tests of S random ferns of size M, drawn as FernModel.random does."""
    return random_tests(s * m, patch_size, rng).reshape(s, m, 4)


def tree_tests(t: int, depth: int, patch_size: int, rng) -> np.ndarray:
    """(T, 2^D - 1, 4) node tests of T random trees, drawn as TreeForest.random does."""
    nodes = (1 << depth) - 1
    return random_tests(t * nodes, patch_size, rng).reshape(t, nodes, 4)


def with_counts(model, counts):
    """A model over ``model``'s classes, tests and combination holding ``counts``."""
    return type(model)(model.classes, model.tests, model.combination, counts)


def cached(model, name: str):
    """The value a model's cached property ``name`` holds (``log_table``,
    ``_count_lookup`` or ``_unit_posteriors``), or None while it is unbuilt."""
    return vars(model).get(name)


def leaf_index_oracle(patch: np.ndarray, fern: np.ndarray) -> int:
    """Per-bit evaluation of a fern's (M, 4) test rows packed through a
    binary string, MSB first."""
    cy, cx = patch.shape[0] // 2, patch.shape[1] // 2
    bits = ""
    for dx1, dy1, dx2, dy2 in fern.tolist():
        a = int(patch[cy + dy1, cx + dx1])
        b = int(patch[cy + dy2, cx + dx2])
        bits += "1" if a < b else "0"
    return int(bits, 2)


def posterior_oracle(model, patch: np.ndarray) -> list[Fraction]:
    """Exact-rational posterior: prior times the product of per-fern leaf
    probabilities, normalized."""
    h = model.num_classes
    m = model.depth
    weights = []
    for c in range(h):
        p = Fraction(1, h)
        for s, fern in enumerate(model.tests):
            leaf = leaf_index_oracle(patch, fern)
            n_c = int(model.counts[s, :, c].sum())
            p *= Fraction(int(model.counts[s, leaf, c]) + 1, n_c + 2**m)
        weights.append(p)
    total = sum(weights)
    return [w / total for w in weights]


def tree_leaf_oracle(patch: np.ndarray, tree: np.ndarray) -> int:
    """Explicit root-to-leaf path simulation over a tree's (2^D - 1, 4)
    node test rows, in breadth-first order."""
    cy, cx = patch.shape[0] // 2, patch.shape[1] // 2
    rows = tree.tolist()
    node = 0
    while node < len(rows):
        dx1, dy1, dx2, dy2 = rows[node]
        a = int(patch[cy + dy1, cx + dx1])
        b = int(patch[cy + dy2, cx + dx2])
        node = 2 * node + 1 + (1 if a < b else 0)
    return node - len(rows)


def rate_oracle(true_labels, predicted_labels) -> float:
    """Recognition rate recomputed through an explicit confusion matrix."""
    confusion: dict[tuple[int, int], int] = {}
    for t, p in zip(true_labels, predicted_labels, strict=True):
        key = (int(t), int(p))
        confusion[key] = confusion.get(key, 0) + 1
    correct = sum(n for (t, p), n in confusion.items() if t == p)
    total = sum(confusion.values())
    return correct / total


def box_mean_oracle(values: np.ndarray, radius: int) -> np.ndarray:
    """Nested-loop window mean with border clipping."""
    h, w = values.shape
    out = np.zeros((h, w), dtype=np.float64)
    for y in range(h):
        for x in range(w):
            y1, y2 = max(0, y - radius), min(h, y + radius + 1)
            x1, x2 = max(0, x - radius), min(w, x + radius + 1)
            window = values[y1:y2, x1:x2].astype(np.float64)
            out[y, x] = window.mean()
    return out


def box_mean_corner_oracle(values: np.ndarray, radius: int) -> np.ndarray:
    """Summed-area box mean with four 2-D fancy-index corner gathers."""
    arr = np.asarray(values)
    if radius == 0:
        return arr.astype(np.float64)
    h, w = arr.shape
    acc_dtype = np.int64 if arr.dtype.kind in "iu" else np.float64
    table = np.zeros((h + 1, w + 1), dtype=acc_dtype)
    table[1:, 1:] = arr.astype(acc_dtype).cumsum(axis=0).cumsum(axis=1)
    y1 = np.maximum(np.arange(h) - radius, 0)
    y2 = np.minimum(np.arange(h) + radius + 1, h)
    x1 = np.maximum(np.arange(w) - radius, 0)
    x2 = np.minimum(np.arange(w) + radius + 1, w)
    sums = (
        table[y2[:, None], x2[None, :]]
        - table[y1[:, None], x2[None, :]]
        - table[y2[:, None], x1[None, :]]
        + table[y1[:, None], x1[None, :]]
    )
    return sums / ((y2 - y1)[:, None] * (x2 - x1)[None, :])


def window_sums_oracle(arr: np.ndarray, radius: int) -> np.ndarray:
    """Clipped window sums from a padded summed-area table built with two
    cumsums, one down the columns and one along the rows."""
    h, w = arr.shape
    ry, rx = min(radius, h - 1), min(radius, w - 1)
    acc_dtype = np.int64 if arr.dtype.kind in "iu" else np.float64
    table = np.zeros((h + 2 * ry + 1, w + 2 * rx + 1), dtype=acc_dtype)
    inner = table[ry + 1 : ry + 1 + h, rx + 1 : rx + 1 + w]
    np.cumsum(arr, axis=0, dtype=acc_dtype, out=inner)
    np.cumsum(inner, axis=1, out=inner)
    table[ry + 1 + h :, rx + 1 : rx + 1 + w] = inner[-1]
    table[:, rx + 1 + w :] = table[:, rx + w, None]
    top, bottom = slice(0, h), slice(2 * ry + 1, 2 * ry + 1 + h)
    left, right = slice(0, w), slice(2 * rx + 1, 2 * rx + 1 + w)
    sums = table[bottom, right] - table[top, right]
    sums -= table[bottom, left]
    sums += table[top, left]
    return sums


def local_maxima_oracle(resp: np.ndarray) -> np.ndarray:
    """3x3 local-maximum mask from the eight shifted neighbours in turn."""
    h, w = resp.shape
    padded = np.full((h + 2, w + 2), -np.inf)
    padded[1:-1, 1:-1] = resp
    best = resp.copy()
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy or dx:
                np.maximum(best, padded[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w], out=best)
    return resp >= best


def response_map_oracle(img: GrayImage) -> np.ndarray:
    """Ring-contrast response with a fresh array for every expression."""
    px = img.pixels.astype(np.float64)
    window = box_mean_corner_oracle(img.pixels, 1) * 9.0
    ring_mean = (window - px) / 8.0
    raw = np.abs(px - ring_mean)
    raw[0, :] = raw[-1, :] = 0.0
    raw[:, 0] = raw[:, -1] = 0.0
    return box_mean_corner_oracle(raw, 1)


def detect_keypoints_oracle(img: GrayImage, max_count: int, patch_size: int) -> np.ndarray:
    """Detection that ranks every kept maximum with one full lexsort, as
    (n, 3) rows of (x, y, response)."""
    margin = patch_size // 2
    if max_count < 1 or img.width < patch_size or img.height < patch_size:
        return np.empty((0, 3))
    resp = response_map_oracle(img)
    keep = local_maxima_oracle(resp) & (resp > 0.0)
    keep[:margin, :] = False
    keep[img.height - margin :, :] = False
    keep[:, :margin] = False
    keep[:, img.width - margin :] = False
    ys, xs = np.nonzero(keep)
    order = np.lexsort((xs, ys, -resp[ys, xs]))[:max_count]
    rows = [(float(xs[i]), float(ys[i]), float(resp[ys[i], xs[i]])) for i in order]
    return np.array(rows, dtype=np.float64).reshape(-1, 3)


def bilinear_oracle(pixels: np.ndarray, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """Bilinear sampling with four 2-D fancy-index corner gathers."""
    h, w = pixels.shape
    inside = (sx >= 0.0) & (sx <= w - 1.0) & (sy >= 0.0) & (sy <= h - 1.0)
    x0 = np.clip(np.floor(sx), 0, w - 1).astype(np.intp)
    y0 = np.clip(np.floor(sy), 0, h - 1).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = np.clip(sx - x0, 0.0, 1.0)
    fy = np.clip(sy - y0, 0.0, 1.0)
    v00 = pixels[y0, x0].astype(np.float64)
    v01 = pixels[y0, x1].astype(np.float64)
    v10 = pixels[y1, x0].astype(np.float64)
    v11 = pixels[y1, x1].astype(np.float64)
    top = v00 * (1.0 - fx) + v01 * fx
    bot = v10 * (1.0 - fx) + v11 * fx
    return np.where(inside, top * (1.0 - fy) + bot * fy, float(BACKGROUND))


def deform_matrix_oracle(d) -> np.ndarray:
    """R(theta) . R(-phi) . diag(lambda1, lambda2) . R(phi), built here
    rather than read from the deform."""

    def rotation(angle):
        c, s = math.cos(angle), math.sin(angle)
        return np.array([[c, -s], [s, c]])

    scale = np.diag([d.lambda1, d.lambda2])
    return rotation(d.theta) @ rotation(-d.phi) @ scale @ rotation(d.phi)


def inverse_deform(d, width: int, height: int) -> AffineDeform:
    """Deform that undoes ``d`` when both warps are rendered at width x height."""
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    t = deform_matrix_oracle(d) @ np.array([cx - d.tx, cy - d.ty]) + np.array([cx, cy])
    return AffineDeform(
        theta=-d.theta,
        phi=d.phi - d.theta,
        lambda1=1.0 / d.lambda1,
        lambda2=1.0 / d.lambda2,
        tx=float(t[0]),
        ty=float(t[1]),
    )


def warp_image_oracle(src, d, out_w: int, out_h: int, mask=None) -> np.ndarray:
    """Whole-frame render: one pass over every (or every masked) pixel."""
    inv = np.linalg.inv(deform_matrix_oracle(d))
    cx, cy = (out_w - 1) / 2.0, (out_h - 1) / 2.0
    if mask is None:
        ys, xs = np.meshgrid(
            np.arange(out_h, dtype=np.float64),
            np.arange(out_w, dtype=np.float64),
            indexing="ij",
        )
    else:
        flat = np.flatnonzero(mask)
        ys, xs = np.divmod(flat, out_w)
    u = xs - cx
    v = ys - cy
    sx = inv[0, 0] * u + inv[0, 1] * v + d.tx
    sy = inv[1, 0] * u + inv[1, 1] * v + d.ty
    values = np.clip(np.rint(bilinear_oracle(src.pixels, sx, sy)), 0, 255).astype(np.uint8)
    if mask is None:
        return values
    out = np.full((out_h, out_w), BACKGROUND, dtype=np.uint8)
    out.ravel()[flat] = values
    return out


def add_noise_oracle(pixels: np.ndarray, sigma: float, rng) -> np.ndarray:
    """One float64 noise field drawn over the whole frame at once."""
    noisy = pixels.astype(np.float64) + rng.normal(0.0, sigma, pixels.shape)
    return np.clip(np.rint(noisy), 0, 255).astype(np.uint8)


def extract_patches_oracle(view, classes):
    """Per-class crop-or-skip loop that unwarps each window's corners alone,
    for a view rendered at its source's size."""
    w, h = view.image.width, view.image.height
    m = classes.margin
    centers = np.rint(warp_points(view.deform, w, h, classes.coords)).astype(np.int64)
    out, skipped = [], []
    for label, (px, py) in enumerate(centers):
        if not (m <= px <= w - 1 - m and m <= py <= h - 1 - m):
            skipped.append(label)
            continue
        corners = [(px - m, py - m), (px + m, py - m), (px - m, py + m), (px + m, py + m)]
        back = unwarp_points(view.deform, w, h, corners)
        if (
            back[:, 0].min() < 0
            or back[:, 0].max() > w - 1
            or back[:, 1].min() < 0
            or back[:, 1].max() > h - 1
        ):
            skipped.append(label)
            continue
        crop = view.image.pixels[py - m : py + m + 1, px - m : px + m + 1]
        out.append((label, GrayImage(crop.copy())))
    return out, skipped


def window_mask_oracle(centers, shape, margin: int) -> np.ndarray:
    """Union of the windows around (x, y) ``centers``, one slice at a time."""
    mask = np.zeros(shape, dtype=bool)
    m = margin
    for px, py in np.asarray(centers).tolist():
        mask[py - m : py + m + 1, px - m : px + m + 1] = True
    return mask


def stream_digest(views, classes) -> str:
    """SHA-256 over (label, view_id, pixels) of every patch ``extract_patches``
    crops from ``views`` for ``classes``, in order."""
    digest = hashlib.sha256()
    for view in views:
        patches, labels = extract_patches(view, classes)
        for patch, label in zip(patches, labels.tolist()):
            digest.update(struct.pack("<iq", label, view.view_id))
            digest.update(patch.tobytes())
    return digest.hexdigest()


def ransac_affine(src: np.ndarray, dst: np.ndarray, rng):
    """The (3, 2) affine ``[x, y, 1] @ fit`` that maps most (n, 2) points
    ``src`` onto ``dst``, or None when no 3 pairs fix one.

    The pairs come best first, and each of 2000 samples takes 3 of the first
    50 (PROSAC's prior: the best matches are the likeliest inliers). The
    samples are solved in one batch, the fit with the most pairs within
    3 px wins, and it is refit by least squares on those inliers.
    """
    points = np.hstack([src, np.ones((len(src), 1))])  # (n, 3)
    picks = rng.integers(0, min(50, len(src)), (2000, 3))
    a, b = points[picks], dst[picks]  # (2000, 3, 3), (2000, 3, 2)
    solvable = np.abs(np.linalg.det(a)) > 1e-6  # no repeated or collinear picks
    if not solvable.any():
        return None
    fits = np.linalg.solve(a[solvable], b[solvable])  # (k, 3, 2)
    errors = np.linalg.norm(points @ fits - dst, axis=2)  # (k, n)
    inliers = errors[np.argmax((errors < 3.0).sum(axis=1))] < 3.0
    return np.linalg.lstsq(points[inliers], dst[inliers], rcond=None)[0]


def frames_found(model_path, views, coords: np.ndarray, tmp_path) -> int:
    """How many of ``views`` ``fernkit match`` locates the object in.

    Each frame goes through ``cli.main(["match", ...])``, and
    ``ransac_affine``, seeded by the view id, maps the matched model points
    onto their scene points, best score first as the CSV lists them. A frame
    counts when the fit's median error over the class points ``coords`` that
    the view shows is under 3 px.
    """
    found = 0
    frame, matches = tmp_path / "frame.pgm", tmp_path / "matches.csv"
    for view in views:
        w, h = view.image.width, view.image.height
        frame.write_bytes(write_pgm(view.image))
        argv = ["match", "--model", str(model_path), "--image", str(frame),
                "--seed", "0", "--out", str(matches)]
        assert cli.main(argv) == 0
        rows = np.loadtxt(matches, delimiter=",", skiprows=1, ndmin=2)
        fit = ransac_affine(rows[:, 3:5], rows[:, :2], np.random.default_rng(view.view_id))
        truth = warp_points(view.deform, w, h, coords)
        shown = (truth >= 0).all(axis=1) & (truth[:, 0] <= w - 1) & (truth[:, 1] <= h - 1)
        if fit is not None and shown.any():
            guess = np.hstack([coords, np.ones((len(coords), 1))]) @ fit
            found += int(np.median(np.linalg.norm(guess - truth, axis=1)[shown]) < 3.0)
    return found


def read_manifest(fileobj) -> list[dict]:
    """The rows of a view manifest, each with the deform it records."""
    reader = csv.DictReader(fileobj)
    if reader.fieldnames != MANIFEST_HEADER:
        raise InvalidArgument(f"unexpected manifest header {reader.fieldnames}")
    return [
        {
            "view_id": int(r["view_id"]),
            "deform": AffineDeform(
                float(r["theta"]),
                float(r["phi"]),
                float(r["lambda1"]),
                float(r["lambda2"]),
                float(r["tx"]),
                float(r["ty"]),
            ),
            "noise_sigma": float(r["noise_sigma"]),
        }
        for r in reader
    ]


def peak_traced_bytes(fn) -> int:
    """Peak bytes tracemalloc sees allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def sha256_of(*arrays) -> str:
    """Hex SHA-256 over the raw bytes of the given arrays, in order."""
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def pin_probe(patch_size: int) -> np.ndarray:
    """The fixed 1000-patch probe the classifier golden pins are taken on."""
    return random_patches(np.random.default_rng(4242), 1000, patch_size)


def v1_fern_file(model) -> bytes:
    """The same model in the version-1 layout, which also stored the log
    prior and the log table."""
    head = b"FERNMDL1" + struct.pack(
        "<5I", 1, model.num_classes, model.num_units, model.depth, model.patch_size
    )
    return b"".join(
        [
            head,
            model.classes.coords.astype("<f4").tobytes(),
            model.log_prior.astype("<f8").tobytes(),
            model.tests.astype("<i2").tobytes(),
            model.counts.astype("<u8").tobytes(),
            model.log_table.astype("<f8").tobytes(),
        ]
    )


def v2_fern_file(model) -> bytes:
    """The same model in the version-2 layout: six header words, u64 counts."""
    head = b"FERNMDL1" + struct.pack(
        "<6I", 2, model.num_classes, model.num_units, model.depth,
        model.patch_size, model.combination.value,
    )
    return b"".join(
        [
            head,
            model.classes.coords.astype("<f4").tobytes(),
            model.tests.astype("<i2").tobytes(),
            model.counts.astype("<u8").tobytes(),
        ]
    )


# offset of the count-width word: magic, then six u32 words before it
WIDTH_WORD = 8 + 6 * 4
# offset of the first keypoint's x, the first f32 after the header
KEYPOINT_WORD = WIDTH_WORD + 4


def count_section(data: bytes, model) -> tuple[int, int]:
    """(offset, bytes per count) of a model file's counts, its last section,
    found from the header's width word."""
    (width,) = struct.unpack_from("<I", data, WIDTH_WORD)
    return len(data) - model.counts.size * width, width


def accumulate_oracle(model, patches: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The model's counts after one np.add.at per unit over a chunk, in
    uint64, where a narrow copy would wrap."""
    counts = model.counts.astype(np.uint64)
    leaves = model.leaf_indices(patches)
    for u in range(counts.shape[0]):
        np.add.at(counts[u], (leaves[:, u], labels), 1)
    return counts


def separation_oracle(coords: np.ndarray, min_sep: float) -> bool:
    """Whether two points are closer than ``min_sep``, checked with one row
    operation per point against the points after it."""
    for i in range(len(coords)):
        d2 = np.sum((coords[i + 1 :] - coords[i]) ** 2, axis=1)
        if d2.size and d2.min() < min_sep**2 - 1e-9:
            return True
    return False


def scores_oracle(model, patches: np.ndarray, combination) -> list[list[float]]:
    """Per-patch class scores summed one unit at a time in Python floats.

    Naive-Bayes adds each unit's log-probability to the log prior; averaging
    adds each unit's posterior (a softmax over its row plus the log prior)
    to 0.0 and divides by the unit count.
    """
    leaves = model.leaf_indices(patches)
    naive_bayes = combination.name == "NAIVE_BAYES"
    out = []
    for row in leaves:
        terms = []
        for unit, leaf in enumerate(row):
            values = model.log_table[unit, leaf]
            if not naive_bayes:
                shifted = values + model.log_prior
                p = np.exp(shifted - shifted.max())
                values = p / p.sum()
            terms.append([float(v) for v in values])
        scores = []
        for c in range(model.num_classes):
            total = float(model.log_prior[c]) if naive_bayes else 0.0
            for term in terms:
                total += term[c]
            scores.append(total if naive_bayes else total / len(terms))
        out.append(scores)
    return out


def stepwise_average_oracle(model, patches: np.ndarray):
    """Labels and scores of averaging as scored before the per-unit
    posteriors were cached: blocks of ``PATCH_BLOCK`` patches, each scored
    in steps of ``PATCH_BLOCK // k`` units, and every step's gathered
    log-table rows put through a softmax with the log prior."""
    from fernkit.ferns import PATCH_BLOCK

    def softmax(rows):
        p = np.exp(rows - rows.max(axis=1, keepdims=True))
        return p / p.sum(axis=1, keepdims=True)

    h = model.num_classes
    table = model.log_table.reshape(-1, h)
    labels, best = [], []
    for start in range(0, len(patches), PATCH_BLOCK):
        leaves = model.leaf_indices(patches[start : start + PATCH_BLOCK])
        k, units = leaves.shape
        scores = np.zeros((k, h))
        cells = (leaves + np.arange(units) * model.num_leaves).T.ravel()
        step = max(1, PATCH_BLOCK // k) if scores.size > 1 else 1
        for first in range(0, cells.size, step * k):
            got = softmax(table[cells[first : first + step * k]] + model.log_prior)
            if got.shape[0] == k:
                scores += got
            else:
                got[:k] += scores
                np.add.reduce(got.reshape(-1, k, h), axis=0, out=scores)
        scores /= units
        chosen = scores.argmax(axis=1)
        labels.append(chosen)
        best.append(scores[np.arange(k), chosen])
    if not labels:
        return np.empty(0, dtype=np.intp), np.empty(0)
    return np.concatenate(labels), np.concatenate(best)
