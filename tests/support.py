"""Shared test fixtures and independent oracle implementations.

The oracles deliberately avoid the library's fast paths: probabilities are
exact rationals, leaf indices come from per-bit evaluation with string
packing, and window means come from nested loops.
"""

import hashlib
import struct
from fractions import Fraction

import numpy as np

from fernkit import ClassSet, GrayImage, Keypoint, box_smooth
from fernkit.image import BACKGROUND, unwarp_points, warp_points


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
    kps = [
        Keypoint(float(patch_size + step * (i % cols)),
                 float(patch_size + step * (i // cols)))
        for i in range(h)
    ]
    return ClassSet(tuple(kps), patch_size)


def leaf_index_oracle(patch: np.ndarray, fern) -> int:
    """Per-bit evaluation packed through a binary string, MSB first."""
    cy, cx = patch.shape[0] // 2, patch.shape[1] // 2
    bits = ""
    for t in fern.tests:
        a = int(patch[cy + t.dy1, cx + t.dx1])
        b = int(patch[cy + t.dy2, cx + t.dx2])
        bits += "1" if a < b else "0"
    return int(bits, 2)


def posterior_oracle(model, patch: np.ndarray) -> list[Fraction]:
    """Exact-rational posterior: prior times the product of per-fern leaf
    probabilities, normalized."""
    h = model.num_classes
    m = model.fern_size
    weights = []
    for c in range(h):
        p = Fraction(1, h)
        for s, fern in enumerate(model.ferns):
            leaf = leaf_index_oracle(patch, fern)
            n_c = int(model.counts[s, :, c].sum())
            p *= Fraction(int(model.counts[s, leaf, c]) + 1, n_c + 2**m)
        weights.append(p)
    total = sum(weights)
    return [w / total for w in weights]


def tree_leaf_oracle(patch: np.ndarray, tree) -> int:
    """Explicit root-to-leaf path simulation."""
    cy, cx = patch.shape[0] // 2, patch.shape[1] // 2
    node = 0
    for _ in range(tree.depth):
        t = tree.node_tests[node]
        a = int(patch[cy + t.dy1, cx + t.dx1])
        b = int(patch[cy + t.dy2, cx + t.dx2])
        node = 2 * node + 1 + (1 if a < b else 0)
    return node - (tree.num_leaves - 1)


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


def extract_patches_oracle(view, classes, src_size):
    """Per-class crop-or-skip loop that unwarps each window's corners alone."""
    w, h = view.image.width, view.image.height
    m = classes.margin
    centers = np.rint(warp_points(view.deform, w, h, classes.coords)).astype(np.int64)
    out, skipped = [], []
    src_w, src_h = src_size
    for label, (px, py) in enumerate(centers):
        if not (m <= px <= w - 1 - m and m <= py <= h - 1 - m):
            skipped.append(label)
            continue
        corners = [(px - m, py - m), (px + m, py - m), (px - m, py + m), (px + m, py + m)]
        back = unwarp_points(view.deform, w, h, corners)
        if (
            back[:, 0].min() < 0
            or back[:, 0].max() > src_w - 1
            or back[:, 1].min() < 0
            or back[:, 1].max() > src_h - 1
        ):
            skipped.append(label)
            continue
        crop = view.image.pixels[py - m : py + m + 1, px - m : px + m + 1]
        out.append((label, GrayImage(crop.copy())))
    return out, skipped


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
        "<5I", 1, model.num_classes, model.num_ferns, model.fern_size, model.patch_size
    )
    tests = [[[t.dx1, t.dy1, t.dx2, t.dy2] for t in f.tests] for f in model.ferns]
    return b"".join(
        [
            head,
            model.classes.coords.astype("<f4").tobytes(),
            model.log_prior.astype("<f8").tobytes(),
            np.array(tests, dtype="<i2").tobytes(),
            model.counts.astype("<u8").tobytes(),
            model.log_table.astype("<f8").tobytes(),
        ]
    )
