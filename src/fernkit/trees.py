"""Randomized-trees baseline: the hierarchical counterpart of flat ferns.

Complete binary trees over random pixel-pair tests, trained with the same
Laplace-regularized per-class leaf distributions as the ferns so that the
flat-versus-hierarchical comparison isolates structure and combination.
"""

from __future__ import annotations

import numpy as np

from .ferns import LeafModel, _flat_windows

FOREST_MAGIC = b"RTRFMDL1"


class TreeForest(LeafModel):
    """T complete binary trees of depth D sharing classes, fused by averaging
    or Naive-Bayes; ``tests`` holds each tree's 2^D - 1 node tests in
    breadth-first order."""

    magic = FOREST_MAGIC

    @staticmethod
    def _depth(tests_per_unit: int) -> int:
        return tests_per_unit.bit_length()

    @staticmethod
    def _tests_per_unit(depth: int) -> int:
        return (1 << depth) - 1

    def leaf_indices(self, patches: np.ndarray) -> np.ndarray:
        """(N, T) leaf indices from a root-to-leaf descent of every tree at once."""
        flat = _flat_windows(patches, self.patch_size)
        n = flat.shape[0]
        pixels = flat.ravel()
        rows = np.arange(n)[:, None] * flat.shape[1]
        # node k of tree t is entry t * (2^D - 1) + k of the flattened offsets
        roots = np.arange(self.num_units) * (self.num_leaves - 1)
        node = np.zeros((n, self.num_units), dtype=np.int64)
        for _ in range(self.depth):
            tests = roots + node
            a = pixels.take(rows + self._o1.take(tests))
            b = pixels.take(rows + self._o2.take(tests))
            node = 2 * node + 1 + (a < b)
        self.pixel_comparisons += n * self.num_units * self.depth
        return node - (self.num_leaves - 1)
