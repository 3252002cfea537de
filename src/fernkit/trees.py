"""Randomized-trees baseline: the hierarchical counterpart of flat ferns.

Complete binary trees over random pixel-pair tests, trained with the same
Laplace-regularized per-class leaf distributions as the ferns so that the
flat-versus-hierarchical comparison isolates structure and combination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidArgument
from .ferns import (
    Combination,
    FeatureTest,
    LeafModel,
    _check_patch_batch,
    random_tests,
)
from .keypoints import ClassSet

FOREST_MAGIC = b"RTRFMDL1"


@dataclass(frozen=True)
class RandomTree:
    """A complete binary tree of depth D; node tests in breadth-first order."""

    depth: int
    node_tests: tuple[FeatureTest, ...]

    def __post_init__(self):
        if self.depth < 1:
            raise InvalidArgument("depth must be >= 1")
        object.__setattr__(self, "node_tests", tuple(self.node_tests))
        if len(self.node_tests) != (1 << self.depth) - 1:
            raise InvalidArgument(
                f"a depth-{self.depth} tree needs {(1 << self.depth) - 1} tests"
            )

    @property
    def num_leaves(self) -> int:
        return 1 << self.depth


def make_random_trees(
    t: int, depth: int, patch_size: int, rng: np.random.Generator
) -> list[RandomTree]:
    """T trees with independently drawn random node tests."""
    if t < 1:
        raise InvalidArgument("need at least one tree")
    return [
        RandomTree(depth, tuple(random_tests((1 << depth) - 1, patch_size, rng)))
        for _ in range(t)
    ]


class TreeForest(LeafModel):
    """T trees sharing depth and classes, fused by averaging or Naive-Bayes."""

    magic = FOREST_MAGIC

    def __init__(
        self,
        classes: ClassSet,
        trees: Sequence[RandomTree],
        combination: Combination = Combination.AVERAGE,
        counts: np.ndarray | None = None,
    ):
        trees = tuple(trees)
        if not trees:
            raise InvalidArgument("need at least one tree")
        depth = trees[0].depth
        if any(t.depth != depth for t in trees):
            raise InvalidArgument("all trees must share one depth")
        super().__init__(classes, [t.node_tests for t in trees], depth, combination, counts)
        self.trees = trees
        self.num_trees = len(trees)
        self.depth = depth

    @classmethod
    def random(
        cls,
        classes: ClassSet,
        t: int,
        depth: int,
        rng: np.random.Generator,
        combination: Combination = Combination.AVERAGE,
    ) -> "TreeForest":
        return cls(
            classes, make_random_trees(t, depth, classes.patch_size, rng), combination
        )

    @staticmethod
    def _tests_per_unit(depth: int) -> int:
        return (1 << depth) - 1

    @classmethod
    def _build(cls, classes, depth, tests, combination, counts) -> "TreeForest":
        return cls(classes, [RandomTree(depth, ts) for ts in tests], combination, counts)

    def leaf_indices(self, patches: np.ndarray) -> np.ndarray:
        """(N, T) leaf indices from a vectorized root-to-leaf descent."""
        arr = _check_patch_batch(patches, self.patch_size)
        n = arr.shape[0]
        cy, cx = arr.shape[1] // 2, arr.shape[2] // 2
        rows = np.arange(n)
        out = np.empty((n, self.num_trees), dtype=np.int64)
        for t in range(self.num_trees):
            node = np.zeros(n, dtype=np.int64)
            for _ in range(self.depth):
                a = arr[rows, cy + self._d1y[t, node], cx + self._d1x[t, node]]
                b = arr[rows, cy + self._d2y[t, node], cx + self._d2x[t, node]]
                node = 2 * node + 1 + (a < b)
            out[:, t] = node - (self.num_leaves - 1)
        self.pixel_comparisons += n * self.num_trees * self.depth
        return out

    # The benchmark tracer (perfbench/spans.py) finds the methods it wraps
    # in each model class's own __dict__, so the shared ones are bound here.
    train = LeafModel.train
    _accumulate = LeafModel._accumulate
    _rebuild_tables = LeafModel._rebuild_tables
    classify_patches = LeafModel.classify_patches
    classify = LeafModel.classify
    save = LeafModel.save
    load = LeafModel.__dict__["load"]
