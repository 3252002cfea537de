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
    MAX_DEPTH,
    Combination,
    FeatureTest,
    LeafModel,
    _flat_windows,
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
    # checked before a tree's 2^D - 1 tests are drawn
    if not 1 <= depth <= MAX_DEPTH:
        raise InvalidArgument(f"tree depth must be in [1, {MAX_DEPTH}], got {depth}")
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
        """(N, T) leaf indices from a root-to-leaf descent of every tree at once."""
        flat = _flat_windows(patches, self.patch_size)
        n = flat.shape[0]
        pixels = flat.ravel()
        rows = np.arange(n)[:, None] * flat.shape[1]
        # node k of tree t is entry t * (2^D - 1) + k of the flattened offsets
        roots = np.arange(self.num_trees) * (self.num_leaves - 1)
        node = np.zeros((n, self.num_trees), dtype=np.int64)
        for _ in range(self.depth):
            tests = roots + node
            a = pixels.take(rows + self._o1.take(tests))
            b = pixels.take(rows + self._o2.take(tests))
            node = 2 * node + 1 + (a < b)
        self.pixel_comparisons += n * self.num_trees * self.depth
        return node - (self.num_leaves - 1)

    # The benchmark tracer (perfbench/spans.py) finds the methods it wraps
    # in each model class's own __dict__, so the shared ones are bound here.
    train = LeafModel.train
    _accumulate = LeafModel._accumulate
    _rebuild_tables = LeafModel._rebuild_tables
    classify_patches = LeafModel.classify_patches
    classify = LeafModel.classify
    save = LeafModel.save
    load = LeafModel.__dict__["load"]
