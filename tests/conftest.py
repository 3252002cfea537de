import pytest

from fernkit import DatasetSpec, FernModel, TreeForest, derive_rng, select_stable_classes
from fernkit.dataset import STREAM_CLASSES, STREAM_MODEL, generate_training_set

from support import make_texture


@pytest.fixture(scope="session")
def texture_small():
    """160x120 texture used by the cheaper integration tests."""
    return make_texture(160, 120, seed=7)


@pytest.fixture(scope="session")
def small_classes(texture_small):
    return select_stable_classes(
        texture_small, h=12, num_views=20, rng=derive_rng(11, STREAM_CLASSES),
        patch_size=21,
    )


@pytest.fixture(scope="session")
def small_model(texture_small, small_classes):
    """A genuinely trained model at toy scale, shared across test modules."""
    model = FernModel.random(small_classes, 8, 6, derive_rng(11, STREAM_MODEL))
    spec = DatasetSpec(views_per_degree=1, rotation_degrees=60, test_views=40)
    model.train(
        generate_training_set(texture_small, small_classes, spec, seed=11)
    )
    return model


@pytest.fixture(scope="session")
def small_forest(texture_small, small_classes):
    """A forest trained on the same stream as ``small_model``."""
    forest = TreeForest.random(small_classes, 8, 6, derive_rng(11, STREAM_MODEL))
    spec = DatasetSpec(views_per_degree=1, rotation_degrees=60, test_views=40)
    forest.train(
        generate_training_set(texture_small, small_classes, spec, seed=11)
    )
    return forest


@pytest.fixture(scope="session")
def small_spec():
    return DatasetSpec(views_per_degree=1, rotation_degrees=60, test_views=40)


@pytest.fixture
def warp_calls(monkeypatch):
    """The deforms of every ``warp_image`` call synthesis makes in a test."""
    from fernkit import dataset

    calls = []
    real = dataset.warp_image

    def spy(img, deform, *args, **kwargs):
        calls.append(deform)
        return real(img, deform, *args, **kwargs)

    monkeypatch.setattr(dataset, "warp_image", spy)
    return calls
