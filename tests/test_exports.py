import fernkit


def test_every_export_resolves_and_appears_once():
    names = fernkit.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(fernkit, name)]
    assert missing == []


def test_helpers_no_caller_used_are_gone():
    from fernkit import dataset, image

    gone = {
        dataset: ["PatchSample", "dump_views", "read_manifest", "stream_digest", "training_views"],
        image: ["deform_matrix", "inverse_deform"],
        image.GrayImage: ["at"],
        fernkit: ["PatchSample", "deform_matrix", "inverse_deform"],
    }
    assert [(owner, name) for owner, names in gone.items() for name in names
            if hasattr(owner, name)] == []
