import fernkit


def test_every_export_resolves_and_appears_once():
    names = fernkit.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(fernkit, name)]
    assert missing == []
