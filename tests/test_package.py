"""The package's public surface."""
import chvd


def test_every_export_resolves():
    missing = [name for name in chvd.__all__ if not hasattr(chvd, name)]
    assert not missing
    assert len(set(chvd.__all__)) == len(chvd.__all__)
