"""The package namespace."""
import eegitnet


def test_every_exported_name_resolves():
    missing = [name for name in eegitnet.__all__ if not hasattr(eegitnet, name)]
    assert missing == []
    assert len(set(eegitnet.__all__)) == len(eegitnet.__all__)
