"""Every name ``recloud`` exports resolves, so a deleted definition cannot
stay listed in ``__all__``."""
import recloud


def test_every_exported_name_resolves():
    missing = [name for name in recloud.__all__ if not hasattr(recloud, name)]
    assert missing == []
    assert len(set(recloud.__all__)) == len(recloud.__all__)
