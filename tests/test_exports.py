"""The package's public names: each entry of ikdeg.__all__ names something."""

import ikdeg


def test_every_exported_name_resolves_once():
    names = ikdeg.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(ikdeg, n)] == []
