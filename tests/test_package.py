"""The package's public name list."""

from __future__ import annotations

import buchicong


def test_public_names_are_sorted_unique_and_importable():
    names = buchicong.__all__
    assert [n for n in names if not hasattr(buchicong, n)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
    namespace: dict[str, object] = {}
    exec("from buchicong import *", namespace)
    assert set(names) <= set(namespace)
