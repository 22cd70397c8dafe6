"""Fixtures shared across the test modules."""

from collections import Counter

import numpy as np
import pytest

from outtree import treemath


@pytest.fixture
def bordered_counts(monkeypatch):
    """Counts of bordered-Laplacian set-ups, from weights or straight from a
    model (key "set-up": fills of a fresh matrix), of records that
    ``_Bordered._crossed`` patched from a copy of the current matrix rather
    than set up afresh (key "patch"), and of ``np.linalg.slogdet``/``inv``
    calls and certified block recursions (name "recursion") keyed by
    (name, matrix dimension)."""
    counts = Counter()
    fill, crossed = treemath._Bordered._fill, treemath._Bordered._crossed

    def counted_fill(self, *args):
        counts["set-up"] += 1
        return fill(self, *args)

    def counted_crossed(self, *args):
        set_up = counts["set-up"]
        record = crossed(self, *args)
        counts["patch"] += counts["set-up"] == set_up  # the fresh path sets up
        return record

    def counted(name, fn):
        def wrapper(a, *args, **kwargs):
            counts[name, np.shape(a)[-1]] += 1
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(treemath._Bordered, "_fill", counted_fill)
    monkeypatch.setattr(treemath._Bordered, "_crossed", counted_crossed)
    for name in ("slogdet", "inv"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(treemath, "_certified_recursion",
                        counted("recursion", treemath._certified_recursion))
    return counts
