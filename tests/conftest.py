"""Fixtures shared across the test modules."""

from collections import Counter

import numpy as np
import pytest

from outtree import treemath


@pytest.fixture
def bordered_counts(monkeypatch):
    """Counts of bordered-Laplacian set-ups from the weights (key "set-up"),
    of records that ``_Bordered._crossed`` patched from a copy of the
    current matrix rather than set up afresh (key "patch"), and of
    ``np.linalg.slogdet``/``inv`` calls keyed by (name, matrix dimension)."""
    counts = Counter()

    class Counted(treemath._Bordered):
        def __init__(self, *args):
            counts["set-up"] += 1
            super().__init__(*args)

        def _crossed(self, *args):
            set_up = counts["set-up"]
            record = super()._crossed(*args)
            counts["patch"] += counts["set-up"] == set_up  # the fresh path sets up
            return record

    def counted(name, fn):
        def wrapper(a, *args, **kwargs):
            counts[name, np.shape(a)[-1]] += 1
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(treemath, "_Bordered", Counted)
    for name in ("slogdet", "inv"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return counts
