"""Fixtures shared across the test modules."""

from collections import Counter

import numpy as np
import pytest

from outtree import treemath


@pytest.fixture
def bordered_counts(monkeypatch):
    """Counts of bordered-Laplacian set-ups (key "set-up"), of rescaled
    weights patched by ``WeightMatrix._with_cross`` rather than derived
    afresh (key "patch"), and of ``np.linalg.slogdet``/``inv`` calls keyed
    by (name, matrix dimension)."""
    counts = Counter()

    class Counted(treemath._Bordered):
        def __init__(self, *args):
            counts["set-up"] += 1
            super().__init__(*args)

    with_cross = treemath.WeightMatrix._with_cross

    def counted_cross(self, *args):
        edited = with_cross(self, *args)
        counts["patch"] += not edited.structural_zeros  # a derivation sets the flag
        return edited

    def counted(name, fn):
        def wrapper(a, *args, **kwargs):
            counts[name, np.shape(a)[-1]] += 1
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(treemath, "_Bordered", Counted)
    monkeypatch.setattr(treemath.WeightMatrix, "_with_cross", counted_cross)
    for name in ("slogdet", "inv"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return counts
