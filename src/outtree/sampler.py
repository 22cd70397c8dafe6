"""Forward sampling of the generative model: a uniform random out-tree,
then ancestral attribute sampling along its edges.

Uniformity over all T^(T-1) out-trees comes from drawing a uniform Pruefer
sequence (a bijection with the T^(T-2) labeled trees), then an independent
uniform root, then orienting every edge away from the root.

Randomness is numpy's PCG64. When a call receives an integer seed, streams
are split deterministically through SeedSequence: substream 0 draws the
tree, substream t+1 draws the attributes of node t. Passing a Generator
instead uses it sequentially (tree first, then nodes in topological order).
Identical seeds produce identical draws on any platform.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .models import MutationModel
from .treemath import OutTree


@dataclass(frozen=True)
class SampleDraw:
    """One dataset draw: the latent tree, the attribute rows, and the seed
    used (None when the caller supplied a raw Generator)."""

    tree: OutTree
    data: np.ndarray
    seed: int | None = None


def _tree_from_pruefer(sequence, size):
    """Undirected labeled tree (edge list) decoded from a Pruefer sequence."""
    degree = np.ones(size, dtype=np.int64)
    for s in sequence:
        degree[s] += 1
    leaves = [int(v) for v in range(size) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in sequence:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, int(s)))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, int(s))
    last = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append(last)
    return edges


def _orient_from_root(edges, root, size):
    adjacency = [[] for _ in range(size)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    parent = np.full(size, -1, dtype=np.int64)
    seen = np.zeros(size, dtype=bool)
    seen[root] = True
    stack = [root]
    while stack:
        node = stack.pop()
        for neighbor in adjacency[node]:
            if not seen[neighbor]:
                seen[neighbor] = True
                parent[neighbor] = node
                stack.append(neighbor)
    return OutTree(root=root, parent=parent)


def sample_uniform_out_tree(size: int, rng) -> OutTree:
    """One out-tree, uniform over all size**(size-1) of them."""
    if size < 1:
        raise ValueError("need at least one node")
    rng = np.random.default_rng(rng)
    if size == 1:
        return OutTree(root=0, parent=np.array([-1]))
    sequence = rng.integers(0, size, size=max(size - 2, 0))
    root = int(rng.integers(size))
    if size == 2:
        parent = np.full(2, -1, dtype=np.int64)
        parent[1 - root] = root
        return OutTree(root=root, parent=parent)
    return _orient_from_root(_tree_from_pruefer(sequence, size), root, size)


def _sample_along(model: MutationModel, tree: OutTree, streams) -> np.ndarray:
    """Ancestral sampling in topological order; node t draws from streams[t]."""
    rows = [None] * tree.size
    for node in tree.topological_order():
        if node == tree.root:
            rows[node] = model.sample_root(streams[node])
        else:
            rows[node] = model.sample_child(rows[tree.parent[node]], streams[node])
    return np.stack(rows)


def sample_given_tree(model: MutationModel, tree: OutTree, rng) -> np.ndarray:
    """Ancestral sampling with the tree fixed: root from the marginal, then
    each child from the conditional given its already-sampled parent."""
    if isinstance(rng, np.random.Generator):
        streams = [rng] * tree.size
    else:
        streams = [np.random.default_rng(s)
                   for s in np.random.SeedSequence(rng).spawn(tree.size)]
    return _sample_along(model, tree, streams)


def sample_dataset(model: MutationModel, size: int, rng) -> SampleDraw:
    """Draw a uniform out-tree, then attributes along it."""
    if isinstance(rng, np.random.Generator):
        tree = sample_uniform_out_tree(size, rng)
        return SampleDraw(tree=tree, data=sample_given_tree(model, tree, rng), seed=None)
    seed = int(rng)
    streams = [np.random.default_rng(s)
               for s in np.random.SeedSequence(seed).spawn(size + 1)]
    tree = sample_uniform_out_tree(size, streams[0])
    return SampleDraw(tree=tree, data=_sample_along(model, tree, streams[1:]), seed=seed)


def sample_datasets(model: MutationModel, size: int, count: int, rng):
    """Iterator over ``count`` draws sharing one sequential generator.

    Lighter than per-draw stream splitting; meant for frequency tests and
    batch fixtures.
    """
    rng = np.random.default_rng(rng)
    for _ in range(count):
        yield sample_dataset(model, size, rng)
