"""Generative sampling: uniform trees, ancestral draws, analytic agreement."""

import hashlib
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chi2

from outtree import likelihood as lk
from outtree import models, sampler, treemath


def binary_model(m0=0.3, stay0=0.8, stay1=0.75):
    return models.TabularModel([[m0, 1 - m0]],
                               [np.array([[stay0, 1 - stay1], [1 - stay0, stay1]])])


def tree_key(tree):
    return (tree.root, tuple(int(p) for p in tree.parent))


class TestUniformTrees:
    def test_single_node(self):
        tree = sampler.sample_uniform_out_tree(1, 0)
        assert tree.root == 0 and tree.parent[0] == -1

    def test_two_nodes_split_evenly(self):
        rng = np.random.default_rng(1)
        counts = Counter(tree_key(sampler.sample_uniform_out_tree(2, rng))
                         for _ in range(10_000))
        assert set(counts) == {(0, (-1, 0)), (1, (1, -1))}
        for count in counts.values():
            # 3 sigma around 1/2
            assert abs(count / 10_000 - 0.5) < 3 * 0.5 / np.sqrt(10_000)

    def test_three_nodes_uniform_over_nine(self):
        rng = np.random.default_rng(2)
        draws = 90_000
        counts = Counter(tree_key(sampler.sample_uniform_out_tree(3, rng))
                         for _ in range(draws))
        support = {tree_key(t) for t in treemath.enumerate_out_trees(3)}
        assert set(counts) == support
        expected = draws / 9
        for count in counts.values():
            sigma = np.sqrt(draws * (1 / 9) * (8 / 9))
            assert abs(count - expected) < 3 * sigma
        statistic = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2.sf(statistic, df=8) > 0.001

    def test_four_nodes_exact_support(self):
        rng = np.random.default_rng(3)
        seen = {tree_key(sampler.sample_uniform_out_tree(4, rng)) for _ in range(30_000)}
        support = {tree_key(t) for t in treemath.enumerate_out_trees(4)}
        assert seen == support


class TestDeterminism:
    def test_same_seed_same_draw(self):
        model = binary_model()
        a = sampler.sample_dataset(model, 6, 42)
        b = sampler.sample_dataset(model, 6, 42)
        assert tree_key(a.tree) == tree_key(b.tree)
        assert np.array_equal(a.data, b.data)
        assert a.seed == 42

    def test_seeded_draws_are_pinned(self):
        # seeded draws feed benchmark inputs and stored fixtures, so their
        # bytes are pinned: any change to how streams are spawned or consumed
        # shows here
        model = models.TabularModel(
            [[0.2, 0.3, 0.5], [0.6, 0.4]],
            [np.array([[0.7, 0.2, 0.1], [0.2, 0.5, 0.3], [0.1, 0.3, 0.6]]),
             np.array([[0.9, 0.25], [0.1, 0.75]])])

        def digest(*arrays):
            h = hashlib.sha256()
            for a in arrays:
                h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
            return h.hexdigest()[:16]

        draw = sampler.sample_dataset(model, 30, 20261018)
        assert digest(draw.tree.parent, [draw.tree.root], draw.data) == "1e5d6ac60ff549f6"
        assert digest(sampler.sample_given_tree(model, draw.tree, 5)) == "602ae2baf6329881"
        shared = sampler.sample_given_tree(model, draw.tree, np.random.default_rng(5))
        assert digest(shared) == "35c7cc9ca7e915bd"
        draw = sampler.sample_dataset(model, 30, np.random.default_rng(6))
        assert digest(draw.tree.parent, [draw.tree.root], draw.data) == "fb0f47f859206f4e"

    def test_different_seeds_differ(self):
        model = binary_model()
        draws = {tuple(sampler.sample_dataset(model, 8, seed).data.ravel())
                 for seed in range(20)}
        assert len(draws) > 1


class TestAncestralSampling:
    def test_degenerate_gaussian_rows_are_iid(self):
        mean = np.array([1.5, -2.0])
        model = models.GaussianModel(mu_c=mean, mu_pi=mean,
                                     sigma_c_given_pi=np.zeros((2, 2)),
                                     sigma_cc=np.eye(2), sigma_pipi=np.eye(2))
        draw = sampler.sample_dataset(model, 400, 7)
        # sample mean within 4 sigma / sqrt(T) of the marginal mean
        err = np.abs(draw.data.mean(axis=0) - mean)
        assert np.all(err < 4.0 / np.sqrt(400))

    def test_star_tree_children_conditionally_iid(self):
        model = binary_model(stay0=0.95, stay1=0.95)
        parent = np.full(5, 0, dtype=np.int64)
        parent[0] = -1
        star = treemath.OutTree(root=0, parent=parent)
        rng = np.random.default_rng(8)
        stays = []
        for _ in range(3000):
            rows = sampler.sample_given_tree(model, star, rng)
            stays.extend(int(rows[t, 0] == rows[0, 0]) for t in range(1, 5))
        assert abs(np.mean(stays) - 0.95) < 0.01

    def test_chain_tree_two_step_mutation(self):
        # chain 2 -> 1 -> 0: row 0 is two mutation steps from row 2
        model = binary_model(m0=0.5, stay0=0.9, stay1=0.9)
        chain = treemath.OutTree(root=2, parent=np.array([1, 2, -1]))
        rng = np.random.default_rng(9)
        agree = [int(rows[0, 0] == rows[2, 0])
                 for rows in (sampler.sample_given_tree(model, chain, rng)
                              for _ in range(20_000))]
        two_step_stay = 0.9 ** 2 + 0.1 ** 2
        assert abs(np.mean(agree) - two_step_stay) < 3 * np.sqrt(0.25 / 20_000) + 0.01

    def test_fixed_tree_dataset_frequencies(self):
        model = binary_model(m0=0.4, stay0=0.85, stay1=0.7)
        tree = treemath.OutTree(root=1, parent=np.array([1, -1, 0]))
        rng = np.random.default_rng(10)
        draws = 200_000
        counts = Counter()
        for _ in range(draws):
            rows = sampler.sample_given_tree(model, tree, rng)
            counts[tuple(rows.ravel())] += 1
        for bits, count in counts.items():
            x = np.array(bits).reshape(3, 1)
            want = np.exp(model.log_marginal(x[1])
                          + model.log_conditional(x[0], x[1])
                          + model.log_conditional(x[2], x[0]))
            sigma = np.sqrt(want * (1 - want) / draws)
            assert abs(count / draws - want) < 3 * sigma + 1e-4

    def test_generative_matches_analytic_likelihood(self):
        # the end-to-end check: empirical dataset frequencies against the
        # exchangeable likelihood evaluated by the determinant route
        model = binary_model(m0=0.4, stay0=0.85, stay1=0.7)
        draws = 100_000
        counts = Counter()
        for draw in sampler.sample_datasets(model, 3, draws, np.random.default_rng(11)):
            counts[tuple(draw.data.ravel())] += 1
        for bits in [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]:
            data = np.array(bits, dtype=np.int64).reshape(3, 1)
            want = np.exp(lk.tdid_log_likelihood(data, model))
            sigma = np.sqrt(want * (1 - want) / draws)
            assert abs(counts[bits] / draws - want) < 3 * sigma

    def test_gaussian_figure_style_smoke(self):
        # rotation-like regression with identity noise produces finite,
        # spread-out branching clouds; no numeric assertion beyond sanity
        angle = 0.3
        rot = np.array([[np.cos(angle), -np.sin(angle), 0],
                        [np.sin(angle), np.cos(angle), 0],
                        [0, 0, 1.0]])
        model = models.GaussianModel(mu_c=np.zeros(3), mu_pi=np.zeros(3),
                                     sigma_c_given_pi=1.02 * rot,
                                     sigma_cc=np.eye(3), sigma_pipi=np.eye(3))
        draw = sampler.sample_dataset(model, 200, 13)
        assert draw.data.shape == (200, 3)
        assert np.all(np.isfinite(draw.data))
        assert draw.data.std(axis=0).max() > 1.0
