"""Determinant-based out-tree counting against the enumeration oracle."""

import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from outtree import cli, likelihood, models, semisup
from outtree import treemath as tm
from outtree.errors import NumericalFaultError, ZeroPartitionError


def random_instance(size, rng, low=0.05):
    entries = rng.uniform(low, 1.0, (size, size))
    np.fill_diagonal(entries, 0.0)
    beta = tm.WeightMatrix(entries=entries)
    roots = tm.RootWeights(values=rng.uniform(0.1, 1.0, size))
    return beta, roots


def unit_instance(size):
    beta = tm.WeightMatrix(entries=np.ones((size, size)) - np.eye(size))
    roots = tm.RootWeights(values=np.ones(size))
    return beta, roots


def oracle_tree_table(beta, roots):
    """(root, parent-tuple) -> posterior probability, by full enumeration."""
    table = {}
    log_weights = {}
    for tree in tm.enumerate_out_trees(beta.size):
        children = [t for t in range(beta.size) if t != tree.root]
        lw = beta.log_entries[children, tree.parent[children]].sum()
        lw += roots.log_values[tree.root]
        log_weights[(tree.root, tuple(tree.parent))] = lw
    total = logsumexp(list(log_weights.values()))
    for key, lw in log_weights.items():
        table[key] = np.exp(lw - total)
    return table


class TestConstruction:
    def test_rejects_single_node(self):
        with pytest.raises(ValueError):
            tm.WeightMatrix(entries=[[0.0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            tm.WeightMatrix(entries=[[0.5, 1.0], [1.0, 0.0]])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            tm.WeightMatrix(entries=[[0.0, -1.0], [1.0, 0.0]])

    def test_root_weights_need_positive_entry(self):
        with pytest.raises(ValueError):
            tm.RootWeights(values=[0.0, 0.0])

    def test_root_weights_normalized_sums_to_one(self):
        rng = np.random.default_rng(0)
        roots = tm.RootWeights(log_values=rng.normal(size=6) * 50)
        assert abs(roots.normalized.sum() - 1.0) < 1e-12

    def test_out_tree_rejects_cycle(self):
        with pytest.raises(ValueError):
            tm.OutTree(root=0, parent=np.array([-1, 2, 1]))


class TestLogPartition:
    def test_unit_beta_counts_trees_per_root(self):
        # T^(T-2) out-trees per root under unit weights
        beta, _ = unit_instance(3)
        assert np.allclose(tm.log_partition_per_root(beta), np.log(3), rtol=1e-12)

    def test_two_node_unit_cofactors(self):
        beta, _ = unit_instance(2)
        assert np.allclose(tm.log_partition_per_root(beta), 0.0)

    def test_unit_beta_total_count(self):
        beta, roots = unit_instance(3)
        lp = tm.log_partition(beta, roots)
        assert np.isclose(np.exp(lp.log_z), 9.0, rtol=1e-12)

    def test_two_node_total(self):
        beta, roots = unit_instance(2)
        assert np.isclose(np.exp(tm.log_partition(beta, roots).log_z), 2.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        beta, roots = random_instance(5, rng)
        got = tm.log_partition(beta, roots)
        want = tm.brute_force_log_partition(beta, roots)
        assert np.isclose(got.log_z, want.log_z, rtol=1e-9)
        assert np.allclose(tm.log_partition_per_root(beta), want.per_root_log_z, rtol=1e-9)

    def test_augmented_route_equals_per_root_route(self):
        # the per-root records share the augmented record's sign and zero
        # policy: rows spanning thousands of nats, a node with no out-edge
        # (its own ln Z_r is -inf, the others finite) and T=2
        for case in ("random", "wide_rows", "unreachable", "two_nodes"):
            rng = np.random.default_rng(11)
            beta, roots = random_instance(2 if case == "two_nodes" else 6, rng)
            if case == "wide_rows":
                beta = tm.WeightMatrix(log_entries=beta.log_entries
                                       + rng.uniform(-3000.0, 3000.0, (6, 1)))
                assert np.ptp(beta.row_scales) > 1e3
            elif case == "unreachable":
                log = beta.log_entries.copy()
                log[:, 5] = -np.inf  # node 5 has no out-edge, so it roots no tree
                np.fill_diagonal(log, -np.inf)
                beta = tm.WeightMatrix(log_entries=log)
            lp = tm.log_partition(beta, roots)
            per_root = tm.log_partition_per_root(beta)
            via_sum = logsumexp(roots.log_values + per_root)
            assert np.isclose(lp.log_z, via_sum, rtol=1e-9), case
            finite = np.arange(beta.size) != (5 if case == "unreachable" else -1)
            assert np.all(np.isfinite(per_root) == finite), case

    def test_disconnected_root_gets_minus_inf(self):
        # node 0 has no out-edge, so no tree is rooted there: at T=2 only the
        # edge 1 -> 0 has weight; at T=4 the other roots stay finite, and in
        # one case the rows span 3000 nats
        log = np.random.default_rng(7).normal(size=(4, 4))
        log[:, 0] = -np.inf
        np.fill_diagonal(log, -np.inf)
        for beta in (tm.WeightMatrix(entries=[[0.0, 0.7], [0.0, 0.0]]),
                     tm.WeightMatrix(log_entries=log),
                     tm.WeightMatrix(log_entries=log + np.array(
                         [[1500.0], [-1500.0], [0.0], [700.0]]))):
            roots = tm.RootWeights(values=np.ones(beta.size))
            want = tm.brute_force_log_partition(beta, roots).per_root_log_z
            per_root = tm.log_partition_per_root(beta)
            assert per_root[0] == -np.inf
            assert np.allclose(per_root[1:], want[1:], rtol=1e-9)
            assert not tm.per_root_marginal(beta, 0).any()
            with pytest.raises(ZeroPartitionError):
                tm.tree_entropy(beta, 0)

    @pytest.mark.parametrize("case", ["random", "first_root_unreachable"])
    def test_per_root_records_share_one_fill(self, bordered_counts, case):
        # every root's record copies one fill of Q and writes its own border
        # e_r, to the bytes of a fresh record; where node 0 roots no tree the
        # fill is the next root's
        beta, _ = random_instance(6, np.random.default_rng(12))
        if case == "first_root_unreachable":
            log = beta.log_entries.copy()
            log[:, 0] = -np.inf
            np.fill_diagonal(log, -np.inf)
            beta = tm.WeightMatrix(log_entries=log)
        for _ in range(2):
            bordered_counts.clear()
            per_root = tm.log_partition_per_root(beta)
            assert bordered_counts["set-up"] == 1
        assert bordered_counts["slogdet", 7] == 6 - (case != "random")
        want = np.full(6, -np.inf)
        for r in range(6):
            fresh = outcome(lambda: (tm._rooted(beta, r).log_z,))
            if fresh is not ZeroPartitionError:
                want[r] = fresh[0]
                shared = tm._rooted(beta, r, tm._rooted(beta, 2 if r == 1 else 1))
                assert shared.matrix.tobytes() == tm._rooted(beta, r).matrix.tobytes()
        assert per_root.tobytes() == want.tobytes()
        assert np.isfinite(per_root[0]) == (case == "random")

    def test_all_zero_is_an_error(self):
        beta = tm.WeightMatrix(entries=np.zeros((3, 3)))
        roots = tm.RootWeights(values=np.ones(3))
        with pytest.raises(ZeroPartitionError):
            tm.log_partition(beta, roots)

    def test_two_blocks_without_a_bridge_have_zero_partition(self):
        # no edge joins the two blocks, so Z = 0 exactly; the LU of the
        # bordered matrix used to return a finite ln Z on many of these
        rng = np.random.default_rng(0)
        for case in range(400):
            size = 4 + case % 36
            split = int(rng.integers(1, size))
            log = rng.normal(scale=3.0, size=(size, size))
            block = np.arange(size) < split
            log[block[:, None] != block[None, :]] = -np.inf
            np.fill_diagonal(log, -np.inf)
            perm = rng.permutation(size)
            beta = tm.WeightMatrix(log_entries=log[np.ix_(perm, perm)])
            roots = tm.RootWeights(log_values=rng.normal(size=size))
            assert beta.structural_zeros
            with pytest.raises(ZeroPartitionError):
                tm.log_partition(beta, roots)
            if case % 40 == 0:
                with pytest.raises(ZeroPartitionError):
                    tm.posterior_weights(beta, roots)
                with pytest.raises(ZeroPartitionError):
                    tm.IncrementalLogdet(beta, roots)

    def test_negative_lu_sign_is_a_numerical_fault(self):
        # F1: at the nearest-neighbour seed of 60 standardized spiral rows
        # the LU sign is -1; the sum of log singular values read there gave
        # -70.98 where mpmath gives -92.26
        record = spiral_record(60, cli.nn_regression_seed)
        assert np.linalg.slogdet(record.matrix)[0] < 0.0
        with pytest.raises(NumericalFaultError):
            tm.log_partition(record.beta, record.roots)
        with pytest.raises(NumericalFaultError):
            record.factor()

    def test_underflow_between_blocks_is_not_a_zero(self):
        # two blocks of three nodes, every edge between them 1000 nats below
        # those within: each of the 486 out-trees uses one such edge, so
        # ln Z = ln 486 - 1000, but the scaled weights exp(-1000) are 0 and
        # the bordered matrix is singular; that is a numerical fault, and
        # no route reads it as Z = 0 or as ln Z_r = -inf
        block = np.arange(6) < 3
        log = np.where(block[:, None] == block[None, :], 0.0, -1e3)
        np.fill_diagonal(log, -np.inf)
        beta, roots = tm.WeightMatrix(log_entries=log), tm.RootWeights(values=np.ones(6))
        assert not beta.structural_zeros
        want = tm.brute_force_log_partition(beta, roots)
        assert abs(want.log_z - (np.log(486) - 1e3)) <= 1e-9
        assert np.all(np.isfinite(want.per_root_log_z))
        for read in (lambda: tm.log_partition(beta, roots),
                     lambda: tm.edge_marginals(beta, roots),
                     lambda: tm.log_partition_per_root(beta),
                     lambda: tm.root_posterior(beta, roots)):
            with pytest.raises(NumericalFaultError):
                read()

    def test_structural_zeros_flag(self):
        rng = np.random.default_rng(4)
        beta, roots = random_instance(5, rng)
        assert not beta.structural_zeros
        assert not tm.WeightMatrix(log_entries=beta.log_entries).structural_zeros
        # a flip that writes a -inf sets the flag, and one that removes the
        # only -inf clears it
        record = tm._Bordered(beta, roots)
        column = beta.log_entries[:, 2].copy()
        column[1] = -np.inf
        zeros = record._crossed(2, beta.log_entries[2], column)
        assert zeros.beta.structural_zeros
        assert not zeros._crossed(2, beta.log_entries[2], beta.log_entries[:, 2]) \
            .beta.structural_zeros
        entries = beta.entries
        entries[3, 0] = 0.0
        assert tm.WeightMatrix(entries=entries).structural_zeros

    def test_extreme_log_weights_do_not_underflow(self):
        rng = np.random.default_rng(3)
        base = rng.uniform(-1.0, 1.0, (20, 20)) - 2000.0
        np.fill_diagonal(base, -np.inf)
        beta = tm.WeightMatrix(log_entries=base)
        roots = tm.RootWeights(log_values=np.full(20, -500.0))
        lp = tm.log_partition(beta, roots)
        assert np.isfinite(lp.log_z)
        assert lp.log_z < -30000


class TestEnumeration:
    def test_tree_count_three_nodes(self):
        assert len(tm.enumerate_out_trees(3)) == 9

    def test_tree_count_four_nodes_unit_weights(self):
        beta, roots = unit_instance(4)
        assert np.isclose(np.exp(tm.brute_force_log_partition(beta, roots).log_z), 64.0)

    def test_chain_rooted_at_last_node_is_present(self):
        # X1 <- X2 <- X3 (0-based: 0 <- 1 <- 2) is an out-tree rooted at node 2
        chains = [t for t in tm.enumerate_out_trees(3)
                  if t.root == 2 and t.parent[0] == 1 and t.parent[1] == 2]
        assert len(chains) == 1

    def test_guard_rejects_large_t(self):
        with pytest.raises(ValueError):
            tm.enumerate_out_trees(8)

    @pytest.mark.parametrize("size", range(2, 7))
    def test_brute_force_matches_one_tree_at_a_time(self, size):
        # the oracle as it summed one validated OutTree at a time
        rng = np.random.default_rng(size)
        beta, roots = random_instance(size, rng)
        beta = tm.WeightMatrix(log_entries=beta.log_entries * rng.uniform(1.0, 40.0))
        per_root_terms = [[] for _ in range(size)]
        for tree in tm.enumerate_out_trees(size):
            children = [t for t in range(size) if t != tree.root]
            per_root_terms[tree.root].append(
                beta.log_entries[children, tree.parent[children]].sum())
        per_root = np.array([logsumexp(terms) for terms in per_root_terms])
        log_z = logsumexp(roots.log_values + per_root)
        got = tm.brute_force_log_partition(beta, roots)
        assert abs(got.log_z - log_z) <= 1e-12 * abs(log_z)
        assert np.all(np.abs(got.per_root_log_z - per_root) <= 1e-12 * np.abs(per_root))


class TestRootPosterior:
    def test_symmetric_uniform(self):
        beta, roots = unit_instance(4)
        assert np.allclose(tm.root_posterior(beta, roots), 0.25, atol=1e-12)

    def test_single_edge_forces_root(self):
        beta = tm.WeightMatrix(entries=[[0.0, 0.3], [0.0, 0.0]])
        roots = tm.RootWeights(values=[1.0, 1.0])
        assert np.allclose(tm.root_posterior(beta, roots), [0.0, 1.0])

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        beta, roots = random_instance(6, rng)
        assert abs(tm.root_posterior(beta, roots).sum() - 1.0) < 1e-10

    def test_matches_enumeration(self):
        rng = np.random.default_rng(4)
        beta, roots = random_instance(4, rng)
        table = oracle_tree_table(beta, roots)
        want = np.zeros(4)
        for (root, _), prob in table.items():
            want[root] += prob
        assert np.allclose(tm.root_posterior(beta, roots), want, atol=1e-9)


class TestEdgeMarginals:
    def test_two_node_unit(self):
        beta, roots = unit_instance(2)
        w = tm.edge_marginals(beta, roots).W
        assert np.allclose(w, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)

    def test_total_mass_is_t_minus_one(self):
        rng = np.random.default_rng(5)
        for size in (3, 5, 8):
            beta, roots = random_instance(size, rng)
            w = tm.edge_marginals(beta, roots).W
            assert abs(w.sum() - (size - 1)) < 1e-8
            assert w.min() >= 0.0 and w.max() <= 1.0 + 1e-12
            assert np.all(np.diag(w) == 0.0)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(6)
        beta, roots = random_instance(5, rng)
        table = oracle_tree_table(beta, roots)
        want = np.zeros((5, 5))
        for (root, parent), prob in table.items():
            for child, par in enumerate(parent):
                if par != -1:
                    want[child, par] += prob
        got = tm.edge_marginals(beta, roots).W
        assert np.allclose(got, want, atol=1e-9)

    def test_per_root_rows_are_stochastic(self):
        rng = np.random.default_rng(9)
        beta, roots = random_instance(5, rng)
        for r in range(5):
            rows = np.delete(tm.per_root_marginal(beta, r).sum(axis=1), r)
            assert np.allclose(rows, 1.0, atol=1e-8)

    def test_per_root_mixture_matches_fast_path(self):
        rng = np.random.default_rng(10)
        beta, roots = random_instance(6, rng)
        fast = tm.edge_marginals(beta, roots).W
        stack = np.stack([tm.per_root_marginal(beta, r) for r in range(6)])
        slow = np.einsum("r,ruv->uv", tm.root_posterior(beta, roots), stack)
        assert np.allclose(fast, slow, atol=1e-10)

    @pytest.mark.parametrize("leaf", [None, 1, 2, 3])
    def test_posterior_weights_match_enumeration(self, monkeypatch, bordered_counts, leaf):
        # rho is the root posterior; each non-root row of W sums to 1 - rho.
        # A leaf below the bordered dimension 6 takes the block inverse,
        # whose certificate must pass: no LAPACK inverse of the whole matrix
        if leaf is not None:
            monkeypatch.setattr(tm, "_BLOCK_LEAF", leaf)
        rng = np.random.default_rng(11)
        beta, roots = random_instance(5, rng)
        table = oracle_tree_table(beta, roots)
        want_w, want_rho = np.zeros((5, 5)), np.zeros(5)
        for (root, parent), prob in table.items():
            want_rho[root] += prob
            for child, par in enumerate(parent):
                if par != -1:
                    want_w[child, par] += prob
        w, rho = tm.posterior_weights(beta, roots)
        assert np.allclose(w, want_w, atol=1e-9)
        assert np.allclose(rho, want_rho, atol=1e-9)
        assert np.allclose(w.sum(axis=1), 1.0 - rho, atol=1e-9)
        assert bordered_counts["inv", 6] == (leaf is None)


class TestTreeEntropy:
    def test_uniform_support(self):
        beta, _ = unit_instance(3)
        assert np.isclose(tm.tree_entropy(beta, 0), np.log(3.0), atol=1e-12)

    def test_point_mass_is_zero(self):
        # weights supporting exactly one tree rooted at 0: the chain 0 -> 1 -> 2
        beta = tm.WeightMatrix(entries=[[0, 0, 0], [0.4, 0, 0], [0, 0.9, 0]])
        assert abs(tm.tree_entropy(beta, 0)) < 1e-12

    def test_matches_enumeration(self):
        rng = np.random.default_rng(12)
        beta, roots = random_instance(4, rng)
        for r in range(4):
            log_weights = []
            for tree in tm.enumerate_out_trees(4):
                if tree.root != r:
                    continue
                children = [t for t in range(4) if t != r]
                log_weights.append(beta.log_entries[children, tree.parent[children]].sum())
            log_weights = np.array(log_weights)
            log_probs = log_weights - logsumexp(log_weights)
            want = -np.sum(np.exp(log_probs) * log_probs)
            assert np.isclose(tm.tree_entropy(beta, r), want, atol=1e-8)

    def test_nonnegative(self):
        rng = np.random.default_rng(13)
        beta, _ = random_instance(6, rng)
        for r in range(6):
            assert tm.tree_entropy(beta, r) > -1e-8

    def test_inaccurate_per_root_inverse_is_a_fault(self, monkeypatch):
        # at T + 1 = 6 the residual is read off LAPACK's inverse, 1.1e-15
        # here: a bound below it makes P_r and H(q_r) raise, while ln Z_r,
        # which reads no inverse, stays
        beta, _ = random_instance(5, np.random.default_rng(14))
        residual = tm._rooted(beta, 2)._inverted[1]
        assert 0.0 < residual <= tm._RESIDUAL_BOUND
        want = tm.log_partition_per_root(beta)
        monkeypatch.setattr(tm, "_RESIDUAL_BOUND", residual / 2)
        with pytest.raises(NumericalFaultError):
            tm.per_root_marginal(beta, 2)
        with pytest.raises(NumericalFaultError):
            tm.tree_entropy(beta, 2)
        assert tm.log_partition_per_root(beta).tobytes() == want.tobytes()


def crossed_log(log, node, row, column):
    """``log`` with row and column ``node`` replaced by ``row`` and
    ``column`` and its diagonal kept -inf, written as a plain copy: the
    log-weights of a flip, whose fresh ``WeightMatrix`` is the oracle of the
    patched record."""
    out = np.array(log, dtype=float)
    out[node] = row
    out[:, node] = column
    out[node, node] = -np.inf
    return out


class TestIncrementalLogdet:
    """The session's flip path, ``_cross`` and ``_commit``, against fresh
    records of the same log-weights."""

    def test_empty_edit_list_is_identity(self):
        # the flip that writes the node's own row and column back
        rng = np.random.default_rng(14)
        beta, roots = random_instance(6, rng)
        session = tm.IncrementalLogdet(beta, roots)
        before = session._record.logdet
        record = session._cross(2, beta.log_entries[2], beta.log_entries[:, 2])
        assert same_bits(record.matrix, session._record.matrix)
        session._commit(record)
        assert session._record.logdet == before

    def test_edit_then_reverse(self):
        rng = np.random.default_rng(15)
        beta, roots = random_instance(6, rng)
        session = tm.IncrementalLogdet(beta, roots)
        original = session.log_partition
        session._commit(session._cross(2, beta.log_entries[2] + 0.8,
                                       beta.log_entries[:, 2] - 0.3))
        assert session.log_partition != original
        session._commit(session._cross(2, beta.log_entries[2], beta.log_entries[:, 2]))
        assert session.log_partition == original
        assert same_bits(session._record.matrix, tm._Bordered(beta, roots).matrix)

    def test_preview_does_not_mutate(self):
        rng = np.random.default_rng(16)
        beta, roots = random_instance(5, rng)
        session = tm.IncrementalLogdet(beta, roots)
        before, matrix = session.log_partition, session._record.matrix.copy()
        record = session._cross(0, *rng.uniform(-3.0, 0.5, (2, 5)))
        delta = record.log_z - before
        assert session.log_partition == before
        assert same_bits(session._record.matrix, matrix)
        session._commit(record)
        assert session.log_partition - before == delta

    @pytest.mark.parametrize("seed", range(3))
    def test_batch_matches_fresh_recompute(self, seed):
        rng = np.random.default_rng(100 + seed)
        beta, roots = random_instance(20, rng)
        session = tm.IncrementalLogdet(beta, roots)
        log = beta.log_entries
        for _ in range(5):
            node = int(rng.integers(20))
            row, column = rng.uniform(-3.0, 0.5, (2, 20))
            session._commit(session._cross(node, row, column))
            log = crossed_log(log, node, row, column)
        fresh = tm.log_partition(tm.WeightMatrix(log_entries=log), roots)
        assert session.log_partition == fresh.log_z

    def test_structural_zero_edits_round_trip(self):
        rng = np.random.default_rng(17)
        beta, roots = random_instance(5, rng)
        session = tm.IncrementalLogdet(beta, roots)
        start = session.log_partition
        row, column = beta.log_entries[2], beta.log_entries[:, 2].copy()
        column[1] = -np.inf
        session._commit(session._cross(2, row, column))
        fresh = tm.WeightMatrix(log_entries=crossed_log(beta.log_entries, 2, row, column))
        assert session._record.beta.structural_zeros
        assert session.log_partition == tm.log_partition(fresh, roots).log_z
        session._commit(session._cross(2, row, beta.log_entries[:, 2]))
        assert not session._record.beta.structural_zeros
        assert session.log_partition == start

    def test_singular_update_is_signalled_and_state_kept(self):
        # removing both edges of a two-node graph leaves no out-tree at all:
        # the fresh record of the flipped weights raises when it is set up
        beta = tm.WeightMatrix(entries=[[0.0, 0.5], [0.5, 0.0]])
        roots = tm.RootWeights(values=[1.0, 1e-300])
        session = tm.IncrementalLogdet(beta, roots)
        before = session.log_partition
        with pytest.raises(ZeroPartitionError):
            session._cross(0, np.full(2, -np.inf), np.full(2, -np.inf))
        assert session.log_partition == before
        # every edge into nodes 2 and 3 from the roots 0 and 1 sits 2e3 nats
        # down: the weights support out-trees, but their scaled weights
        # underflow to 0, so the patched record's bordered matrix is singular
        # and it raises a numerical fault when it is factored, on commit
        roots = tm.RootWeights(log_values=[0.0, 0.0, -np.inf, -np.inf])
        session = tm.IncrementalLogdet(tm.WeightMatrix(entries=np.ones((4, 4)) - np.eye(4)),
                                       roots)
        session._commit(session._cross(2, [-2e3, -2e3, 0.0, 0.0], np.zeros(4)))
        kept, before = session._record, session.log_partition
        record = session._cross(3, [-2e3, -2e3, 0.0, 0.0], np.zeros(4))
        assert not record.beta.structural_zeros
        with pytest.raises(NumericalFaultError):
            session._commit(record)
        assert session._record is kept and session.log_partition == before

    def test_automatic_refactor_keeps_accuracy(self):
        rng = np.random.default_rng(18)
        beta, roots = random_instance(8, rng)
        session = tm.IncrementalLogdet(beta, roots)
        log_beta = beta.log_entries
        for _ in range(60):
            node = int(rng.integers(8))
            row, column = rng.uniform(-2.0, 0.5, (2, 8))
            session._commit(session._cross(node, row, column))
            log_beta = crossed_log(log_beta, node, row, column)
        fresh = tm.log_partition(tm.WeightMatrix(log_entries=log_beta), roots)
        assert session.log_partition == fresh.log_z

    def test_inverse_is_the_fresh_inverse_of_the_bordered_matrix(self):
        rng = np.random.default_rng(19)
        beta, roots = random_instance(7, rng)
        session = tm.IncrementalLogdet(beta, roots)
        want = np.linalg.inv(tm._Bordered(beta, roots).matrix)
        assert session._record.inverse.tobytes() == want.tobytes()
        log = beta.log_entries
        for node, zero in [(1, None), (6, 2), (3, None)]:
            row, column = rng.uniform(-2.0, 0.5, (2, 7))
            if zero is not None:
                column[zero] = -np.inf
            session._commit(session._cross(node, row, column))
            log = crossed_log(log, node, row, column)
        want = np.linalg.inv(tm._Bordered(tm.WeightMatrix(log_entries=log), roots).matrix)
        assert session._record.inverse.tobytes() == want.tobytes()


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def masked_derivation(log):
    """Row scales and scaled weights with explicit finite masks."""
    finite = np.isfinite(log)
    row_max = np.max(np.where(finite, log, -np.inf), axis=1)
    row_scales = np.where(finite.any(axis=1), row_max, 0.0)
    with np.errstate(under="ignore"):
        scaled = np.exp(log - row_scales[:, None])
    scaled[~finite] = 0.0
    return row_scales, scaled


@st.composite
def edit_cases(draw, size):
    """A weight matrix, and its log-weights with (child, parent) entries
    edited one by one in a loop.

    Regimes: structural zeros with one all -inf row, rows spanning 1.5e3
    nats, edits to -inf, duplicate (child, parent) edits and negative indices.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    log = rng.normal(size=(size, size))
    if draw(st.booleans()):
        log[np.arange(size), (np.arange(size) + 1) % size] = -1.5e3
    if draw(st.booleans()):
        log[rng.random((size, size)) < 0.3] = -np.inf
        log[rng.integers(size)] = -np.inf
    np.fill_diagonal(log, -np.inf)
    count = draw(st.integers(0, 3 * size))
    child = rng.integers(size, size=count)
    parent = (child + rng.integers(1, size, size=count)) % size
    weights = np.where(rng.random(count) < 0.2, -np.inf, rng.normal(scale=5.0, size=count))
    edits = [(int(u), int(v), float(w)) for u, v, w in zip(child, parent, weights)]
    if edits and draw(st.booleans()):
        edits += [(u, v, w + 1.0) for u, v, w in edits[:3]]
    if draw(st.booleans()):
        edits = [(u - size * int(rng.integers(2)), v - size * int(rng.integers(2)), w)
                 for u, v, w in edits]
    edited = log.copy()
    for u, v, w in edits:
        edited[u, v] = w
    return tm.WeightMatrix(log_entries=log), edited


class TestLeanEdits:
    """``_logsumexp`` against its plain reference."""

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.one_of(st.floats(-800.0, 800.0), st.just(-np.inf)),
                           min_size=1, max_size=40),
           ties=st.integers(0, 3))
    def test_logsumexp_matches_scipy(self, values, ties):
        a = np.array(values + [max(values)] * ties)
        got, want = tm._logsumexp(a), logsumexp(a)
        if want == -np.inf:
            assert got == -np.inf
        else:
            assert abs(got - want) <= 4 * abs(np.spacing(want))


@st.composite
def record_cases(draw, size):
    """``edit_cases`` weights and edited log-weights, plus root weights that
    may hold a -inf."""
    beta, edited = draw(edit_cases(size))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    log_roots = rng.normal(scale=3.0, size=size)
    if draw(st.booleans()):
        log_roots[rng.integers(size)] = -np.inf
    return beta, tm.RootWeights(log_values=log_roots), edited


def plain_bordered(beta, roots):
    """[[1, p^T], [-p, diag(row sums) - scaled]] written out entry by entry."""
    adjusted = roots.log_values - beta.row_scales
    with np.errstate(under="ignore"):
        p = np.exp(adjusted - tm._logsumexp(adjusted))
    size = beta.size
    matrix = np.empty((size + 1, size + 1))
    matrix[0, 0] = 1.0
    matrix[0, 1:] = p
    matrix[1:, 0] = -p
    matrix[1:, 1:] = 0.0 - beta.scaled
    matrix[np.arange(1, size + 1), np.arange(1, size + 1)] = beta.scaled.sum(axis=1)
    return matrix


def outcome(read):
    """The tuple ``read()`` returns, or the class of the error it raises."""
    try:
        return read()
    except (ZeroPartitionError, NumericalFaultError) as exc:
        return type(exc)


def same_outcome(got, want):
    if isinstance(got, type) or isinstance(want, type):
        return got is want
    return len(got) == len(want) and all(same_bits(a, b) for a, b in zip(got, want))


class TestBorderedRecord:
    """One ``_Bordered`` record against the fresh entry points, bit for bit,
    on the regimes of ``edit_cases``."""

    def test_slogdet_factors_the_transpose(self, monkeypatch):
        # det M^T = det M, and the transpose of the C-ordered matrix is
        # F-contiguous: numpy's copy of it for LAPACK is a contiguous one
        seen, slogdet = [], np.linalg.slogdet

        def recorded(a):
            seen.append(a)
            return slogdet(a)

        beta, roots = random_instance(6, np.random.default_rng(13))
        record = tm._Bordered(beta, roots)
        monkeypatch.setattr(np.linalg, "slogdet", recorded)
        log_z = record.log_z
        monkeypatch.undo()
        assert len(seen) == 1 and seen[0].flags.f_contiguous
        assert np.shares_memory(seen[0], record.matrix)
        assert seen[0].T.tobytes() == record.matrix.tobytes()
        want = record.offset + np.linalg.slogdet(record.matrix)[1]
        assert abs(log_z - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("size", [2, 3, 7])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_record_reads_equal_fresh_entry_points(self, size, data):
        beta, roots, edited = data.draw(record_cases(size))
        for weights in (beta, tm.WeightMatrix(log_entries=edited)):
            want_z = outcome(lambda: (tm.log_partition(weights, roots).log_z,))
            want_w = outcome(lambda: tm.posterior_weights(weights, roots))
            try:
                first, second = tm._Bordered(weights, roots), tm._Bordered(weights, roots)
            except ZeroPartitionError:
                assert want_z is want_w is ZeroPartitionError
                continue
            assert same_bits(first.matrix, plain_bordered(weights, roots))
            # ln Z read first from one record, (W, rho) first from the other
            got_z = outcome(lambda: (first.log_z,))
            got_w = outcome(first.posterior_weights)
            assert same_outcome(got_z, want_z) and same_outcome(got_w, want_w)
            got_w = outcome(second.posterior_weights)
            got_z = outcome(lambda: (second.log_z,))
            assert same_outcome(got_z, want_z) and same_outcome(got_w, want_w)

    @pytest.mark.parametrize("size", [2, 3, 7])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_session_inverse_equals_a_fresh_records_after_edits(self, size, data):
        beta, roots, flips = data.draw(cross_cases(size))
        try:
            session = tm.IncrementalLogdet(beta, roots)
        except (ZeroPartitionError, NumericalFaultError) as exc:
            assert outcome(lambda: (tm.log_partition(beta, roots).log_z,)) is type(exc)
            return
        for node, row, column in flips:
            current = session._record.beta
            edited = tm.WeightMatrix(log_entries=crossed_log(current.log_entries, node,
                                                             row, column))
            applied = outcome(lambda: (session._commit(session._cross(node, row, column)),))
            assert same_outcome(applied,
                                outcome(lambda: (tm.log_partition(edited, roots).log_z,)))
            # a flip that raises leaves the session on its old weights
            if not isinstance(applied, type):
                current = edited
            assert same_bits(session._record.beta.log_entries, current.log_entries)
            assert same_outcome(outcome(lambda: (session._record.inverse,)),
                                outcome(lambda: (tm._Bordered(current, roots).inverse,)))


@st.composite
def cross_cases(draw, size):
    """Weights, root weights and two row-and-column replacements in a row.

    Regimes: new column entries that rise above the row maxima, old row
    maxima that sit in the replaced column and go down, exact ties with a
    row's other maximum, a replaced row that keeps its maximum, rows spanning 1.5e3 nats (entries that exp to 0),
    -inf root weights, and structural zeros before or in the replacement
    (the fresh derivation). The replacement's diagonal entries are finite
    and must be ignored.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    spread = draw(st.sampled_from([1.0, 1.5e3]))
    log = rng.normal(scale=spread, size=(size, size))
    np.fill_diagonal(log, -np.inf)
    if draw(st.booleans()):
        log[rng.random((size, size)) < 0.2] = -np.inf
        np.fill_diagonal(log, -np.inf)
    log_roots = rng.normal(scale=3.0, size=size)
    if draw(st.booleans()):
        log_roots[rng.integers(size)] = -np.inf
    flips = []
    for _ in range(2):
        node = draw(st.integers(0, size - 1))
        others = np.arange(size) != node
        if draw(st.booleans()):  # the old maxima sit in the column
            log[others, node] = log[others].max(axis=1) + rng.uniform(0.0, 1.0)
        row = rng.normal(scale=spread, size=size)
        column = rng.normal(scale=spread, size=size) + draw(st.sampled_from([0.0, 3.0]))
        if draw(st.booleans()):  # row ``node`` keeps its maximum
            top = log[node].max()
            row = np.minimum(row, top)
            row[int(np.argmax(log[node]))] = top
        if draw(st.booleans()) and size > 2:  # ties with the rest of each row
            rest = np.where(np.arange(size) == node, -np.inf, log)
            rest[np.arange(size), np.arange(size)] = -np.inf
            column = np.where(rng.random(size) < 0.5, rest.max(axis=1), column)
            row[rng.integers(size)] = row.max()
        if draw(st.booleans()):
            (row if draw(st.booleans()) else column)[rng.integers(size)] = -np.inf
        flips.append((node, row, column))
    return tm.WeightMatrix(log_entries=log), tm.RootWeights(log_values=log_roots), flips


def same_weights(got, want):
    return all(same_bits(getattr(got, name), getattr(want, name))
               for name in ("log_entries", "row_scales", "scaled", "scale_total")) \
        and got.structural_zeros == want.structural_zeros


class TestCrossPatch:
    """``_Bordered._crossed`` against a fresh record of the same log-weights."""

    @pytest.mark.parametrize("size", [2, 3, 7])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_patched_record_equals_a_fresh_one(self, size, data):
        beta, roots, flips = data.draw(cross_cases(size))
        current = outcome(lambda: (tm._Bordered(beta, roots),))
        for node, row, column in flips:
            want_beta = tm.WeightMatrix(log_entries=crossed_log(beta.log_entries, node,
                                                                row, column))
            want = outcome(lambda: (tm._Bordered(want_beta, roots),))
            if isinstance(current, type):
                # no session holds weights with Z = 0, so none is crossed from
                beta, current = want_beta, want
                continue
            got = outcome(lambda: (current[0]._crossed(node, row, column),))
            if isinstance(want, type) or isinstance(got, type):
                assert got is want
            else:
                (got_record,), (want_record,) = got, want
                assert same_weights(got_record.beta, want_beta)
                assert not got_record.beta.log_entries.flags.writeable
                assert not got_record.beta.row_scales.flags.writeable
                assert same_bits(got_record.matrix, want_record.matrix)
                assert same_bits(got_record.normalized, want_record.normalized)
                assert same_bits(got_record.offset, want_record.offset)
                for read in (lambda r: (r.log_z,), lambda r: (r.inverse,)):
                    assert same_outcome(outcome(lambda: read(got_record)),
                                        outcome(lambda: read(want_record)))
            beta, current = want_beta, got

    def test_rejects_nan_and_inf(self):
        beta, roots = random_instance(4, np.random.default_rng(41))
        record = tm._Bordered(beta, roots)
        for bad in (np.nan, np.inf):
            row = np.zeros(4)
            row[2] = bad
            with pytest.raises(ValueError):
                record._crossed(1, np.zeros(4), row)
            with pytest.raises(ValueError):
                record._crossed(1, row, np.zeros(4))


def rescaled_copy_record(beta, roots):
    """(matrix, logdet, (W, rho)) of the set-up that first derives the
    rescaled weights as a T x T array, blocked as the package blocks its
    rows, and then fills the bordered matrix and W from that array."""
    size, log = beta.size, beta.log_entries
    row_scales, scaled = np.empty(size), np.empty((size, size))
    step = tm._block_rows(size)
    with np.errstate(under="ignore"):
        for start in range(0, size, step):
            rows = slice(start, start + step)
            scales = np.maximum.reduce(log[rows], axis=1, out=row_scales[rows])
            scales[scales == -np.inf] = 0.0
            block = np.subtract(log[rows], scales[:, None], out=scaled[rows])
            np.exp(block, out=block)
        adjusted = roots.log_values - row_scales
        p = np.exp(adjusted - tm._logsumexp(adjusted))
    matrix = np.empty((size + 1, size + 1))
    matrix[0, 0] = 1.0
    matrix[0, 1:] = p
    matrix[1:, 0] = -p
    np.subtract(0.0, scaled, out=matrix[1:, 1:])
    matrix.reshape(-1)[size + 2::size + 2] += scaled.sum(axis=1)

    def logdet():
        candidates = np.flatnonzero(roots.log_values > -np.inf)
        if beta.structural_zeros \
                and not tm._has_positive_arborescence(log > -np.inf, candidates):
            return ZeroPartitionError
        with np.errstate(divide="ignore"):
            sign, value = np.linalg.slogdet(matrix.T)  # as the package factors it
        return (float(value),) if sign > 0.0 else NumericalFaultError

    def weights():
        try:
            inv = tm._block_inverse(matrix)[0]
        except np.linalg.LinAlgError:
            return NumericalFaultError
        core = inv[1:, 1:]
        w = np.subtract(np.diag(core)[:, None], core.T, out=np.empty_like(scaled))
        w *= scaled
        np.fill_diagonal(w, 0.0)
        border = inv[1:, 0] - inv[0, 1:]
        return w, p * (1.0 + border - p @ border)

    return matrix, logdet(), weights()


def fill_case(size, seed, regime):
    """Log-weights and root weights of one regime of ``TestFillFromLogWeights``."""
    rng = np.random.default_rng(seed)
    log = rng.normal(scale=2.0, size=(size, size))
    if regime == "wide":  # rows spanning 1.5e3 nats: many entries exp to 0
        log[rng.random((size, size)) < 0.3] -= 1.5e3
    elif regime == "empty rows":  # structural zeros and an all -inf row
        log[rng.random((size, size)) < 0.2] = -np.inf
        log[rng.integers(size)] = -np.inf
    np.fill_diagonal(log, -np.inf)
    return log, tm.RootWeights(log_values=rng.normal(scale=3.0, size=size))


class TestFillFromLogWeights:
    """The bordered matrix filled straight from the log-weights, against the
    set-up through a rescaled copy, bit for bit."""

    @pytest.mark.parametrize("size", [2, 3, 90, 400])
    @pytest.mark.parametrize("regime", ["dense", "wide", "empty rows"])
    def test_record_equals_the_rescaled_copy_set_up(self, size, regime):
        for seed in range(3 if size <= 90 else 1):
            log, roots = fill_case(size, seed, regime)
            beta = tm.WeightMatrix(log_entries=log)
            want_matrix, want_logdet, want_weights = rescaled_copy_record(beta, roots)
            try:
                record = tm._Bordered(beta, roots)
            except ZeroPartitionError:
                assert want_logdet is ZeroPartitionError
                continue
            assert same_bits(record.matrix, want_matrix)
            assert same_outcome(outcome(lambda: (record.logdet,)), want_logdet)
            assert same_outcome(outcome(record.posterior_weights), want_weights)

    def test_zero_weights_give_zeros_of_the_gains_sign(self):
        # W = gain * scaled with scaled = +0: the sign is the gain's, which
        # a product with the negated weights, -gain * (0 - scaled), flips
        log, roots = fill_case(400, 0, "wide")
        beta = tm.WeightMatrix(log_entries=log)
        record = tm._Bordered(beta, roots)
        w, _ = record.posterior_weights()  # read back from the matrix
        zero = (beta.scaled == 0.0) & ~np.eye(400, dtype=bool)
        core = record.inverse[1:, 1:]
        gain = np.diag(core)[:, None] - core.T
        assert zero.sum() > 1000
        assert same_bits(np.signbit(w[zero]), np.signbit(gain[zero]))

    @pytest.mark.parametrize("size", [4, 90])
    def test_support_is_read_off_the_matrix(self, size):
        # every edge into the second half is 2e3 nats below the edges within
        # it, and only the first half may be the root: the rescaled weights,
        # and so the entries of Q, hold no out-tree of positive weight, but
        # the log-weights' support does, so Z > 0 and the LU sign <= 0 is a
        # numerical fault, not a structural zero
        second = np.arange(size) >= size // 2
        log = np.where(second[:, None] & ~second[None, :], -2e3, 0.0)
        np.fill_diagonal(log, -np.inf)
        roots = tm.RootWeights(log_values=np.where(second, -np.inf, 0.0))
        beta = tm.WeightMatrix(log_entries=log)
        record = tm._Bordered(beta, roots)
        assert np.linalg.slogdet(record.matrix)[0] <= 0.0
        assert outcome(lambda: (record.logdet,)) is NumericalFaultError
        assert rescaled_copy_record(beta, roots)[1] is NumericalFaultError

    @pytest.mark.parametrize("size", [2, 90, 400])
    def test_lazy_scaled_is_the_rescaled_copy_and_read_only(self, size):
        log, roots = fill_case(size, 1, "wide")
        beta = tm.WeightMatrix._owning(log)
        before = tm._Bordered(beta, roots)
        row_scales, scaled = masked_derivation(log)
        assert same_bits(beta.row_scales, row_scales)
        assert same_bits(beta.scaled, scaled)
        assert not beta.scaled.flags.writeable
        with pytest.raises(ValueError):
            beta.scaled[0, 1] = 2.0
        # reading ``scaled`` leaves the weights and their records as they were
        after = tm._Bordered(beta, roots)
        assert same_bits(after.matrix, before.matrix)
        for got, want in zip(after.posterior_weights(), before.posterior_weights()):
            assert same_bits(got, want)

    @pytest.mark.parametrize("size", [3, 90])
    @pytest.mark.parametrize("regime", ["dense", "wide"])
    def test_patched_weights_equal_the_rescaled_copy_set_up(self, size, regime):
        log, roots = fill_case(size, 2, regime)
        record = tm._Bordered(tm.WeightMatrix(log_entries=log), roots)
        rng = np.random.default_rng(size)
        for node in rng.integers(size, size=3):
            row, column = rng.normal(scale=2.0, size=(2, size))
            record = record._crossed(int(node), row, column)
            want_matrix, want_logdet, want_weights = rescaled_copy_record(record.beta, roots)
            assert same_bits(record.matrix, want_matrix)
            assert same_outcome(outcome(lambda: (record.logdet,)), want_logdet)
            assert same_outcome(outcome(record.posterior_weights), want_weights)

    def test_log_partition_peaks_below_two_and_a_half_matrices(self):
        size = 400
        data = cli.standardize(cli.gen_spiral(cli.SpiralSpec(count=size), 7))[0]
        model = models.gaussian_init_iid(data)
        tm.log_partition(*models.build_beta(data, model))  # warm every code path
        tracemalloc.start()
        try:
            tm.log_partition(*models.build_beta(data, model))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * size * size * 8


class TestInvariants:
    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_determinant_enumeration_equivalence(self, size):
        rng = np.random.default_rng(size)
        for _ in range(20):
            beta, roots = random_instance(size, rng)
            got = tm.log_partition(beta, roots)
            want = tm.brute_force_log_partition(beta, roots)
            assert np.isclose(np.exp(got.log_z), np.exp(want.log_z), rtol=1e-9)
            assert np.allclose(tm.log_partition_per_root(beta), want.per_root_log_z,
                               rtol=1e-9)

    def test_scaling_covariance(self):
        rng = np.random.default_rng(21)
        beta, roots = random_instance(5, rng)
        shift = 7.3
        shifted = tm.WeightMatrix(log_entries=np.where(
            np.isfinite(beta.log_entries), beta.log_entries + shift, -np.inf))
        base = tm.log_partition_per_root(beta)
        moved = tm.log_partition_per_root(shifted)
        assert np.allclose(moved - base, 4 * shift, rtol=1e-9)
        assert np.allclose(tm.root_posterior(beta, roots),
                           tm.root_posterior(shifted, roots), atol=1e-9)
        assert np.allclose(tm.edge_marginals(beta, roots).W,
                           tm.edge_marginals(shifted, roots).W, atol=1e-9)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(22)
        beta, roots = random_instance(6, rng)
        sigma = rng.permutation(6)
        perm_beta = tm.WeightMatrix(log_entries=beta.log_entries[np.ix_(sigma, sigma)])
        perm_roots = tm.RootWeights(log_values=roots.log_values[sigma])
        base = tm.log_partition(beta, roots)
        perm = tm.log_partition(perm_beta, perm_roots)
        assert abs(base.log_z - perm.log_z) < 1e-10
        assert np.allclose(tm.log_partition_per_root(perm_beta),
                           tm.log_partition_per_root(beta)[sigma], atol=1e-10)

    def test_symmetric_beta_collapses_roots(self):
        rng = np.random.default_rng(23)
        half = rng.uniform(0.2, 1.0, (5, 5))
        entries = np.triu(half, 1) + np.triu(half, 1).T
        beta = tm.WeightMatrix(entries=entries)
        per_root = tm.log_partition_per_root(beta)
        assert np.ptp(per_root) < 1e-9


def certified(matrix, x):
    """The block inverse's certificate, written out: finite entries, a
    diagonal of ``matrix @ x`` within 1e-9 of 1, and an alternating-sign
    probe solved to within 1e-9 in every entry and with a normwise backward
    error of at most 16 n eps."""
    size = matrix.shape[0]
    probe = np.where(np.arange(size) % 2, -1.0, 1.0)
    with np.errstate(all="ignore"):
        diagonal = np.einsum("ij,ji->i", matrix, x)
        solved = x @ probe
        missed = np.max(np.abs(matrix @ solved - probe))
        backward = missed / (np.max(np.abs(matrix).sum(axis=1)) * np.max(np.abs(solved)))
    return bool(np.isfinite(x).all() and np.max(np.abs(diagonal - 1.0)) <= 1e-9
                and missed <= 1e-9 and backward <= 16 * size * np.finfo(float).eps)


def block_case(size, seed, spans, duplicates, blocks, zeros, empty_row, dead_root):
    """Weights and root weights of one ``block_cases`` draw: T = ``size``,
    the entries drawn from ``seed``, each regime on when its flag is."""
    rng = np.random.default_rng(seed)
    log = rng.normal(size=(size, size))
    if spans:
        log *= 500.0
        log[np.arange(size), (np.arange(size) + 1) % size] = -1.5e3
    if duplicates:
        log = log[rng.integers(size, size=size)]
    if blocks:
        block = np.arange(size) < rng.integers(1, size + 1)
        log[block[:, None] != block[None, :]] -= rng.uniform(20.0, 60.0)
    if zeros:
        log[rng.random((size, size)) < 0.3] = -np.inf
        if empty_row:
            log[rng.integers(size)] = -np.inf
    np.fill_diagonal(log, -np.inf)
    log_roots = rng.normal(scale=3.0, size=size)
    if dead_root:
        log_roots[rng.integers(size)] = -np.inf
    return tm.WeightMatrix(log_entries=log), tm.RootWeights(log_values=log_roots)


@st.composite
def block_cases(draw):
    """Weights and root weights for T in [2, 40] and a leaf of 1 to 5.

    Regimes, each drawn on or off: rows spanning more than 1e3 nats,
    duplicate rows, near-disconnected blocks (cross weights 20-60 nats
    down), structural zeros with possibly a node that no edge reaches, and a
    -inf root weight. All off is the dense regime.
    """
    size, seed = draw(st.integers(2, 40)), draw(st.integers(0, 2 ** 32 - 1))
    spans, duplicates, blocks, zeros = (draw(st.booleans()) for _ in range(4))
    empty_row = zeros and draw(st.booleans())
    dead_root = draw(st.booleans())
    return (*block_case(size, seed, spans, duplicates, blocks, zeros, empty_row, dead_root),
            draw(st.integers(1, 5)))


def spiral_record(count, model_of):
    data = cli.standardize(cli.gen_spiral(cli.SpiralSpec(count=count), 121))[0]
    return tm._Bordered(*models.build_beta(data, model_of(data)))


def fresh_recursion(matrix, leaf):
    """The block recursion with a fresh array for every product and level,
    as it was first written: the reference for the bytes of the in-place
    one."""
    size = matrix.shape[0]
    if size <= leaf:
        return np.linalg.inv(matrix)
    h = size // 2
    a_inv = fresh_recursion(matrix[:h, :h], leaf)
    a_inv_b = a_inv @ matrix[:h, h:]
    c_a_inv = matrix[h:, :h] @ a_inv
    s_inv = fresh_recursion(matrix[h:, h:] - matrix[h:, :h] @ a_inv_b, leaf)
    upper = -(a_inv_b @ s_inv)
    return np.block([[a_inv - upper @ c_a_inv, upper], [-(s_inv @ c_a_inv), s_inv]])


class TestBlockInverse:
    """``_block_inverse``'s inverse against LAPACK's inverse and the exact one."""

    @pytest.mark.parametrize("count", [150, 300])
    @pytest.mark.parametrize("block_leaf", [None, 256])
    def test_in_place_recursion_has_the_bytes_of_fresh_products(self, monkeypatch, count,
                                                                 block_leaf):
        # the products, differences and leaves are the same arithmetic on
        # the same operands, only written into views of X and the scratch;
        # 256 gives the recursion leaves of at most 128, the block path's
        # first leaf
        matrix = spiral_record(count, models.gaussian_init_iid).matrix
        if block_leaf is not None:
            monkeypatch.setattr(tm, "_BLOCK_LEAF", block_leaf)
        want = fresh_recursion(matrix, tm._recursion_leaf())
        assert same_bits(tm._block_recursion(matrix)[0], want)
        if block_leaf is None:
            assert same_bits(tm._block_inverse(matrix)[0], want)

    def test_peak_is_the_inverse_and_its_scratch(self, bordered_counts):
        # X and a scratch of about n^2 / 2 floats in one allocation, plus
        # LAPACK's leaf inverses: no temporary per level and no n x n |M|
        matrix = spiral_record(300, models.gaussian_init_iid).matrix
        tm._block_inverse(matrix)  # warm every code path
        tracemalloc.start()
        try:
            tm._block_inverse(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bordered_counts["inv", 301] == 0  # certified, no fallback
        assert peak <= 2.2 * matrix.size * 8

    @settings(max_examples=150, deadline=None)
    @given(case=block_cases())
    def test_falls_back_or_is_certified_and_close(self, case):
        beta, roots, leaf = case
        try:
            matrix = tm._Bordered(beta, roots).matrix
        except ZeroPartitionError:
            return
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tm, "_BLOCK_LEAF", leaf)
            try:
                want = np.linalg.inv(matrix)
            except np.linalg.LinAlgError:
                try:
                    got = tm._block_inverse(matrix)[0]
                except np.linalg.LinAlgError:
                    return
                assert certified(matrix, got)
                return
            got = tm._block_inverse(matrix)[0]
        if same_bits(got, want):
            return  # the fallback, or the block path to the last bit
        assert certified(matrix, got)
        lapack_diagonal = np.abs(np.einsum("ij,ji->i", matrix, want) - 1.0).max()
        if lapack_diagonal <= 1e-12:
            # two inverses that each solve with a backward error of a few eps
            # may differ by the condition number times eps: in 6000 examples
            # they differed by more than 1e-10 only at conditions of 1e7 to
            # 1e13 (rows spanning 1e3 nats), by 2e-10 to 1e-5
            bound = max(1e-10, matrix.shape[0] * np.linalg.cond(matrix) * np.finfo(float).eps)
            assert np.abs(got - want).max() / np.abs(want).max() <= bound

    def test_singular_leading_block_falls_back(self):
        # [[0, I], [I, 0]]: the leading half is zero, so its leaf raises
        size = tm._BLOCK_LEAF + 2
        half = size // 2
        matrix = np.zeros((size, size))
        matrix[:half, half:] = matrix[half:, :half] = np.eye(half)
        assert same_bits(tm._block_inverse(matrix)[0], np.linalg.inv(matrix))
        with pytest.raises(np.linalg.LinAlgError):
            tm._block_inverse(np.zeros((size, size)))

    def test_huge_wrong_inverse_falls_back(self, monkeypatch):
        # leaf 1, a condition of 1.5e17: the block inverse's largest entry
        # is 1e31 where LAPACK's is 5.5e23, yet its diagonal misses 1 by
        # 1e-16 and the probe's normwise backward error, divided by
        # max |y|, is 9e-22. The probe's absolute residual, 2.8e10, sends
        # it to LAPACK's bytes
        beta, roots = block_case(14, 1559, True, True, True, True, True, False)
        matrix = tm._Bordered(beta, roots).matrix
        monkeypatch.setattr(tm, "_BLOCK_LEAF", 1)
        with np.errstate(all="ignore"):
            blocked = tm._block_recursion(matrix)[0]
        assert np.abs(blocked).max() > 1e6 * np.abs(np.linalg.inv(matrix)).max()
        assert tm._certified_recursion(matrix) is None
        assert same_bits(tm._block_inverse(matrix)[0], np.linalg.inv(matrix))

    @settings(max_examples=150, deadline=None)
    @given(case=block_cases())
    def test_certified_log_det_is_lus(self, case):
        # the sum of the leaves' log-determinants against LU's, on the
        # recursions that pass the certificate: within the perturbation
        # bound n cond eps that a backward-stable ln det may move by (in
        # 6000 examples the largest error was 5 % of it, 2.3e-10 at a
        # condition of 1.3e7)
        beta, roots, leaf = case
        try:
            record = tm._Bordered(beta, roots)
            want = tm._augmented_logdet(record.matrix)
        except (ZeroPartitionError, NumericalFaultError):
            return
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tm, "_BLOCK_LEAF", leaf)
            certified_result = tm._certified_recursion(record.matrix)
        if certified_result is None or not np.isfinite(certified_result[2]):
            return
        size = record.matrix.shape[0]
        bound = max(1e-10, size * np.linalg.cond(record.matrix) * np.finfo(float).eps)
        assert abs(certified_result[2] - want) <= bound

    def test_uncertified_result_is_lapacks_bytes(self, monkeypatch, bordered_counts):
        # F1: the nearest-neighbour seed of 150 standardized spiral rows,
        # where the bordered matrix is near-singular and both inverses are
        # garbage; the block path's diagonal misses 1 by about 3
        record = spiral_record(150, cli.nn_regression_seed)
        with np.errstate(all="ignore"):
            assert not certified(record.matrix, tm._block_recursion(record.matrix)[0])
        with monkeypatch.context() as patch:
            patch.setattr(tm, "_BLOCK_LEAF", 151)
            want = tm._Bordered(record.beta, record.roots)
            want_inverse, want_weights = want.inverse, outcome(want.posterior_weights)
        bordered_counts.clear()
        assert same_bits(record.inverse, want_inverse)
        assert same_outcome(outcome(record.posterior_weights), want_weights)
        # one LAPACK inverse, the fallback's; the weights read the kept one
        assert bordered_counts["inv", 151] == 1

    def test_inaccurate_weights_raise_and_drop_the_inverse(self):
        # F1 again: LAPACK's inverse misses diag(M X) = 1 by more than 1,
        # so no W is read off it, and the record keeps no inverse after
        record = spiral_record(150, cli.nn_regression_seed)
        with pytest.raises(NumericalFaultError):
            record.posterior_weights()
        assert "_inverted" not in vars(record)
        for read in (tm.posterior_weights, tm.edge_marginals):
            with pytest.raises(NumericalFaultError):
                read(record.beta, record.roots)

    def test_weights_as_accurate_as_lapacks(self, monkeypatch, bordered_counts):
        # W and rho from the block path (leaf 8, so LAPACK leaves of at most
        # 4 at T = 40) and from LAPACK's inverse, each against those from an mpmath
        # inverse of the same float64 matrix, on a fitted spiral model
        # (condition 1.4e3) and on semi-supervised joint weights (5.8e5)
        def fitted(data):
            return likelihood.fit_ml(data, models.gaussian_init_iid(data), max_iters=20,
                                     grad_tol=1e-12).model

        def weights(record, inverse):
            core = inverse[1:, 1:]
            w = record.beta.scaled * (np.diag(core)[:, None] - core.T)
            np.fill_diagonal(w, 0.0)
            border = inverse[1:, 0] - inverse[0, 1:]
            p = record.normalized
            return w, p * (1.0 + border - p @ border)

        rng = np.random.default_rng(50)
        model = models.GaussianModel(mu_c=np.zeros(2), mu_pi=np.zeros(2),
                                     sigma_c_given_pi=0.9 * np.eye(2),
                                     sigma_cc=0.35 ** 2 * np.eye(2), sigma_pipi=np.eye(2))
        X = rng.normal(size=(40, 2))
        joint = tm._Bordered(*semisup.build_joint_beta(
            X, rng.integers(3, size=40), model, semisup.LabelModel(alpha=0.9, n_classes=3)))
        ctx = mpmath.MPContext()
        ctx.dps = 30
        for record in (spiral_record(40, fitted), joint):
            exact = weights(record, np.array(
                ctx.inverse(ctx.matrix(record.matrix.tolist())).tolist(), dtype=float))
            lapack = weights(record, np.linalg.inv(record.matrix))
            with monkeypatch.context() as patch:
                patch.setattr(tm, "_BLOCK_LEAF", 8)
                bordered_counts.clear()
                blocked = record.posterior_weights()
                assert bordered_counts["inv", 41] == 0
            for got, lap, want in zip(blocked, lapack, exact):
                assert np.abs(got - want).max() <= max(1e-13, 10 * np.abs(lap - want).max())


def fitted_gaussian(data):
    return likelihood.fit_ml(data, models.gaussian_init_iid(data), max_iters=20,
                             grad_tol=1e-12).model


class TestFactor:
    """``_Bordered.factor``: above ``_BLOCK_LEAF`` one certified block
    recursion gives the value of ln Z it returns and the inverse; where it
    fails, LAPACK's bytes. The record's ``logdet`` stays slogdet's."""

    @pytest.mark.parametrize("count", [150, 300])
    @pytest.mark.parametrize("model_of", [models.gaussian_init_iid, fitted_gaussian])
    def test_log_z_off_the_recursion_is_lus(self, bordered_counts, count, model_of):
        record = spiral_record(count, model_of)
        want = tm._augmented_logdet(record.matrix)
        bordered_counts.clear()
        log_z = record.factor()
        inverse, residual, _ = record._inverted
        record.posterior_weights()
        assert bordered_counts["recursion", count + 1] == 1
        assert bordered_counts["slogdet", count + 1] == bordered_counts["inv", count + 1] == 0
        assert abs(log_z - record.offset - want) <= 1e-10
        # the record's own ln Z stays slogdet's
        assert "logdet" not in vars(record)
        assert record.logdet == want
        assert same_bits(inverse, tm._block_recursion(record.matrix)[0])
        assert residual == tm._diagonal_residual(record.matrix, inverse)
        assert residual <= 1e-9

    def test_uncertified_factor_keeps_lapacks_bytes(self, bordered_counts):
        # F1: at the nearest-neighbour seed of 150 spiral rows the
        # certificate fails; the inverse is LAPACK's, its residual read off
        # it, and ln det is ``_augmented_logdet``'s, taken on first read
        record = spiral_record(150, cli.nn_regression_seed)
        fresh = tm._Bordered(record.beta, record.roots)
        bordered_counts.clear()
        log_z = record.factor()
        assert bordered_counts["recursion", 151] == bordered_counts["inv", 151] == 1
        assert bordered_counts["slogdet", 151] == 1
        want = np.linalg.inv(record.matrix)
        assert same_bits(record.inverse, want)
        assert record._inverted[1] == tm._diagonal_residual(record.matrix, want) > 1.0
        assert same_bits(log_z, fresh.log_z) and same_bits(record.logdet, fresh.logdet)

    @pytest.mark.parametrize("count", [20, tm._BLOCK_LEAF - 1])
    def test_does_nothing_at_or_below_the_leaf(self, bordered_counts, count):
        record = spiral_record(count, models.gaussian_init_iid)
        bordered_counts.clear()
        log_z = record.factor()
        # ln Z is slogdet's, and nothing is inverted
        assert "_inverted" not in vars(record)
        assert bordered_counts == {("slogdet", count + 1): 1}
        assert log_z == record.log_z
        # the residual is read off LAPACK's inverse, which is kept for the
        # weights
        want = np.linalg.inv(record.matrix)
        assert record._inverted[1] == tm._diagonal_residual(record.matrix, want)
        assert same_bits(record.inverse, want)
        record.posterior_weights()
        assert bordered_counts["inv", count + 1] == 2  # the residual's and the test's
