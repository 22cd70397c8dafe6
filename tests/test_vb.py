"""Variational Bayes: expected weights, updates, ELBO bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma, gammaln, logsumexp

from outtree import models, treemath, vb
from outtree.errors import DataError, NumericalFaultError


def random_prior(rng, dims=1, k=2, low=0.5, high=3.0):
    return vb.DirichletPrior(
        root=tuple(rng.uniform(low, high, k) for _ in range(dims)),
        cond=tuple(rng.uniform(low, high, (k, k)) for _ in range(dims)))


def random_data(rng, rows, dims=1, k=2):
    return rng.integers(0, k, size=(rows, dims))


# the special functions' error bound, relative above 1 and absolute below
SPECIAL_TOL = 4e-15


def special_error(got, want):
    return np.abs(got - want) / np.maximum(1.0, np.abs(want))


# rows that no 3 x 3 alphabet holds; a check that casts them first warns
# and truncates
NON_TABULAR_ROWS = {
    "non-integer": [[0.7, 1.2], [2.9, 0.0], [1.0, 2.0]],
    "NaN": [[0.0, 1.0], [np.nan, 2.0], [1.0, 1.0]],
    "1e30": [[0.0, 1.0], [1e30, 2.0], [1.0, 1.0]],
}


class TestRowCheck:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", NON_TABULAR_ROWS)
    def test_every_entry_point_rejects_rows_outside_the_alphabet(self, name):
        data = np.array(NON_TABULAR_ROWS[name])
        prior = vb.DirichletPrior.uniform([3, 3])
        q_root, w = np.full(3, 1.0 / 3.0), np.full((3, 3), 1.0 / 3.0)
        beta = vb.expected_log_weights(np.array([[0, 1], [2, 2], [1, 1]]), prior.cond)
        calls = [lambda: vb.vb_fit(data, prior),
                 lambda: vb.update_q_c(data, prior, q_root, w),
                 lambda: vb.root_log_evidence(data, prior),
                 lambda: vb.elbo(data, prior, prior.cond, q_root, beta),
                 lambda: vb.exact_log_evidence(data, prior),
                 lambda: vb.expected_log_weights(data, prior.cond)]
        for call in calls:
            with pytest.raises(DataError):
                call()


class TestSpecialFunctions:
    GRID = np.geomspace(1e-3, 1e8, 20001)
    DIGAMMA_ROOT = 1.4616321449683623

    @pytest.mark.parametrize("ours, reference", [(vb._digamma, digamma),
                                                 (vb._gammaln, gammaln)])
    def test_log_grid(self, ours, reference):
        assert special_error(ours(self.GRID), reference(self.GRID)).max() <= SPECIAL_TOL

    def test_digamma_near_its_root(self):
        x = self.DIGAMMA_ROOT + np.linspace(-1e-3, 1e-3, 2001)
        assert special_error(vb._digamma(x), digamma(x)).max() <= SPECIAL_TOL

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(1e-3, 1e8), min_size=1, max_size=12))
    def test_matches_scipy(self, values):
        x = np.array(values)
        assert special_error(vb._digamma(x), digamma(x)).max() <= SPECIAL_TOL
        assert special_error(vb._gammaln(x), gammaln(x)).max() <= SPECIAL_TOL


class TestExpectedLogWeights:
    def test_symmetric_counts_give_equal_entries(self):
        data = np.array([[0], [1], [0], [1]])
        counts = [np.full((2, 2), 3.0)]
        beta = vb.expected_log_weights(data, counts)
        off = ~np.eye(4, dtype=bool)
        want = digamma(3.0) - digamma(6.0)
        assert np.allclose(beta.log_entries[off], want, atol=1e-12)

    def test_concentration_limit_matches_plugin(self):
        rng = np.random.default_rng(0)
        table = rng.uniform(0.2, 1.0, (3, 3))
        table /= table.sum(axis=0)
        data = rng.integers(0, 3, size=(5, 1))
        scale = 1e7
        beta = vb.expected_log_weights(data, [scale * table])
        off = ~np.eye(5, dtype=bool)
        plugin = np.log(table)[np.ix_(data[:, 0], data[:, 0])]
        assert np.abs(beta.log_entries[off] - plugin[off]).max() < 1e-6

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(1)
        counts = rng.uniform(0.5, 4.0, (3, 3))
        n = 1_000_000
        for b in range(3):
            draws = rng.dirichlet(counts[:, b], size=n)
            mc = np.log(draws).mean(axis=0)
            se = np.log(draws).std(axis=0, ddof=1) / np.sqrt(n)
            analytic = digamma(counts[:, b]) - digamma(counts[:, b].sum())
            assert np.all(np.abs(analytic - mc) < 3 * se + 1e-4)

    def test_rejects_nonpositive_counts(self):
        data = np.array([[0], [1]])
        with pytest.raises(ValueError):
            vb.expected_log_weights(data, [np.array([[1.0, 0.0], [1.0, 1.0]])])


class TestQRootUpdate:
    def test_symmetric_state_gives_uniform(self):
        data = np.array([[0], [1], [0], [1]])
        prior = vb.DirichletPrior.uniform([2], 2.0)
        beta = vb.expected_log_weights(data, [np.full((2, 2), 2.0)])
        # constant root evidence (symmetric prior, any data values)
        q = vb.update_q_root(beta, np.zeros(4))
        assert np.allclose(q, 0.25, atol=1e-12)

    def test_two_node_closed_form(self):
        rng = np.random.default_rng(2)
        data = np.array([[0], [1]])
        prior = random_prior(rng)
        counts = [rng.uniform(0.5, 3.0, (2, 2))]
        beta = vb.expected_log_weights(data, counts)
        log_m = vb.root_log_evidence(data, prior)
        q = vb.update_q_root(beta, log_m)
        # 1x1 cofactors: Z_r is just the single other node's weight
        want = np.array([np.exp(log_m[0]) * beta.entries[1, 0],
                         np.exp(log_m[1]) * beta.entries[0, 1]])
        assert np.allclose(q, want / want.sum(), atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_routes_agree_on_random_states(self, seed):
        rng = np.random.default_rng(10 + seed)
        data = random_data(rng, 4, dims=2, k=3)
        counts = [rng.uniform(0.3, 5.0, (3, 3)) for _ in range(2)]
        beta = vb.expected_log_weights(data, counts)
        log_m = rng.normal(size=4)
        # raises internally if the two routes differ beyond 1e-9
        q = vb.update_q_root(beta, log_m, *vb._per_root_quantities(beta))
        assert abs(q.sum() - 1.0) < 1e-10


class TestQcUpdate:
    def test_zero_marginals_return_prior(self):
        rng = np.random.default_rng(3)
        data = random_data(rng, 4)
        prior = random_prior(rng)
        counts_root, counts_cond = vb.update_q_c(data, prior, np.full(4, 0.25),
                                                 np.zeros((4, 4)))
        assert np.allclose(counts_cond[0], prior.cond[0])
        assert np.allclose(counts_root[0], prior.root[0] + 0.25 * np.array(
            [np.sum(data[:, 0] == 0), np.sum(data[:, 0] == 1)]))

    def test_point_mass_adds_exact_statistics(self):
        data = np.array([[0], [1], [1]])
        prior = vb.DirichletPrior.uniform([2], 1.0)
        tree = treemath.OutTree(root=0, parent=np.array([-1, 0, 1]))
        w = np.zeros((3, 3))
        for child, parent in tree.edges():
            w[child, parent] = 1.0
        q_root = np.array([1.0, 0.0, 0.0])
        counts_root, counts_cond = vb.update_q_c(data, prior, q_root, w)
        want = prior.cond[0].copy()
        want[1, 0] += 1.0  # edge 0 -> 1: child value 1, parent value 0
        want[1, 1] += 1.0  # edge 1 -> 2: child value 1, parent value 1
        assert np.allclose(counts_cond[0], want)
        assert np.allclose(counts_root[0], prior.root[0] + [1.0, 0.0])

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(4)
        data = random_data(rng, 4, k=2)
        prior = random_prior(rng)
        counts = [rng.uniform(0.4, 3.0, (2, 2))]
        beta = vb.expected_log_weights(data, counts)
        log_z, per_root = vb._per_root_quantities(beta)
        q_root = vb.update_q_root(beta, np.zeros(4), log_z, per_root)
        w = np.einsum("r,ruv->uv", q_root, per_root)
        _, counts_cond = vb.update_q_c(data, prior, q_root, w)
        # brute force: posterior over (root, tree) from the same weights
        want = prior.cond[0].copy()
        log_post, stats = [], []
        for tree in treemath.enumerate_out_trees(4):
            children = [t for t in range(4) if t != tree.root]
            lw = beta.log_entries[children, tree.parent[children]].sum()
            log_post.append(lw)
            n = np.zeros((2, 2))
            for child, parent in tree.edges():
                n[data[child, 0], data[parent, 0]] += 1.0
            stats.append(n)
        log_post = np.array(log_post) - logsumexp(log_post)
        want += sum(np.exp(lp) * n for lp, n in zip(log_post, stats))
        assert np.allclose(counts_cond[0], want, atol=1e-9)


class TestElbo:
    def test_prior_state_has_zero_kl(self):
        rng = np.random.default_rng(5)
        data = random_data(rng, 4)
        prior = random_prior(rng)
        beta = vb.expected_log_weights(data, prior.cond)
        value = vb.elbo(data, prior, [c.copy() for c in prior.cond],
                        np.full(4, 0.25), beta)
        kl = sum(vb.dirichlet_kl(prior.cond[0][:, b], prior.cond[0][:, b])
                 for b in range(2))
        assert kl == 0.0
        assert np.isfinite(value)

    @pytest.mark.parametrize("rows", [2, 3, 4])
    def test_elbo_below_exact_evidence(self, rows):
        for seed in range(5):
            rng = np.random.default_rng(100 * rows + seed)
            data = random_data(rng, rows)
            prior = random_prior(rng)
            state = vb.vb_fit(data, prior, max_rounds=100)
            exact = vb.exact_log_evidence(data, prior)
            assert state.elbo <= exact + 1e-9
            for value in state.elbo_trace:
                assert value <= exact + 1e-9

    @pytest.mark.parametrize("rows", range(2, 7))
    def test_exact_evidence_matches_one_tree_at_a_time(self, rows):
        # the oracle as it tallied one validated OutTree at a time
        rng = np.random.default_rng(110 + rows)
        data = random_data(rng, rows, dims=2, k=3)
        prior = random_prior(rng, dims=2, k=3)
        root_log_m = vb.root_log_evidence(data, prior)
        terms = []
        for tree in treemath.enumerate_out_trees(rows):
            value = root_log_m[tree.root]
            for d, big_a0 in enumerate(prior.cond):
                counts = np.zeros((3, 3))
                for child, parent in tree.edges():
                    counts[data[child, d], data[parent, d]] += 1.0
                total = big_a0 + counts
                value += float((gammaln(big_a0.sum(axis=0)) - gammaln(total.sum(axis=0))).sum()
                               + (gammaln(total) - gammaln(big_a0)).sum())
            terms.append(value)
        want = logsumexp(terms) - (rows - 1) * np.log(rows)
        assert abs(vb.exact_log_evidence(data, prior) - want) <= 1e-12 * abs(want)

    def test_dirichlet_kl_against_monte_carlo(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(0.5, 4.0, 3)
        b = rng.uniform(0.5, 4.0, 3)
        draws = rng.dirichlet(a, size=400_000)
        from scipy.stats import dirichlet as scipy_dirichlet
        mc = np.mean(scipy_dirichlet.logpdf(draws.T, a)
                     - scipy_dirichlet.logpdf(draws.T, b))
        assert abs(vb.dirichlet_kl(a, b) - mc) < 5e-3


class TestVbFit:
    def test_first_round_improves_on_random_data(self):
        for seed in range(5):
            rng = np.random.default_rng(20 + seed)
            data = random_data(rng, 6, dims=1, k=2)
            prior = random_prior(rng)
            state = vb.vb_fit(data, prior, max_rounds=1)
            assert state.elbo_trace[1] > state.elbo_trace[0]

    def test_trace_monotone_long_run(self):
        for seed in range(10):
            rng = np.random.default_rng(30 + seed)
            data = random_data(rng, 7, dims=2, k=3)
            prior = random_prior(rng, dims=2, k=3)
            state = vb.vb_fit(data, prior, max_rounds=200, tol=0.0)
            trace = np.array(state.elbo_trace)
            assert np.all(np.diff(trace) >= -1e-10)

    def test_roundoff_of_large_counts_does_not_raise(self):
        # 200 000 rows under prior counts of 1000: near convergence the
        # ELBO, about -4.4e5, moves by a few units in the last place either
        # way, and with tol=0 a decrease within roundoff does not stop the fit
        data = np.random.default_rng(0).integers(0, 3, size=(200000, 2))
        prior = vb.DirichletPrior.uniform([3, 3], 1000.0)
        state = vb.vb_fit(data, prior, max_rounds=200, tol=0.0)
        assert len(state.elbo_trace) == 201
        assert np.diff(state.elbo_trace).min() > -1e-8

    def test_a_real_decrease_raises(self, monkeypatch):
        # the same fit with one late round's bound lowered by 1e-6, far
        # above the roundoff there and far below the bound's magnitude
        steps = []
        structure_step = vb._structure_step

        def lowered(*args):
            w, q_root, value = structure_step(*args)
            steps.append(1)
            return w, q_root, value - 1e-6 * (len(steps) == 101)

        monkeypatch.setattr(vb, "_structure_step", lowered)
        data = np.random.default_rng(0).integers(0, 3, size=(200000, 2))
        prior = vb.DirichletPrior.uniform([3, 3], 1000.0)
        with pytest.raises(NumericalFaultError, match="ELBO decreased"):
            vb.vb_fit(data, prior, max_rounds=200, tol=0.0)
        assert len(steps) == 101

    def test_identical_rows_concentrate_self_transitions(self):
        data = np.zeros((6, 1), dtype=np.int64)
        prior = vb.DirichletPrior.uniform([2], 0.5)
        state = vb.vb_fit(data, prior, max_rounds=100)
        table = state.counts_cond[0] / state.counts_cond[0].sum(axis=0)
        assert table[0, 0] > 0.9
        trace = np.array(state.elbo_trace)
        assert np.all(np.diff(trace) >= -1e-10)

    def test_small_instance_close_to_exact_evidence(self):
        # the factorized family's gap shrinks with prior concentration;
        # moderately concentrated pseudo-counts keep it under 0.1 nats
        close = 0
        for seed in range(10):
            rng = np.random.default_rng(40 + seed)
            data = random_data(rng, 3)
            prior = random_prior(rng, low=2.0, high=6.0)
            state = vb.vb_fit(data, prior, max_rounds=200)
            exact = vb.exact_log_evidence(data, prior)
            assert state.elbo <= exact + 1e-9
            close += (exact - state.elbo) < 0.1
        assert close >= 8

    def test_resume_from_checkpoint_state(self):
        # a round's q(r) and W are a pure function of its counts, so a
        # resumed fit repeats the straight run bit for bit
        for seed in range(10):
            rng = np.random.default_rng(50 + seed)
            data = random_data(rng, 6, dims=1 + seed % 2, k=2 + seed % 3)
            prior = random_prior(rng, dims=1 + seed % 2, k=2 + seed % 3)
            two_rounds = vb.vb_fit(data, prior, max_rounds=2, tol=0.0)
            resumed = vb.vb_fit(data, prior, max_rounds=2, tol=0.0,
                                init_state=two_rounds)
            four_rounds = vb.vb_fit(data, prior, max_rounds=4, tol=0.0)
            assert len(resumed.elbo_trace) == 5
            assert resumed.elbo_trace == four_rounds.elbo_trace
            assert resumed.q_root.tobytes() == four_rounds.q_root.tobytes()
            assert resumed.edge_marginals.W.tobytes() \
                == four_rounds.edge_marginals.W.tobytes()
            for got, want in zip(resumed.counts_root + resumed.counts_cond,
                                 four_rounds.counts_root + four_rounds.counts_cond):
                assert got.tobytes() == want.tobytes()

    def test_start_is_the_structure_step_under_the_prior(self):
        # with q_c at the prior the KL term is 0, so trace[0] is
        # ln Z_m(beta_prior) - (T - 1) ln T; the exact q(r) bounds the
        # uniform one from above, and equals it when m and beta are constant
        for seed in range(6):
            rng = np.random.default_rng(80 + seed)
            size = 5 + seed
            data = random_data(rng, size, dims=2, k=3)
            for prior, uniform_prior in ((random_prior(rng, dims=2, k=3), False),
                                         (vb.DirichletPrior.uniform([3, 3], 0.3 + seed),
                                          True)):
                state = vb.vb_fit(data, prior, max_rounds=1)
                beta = vb.expected_log_weights(data, prior.cond)
                roots = treemath.RootWeights(log_values=vb.root_log_evidence(data, prior))
                want = treemath.log_partition(beta, roots).log_z \
                    - (size - 1) * np.log(size)
                assert abs(state.elbo_trace[0] - want) < 1e-12
                uniform = vb.elbo(data, prior, prior.cond, np.full(size, 1.0 / size), beta)
                assert state.elbo_trace[0] >= uniform - 1e-12
                if uniform_prior:
                    assert abs(state.elbo_trace[0] - uniform) < 1e-12

    def test_degenerate_prior_matches_plugin_posteriors(self):
        rng = np.random.default_rng(51)
        data = random_data(rng, 5, k=2)
        table = rng.uniform(0.3, 1.0, (2, 2))
        table /= table.sum(axis=0)
        marginal = rng.uniform(0.3, 1.0, 2)
        marginal /= marginal.sum()
        scale = 1e6
        prior = vb.DirichletPrior(root=(scale * marginal,), cond=(scale * table,))
        state = vb.vb_fit(data, prior, max_rounds=50)
        plugin_beta = np.log(table)[np.ix_(data[:, 0], data[:, 0])]
        np.fill_diagonal(plugin_beta, -np.inf)
        beta = treemath.WeightMatrix(log_entries=plugin_beta)
        roots = treemath.RootWeights(log_values=np.log(marginal)[data[:, 0]])
        assert np.abs(state.q_root - treemath.root_posterior(beta, roots)).max() < 1e-4
        off = ~np.eye(5, dtype=bool)
        beta_tilde = vb.expected_log_weights(data, state.counts_cond)
        assert np.abs(beta_tilde.log_entries[off] - plugin_beta[off]).max() < 1e-4

    def test_state_invariants(self):
        rng = np.random.default_rng(52)
        data = random_data(rng, 6, dims=2, k=2)
        prior = random_prior(rng, dims=2)
        state = vb.vb_fit(data, prior, max_rounds=50)
        assert abs(state.q_root.sum() - 1.0) < 1e-10
        w = state.edge_marginals.W
        assert abs(w.sum() - 5.0) < 1e-8
        assert w.min() >= 0.0 and w.max() <= 1.0 + 1e-12
        for d in range(2):
            assert np.all(state.counts_cond[d] >= prior.cond[d] - 1e-12)
            assert np.all(state.counts_root[d] >= prior.root[d] - 1e-12)


def literal_elbo(data, prior, counts_cond, q_root, beta, stack):
    """Root evidence + expected edge score + H(q) + sum_r q(r) H(q_r)
    - KL(q_c || prior) - (T - 1) ln T, term by term with tree_entropy."""
    size = len(data)
    total = q_root @ vb.root_log_evidence(data, prior)
    for r in range(size):
        mask = stack[r] > 0
        edge_score = np.sum(stack[r][mask] * beta.log_entries[mask])
        total += q_root[r] * (edge_score + treemath.tree_entropy(beta, r))
    held = q_root[q_root > 0]
    total -= held @ np.log(held)
    total -= sum(vb.dirichlet_kl(big_a[:, b], big_a0[:, b])
                 for big_a, big_a0 in zip(counts_cond, prior.cond)
                 for b in range(big_a.shape[1]))
    return total - (size - 1) * np.log(size)


def oracle_fit(data, prior, rounds):
    """vb_fit's rounds on the per-root stack: W as the q(r) mixture of the
    per-root marginals, q(r) through both routes of update_q_root, from
    the start's q(r) under the prior."""
    log_m = vb.root_log_evidence(data, prior)
    counts_root = [a.copy() for a in prior.root]
    counts_cond = [big_a.copy() for big_a in prior.cond]
    beta = vb.expected_log_weights(data, counts_cond)
    log_z, stack = vb._per_root_quantities(beta)
    q_root = vb.update_q_root(beta, log_m, log_z, stack)
    trace = [literal_elbo(data, prior, counts_cond, q_root, beta, stack)]
    for _ in range(rounds):
        w = np.einsum("r,ruv->uv", q_root, stack)
        counts_root, counts_cond = vb.update_q_c(data, prior, q_root, w)
        beta = vb.expected_log_weights(data, counts_cond)
        log_z, stack = vb._per_root_quantities(beta)
        q_root = vb.update_q_root(beta, log_m, log_z, stack)
        trace.append(literal_elbo(data, prior, counts_cond, q_root, beta, stack))
    w = np.einsum("r,ruv->uv", q_root, stack)
    return trace, q_root, w, counts_root, counts_cond


# (rows, dims, alphabet size, pseudo-count scale)
ORACLE_CASES = [(2, 1, 2, 1.0), (5, 1, 2, 1.0), (8, 1, 2, 1.0), (6, 2, 3, 1.0),
                (7, 2, 3, 1e6), (8, 2, 3, 1e6)]


class TestBorderedRounds:
    @pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
    def test_matches_per_root_oracle(self, case):
        rows, dims, k, scale = ORACLE_CASES[case]
        rng = np.random.default_rng(60 + case)
        data = random_data(rng, rows, dims=dims, k=k)
        prior = random_prior(rng, dims=dims, k=k)
        prior = vb.DirichletPrior(root=tuple(scale * a for a in prior.root),
                                  cond=tuple(scale * a for a in prior.cond))
        rounds = 6
        trace, q_root, w, counts_root, counts_cond = oracle_fit(data, prior, rounds)
        state = vb.vb_fit(data, prior, max_rounds=rounds, tol=-np.inf)
        assert len(state.elbo_trace) == rounds + 1
        assert np.abs(np.array(state.elbo_trace) - trace).max() < 1e-9
        assert np.abs(state.q_root - q_root).max() < 1e-10
        assert np.abs(state.edge_marginals.W - w).max() < 1e-10
        for got, want in zip(state.counts_cond + state.counts_root,
                             counts_cond + counts_root):
            assert np.abs(got - want).max() <= 1e-12 * scale * rows
        assert state.q_root.min() >= 0.0 and state.edge_marginals.W.min() >= 0.0
        rows_sum = state.edge_marginals.W.sum(axis=1)
        assert np.abs(rows_sum - (1.0 - state.q_root)).max() < 1e-9

    def test_elbo_is_the_literal_bound(self):
        rng = np.random.default_rng(70)
        data = random_data(rng, 6, dims=2, k=3)
        prior = random_prior(rng, dims=2, k=3)
        counts = [rng.uniform(0.5, 4.0, (3, 3)) for _ in range(2)]
        beta = vb.expected_log_weights(data, counts)
        q_root = rng.dirichlet(np.ones(6))
        _, stack = vb._per_root_quantities(beta)
        want = literal_elbo(data, prior, counts, q_root, beta, stack)
        assert abs(vb.elbo(data, prior, counts, q_root, beta) - want) < 1e-10

    def test_no_per_root_path_inside_the_fit(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("per-root oracle called inside vb_fit")

        calls = []
        per_root_log_z = treemath.log_partition_per_root

        def counted(beta):
            calls.append(beta.size)
            return per_root_log_z(beta)

        monkeypatch.setattr(treemath, "per_root_marginal", forbidden)
        monkeypatch.setattr(treemath, "tree_entropy", forbidden)
        monkeypatch.setattr(vb, "update_q_root", forbidden)
        monkeypatch.setattr(treemath, "log_partition_per_root", counted)
        rng = np.random.default_rng(71)
        data = random_data(rng, 9, dims=2, k=3)
        prior = random_prior(rng, dims=2, k=3)
        state = vb.vb_fit(data, prior, max_rounds=5, tol=0.0)
        resumed = vb.vb_fit(data, prior, max_rounds=2, tol=0.0, init_state=state)
        assert calls == []
        assert len(resumed.elbo_trace) == len(state.elbo_trace) + 2

    def test_one_bordered_matrix_per_structure_step(self, monkeypatch,
                                                    bordered_counts):
        steps = []
        structure_step = vb._structure_step

        def counted(*args):
            steps.append(1)
            return structure_step(*args)

        monkeypatch.setattr(vb, "_structure_step", counted)
        rng = np.random.default_rng(74)
        data = random_data(rng, 9, dims=2, k=3)
        # the record is the type graph's, one node per distinct row
        distinct = len(np.unique(data, axis=0))
        assert distinct < len(data)
        state = vb.vb_fit(data, random_prior(rng, dims=2, k=3), max_rounds=5, tol=0.0)
        assert len(steps) == len(state.elbo_trace) == 6
        assert bordered_counts["set-up"] == len(steps)
        assert bordered_counts["slogdet", distinct + 1] == len(steps)
        assert bordered_counts["inv", distinct + 1] == len(steps)
        assert sum(bordered_counts.values()) == 3 * len(steps)

    def test_negative_marginal_roundoff_raises(self, monkeypatch):
        # the masses the fit clips are the type graph's plus the within-type
        # terms, which could mask a negative entry of the record's alone
        type_posterior = vb._type_posterior

        def tilted(*args):
            log_z, w, rho = type_posterior(*args)
            w = w.copy()
            w[1, 0] = -1e-6
            return log_z, w, rho

        monkeypatch.setattr(vb, "_type_posterior", tilted)
        rng = np.random.default_rng(72)
        data = random_data(rng, 5)
        with pytest.raises(NumericalFaultError):
            vb.vb_fit(data, random_prior(rng), max_rounds=3)

    def test_memory_is_quadratic_in_rows(self):
        import tracemalloc
        rng = np.random.default_rng(73)
        size = 150
        data = random_data(rng, size, dims=2, k=3)
        prior = random_prior(rng, dims=2, k=3)
        tracemalloc.start()
        try:
            vb.vb_fit(data, prior, max_rounds=2, tol=0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * size * size * 8


def ungrouped_fit(data, prior, rounds, init_state=None):
    """vb_fit's rounds with every structure step over the T rows themselves:
    one bordered Laplacian of dimension T + 1 per step, as before rows were
    grouped. Returns the trace, q(r), W, both count lists and the last
    step's expected-log weights."""
    data = np.asarray(data, dtype=np.int64)
    size = len(data)
    if init_state is None:
        counts_root, counts_cond, trace = prior.root, prior.cond, None
    else:
        counts_root, counts_cond = init_state.counts_root, init_state.counts_cond
        trace = list(init_state.elbo_trace)
    roots = treemath.RootWeights(log_values=vb.root_log_evidence(data, prior))

    prior_terms = vb._prior_terms(prior)

    def step(counts_cond):
        tables = vb._expected_log_tables(counts_cond)
        beta = vb.expected_log_weights(data, counts_cond)
        record = treemath._Bordered(beta, roots)
        w, q_root = record.posterior_weights()
        w = treemath._clip_probabilities(w, "VB edge marginals")
        q_root = treemath._clip_probabilities(q_root, "VB root posterior")
        return w, q_root, record.log_z - vb._kl_and_tree_prior(prior_terms, tables, size), beta

    w, q_root, value, beta = step(counts_cond)
    trace = trace or [value]
    for _ in range(rounds):
        counts_root, counts_cond = vb.update_q_c(data, prior, q_root, w)
        w, q_root, value, beta = step(counts_cond)
        trace.append(value)
    return trace, q_root, w, counts_root, counts_cond, beta


def scaled_prior(prior, scale):
    return vb.DirichletPrior(root=tuple(scale * a for a in prior.root),
                             cond=tuple(scale * a for a in prior.cond))


def all_values(dims, k):
    """Every row of ``dims`` values in [0, k), in a fixed order."""
    grids = np.meshgrid(*[np.arange(k)] * dims, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def grouping_case(name):
    """(data, prior) of one named input of the grouped-rows checks."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "one type":
        return np.tile([1, 2], (7, 1)), random_prior(rng, dims=2, k=3)
    if name == "two equal rows":
        return np.array([[1], [1]]), random_prior(rng)
    if name == "one repeated pair":
        rows = rng.permutation(all_values(3, 3))[:6]
        return rows[[0, 1, 2, 3, 2, 4, 5]], random_prior(rng, dims=3, k=3)
    if name == "heavy duplication":
        return random_data(rng, 200, dims=2, k=3), random_prior(rng, dims=2, k=3)
    if name == "pseudo-counts 1e6":
        data = random_data(rng, 40, dims=2, k=3)
        return data, scaled_prior(random_prior(rng, dims=2, k=3), 1e6)
    raise KeyError(name)


GROUPING_CASES = ["one type", "two equal rows", "one repeated pair", "heavy duplication",
                  "pseudo-counts 1e6"]


def assert_matches_ungrouped(state, want):
    trace, q_root, w, counts_root, counts_cond, _ = want
    scale = np.maximum(1.0, np.abs(trace))
    assert np.all(np.abs(np.array(state.elbo_trace) - trace) <= 1e-10 * scale)
    assert np.abs(state.q_root - q_root).max() <= 1e-10
    assert np.abs(state.edge_marginals.W - w).max() <= 1e-10
    for got, expected in zip(state.counts_cond + state.counts_root, counts_cond + counts_root):
        assert np.abs(got - expected).max() <= 1e-10
    rows_sum = state.edge_marginals.W.sum(axis=1)
    assert np.abs(rows_sum - (1.0 - state.q_root)).max() <= 1e-9


class TestGroupedRows:
    """Every round runs over the distinct rows; the ungrouped rounds are the
    oracle."""

    def test_distinct_rows_give_the_ungrouped_bytes(self):
        rng = np.random.default_rng(90)
        data = rng.permutation(all_values(3, 3))[:25]
        prior = random_prior(rng, dims=3, k=3)
        state = vb.vb_fit(data, prior, max_rounds=5, tol=-np.inf)
        trace, q_root, w, counts_root, counts_cond, beta = ungrouped_fit(data, prior, 5)
        assert state.elbo_trace == trace
        assert state.q_root.tobytes() == q_root.tobytes()
        assert state.edge_marginals.W.tobytes() == w.tobytes()
        for got, want in zip(state.counts_cond + state.counts_root, counts_cond + counts_root):
            assert got.tobytes() == want.tobytes()
        beta_tilde = vb.expected_log_weights(data, state.counts_cond)
        assert beta_tilde.log_entries.tobytes() == beta.log_entries.tobytes()

    @pytest.mark.parametrize("name", GROUPING_CASES)
    def test_matches_the_ungrouped_fit(self, name):
        data, prior = grouping_case(name)
        state = vb.vb_fit(data, prior, max_rounds=6, tol=-np.inf)
        assert len(state.elbo_trace) == 7
        want = ungrouped_fit(data, prior, 6)
        assert_matches_ungrouped(state, want)
        off = ~np.eye(len(data), dtype=bool)
        beta_tilde = vb.expected_log_weights(data, state.counts_cond)
        assert np.abs(beta_tilde.log_entries[off] - want[5].log_entries[off]).max() <= 1e-10

    def test_a_resumed_fit_matches_the_ungrouped_fit(self):
        data, prior = grouping_case("heavy duplication")
        start = vb.vb_fit(data, prior, max_rounds=2, tol=-np.inf)
        resumed = vb.vb_fit(data, prior, max_rounds=3, tol=-np.inf, init_state=start)
        assert len(resumed.elbo_trace) == 6
        assert_matches_ungrouped(resumed, ungrouped_fit(data, prior, 3, init_state=start))

    def test_one_type_is_the_closed_form(self):
        # T equal rows: T^(T-2) trees per root, each of T - 1 edges of weight
        # beta_aa, so Z = T m (T^(T-2) beta_aa^(T-1)) = m (T beta_aa)^(T-1)
        data, prior = grouping_case("one type")
        size = len(data)
        state = vb.vb_fit(data, prior, max_rounds=0)
        beta = vb.expected_log_weights(data, prior.cond)
        log_m = vb.root_log_evidence(data, prior)[0]
        want = log_m + (size - 1) * (np.log(size) + beta.log_entries[1, 0]) \
            - (size - 1) * np.log(size)
        assert state.elbo_trace[0] == pytest.approx(want, rel=1e-13)
        assert np.all(state.q_root == 1.0 / size)
        assert np.allclose(state.edge_marginals.W[~np.eye(size, dtype=bool)],
                           1.0 / size, rtol=1e-13)

    def test_fills_no_weights_of_more_rows_than_types(self, monkeypatch):
        # one checked fill of the type graph's weights per structure step,
        # and none of the 2000 rows
        sizes = []
        checked_rows = models._checked_rows

        def counted(fill, size, row_scales):
            sizes.append(size)
            return checked_rows(fill, size, row_scales)

        monkeypatch.setattr(models, "_checked_rows", counted)
        monkeypatch.setattr(vb, "_checked_rows", counted)
        rng = np.random.default_rng(76)
        data = random_data(rng, 2000, dims=2, k=3)
        state = vb.vb_fit(data, random_prior(rng, dims=2, k=3), max_rounds=5, tol=0.0)
        assert len(sizes) == len(state.elbo_trace) == 6
        assert max(sizes) <= len(np.unique(data, axis=0))

    def test_holds_nothing_of_rows_squared_until_w_is_read(self):
        # 200 000 rows over a 3 x 3 alphabet, whose W would take 320 GB:
        # the fit keeps the type-level masses, and q(r) of every row
        import tracemalloc
        rng = np.random.default_rng(77)
        size = 200_000
        data = random_data(rng, size, dims=2, k=3)
        prior = random_prior(rng, dims=2, k=3)
        tracemalloc.start()
        try:
            state = vb.vb_fit(data, prior, max_rounds=5, tol=0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(state.elbo_trace) == 6 and state.q_root.shape == (size,)
        assert peak < 64 * 2**20

    def test_group_rows_keeps_the_order_of_first_occurrence(self):
        data = np.array([[2, 0], [1, 1], [2, 0], [0, 2], [1, 1], [2, 0]])
        rows, inverse, counts = vb._group_rows(data)
        assert rows.tolist() == [[2, 0], [1, 1], [0, 2]]
        assert inverse.tolist() == [0, 1, 0, 2, 1, 0]
        assert counts.tolist() == [3.0, 2.0, 1.0]
        assert np.array_equal(rows[inverse], data)

    def test_many_rows_over_few_values_factor_small_matrices(self, monkeypatch,
                                                             bordered_counts):
        # 2000 rows over a 3 x 3 alphabet: at most 9 distinct rows, so every
        # structure step factors a bordered matrix of dimension at most 10
        steps = []
        structure_step = vb._structure_step

        def counted(*args):
            steps.append(1)
            return structure_step(*args)

        monkeypatch.setattr(vb, "_structure_step", counted)
        rng = np.random.default_rng(75)
        size = 2000
        data = random_data(rng, size, dims=2, k=3)
        prior = random_prior(rng, dims=2, k=3)
        state = vb.vb_fit(data, prior, max_rounds=5, tol=0.0)
        assert len(steps) == len(state.elbo_trace) == 6
        assert bordered_counts["set-up"] == len(steps)
        factored = [key[1] for key in bordered_counts if key[0] in ("slogdet", "inv")]
        assert factored and max(factored) <= 10
        w = state.edge_marginals.W
        assert w.shape == (size, size) and state.edge_marginals.W is w
        assert np.abs(w.sum(axis=1) - (1.0 - state.q_root)).max() <= 1e-9
        for d in range(2):
            gained = state.counts_cond[d].sum() - prior.cond[d].sum()
            rooted = state.counts_root[d].sum() - prior.root[d].sum()
            assert abs(gained - (size - 1)) <= 1e-9 * size
            assert abs(rooted - 1.0) <= 1e-9
