"""Joint input/label weights and greedy label inference."""

import numpy as np
import pytest

from outtree import cli, likelihood, models, sampler, semisup, treemath
from outtree.errors import DataError


def gaussian_model(rng, d=2, drift=0.9, noise=0.35):
    return models.GaussianModel(mu_c=np.zeros(d), mu_pi=np.zeros(d),
                                sigma_c_given_pi=drift * np.eye(d),
                                sigma_cc=noise ** 2 * np.eye(d),
                                sigma_pipi=np.eye(d))


def rotation_model(scale=1.02, angle=0.25, noise=0.3):
    # slightly expanding rotation: trees spread through space, so attribute
    # proximity carries real information about tree adjacency
    rot = np.array([[np.cos(angle), -np.sin(angle), 0],
                    [np.sin(angle), np.cos(angle), 0],
                    [0, 0, 1.0]])
    return models.GaussianModel(mu_c=np.zeros(3), mu_pi=np.zeros(3),
                                sigma_c_given_pi=scale * rot,
                                sigma_cc=noise ** 2 * np.eye(3),
                                sigma_pipi=np.eye(3))


def mutate_labels(tree, alpha, n_classes, rng):
    labels = np.empty(tree.size, dtype=np.int64)
    for node in tree.topological_order():
        if node == tree.root:
            labels[node] = rng.integers(n_classes)
        elif rng.random() < alpha:
            labels[node] = labels[tree.parent[node]]
        else:
            others = [k for k in range(n_classes) if k != labels[tree.parent[node]]]
            labels[node] = others[rng.integers(len(others))]
    return labels


def synthetic_problem(seed, size=40, observed_frac=0.4, alpha=0.9, n_classes=2,
                      min_minority=0.35):
    # draws whose true labeling is nearly constant make the majority
    # baseline a ceiling; resample those so the task measures inference
    rng = np.random.default_rng(seed)
    model = rotation_model()
    while True:
        draw = sampler.sample_dataset(model, size, int(rng.integers(1 << 30)))
        labels = mutate_labels(draw.tree, alpha, n_classes, rng)
        if np.bincount(labels, minlength=n_classes).min() >= min_minority * size:
            break
    y = labels.copy()
    hidden = rng.permutation(size)[int(observed_frac * size):]
    y[hidden] = semisup.MISSING
    return draw.data, y, labels, model


class TestJointBeta:
    def test_matches_factor_product(self):
        rng = np.random.default_rng(0)
        model = gaussian_model(rng)
        X = rng.normal(size=(4, 2))
        y = np.array([0, 1, 1, 0])
        lm = semisup.LabelModel(alpha=0.8, n_classes=2)
        beta, roots = semisup.build_joint_beta(X, y, model, lm)
        for u in range(4):
            for v in range(4):
                if u == v:
                    continue
                want = model.log_conditional(X[u], X[v]) \
                    + (np.log(0.8) if y[u] == y[v] else np.log(0.2))
                assert abs(beta.log_entries[u, v] - want) < 1e-12
            assert abs(roots.log_values[u] - model.log_marginal(X[u]) + np.log(2)) < 1e-12

    def test_uninformative_alpha_matches_unsupervised_posteriors(self):
        rng = np.random.default_rng(1)
        model = gaussian_model(rng)
        X = rng.normal(size=(5, 2))
        y = np.array([0, 1, 0, 1, 1])
        lm = semisup.LabelModel(alpha=0.5, n_classes=2)  # alpha = 1/K
        joint_beta, joint_roots = semisup.build_joint_beta(X, y, model, lm)
        plain_beta, plain_roots = models.build_beta(X, model)
        assert np.allclose(treemath.root_posterior(joint_beta, joint_roots),
                           treemath.root_posterior(plain_beta, plain_roots), atol=1e-9)
        assert np.allclose(treemath.edge_marginals(joint_beta, joint_roots).W,
                           treemath.edge_marginals(plain_beta, plain_roots).W,
                           atol=1e-9)

    def test_stickiness_ratio(self):
        lm = semisup.LabelModel(alpha=0.9, n_classes=2)
        assert np.isclose(np.exp(lm.log_same - lm.log_diff), 9.0)

    def test_session_start_reads_the_conditionals_once(self, monkeypatch):
        X, _, truth, model = synthetic_problem(9, size=12)
        calls = []
        method = type(model).log_conditional_matrix

        def counted(self, data):
            calls.append(1)
            return method(self, data)

        monkeypatch.setattr(type(model), "log_conditional_matrix", counted)
        lm = semisup.LabelModel(alpha=0.8, n_classes=2)
        state = semisup.LabelInference(X, truth, model, lm)
        assert len(calls) == 1
        beta, roots = semisup.build_joint_beta(X, truth, model, lm)
        assert state.session.beta.log_entries.tobytes() == beta.log_entries.tobytes()
        assert state.session._record.roots.log_values.tobytes() \
            == roots.log_values.tobytes()

    def test_rejects_missing_labels(self):
        rng = np.random.default_rng(2)
        model = gaussian_model(rng)
        with pytest.raises(DataError):
            semisup.build_joint_beta(rng.normal(size=(3, 2)),
                                     np.array([0, semisup.MISSING, 1]), model,
                                     semisup.LabelModel(alpha=0.7, n_classes=2))


def per_edit_screen(state, node, new_label):
    """First-order gain summed edit by edit over the flip's 2(T-1) edited
    edges (child u, parent v): delta * (inv[u, u] - inv[v, u])."""
    beta, inverse = state.session.beta, state.session.inverse
    scaled = beta.scaled
    row, column = state._flipped_logs(node, new_label)
    edits = [(node, v, row[v]) for v in range(state.size) if v != node] \
        + [(u, node, column[u]) for u in range(state.size) if u != node]
    total = 0.0
    for u, v, new_log in edits:
        delta = np.exp(new_log - beta.row_scales[u]) - scaled[u, v]
        total += delta * (inverse[u + 1, u + 1] - inverse[v + 1, u + 1])
    return total


class TestFlipDelta:
    def make_state(self, seed, size=15, n_classes=3):
        # compact geometry keeps the augmented matrix well conditioned, so
        # the 1e-8 incremental-vs-fresh comparison is meaningful
        rng = np.random.default_rng(seed)
        model = gaussian_model(rng, drift=0.5, noise=1.0)
        X = rng.normal(size=(size, 2)) * 0.8
        labels = rng.integers(0, n_classes, size)
        observed = rng.random(size) < 0.4
        state = semisup.LabelInference(
            X, labels, model, semisup.LabelModel(alpha=0.75, n_classes=n_classes),
            observed=observed)
        return state, rng

    def test_guards(self):
        state, _ = self.make_state(3)
        node = int(np.flatnonzero(state.observed)[0])
        with pytest.raises(ValueError):
            state.flip_delta(node, (state.labels[node] + 1) % 3)
        free = int(np.flatnonzero(~state.observed)[0])
        with pytest.raises(ValueError):
            state.flip_delta(free, int(state.labels[free]))

    def test_flip_then_flip_back_negates(self):
        state, _ = self.make_state(4)
        node = int(np.flatnonzero(~state.observed)[0])
        new = (state.labels[node] + 1) % 3
        forward = state.flip_delta(node, new)
        state.commit(node, new)
        back = state.flip_delta(node, (new - 1) % 3)
        assert abs(forward + back) < 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_full_recomputation(self, seed):
        state, rng = self.make_state(10 + seed)
        hidden = np.flatnonzero(~state.observed)
        for _ in range(8):
            node = int(rng.choice(hidden))
            new = int((state.labels[node] + 1 + rng.integers(2)) % 3)
            before = state.recomputed_log_partition()
            delta = state.flip_delta(node, new)
            state.commit(node, new)
            after = state.recomputed_log_partition()
            assert abs(delta - (after - before)) < 1e-8
            assert abs(state.log_partition - after) < 1e-8

    def test_screen_tracks_exact_for_small_moves(self):
        # first-order screen must rank a clearly good flip above a bad one
        X, y, truth, model = synthetic_problem(5, size=25)
        state = semisup.LabelInference(X, truth, model,
                                       semisup.LabelModel(alpha=0.9, n_classes=2),
                                       observed=np.zeros(25, dtype=bool))
        deltas = []
        for node in range(10):
            new = 1 - state.labels[node]
            screen = state.screen_delta(node, new)
            assert abs(screen - per_edit_screen(state, node, new)) < 1e-12
            deltas.append((screen, state.flip_delta(node, new)))
        screens, exacts = zip(*deltas)
        assert np.corrcoef(screens, exacts)[0, 1] > 0.8

    def test_screen_matches_per_edit_formula_with_three_classes(self):
        state, rng = self.make_state(6)
        for node in np.flatnonzero(~state.observed):
            for new in range(3):
                if new != state.labels[node]:
                    assert abs(state.screen_delta(node, new)
                               - per_edit_screen(state, node, new)) < 1e-12
            # later nodes are screened against the refactored inverse
            state.commit(node, (state.labels[node] + 1) % 3)

    @pytest.mark.parametrize("seed", range(2))
    def test_equals_fresh_factorization_difference(self, seed):
        rng = np.random.default_rng(seed)
        draw = sampler.sample_dataset(cli.semisup_generator(), 90, int(rng.integers(1 << 30)))
        state = semisup.LabelInference(
            draw.data, rng.integers(0, 3, 90), cli.semisup_generator(),
            semisup.LabelModel(alpha=0.9, n_classes=3), observed=np.zeros(90, dtype=bool))
        for node in rng.choice(90, size=12, replace=False):
            new = int((state.labels[node] + 1 + rng.integers(2)) % 3)
            before = state.recomputed_log_partition()
            delta = state.flip_delta(node, new)
            state.commit(node, new)
            after = state.recomputed_log_partition()
            assert delta == after - before
            assert state.log_partition == after

    def test_commit_of_the_previewed_flip_factors_nothing(self, bordered_counts):
        state, _ = self.make_state(7)
        first, second = (int(n) for n in np.flatnonzero(~state.observed)[:2])
        new = int((state.labels[first] + 1) % 3)
        state.flip_delta(first, new)
        bordered_counts.clear()
        state.commit(first, new)
        assert sum(bordered_counts.values()) == 0
        # a commit of another flip than the last one previewed patches and
        # factors
        state.flip_delta(first, (new + 1) % 3)
        bordered_counts.clear()
        state.commit(second, int((state.labels[second] + 1) % 3))
        assert dict(bordered_counts) == {"patch": 1, ("slogdet", 16): 1}

    def test_session_equals_a_fresh_factorization_after_every_commit(self):
        rng = np.random.default_rng(61)
        draw = sampler.sample_dataset(cli.semisup_generator(), 60, int(rng.integers(1 << 30)))
        state = semisup.LabelInference(
            draw.data, rng.integers(0, 3, 60), cli.semisup_generator(),
            semisup.LabelModel(alpha=0.9, n_classes=3), observed=np.zeros(60, dtype=bool))
        commits = 0
        for node in np.concatenate([rng.permutation(60), rng.permutation(60)]):
            node = int(node)
            candidates = [k for k in range(3) if k != state.labels[node]]
            scores = [state.screen_delta(node, k) for k in candidates]
            best = candidates[int(np.argmax(scores))]
            # every other commit follows a preview of another flip
            other = candidates[1 - int(np.argmax(scores))]
            if state.flip_delta(node, best) > 0:
                if commits % 2:
                    state.flip_delta(node, other)
                state.commit(node, best)
                commits += 1
                assert state.log_partition == state.recomputed_log_partition()
        assert commits >= 10


class TestGreedyInference:
    def test_all_observed_returns_input(self):
        rng = np.random.default_rng(20)
        model = gaussian_model(rng)
        X = rng.normal(size=(6, 2))
        y = rng.integers(0, 2, 6)
        result = semisup.greedy_label_inference(
            X, y, model, semisup.LabelModel(alpha=0.8, n_classes=2), rng=0)
        assert np.array_equal(result.labels, y)
        assert result.sweeps == 0

    def test_single_missing_label_matches_exhaustive(self):
        for seed in range(6):
            rng = np.random.default_rng(30 + seed)
            model = gaussian_model(rng)
            X = rng.normal(size=(3, 2))
            y = np.array([0, 1, semisup.MISSING])
            lm = semisup.LabelModel(alpha=0.85, n_classes=2)
            result = semisup.greedy_label_inference(X, y, model, lm, restarts=2, rng=seed)
            best_labels, best_value = semisup.exhaustive_label_search(X, y, model, lm)
            assert np.array_equal(result.labels, best_labels)
            assert abs(result.log_partition - best_value) < 1e-8

    def test_observed_labels_never_change(self):
        X, y, truth, model = synthetic_problem(6)
        lm = semisup.LabelModel(alpha=0.9, n_classes=2)
        result = semisup.greedy_label_inference(X, y, model, lm, restarts=2, rng=1)
        observed = y >= 0
        assert np.array_equal(result.labels[observed], y[observed])
        assert np.all(result.labels >= 0)

    def test_uninformative_alpha_commits_nothing(self):
        X, y, truth, model = synthetic_problem(7)
        lm = semisup.LabelModel(alpha=0.5, n_classes=2)
        result = semisup.greedy_label_inference(X, y, model, lm, restarts=1, rng=2)
        assert result.flips == 0
        assert result.sweeps == 1

    @pytest.mark.parametrize("n_classes, screens", [(2, False), (3, True)])
    def test_inverse_is_computed_only_for_the_screen(self, monkeypatch, n_classes,
                                                     screens):
        # two classes leave one candidate per node, so nothing reads the inverse
        X, y, _, model = synthetic_problem(8, size=16, n_classes=n_classes,
                                           min_minority=0.2)
        inverted, inverse = [], np.linalg.inv

        def counting_inverse(a, *args, **kwargs):
            inverted.append(np.shape(a)[-1])
            return inverse(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "inv", counting_inverse)
        lm = semisup.LabelModel(alpha=0.9, n_classes=n_classes)
        result = semisup.greedy_label_inference(X, y, model, lm, rng=3)
        assert result.sweeps >= 1
        assert (X.shape[0] + 1 in inverted) == screens

    @pytest.mark.parametrize("n_classes, theta_steps", [(2, 0), (3, 0), (2, 2)])
    def test_each_preview_factors_once_and_commits_factor_nothing(
            self, monkeypatch, bordered_counts, n_classes, theta_steps):
        X, y, _, model = synthetic_problem(8, size=16, n_classes=n_classes,
                                           min_minority=0.2)
        previews, trials = [], []
        flip_delta = semisup.LabelInference.flip_delta
        with_params = type(model).with_params

        def counted_flip(self, *args):
            previews.append(1)
            return flip_delta(self, *args)

        def counted_params(self, vector):
            trials.append(1)
            return with_params(self, vector)

        monkeypatch.setattr(semisup.LabelInference, "flip_delta", counted_flip)
        monkeypatch.setattr(type(model), "with_params", counted_params)
        lm = semisup.LabelModel(alpha=0.9, n_classes=n_classes)
        result = semisup.greedy_label_inference(X, y, model, lm, rng=3,
                                                theta_steps_per_sweep=theta_steps)
        assert result.flips > 0 and (len(trials) > 0) == (theta_steps > 0)
        # one session start, one factorization per preview and per line-search
        # trial: commits and the session's restarts after theta steps add none.
        # Each preview patches the session's matrix; the rest are set up
        assert bordered_counts["slogdet", 17] == 1 + len(previews) + len(trials)
        assert bordered_counts["set-up"] == 1 + len(trials)
        assert bordered_counts["patch"] == len(previews)

    def test_a_screened_record_is_inverted_once(self, monkeypatch, bordered_counts):
        # a theta step right after screens reads the inverse they kept; every
        # inverted record is a distinct session record (each commit and each
        # accepted theta step raises ln Z), so no bordered matrix repeats
        X, y, _, model = synthetic_problem(8, size=16, n_classes=3, min_minority=0.2)
        inverted, inverse = [], np.linalg.inv

        def remembered(a, *args, **kwargs):
            if np.shape(a)[-1] == 17:
                inverted.append(a.tobytes())
            return inverse(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "inv", remembered)
        lm = semisup.LabelModel(alpha=0.9, n_classes=3)
        result = semisup.greedy_label_inference(X, y, model, lm, rng=3,
                                                theta_steps_per_sweep=1)
        assert result.sweeps >= 2 and bordered_counts["inv", 17] > 0
        assert len(inverted) == len(set(inverted)) == bordered_counts["inv", 17]

    def test_beats_majority_on_synthetic_trees(self):
        wins = 0
        for seed in range(10):
            X, y, truth, model = synthetic_problem(100 + seed, size=60,
                                                   observed_frac=0.3)
            lm = semisup.LabelModel(alpha=0.9, n_classes=2)
            result = semisup.greedy_label_inference(X, y, model, lm, restarts=5,
                                                    rng=seed, max_sweeps=40)
            hidden = y < 0
            observed_values = y[y >= 0]
            majority = np.bincount(observed_values, minlength=2).argmax()
            acc_tree = (result.labels[hidden] == truth[hidden]).mean()
            acc_majority = (truth[hidden] == majority).mean()
            wins += acc_tree > acc_majority
        assert wins >= 8

    def test_restarts_find_global_optimum_on_small_instances(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(200 + seed)
            model = gaussian_model(rng, drift=0.5, noise=1.0)
            X = rng.normal(size=(9, 2)) * 1.5
            y = rng.integers(0, 2, 9)
            y[rng.permutation(9)[:6]] = semisup.MISSING
            if np.all(y < 0):
                y[0] = 0
            lm = semisup.LabelModel(alpha=0.8, n_classes=2)
            result = semisup.greedy_label_inference(X, y, model, lm, restarts=10,
                                                    rng=seed)
            _, best_value = semisup.exhaustive_label_search(X, y, model, lm)
            hits += abs(result.log_partition - best_value) < 1e-7
        assert hits >= 19

    def test_monotone_log_partition_with_theta_steps(self):
        X, y, truth, model = synthetic_problem(8, size=25)
        lm = semisup.LabelModel(alpha=0.85, n_classes=2)
        plain = semisup.greedy_label_inference(X, y, model, lm, restarts=1, rng=3)
        joint = semisup.greedy_label_inference(X, y, model, lm, restarts=1, rng=3,
                                               theta_steps_per_sweep=2)
        assert joint.log_partition >= plain.log_partition - 1e-8

    def test_one_bordered_matrix_per_theta_step(self, monkeypatch, bordered_counts):
        X, y, _, model = synthetic_problem(8, size=12)
        labels = np.where(y >= 0, y, 0)
        lm = semisup.LabelModel(alpha=0.85, n_classes=2)
        trials = []
        with_params = type(model).with_params

        def counted(self, vector):
            trials.append(1)
            return with_params(self, vector)

        monkeypatch.setattr(type(model), "with_params", counted)
        for steps in (1, 2):
            trials.clear()
            bordered_counts.clear()
            start = treemath._Bordered(*semisup.build_joint_beta(X, labels, model, lm))
            semisup._ascend_theta(X, labels, model, lm, steps, start)
            # the start sets up one record and every line-search trial one
            # more; each step's gradient inverts the record its value was
            # read from
            assert len(trials) >= steps
            assert bordered_counts["set-up"] == 1 + len(trials)
            assert bordered_counts["inv", 13] == steps
            assert bordered_counts["slogdet", 13] == 1 + len(trials)

    def test_theta_steps_climb_the_penalized_objective(self, monkeypatch):
        # a kernel model's alpha penalty enters each theta step's value and
        # gradient, as in fit_ml; the record keeps the unpenalized joint ln Z
        searches, line_search = [], semisup._line_search

        def spied(evaluate, vector, objective, grad, last):
            searches.append((evaluate, vector, objective))
            return line_search(evaluate, vector, objective, grad, last)

        monkeypatch.setattr(semisup, "_line_search", spied)
        X, y, _, _ = synthetic_problem(8, size=12)
        labels = np.where(y >= 0, y, 0)
        lm = semisup.LabelModel(alpha=0.85, n_classes=2)
        seed = models.kernel_init_iid(X, alpha_penalty=50.0)
        vector = seed.param_vector()
        vector[:X.size] = 0.3 * np.random.default_rng(5).normal(size=X.size)
        model = seed.with_params(vector)
        start = treemath._Bordered(*semisup.build_joint_beta(X, labels, model, lm))
        penalty, penalty_grad = model.penalty(vector)
        grad = likelihood._partition_gradient(X, model, start) + penalty_grad
        assert np.abs(penalty_grad).max() > 0.1 * np.abs(grad).max()
        for steps in (1, 3):
            fitted, record = semisup._ascend_theta(X, labels, model, lm, steps, start)
            fitted_vector = fitted.param_vector()
            value = record.log_z + fitted.penalty(fitted_vector)[0]
            assert record.log_z == semisup._full_log_partition(X, labels, fitted, lm)
            if steps == 1:
                # one step along the penalized gradient that passes its Armijo test
                delta = fitted_vector - vector
                step = float(delta @ grad / (grad @ grad))
                assert step > 0 and np.allclose(delta, step * grad, rtol=1e-8, atol=1e-12)
                assert value >= start.log_z + penalty + 1e-4 * step * float(grad @ grad)
                one_step = value
            else:
                assert value > one_step
        # each search starts from the value its trials' objective takes there
        assert len(searches) == 4
        for evaluate, start_vector, objective in searches:
            assert evaluate(start_vector)[0] == pytest.approx(objective, rel=1e-12, abs=0)
        assert searches[0][2] == start.log_z + penalty

    def test_theta_steps_stop_at_a_zero_gradient(self, monkeypatch):
        X, y, _, model = synthetic_problem(8, size=12)
        labels = np.where(y >= 0, y, 0)
        lm = semisup.LabelModel(alpha=0.85, n_classes=2)
        start = treemath._Bordered(*semisup.build_joint_beta(X, labels, model, lm))
        monkeypatch.setattr(semisup, "_partition_gradient",
                            lambda X, model, record: np.zeros(len(model.param_vector())))
        assert semisup._ascend_theta(X, labels, model, lm, 3, start) == (model, start)


def scoring_every_node(X, y, model, label_model, *, restarts=1, max_sweeps=50,
                       rng=None, min_gain=1e-9, theta_steps_per_sweep=0):
    """``greedy_label_inference`` with every unlabeled node scored in every
    sweep, a node whose flip was rejected in the same state too."""
    y = semisup.check_labels(y, label_model.n_classes)
    X = model.validate_data(X)
    observed = y >= 0
    hidden = np.flatnonzero(~observed)
    rng = np.random.default_rng(rng)
    best = None
    for restart, stream in enumerate(rng.spawn(restarts)):
        labels = y.copy()
        labels[hidden] = stream.integers(0, label_model.n_classes, hidden.size)
        state = semisup.LabelInference(X, labels, model, label_model, observed=observed)
        flips = 0
        for sweep in range(1, max_sweeps + 1):
            state.sweeps = sweep
            committed = False
            for node in stream.permutation(hidden):
                candidates = [k for k in range(label_model.n_classes)
                              if k != state.labels[node]]
                if len(candidates) > 1:
                    scores = [state.screen_delta(node, k) for k in candidates]
                    candidates = [candidates[int(np.argmax(scores))]]
                gain = state.flip_delta(node, candidates[0])
                if gain > min_gain:
                    state.commit(node, candidates[0])
                    committed = True
                    flips += 1
            if theta_steps_per_sweep > 0:
                state._ascend(theta_steps_per_sweep)
            if not committed:
                break
        result = semisup.InferenceResult(labels=state.labels.copy(),
                                         log_partition=state.log_partition,
                                         sweeps=state.sweeps, restart=restart,
                                         model=state.model, flips=flips)
        if best is None or result.log_partition > best.log_partition:
            best = result
    return best


class TestRejectedFlipSkip:
    """A node whose flip was rejected is not scored again in the same state."""

    @staticmethod
    def events(monkeypatch):
        """Log of ("start",), ("score", node), ("commit", node) and
        ("ascend",) events."""
        log = []
        cls = semisup.LabelInference
        init, flip_delta, commit, ascend = cls.__init__, cls.flip_delta, cls.commit, \
            cls._ascend

        def logged_init(self, *args, **kwargs):
            log.append(("start",))
            init(self, *args, **kwargs)

        def logged_flip_delta(self, node, new_label):
            log.append(("score", int(node)))
            return flip_delta(self, node, new_label)

        def logged_commit(self, node, new_label):
            log.append(("commit", int(node)))
            return commit(self, node, new_label)

        def logged_ascend(self, steps):
            log.append(("ascend",))
            return ascend(self, steps)

        monkeypatch.setattr(cls, "__init__", logged_init)
        monkeypatch.setattr(cls, "flip_delta", logged_flip_delta)
        monkeypatch.setattr(cls, "commit", logged_commit)
        monkeypatch.setattr(cls, "_ascend", logged_ascend)
        return log

    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("theta_steps", [0, 1])
    def test_results_equal_scoring_every_node(self, monkeypatch, n_classes, theta_steps):
        log = self.events(monkeypatch)
        skipped = 0
        for seed in range(4 if theta_steps == 0 else 2):
            X, y, _, model = synthetic_problem(60 + seed, size=30, n_classes=n_classes,
                                               min_minority=0.2)
            lm = semisup.LabelModel(alpha=0.85, n_classes=n_classes)
            options = dict(restarts=2, rng=seed, theta_steps_per_sweep=theta_steps)
            log.clear()
            want = scoring_every_node(X, y, model, lm, **options)
            every = sum(event[0] == "score" for event in log)
            log.clear()
            got = semisup.greedy_label_inference(X, y, model, lm, **options)
            assert np.array_equal(got.labels, want.labels)
            assert got.log_partition == want.log_partition
            assert (got.sweeps, got.restart, got.flips) == (want.sweeps, want.restart,
                                                            want.flips)
            assert got.model.param_vector().tobytes() == want.model.param_vector().tobytes()
            skipped += every - sum(event[0] == "score" for event in log)
            # between two scores of a node, a restart, a commit or a theta step
            scored_in_state = set()
            for event in log:
                if event[0] == "score":
                    assert event[1] not in scored_in_state
                    scored_in_state.add(event[1])
                else:
                    scored_in_state.clear()
        # theta steps follow every sweep, so only a search without them skips
        assert (skipped > 0) == (theta_steps == 0)


class TestCrossValidateAlpha:
    def test_single_value_grid(self):
        X, y, truth, model = synthetic_problem(9)
        assert semisup.cross_validate_alpha(X, y, model, [0.7], n_classes=2) == 0.7

    def test_empty_grid_rejected(self):
        X, y, truth, model = synthetic_problem(10)
        with pytest.raises(ValueError):
            semisup.cross_validate_alpha(X, y, model, [], n_classes=2)

    def test_sticky_data_selects_large_alpha(self):
        # the grid includes the uninformative value 1/K, which commits no
        # flips and scores near chance; sticky data must reject it
        chosen = []
        for seed in range(10):
            X, y, truth, model = synthetic_problem(300 + seed, size=50,
                                                   observed_frac=0.5, alpha=0.95)
            chosen.append(semisup.cross_validate_alpha(
                X, y, model, [0.5, 0.7, 0.9], n_classes=2, folds=2,
                restarts=2, rng=seed))
        assert sum(a >= 0.7 for a in chosen) >= 8

    def test_structureless_labels_tie_break_toward_half(self):
        rng = np.random.default_rng(11)
        model = gaussian_model(rng, drift=0.4, noise=1.2)
        X = rng.normal(size=(16, 2))  # labels carry no structure at all
        y = rng.integers(0, 2, 16)
        y[8:] = semisup.MISSING
        grid = [0.45, 0.55, 0.6]
        choice = semisup.cross_validate_alpha(X, y, model, grid, n_classes=2,
                                              folds=2, restarts=1, rng=4)
        assert choice in grid
