"""Workloads: inputs made from a seed, the operations one round runs, and
the checks applied to every operation's output.

Each workload's set-up returns a list of ``Op``. A round runs every op of
the list once, in order; rounds repeat the same inputs, so a run's counts
and its share of failed operations do not depend on how many rounds fit in
the run. The ``timed`` ops of a workload are all of one kind; their
durations give ``op_s`` (seconds per op) and, with ``units`` (the solver
work an op did: fit iterations, greedy sweeps, VB rounds), ``unit_s``.

Checks compare against the high-precision reference in ``reference`` or
against properties of the method, never against stored outputs. Two ops in
``fit`` reproduce known faults of the program on inputs that do not depend
on the seed (``known_fault``); they are counted as failed, not as wrong.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference
from outtree import cli, likelihood, models, sampler, semisup, treemath, vb
from outtree import io as otio

FIT_ROWS, FIT_ITERS = 300, 50
KERNEL_ROWS, KERNEL_ITERS = 150, 10
SCORE_TRAIN, SCORE_TEST = 300, 700
SEMISUP_ROWS, SEMISUP_ALPHA, SEMISUP_OBSERVED = 90, 0.9, 0.3
SEMISUP_INSTANCES = 20  # alternating K=2 and K=3
VB_ROWS, VB_ROUNDS = 70, 5
REFERENCE_ROWS = 60
LN_Z_TOL = 1e-8
FD_TOL, FD_STEP = 1e-4, 1e-5
MIN_GAIN = 1e-9


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    min_dim: int
    units: Callable[[object], float] | None = None
    known_fault: str | None = None
    group: str | None = None  # a subset of the timed ops with its own figure

    @property
    def timed(self):
        return self.units is not None


def _rng(seed, *tags):
    return np.random.default_rng([seed, *tags])


def _standardize(x):
    return (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)


def _spiral(count, rng):
    return cli.gen_spiral(cli.SpiralSpec(count=count), rng)


# ---------------------------------------------------------------------------
# Shared checks


def _ln_z_problem(what, beta, roots, got):
    want = reference.log_partition(beta.log_entries, roots.log_values)
    if not abs(got - want) <= LN_Z_TOL:
        return [f"{what}: ln Z {got!r} vs reference {want!r} "
                f"(error {got - want:+.3e})"]
    return []


def _model_ln_z_problems(data, model, what):
    beta, roots = models.build_beta(data, model)
    return _ln_z_problem(what, beta, roots, treemath.log_partition(beta, roots).log_z)


def _score_problems(train, test, model, what):
    """Train-conditioned score against the reference ratio of partitions."""
    union_beta, union_roots = models.build_beta(np.concatenate([train, test]), model)
    train_beta, train_roots = models.build_beta(train, model)
    t, u = len(train), len(test)
    want = (reference.log_partition(union_beta.log_entries, union_roots.log_values)
            - reference.log_partition(train_beta.log_entries, train_roots.log_values)
            + (t - 1) * math.log(t) - (t + u - 1) * math.log(t + u))
    got = likelihood.test_log_likelihood(train, test, model).score
    if not abs(got - want) <= LN_Z_TOL:
        return [f"{what}: score {got!r} vs reference {want!r}"]
    return []


def _roundtrip_problems(model, workdir):
    path = os.path.join(workdir, "model.txt")
    otio.write_model(path, model)
    back = otio.read_model(path)
    if back.param_vector().tobytes() != model.param_vector().tobytes():
        return ["write_model/read_model changed the parameter vector"]
    return []


def _fit_problems(report, data, iters, direction, subsample, workdir):
    problems = []
    if len(report.iterations) != iters:
        problems.append(f"fit stopped after {len(report.iterations)} of {iters} "
                        f"iterations ({report.reason})")
    trace = [report.initial_objective] + [it.objective for it in report.iterations]
    if any(b < a for a, b in zip(trace, trace[1:])):
        problems.append("objective trace decreases")
    if not trace[-1] == report.final_objective:
        problems.append("final objective is not the last accepted one")
    model = report.model
    vector = model.param_vector()
    analytic = float(likelihood.grad_tdid(data, model) @ direction)
    hi = likelihood.tdid_log_likelihood(data, model.with_params(vector + FD_STEP * direction))
    lo = likelihood.tdid_log_likelihood(data, model.with_params(vector - FD_STEP * direction))
    numeric = float(hi - lo) / (2 * FD_STEP)
    error = abs(analytic - numeric) / (1.0 + abs(numeric))
    if not error <= FD_TOL:
        problems.append(f"grad_tdid vs finite difference: relative error {error:.3e}")
    problems += _model_ln_z_problems(subsample, model, "fitted model, 60 rows")
    problems += _score_problems(subsample[:40], subsample[40:], model,
                                "fitted model, 40 + 20 rows")
    problems += _roundtrip_problems(model, workdir)
    return problems


def _fit_op(name, data, model0, iters, rng, workdir):
    direction = rng.standard_normal(len(model0.param_vector()))
    direction /= np.linalg.norm(direction)
    subsample = data[rng.choice(len(data), REFERENCE_ROWS, replace=False)]
    return Op(name,
              run=lambda: likelihood.fit_ml(data, model0, max_iters=iters, grad_tol=1e-12),
              check=lambda report: _fit_problems(report, data, iters, direction,
                                                 subsample, workdir),
              min_dim=len(data) - 1, units=lambda report: len(report.iterations))


# ---------------------------------------------------------------------------
# Known faults, on seed-independent inputs


def _f1_op():
    """F1: ln Z at the nearest-neighbour regression seed of the spiral
    benchmark, T=60. The out-Laplacian's diagonal is formed from float64 row
    sums and the bordered matrix is near-singular, so ln Z is off by tens of
    nats."""
    data = _standardize(_spiral(60, 121))
    model = cli.nn_regression_seed(data)

    def run():
        beta, roots = models.build_beta(data, model)
        return beta, roots, treemath.log_partition(beta, roots).log_z

    return Op("F1_log_partition_nn_seed", run=run,
              check=lambda out: _ln_z_problem("F1 nn seed, T=60", *out),
              min_dim=len(data) - 1, known_fault="F1")


def _f2_op(workdir):
    """F2: ``outtree fit`` writes numpy reprs into its .log, which do not
    parse back with float()."""
    data = _standardize(_spiral(30, 7))
    source = os.path.join(workdir, "f2.csv")
    with open(source, "w") as handle:
        handle.write("x0,x1,x2\n")
        handle.writelines(",".join(repr(float(v)) for v in row) + "\n" for row in data)
    output = os.path.join(workdir, "f2.model")

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["fit", "--input", source, "--output", output,
                             "--max-iters", "3"])

    def check(code):
        if code != 0:
            return [f"F2 outtree fit exited with {code}"]
        otio.read_model(output)
        with open(output + ".log") as handle:
            rows = [line.rstrip("\n").split("\t") for line in handle
                    if line.strip() and not line.startswith("#")][1:]
        for row in rows:
            for cell in row[1:]:
                try:
                    float(cell)
                except ValueError:
                    return [f"F2 fit log cell {cell!r} does not parse as a float"]
        return []

    return Op("F2_cli_fit_log", run=run, check=check, min_dim=len(data) - 1,
              known_fault="F2")


# ---------------------------------------------------------------------------
# Workloads


def setup_fit(seed, workdir):
    rng = _rng(seed, 1)
    data = _standardize(_spiral(FIT_ROWS, rng))
    return [_fit_op("gaussian_fit", data, models.gaussian_init_iid(data),
                    FIT_ITERS, rng, workdir),
            _f1_op(), _f2_op(workdir)]


def setup_kernel_fit(seed, workdir):
    rng = _rng(seed, 2)
    data = _standardize(_spiral(KERNEL_ROWS, rng))
    return [_fit_op("kernel_fit", data, models.kernel_init_iid(data),
                    KERNEL_ITERS, rng, workdir)]


def setup_score(seed, workdir):
    rng = _rng(seed, 3)
    rows = _spiral(SCORE_TRAIN + SCORE_TEST, rng)
    train, test = cli.standardize(rows[:SCORE_TRAIN], rows[SCORE_TRAIN:])
    model = likelihood.fit_ml(train, models.gaussian_init_iid(train), max_iters=5,
                              grad_tol=1e-12).model
    permutation = rng.permutation(SCORE_TEST)

    def check(score):
        problems = []
        parts = score.log_z_union - score.log_z_train + score.correction
        if not (math.isfinite(score.score) and abs(score.score - parts)
                <= 1e-12 * abs(parts)):
            problems.append(f"score {score.score!r} is not its parts' sum {parts!r}")
        permuted = likelihood.test_log_likelihood(train, test[permutation], model).score
        if not abs(permuted - score.score) <= 1e-9 * abs(score.score):
            problems.append(f"score changes under a permutation of the held-out "
                            f"rows: {score.score!r} vs {permuted!r}")
        problems += _score_problems(train[:40], test[:20], model, "40 + 20 rows")
        return problems

    return [Op("score", run=lambda: likelihood.test_log_likelihood(train, test, model),
               check=check, min_dim=SCORE_TRAIN - 1, units=lambda score: 1)]


def _mutate_labels(tree, alpha, n_classes, rng):
    """Root label uniform; each child keeps its parent's label with
    probability alpha, else takes one of the others uniformly."""
    labels = np.empty(tree.size, dtype=np.int64)
    for node in tree.topological_order():
        if node == tree.root:
            labels[node] = rng.integers(n_classes)
        elif rng.random() < alpha:
            labels[node] = labels[tree.parent[node]]
        else:
            shift = 1 + rng.integers(n_classes - 1)
            labels[node] = (labels[tree.parent[node]] + shift) % n_classes
    return labels


def _fresh_ln_z(data, labels, model, label_model):
    return treemath.log_partition(
        *semisup.build_joint_beta(data, labels, model, label_model)).log_z


def _inference_problems(result, data, y, model, label_model):
    """No reference ln Z here: on some seeds the joint weights are
    ill-conditioned enough that the float64 ln Z of their first 60 rows is
    off by 1e-9 to 2e-8 (see the README), so such a check would fail on
    some seeds and not others."""
    labels = result.labels
    observed = y >= 0
    if labels.shape != y.shape or np.any(labels < 0) \
            or np.any(labels >= label_model.n_classes):
        return ["labels missing or out of range"]
    problems = []
    if not np.array_equal(labels[observed], y[observed]):
        problems.append("observed labels changed")
    fresh = _fresh_ln_z(data, labels, model, label_model)
    if not abs(result.log_partition - fresh) <= LN_Z_TOL:
        problems.append(f"reported ln Z {result.log_partition!r} vs fresh {fresh!r}")
    state = semisup.LabelInference(data, labels, model, label_model, observed=observed)
    for node in np.flatnonzero(~observed):
        others = [k for k in range(label_model.n_classes) if k != labels[node]]
        if len(others) > 1:
            # the alternative the search tries is the screen's argmax; ties
            # within roundoff may go either way
            screen = [state.screen_delta(node, k) for k in others]
            top = max(screen)
            others = [k for k, s in zip(others, screen)
                      if s >= top - 1e-9 * (1.0 + abs(top))]
        gains = []
        for k in others:
            flipped = labels.copy()
            flipped[node] = k
            gains.append(_fresh_ln_z(data, flipped, model, label_model) - fresh)
        if not min(gains) <= MIN_GAIN + 1e-8:
            problems.append(f"node {node}: the searched flip gains {min(gains):.3e}")
            break
    return problems


def _inference_op(index, rng, generator, n_classes):
    size = SEMISUP_ROWS
    while True:
        draw = sampler.sample_dataset(generator, size, int(rng.integers(1 << 30)))
        truth = _mutate_labels(draw.tree, SEMISUP_ALPHA, n_classes, rng)
        if np.bincount(truth, minlength=n_classes).min() >= 0.2 * size:
            break
    y = truth.copy()
    y[rng.permutation(size)[round(SEMISUP_OBSERVED * size):]] = semisup.MISSING
    label_model = semisup.LabelModel(alpha=SEMISUP_ALPHA, n_classes=n_classes)
    search_seed = int(rng.integers(1 << 30))
    return Op(f"label_inference_k{n_classes}_{index}",
              run=lambda: semisup.greedy_label_inference(
                  draw.data, y, generator, label_model, restarts=1, rng=search_seed,
                  min_gain=MIN_GAIN),
              check=lambda result: _inference_problems(
                  result, draw.data, y, generator, label_model),
              min_dim=size - 1, units=lambda result: result.sweeps,
              group=f"k{n_classes}")


def setup_semisup(seed, workdir):
    """Independent draws, alternately K=2 and K=3, one restart each: with
    one restart the result's sweep count is all the search did, which
    ``unit_s`` needs."""
    rng = _rng(seed, 4)
    generator = cli.semisup_generator()
    return [_inference_op(i, rng, generator, 2 + i % 2)
            for i in range(SEMISUP_INSTANCES)]


def _sticky_tabular(rng, dims=2, letters=3):
    roots, conds = [], []
    for _ in range(dims):
        roots.append(rng.dirichlet(np.ones(letters)))
        cond = 0.5 * np.eye(letters) + 0.5 * rng.dirichlet(np.ones(letters), letters).T
        conds.append(cond / cond.sum(axis=0))
    return models.TabularModel(roots, conds)


def setup_vb(seed, workdir):
    rng = _rng(seed, 5)
    draw = sampler.sample_dataset(_sticky_tabular(rng), VB_ROWS,
                                  int(rng.integers(1 << 30)))
    data = draw.data
    prior = vb.DirichletPrior.uniform([3, 3])
    small = data[:6]
    exact = []

    def check(state):
        problems = []
        trace = state.elbo_trace
        if len(trace) != VB_ROUNDS + 1:
            problems.append(f"{len(trace) - 1} rounds instead of {VB_ROUNDS}")
        if any(b < a - 1e-9 for a, b in zip(trace, trace[1:])):
            problems.append("ELBO trace decreases")
        rows = np.asarray(state.edge_marginals.W).sum(axis=1)
        worst = np.abs(rows - (1.0 - state.q_root)).max()
        if not worst <= 1e-9:
            problems.append(f"edge-marginal rows miss 1 - q(u) by {worst:.3e}")
        size = len(data)
        for d in range(data.shape[1]):
            gained = state.counts_cond[d].sum() - prior.cond[d].sum()
            rooted = state.counts_root[d].sum() - prior.root[d].sum()
            if not (abs(gained - (size - 1)) <= 1e-9 * size and abs(rooted - 1) <= 1e-9):
                problems.append(f"dimension {d} gained {gained!r} conditional and "
                                f"{rooted!r} root counts")
        if not exact:
            exact.append(vb.exact_log_evidence(small, prior))
        bound = vb.vb_fit(small, prior, max_rounds=50).elbo
        if not bound <= exact[0] + 1e-9:
            problems.append(f"T=6 ELBO {bound!r} exceeds the exact evidence {exact[0]!r}")
        return problems

    return [Op("vb_fit", run=lambda: vb.vb_fit(data, prior, max_rounds=VB_ROUNDS, tol=0.0),
               check=check, min_dim=VB_ROWS - 1,
               units=lambda state: len(state.elbo_trace) - 1)]


WORKLOADS = {
    "fit": setup_fit,
    "kernel_fit": setup_kernel_fit,
    "score": setup_score,
    "semisup": setup_semisup,
    "vb": setup_vb,
}

# The figures a user reads off each workload: (name, unit, source). A rate
# is 1 / unit_s (units per second); "op_s" means seconds per op, and
# "op_s:<group>" seconds per op of that group.
HEADLINE = {
    "fit": [("fit_iters_per_s", "iter/s", "rate")],
    "kernel_fit": [("kernel_fit_iters_per_s", "iter/s", "rate")],
    "score": [("score_s", "s", "op_s")],
    "semisup": [("infer_k2_s", "s", "op_s:k2"), ("infer_k3_s", "s", "op_s:k3")],
    "vb": [("vb_rounds_per_s", "round/s", "rate")],
}
