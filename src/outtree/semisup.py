"""Semi-supervised label inference through the latent out-tree.

Labels mutate along the same latent tree as the attributes: the joint edge
weight factorizes into the attribute conditional times a label stickiness
term (probability alpha of keeping the parent's label, the remainder split
evenly over the other classes). Unknown labels are filled by greedy hill
climbing on the joint log-partition: sweeps visit unlabeled nodes in random
order, rank the alternative labels by a first-order estimate from the
inverse of the current factorization, score the best candidate exactly
by factoring the flipped weights, and commit strictly improving flips. A
flip rewrites one row and column of the joint weights, so its bordered
Laplacian is patched from the current one, equal bit for bit to a fresh
fill, and a commit swaps in the record its preview factored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import treemath
from .errors import DataError, NumericalFaultError, ZeroPartitionError
from .likelihood import _line_search, _partition_gradient
from .models import MutationModel
from .treemath import IncrementalLogdet, RootWeights, WeightMatrix

MISSING = -1


@dataclass(frozen=True)
class LabelModel:
    """Label mutation parameters: stickiness alpha over n_classes classes,
    uniform root label distribution."""

    alpha: float
    n_classes: int

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")

    @property
    def log_same(self):
        return float(np.log(self.alpha))

    @property
    def log_diff(self):
        return float(np.log((1.0 - self.alpha) / (self.n_classes - 1)))

    @property
    def log_root(self):
        return float(-np.log(self.n_classes))


def check_labels(y, n_classes, *, require_observed=True):
    """Validate a label vector with MISSING (-1) marking unobserved entries."""
    y = np.asarray(y, dtype=np.int64)
    if y.ndim != 1:
        raise DataError("labels must be a vector")
    if np.any((y < MISSING) | (y >= n_classes)):
        raise DataError(f"labels must be missing or in [0, {n_classes})")
    if require_observed and not np.any(y >= 0):
        raise DataError("need at least one observed label")
    return y


def build_joint_beta(X, y, model: MutationModel, label_model: LabelModel):
    """Joint input/output weights: attribute conditional times label term.

    Every label must be assigned; inference fills missing entries before
    calling. Root weights pick up the uniform label factor 1/K.
    """
    X = model.validate_data(X)
    return _joint_weights(model.log_conditional_matrix(X), model.log_marginal_vector(X),
                          y, label_model)


def _joint_weights(log_cond, log_marginal, y, label_model):
    """``build_joint_beta`` from the attribute log-conditionals and
    log-marginals."""
    y = np.asarray(y, dtype=np.int64)
    if np.any(y < 0) or np.any(y >= label_model.n_classes):
        raise DataError("all labels must be assigned before building joint weights")
    same = y[:, None] == y[None, :]
    log_joint = log_cond + np.where(same, label_model.log_same, label_model.log_diff)
    return (WeightMatrix._owning(log_joint),
            RootWeights(log_values=log_marginal + label_model.log_root))


class LabelInference:
    """Mutable hill-climbing state: current labels plus the factored joint
    determinant. The record of the last ``flip_delta`` is kept, so a
    ``commit`` of that flip sets up and factors nothing. Single-writer,
    like the session it wraps."""

    def __init__(self, X, y, model, label_model, observed=None):
        self.X = model.validate_data(X)
        self.labels = np.asarray(y, dtype=np.int64).copy()
        self.model = model
        self.label_model = label_model
        self.observed = (self.labels >= 0) if observed is None \
            else np.asarray(observed, dtype=bool).copy()
        if np.any(self.labels < 0):
            raise DataError("state requires a full label assignment")
        self._log_cond = model.log_conditional_matrix(self.X)
        self.size = len(self.labels)
        self.sweeps = 0
        self._previewed = None
        self.session = IncrementalLogdet(*_joint_weights(
            self._log_cond, model.log_marginal_vector(self.X), self.labels, label_model))

    def _ascend(self, steps):
        """``steps`` gradient steps on the model parameters, started from the
        session's record; the session goes on from the accepted record."""
        self.model, record = _ascend_theta(self.X, self.labels, self.model,
                                           self.label_model, steps, self.session._record)
        self._log_cond = self.model.log_conditional_matrix(self.X)
        self._previewed = None
        self.session._commit(record)

    @property
    def log_partition(self) -> float:
        return self.session.log_partition

    def recomputed_log_partition(self) -> float:
        """Fresh full factorization of the current assignment (oracle path)."""
        return _full_log_partition(self.X, self.labels, self.model, self.label_model)

    def _flipped_logs(self, node, new_label):
        """The node's row and column of joint log-weights after the flip."""
        term = np.where(self.labels == new_label, self.label_model.log_same,
                        self.label_model.log_diff)
        return self._log_cond[node] + term, self._log_cond[:, node] + term

    def _check_flip(self, node, new_label):
        if self.observed[node]:
            raise ValueError(f"label of node {node} is observed and frozen")
        if new_label == self.labels[node]:
            raise ValueError("new label must differ from the current one")
        if not 0 <= new_label < self.label_model.n_classes:
            raise ValueError("label out of range")

    def flip_delta(self, node, new_label) -> float:
        """Exact change in log-partition if node took new_label (no commit).

        Factors the flipped joint weights, patched from the current ones,
        and keeps the record for ``commit``; -inf when the flip numerically
        extinguishes the partition function.
        """
        self._check_flip(node, new_label)
        self._previewed = None
        try:
            record = self.session._cross(node, *self._flipped_logs(node, new_label))
            gain = record.log_z - self.log_partition
        except (ZeroPartitionError, NumericalFaultError):
            return -np.inf
        self._previewed = (node, new_label, record)
        return gain

    def screen_delta(self, node, new_label) -> float:
        """First-order estimate of the flip gain from the current inverse.

        An edit of the scaled weight of v -> u by delta moves the
        log-determinant by delta * (inv[u, u] - inv[v, u]) to first order
        (indices shifted by the border); the row edits have u = node and the
        column edits v = node. The current scaled weights are read off the
        session's bordered matrix as -Q: x - (0 - q) is x + q exactly. The
        diagonal entry of each delta then holds a row sum, which is
        multiplied by an exact 0.
        """
        self._check_flip(node, new_label)
        record = self.session._record
        row_scales, q = record.beta.row_scales, record.matrix[1:, 1:]
        core = record.inverse[1:, 1:]
        row, column = self._flipped_logs(node, new_label)
        with np.errstate(under="ignore"):
            row_delta = np.exp(row - row_scales[node]) + q[node]
            column_delta = np.exp(column - row_scales) + q[:, node]
        return float(row_delta @ (core[node, node] - core[:, node])
                     + column_delta @ (np.diag(core) - core[node]))

    def commit(self, node, new_label) -> float:
        """Apply the flip, returning the new log-partition. The record of a
        ``flip_delta`` of the same flip just before is swapped in as it is."""
        self._check_flip(node, new_label)
        previewed, self._previewed = self._previewed, None
        if previewed is not None and previewed[:2] == (node, new_label):
            record = previewed[2]
        else:
            record = self.session._cross(node, *self._flipped_logs(node, new_label))
        log_z = self.session._commit(record)
        self.labels[node] = new_label
        return log_z


@dataclass
class InferenceResult:
    labels: np.ndarray
    log_partition: float
    sweeps: int
    restart: int
    model: MutationModel
    flips: int = 0


def greedy_label_inference(X, y, model: MutationModel, label_model: LabelModel, *,
                           restarts=1, max_sweeps=50, rng=None, min_gain=1e-9,
                           theta_steps_per_sweep=0) -> InferenceResult:
    """Fill missing labels by restarted greedy hill climbing on ln Z.

    Missing labels start uniformly at random; each sweep visits unlabeled
    nodes in random order, screens the K-1 alternative labels to first
    order, exactly evaluates the best candidate, and commits it when the
    exact gain exceeds ``min_gain``. A node whose flip was rejected is
    skipped until a commit or a theta step changes the state, since it
    would be rejected again. A sweep with no commits terminates the
    run; the best of ``restarts`` runs by final log-partition wins. With
    ``theta_steps_per_sweep`` > 0, that many gradient-ascent steps on the
    model parameters (through the joint partition function) follow each
    sweep, alternating structure search with parameter refinement.
    """
    y = check_labels(y, label_model.n_classes)
    X = model.validate_data(X)
    observed = y >= 0
    hidden = np.flatnonzero(~observed)
    if hidden.size == 0:
        return InferenceResult(labels=y.copy(), log_partition=_full_log_partition(
            X, y, model, label_model), sweeps=0, restart=0, model=model)
    if restarts < 1:
        raise ValueError("need at least one restart")
    rng = np.random.default_rng(rng)
    best = None
    for restart, stream in enumerate(rng.spawn(restarts)):
        labels = y.copy()
        labels[hidden] = stream.integers(0, label_model.n_classes, hidden.size)
        state = LabelInference(X, labels, model, label_model, observed=observed)
        flips = 0
        # node -> flip count at its last rejection: until the next commit or
        # theta step the state is the same, and so would be the rejection
        rejected = {}
        for sweep in range(1, max_sweeps + 1):
            state.sweeps = sweep
            committed = False
            for node in stream.permutation(hidden):
                if rejected.get(node) == flips:
                    continue
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
                else:
                    rejected[node] = flips
            if theta_steps_per_sweep > 0:
                state._ascend(theta_steps_per_sweep)
                rejected.clear()
            if not committed:
                break
        result = InferenceResult(labels=state.labels.copy(),
                                 log_partition=state.log_partition,
                                 sweeps=state.sweeps, restart=restart,
                                 model=state.model, flips=flips)
        if best is None or result.log_partition > best.log_partition:
            best = result
    return best


def _full_log_partition(X, y, model, label_model):
    beta, roots = build_joint_beta(X, y, model, label_model)
    return treemath.log_partition(beta, roots).log_z


def _ascend_theta(X, y, model, label_model, steps, record):
    """Up to ``steps`` gradient steps on theta through the joint partition,
    from ``record``, the joint weights' record under ``model``.

    The objective is the joint ln Z plus the model's penalty, as in
    ``fit_ml``, and each step runs the same line search (``_line_search``):
    the first trial at min(1, 1/|g|_2), later ones warm-started from the
    last accepted step. Stops early at a zero gradient or a failed search.
    Returns the last accepted model and the record of its joint weights,
    whose ln Z is the unpenalized joint ln Z. Each step's gradient is read
    off the record its value came from: the start's, then the accepted
    trial's, so no weights are factored twice.
    """
    X = model.validate_data(X)
    vector = model.param_vector()
    value = record.log_z + model.penalty(vector)[0]

    def evaluate(trial_vector):
        trial = model.with_params(trial_vector)
        trial_record = treemath._Bordered(*build_joint_beta(X, y, trial, label_model))
        return trial_record.log_z + trial.penalty(trial_vector)[0], (trial, trial_record)

    last = None
    for _ in range(steps):
        grad = _partition_gradient(X, model, record) + model.penalty(vector)[1]
        if not grad.any():
            break
        last = _line_search(evaluate, vector, value, grad, last)
        if last is None:
            break
        vector, value, (model, record) = last.vector, last.value, last.payload
    return model, record


def cross_validate_alpha(X, y, model: MutationModel, alpha_grid, *, n_classes=None,
                         folds=3, holdout_frac=0.5, restarts=3, max_sweeps=50,
                         rng=None) -> float:
    """Pick the stickiness maximizing held-out label accuracy.

    Each fold masks ``holdout_frac`` of the observed labels, runs inference
    per grid value, and scores accuracy on the masked entries. Ties go to
    the alpha nearest 0.5.
    """
    alpha_grid = list(alpha_grid)
    if not alpha_grid:
        raise ValueError("alpha grid must be non-empty")
    if n_classes is None:
        n_classes = int(np.max(y)) + 1
    y = check_labels(y, n_classes)
    observed_idx = np.flatnonzero(y >= 0)
    if len(alpha_grid) == 1:
        return float(alpha_grid[0])
    n_mask = int(round(holdout_frac * observed_idx.size))
    if n_mask < 1 or n_mask >= observed_idx.size:
        raise DataError("not enough observed labels to hold some out")
    rng = np.random.default_rng(rng)
    hits = np.zeros(len(alpha_grid))
    totals = 0
    for fold_stream in rng.spawn(folds):
        masked = fold_stream.choice(observed_idx, size=n_mask, replace=False)
        y_fold = y.copy()
        y_fold[masked] = MISSING
        totals += masked.size
        for i, alpha in enumerate(alpha_grid):
            result = greedy_label_inference(
                X, y_fold, model, LabelModel(alpha=float(alpha), n_classes=n_classes),
                restarts=restarts, max_sweeps=max_sweeps, rng=fold_stream.spawn(1)[0])
            hits[i] += int((result.labels[masked] == y[masked]).sum())
    accuracy = hits / totals
    best = accuracy.max()
    tied = [alpha_grid[i] for i in range(len(alpha_grid))
            if accuracy[i] >= best - 1e-12]
    return float(min(tied, key=lambda a: abs(a - 0.5)))


def exhaustive_label_search(X, y, model: MutationModel, label_model: LabelModel):
    """Oracle: the exact argmax completion by enumerating all assignments.

    Exponential in the number of missing labels; guarded at 6.
    """
    y = check_labels(y, label_model.n_classes)
    hidden = np.flatnonzero(y < 0)
    if hidden.size > 6:
        raise ValueError("exhaustive search limited to 6 missing labels")
    best_labels, best_value = None, -np.inf
    grids = np.meshgrid(*[np.arange(label_model.n_classes)] * hidden.size,
                        indexing="ij") if hidden.size else []
    combos = np.stack([g.ravel() for g in grids], axis=1) if hidden.size \
        else np.zeros((1, 0), dtype=np.int64)
    for combo in combos:
        labels = y.copy()
        labels[hidden] = combo
        try:
            value = _full_log_partition(X, labels, model, label_model)
        except (ZeroPartitionError, NumericalFaultError):
            continue
        if value > best_value:
            best_labels, best_value = labels, value
    if best_labels is None:
        raise ZeroPartitionError("every completion has zero partition weight")
    return best_labels, float(best_value)
