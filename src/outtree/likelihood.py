"""The latent out-tree likelihood, its gradient, and gradient-ascent fitting.

For T rows the likelihood is Z / T^(T-1), where Z sums the factorized tree
likelihood over all T^(T-1) out-trees under a uniform structure prior. It
is exchangeable, and collapses to the iid likelihood whenever the
conditional ignores the parent and equals the marginal. Test data is scored
conditionally on the training rows through the ratio of two partition
functions.

Every value, gradient and score here reads a bordered-Laplacian record
filled straight from (data, model) by ``models._build_bordered``: the same
bytes as the record of ``build_beta``'s weights, with no T x T log-weights
behind it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DataError, NumericalFaultError, ZeroPartitionError
from .models import MutationModel, _build_bordered


@dataclass(frozen=True)
class TestScore:
    """Train-conditioned test log-likelihood and its three components."""

    score: float
    log_z_union: float
    log_z_train: float
    correction: float


@dataclass
class FitIteration:
    index: int
    objective: float
    step: float
    grad_norm: float


@dataclass
class FitReport:
    """Trace of one gradient-ascent run; the objective trace is nondecreasing.

    ``evaluations`` counts objective evaluations, the initial one and every
    line-search trial included, rejected or not.
    """

    initial_objective: float
    final_objective: float
    iterations: list[FitIteration] = field(default_factory=list)
    reason: str = "max_iterations"
    model: MutationModel | None = None
    evaluations: int = 0


def tdid_log_likelihood(data, model: MutationModel) -> float:
    """ln Z - (T - 1) ln T for the dataset under the model."""
    data = model.validate_data(data)
    size = len(data)
    return float(_build_bordered(data, model).log_z - (size - 1) * np.log(size))


def iid_log_likelihood(data, model: MutationModel) -> float:
    """Sum of marginal log densities (the likelihood with no tree coupling)."""
    data = model.validate_data(data)
    return float(model.log_marginal_vector(data).sum())


def _partition_gradient(data, model, record):
    """d ln Z / d theta from the bordered-Laplacian ``record`` of validated data.

    ln Z is the log of a sum over trees, so its gradient is the posterior
    expectation of the tree's log-likelihood gradient: the model contracts
    its log-weight derivatives against the edge marginals and the root
    posterior, both from the record's one inverse, which is checked
    (``NumericalFaultError``) and dropped before that contraction.
    """
    W, rho = record.posterior_weights()
    return model.grad_from_marginals(data, W, rho)


def grad_tdid(data, model: MutationModel) -> np.ndarray:
    """Gradient of the out-tree log-likelihood in the flat parameter vector;
    raises as ``treemath.posterior_weights`` does."""
    data = model.validate_data(data)
    return _partition_gradient(data, model, _build_bordered(data, model))


# a line-search trial that raises one of these left the numerically
# representable region (overflowed parameters or a vanished partition
# function); it is rejected, and the next trial halves the step
_TRIAL_ERRORS = (ZeroPartitionError, NumericalFaultError, DataError, ValueError,
                np.linalg.LinAlgError)


def _objective(data, model, vector):
    """Penalized log-likelihood of validated data, and the bordered-Laplacian
    record it was read from, factored once for the value and the gradient
    (``_Bordered.factor``)."""
    record = _build_bordered(data, model)
    size = len(data)
    value = record.factor() - (size - 1) * np.log(size)
    return float(value) + model.penalty(vector)[0], record


class _Accepted(NamedTuple):
    """A line search's accepted trial: its step along the gradient, the
    gradient's squared norm, the trial's vector, its value and what the
    trial's evaluation returned with it."""

    step: float
    grad_sq: float
    vector: np.ndarray
    value: float
    payload: object


def _line_search(evaluate, vector, objective, grad, last=None):
    """Safeguarded interpolating backtracking from ``vector`` along ``grad``.

    ``evaluate(trial_vector)`` returns the trial's value and a payload; it
    may raise one of ``_TRIAL_ERRORS``. A trial is accepted when its value
    is finite and passes the Armijo test with constant 1e-4. A rejected
    trial at step a with a finite value v moves to the maximizer of the
    quadratic through phi(0) = f, phi'(0) = |g|^2 and phi(a) = v, clamped
    to [0.1 a, 0.5 a] (Dennis & Schnabel 1983, Alg. A6.3.1); a trial that
    raises or is not finite halves the step. The denominator f + a|g|^2 - v
    is positive whenever the Armijo test failed.

    The first search of a run (``last`` None) starts at min(1, 1/|g|_2);
    each later one at min(1, 4 a, a |g_prev|^2 / |g|^2) from the run's last
    accepted trial ``last`` (Nocedal & Wright 2006, section 3.5). Returns
    the accepted trial, or None once the step falls below 1e-12.
    """
    grad_sq = float(grad @ grad)
    if last is None:
        step = 1.0 / max(1.0, np.sqrt(grad_sq))
    else:
        step = min(1.0, 4.0 * last.step, last.step * last.grad_sq / grad_sq)
    while step >= 1e-12:
        trial = vector + step * grad
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                value, payload = evaluate(trial)
        except _TRIAL_ERRORS:
            value = -np.inf
        if np.isfinite(value) and value >= objective + 1e-4 * step * grad_sq:
            return _Accepted(step, grad_sq, trial, value, payload)
        # free a rejected trial's payload before the next trial builds its
        # own, so a search holds at most one at a time
        payload = None
        if np.isfinite(value):
            best = grad_sq * step ** 2 / (2.0 * (objective + step * grad_sq - value))
            step = min(max(best, 0.1 * step), 0.5 * step)
        else:
            step *= 0.5
    return None


def fit_ml(data, model0: MutationModel, *, max_iters=500, grad_tol=1e-5,
           holdout=None, patience=10) -> FitReport:
    """Maximize the out-tree log-likelihood by backtracking gradient ascent.

    Each iteration runs ``_line_search`` along the gradient of the
    penalized log-likelihood; most accept their first trial. Only steps
    that pass its Armijo test are accepted, so the reported trace is
    nondecreasing. Stops on a small gradient sup-norm, the iteration cap,
    a failed line search at the step floor 1e-12, or edge marginals that
    raise ``NumericalFaultError`` (reason ``inaccurate_gradient``: the fit
    does not step along them); each is recorded as the convergence reason.
    Whenever a holdout set is given, fitting stops once the held-out score
    has not improved for ``patience`` accepted steps and the best-scoring
    model is returned; the score's training ln Z is read off the accepted
    record with ``slogdet``, as its union's is. The gradient is read off
    the accepted trial's bordered Laplacian, so each evaluation sets that
    matrix up once. Above dimension 128 each evaluation factors it once
    too (``_Bordered.factor``): the trial's value is read off the certified
    block recursion whose inverse the gradient then reads, and ``slogdet``
    runs only where the certificate fails. Against mpmath at 30 digits
    that ln Z was within 2.1e-11 at T=300 and 2.7e-12 at T=150, LU's within
    3.0e-12 and 1.9e-12. The inverse is dropped once the gradient has its
    edge marginals, before the model contracts them and before the
    held-out score.
    """
    if max_iters < 0 or grad_tol <= 0:
        raise ValueError("max_iters must be >= 0 and grad_tol positive")
    data = model0.validate_data(data)
    model = model0
    vector = model.param_vector()
    objective, record = _objective(data, model, vector)
    report = FitReport(initial_objective=objective, final_objective=objective,
                       model=model, evaluations=1)

    def evaluate(trial_vector):
        report.evaluations += 1
        trial = model.with_params(trial_vector)
        value, trial_record = _objective(data, trial, trial_vector)
        return value, (trial, trial_record)

    def gradient():
        # the penalized gradient at the accepted point, or None where its
        # edge marginals are inaccurate; either way the record keeps no inverse
        try:
            return _partition_gradient(data, model, record) + model.penalty(vector)[1]
        except NumericalFaultError:
            return None

    # each gradient is read before the held-out score, so the score does not
    # run while the record keeps its inverse
    grad, last = (gradient() if max_iters else None), None
    if holdout is not None:
        holdout = model.validate_data(holdout)
        best_holdout = _conditional_score(data, holdout, model, record.log_z).score
        best_model, best_objective, since_best = model, objective, 0
    for index in range(1, max_iters + 1):
        if grad is None:
            report.reason = "inaccurate_gradient"
            break
        grad_norm = float(np.abs(grad).max(initial=0.0))  # 0 with no free parameter
        if grad_norm < grad_tol:
            report.reason = "gradient_tolerance"
            break
        last = _line_search(evaluate, vector, objective, grad, last)
        if last is None:
            report.reason = "line_search_failure"
            break
        vector, objective, (model, record) = last.vector, last.value, last.payload
        report.iterations.append(FitIteration(index, objective, last.step, grad_norm))
        if index < max_iters:
            grad = gradient()
        else:
            record.release()  # the last record's inverse, which no gradient read
        if holdout is not None:
            holdout_score = _conditional_score(data, holdout, model, record.log_z).score
            if holdout_score > best_holdout:
                best_holdout, best_model, best_objective = holdout_score, model, objective
                since_best = 0
            else:
                since_best += 1
                if since_best >= patience:
                    report.reason = "early_stop"
                    model, objective = best_model, best_objective
                    break
    report.model = model
    report.final_objective = objective
    return report


def test_log_likelihood(train, test, model: MutationModel) -> TestScore:
    """ln p(test | train) under the fitted model.

    Computed as ln Z over the union minus ln Z over the training rows plus
    the tree-count correction (T-1) ln T - (T+U-1) ln(T+U). The union is
    ordered train rows first; exchangeability makes the order immaterial.
    """
    train = model.validate_data(train)
    test = model.validate_data(test)
    t, u = len(train), len(test)
    if t < 1 or t + u < 2:
        raise ValueError("need a nonempty train set and at least 2 rows overall")
    return _conditional_score(train, test, model)


def _conditional_score(train, test, model, log_z_train=None) -> TestScore:
    """``test_log_likelihood`` of validated rows; ``log_z_train`` is the
    training ln Z when the caller has already read it off a record. The
    union's record is freed before the training rows are filled."""
    t, u = len(train), len(test)
    log_z_union = _build_bordered(np.concatenate([train, test], axis=0), model).log_z
    if log_z_train is None:
        if t == 1:
            log_z_train = float(model.log_marginal_vector(train)[0])
        else:
            log_z_train = _build_bordered(train, model).log_z
    correction = (t - 1) * np.log(t) - (t + u - 1) * np.log(t + u)
    return TestScore(score=log_z_union - log_z_train + correction,
                     log_z_union=log_z_union, log_z_train=log_z_train,
                     correction=float(correction))
