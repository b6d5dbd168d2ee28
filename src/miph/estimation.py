"""EM estimation for covariate-linked multivariate phase-type lifetimes.

The observed data are right-censored joint lifetimes with per-subject
covariates. One EM iteration runs four steps:

* E: posterior expectations of start-state indicators (B), state occupancies
  (Z) and transition/exit counts (N) given the current parameters, on the
  operational time scale. Censored margins contribute survival kernels,
  uncensored margins density kernels; all occupation/transition integrals
  reduce to one 2p x 2p block exponential per (observation, margin) because
  the integrand's middle factor is rank one.
* R: weighted multinomial-logistic regression of the B-weights on the
  covariates (softmax link, state 0 is the zero reference row), by damped
  Newton iteration that stops once the Newton decrement falls to the
  rounding resolution of the objective.
* M: closed-form rate updates ``t_ks = E[N_ks] / E[Z_k]`` on the admissible
  structure pattern.
* I: guarded Newton ascent of the observed log-likelihood over
  theta = log(beta), on its analytic gradient and exact d x d Hessian.

Times enter estimation on the internal scale (years / 100); see `dataio`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError
from .linalg import expm_batch
from .model import Margin, MIPHModel
from .phasetype import (
    CoxianStructure,
    GeneralStructure,
    GompertzTransform,
    SubIntensity,
    _age_factors,
    _scale_to_mean,
    random_sub_intensity,
)

__all__ = [
    "ObservationSet",
    "SufficientStats",
    "FitConfig",
    "FitReport",
    "transform_data",
    "e_step",
    "r_step",
    "m_step",
    "i_step",
    "observed_loglik",
    "fit",
]

_STAT_TOL = 1e-12
# smallest evidence of a couple at the EM start (~1.5e-154): the E-step's posterior
# weights reach 1/evidence, and this keeps their Van Loan blocks far from overflow
_START_EVIDENCE = np.sqrt(np.finfo(float).tiny)
_EPS = np.finfo(float).eps
# I-step budget and stopping rule: likelihood evaluations per call, and the
# Newton decrement per observation below which the step stops
_I_STEP_MAX_EVALS = 12
_I_STEP_DECREMENT_TOL = 1e-9
# the I-step keeps log(beta) inside these bounds; the R-step caps the
# regression coefficients at this size; the M-step gives states with zero
# expected occupancy this diagonal
_LOG_BETA_BOUNDS = (-5.0, 7.0)
_R_STEP_COEF_CAP = 1e3
_M_STEP_DIAG_FLOOR = -1e-8


@dataclass(frozen=True)
class ObservationSet:
    """Right-censored joint lifetimes with a regression design.

    Attributes
    ----------
    y : (n, d) ndarray
        Observed times (death or censoring ages) on the internal scale.
    delta : (n, d) ndarray of int
        1 where the margin's death was observed, 0 where censored.
    covariates : (n, g) ndarray
        Design matrix; the first column must be constant 1.
    """

    y: np.ndarray
    delta: np.ndarray
    covariates: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        delta = np.asarray(self.delta)
        a = np.asarray(self.covariates, dtype=float)
        if y.ndim != 2 or y.shape[0] < 1 or y.shape[1] < 1:
            raise ValueError(f"y must be (n, d) with n, d >= 1, got {y.shape}")
        if delta.shape != y.shape:
            raise ValueError(f"delta shape {delta.shape} != y shape {y.shape}")
        if a.ndim != 2 or a.shape[0] != y.shape[0] or a.shape[1] < 1:
            raise ValueError(f"covariates must be (n, g), got {a.shape}")
        if not np.all(np.isfinite(y)) or y.min() < 0.0:
            raise ValueError("y must be finite and >= 0")
        if not np.all(np.isin(delta, (0, 1))):
            raise ValueError("delta entries must be 0 or 1")
        if not np.all(np.isfinite(a)):
            raise ValueError("covariates must be finite")
        if np.any(a[:, 0] != 1.0):
            raise ValueError("covariates' first column must be constant 1")
        for arr, name in ((y, "y"), (delta.astype(np.int8), "delta"), (a, "covariates")):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def n_margins(self) -> int:
        return self.y.shape[1]


@dataclass(frozen=True)
class SufficientStats:
    """E-step output.

    Attributes
    ----------
    b : (n, p) ndarray
        Start-state weights; each row sums to d (every margin contributes its
        posterior over the shared start state).
    z : (d, p) ndarray
        Expected total occupation time per margin and state.
    n_trans : (d, p, p) ndarray
        Expected transition counts (zero diagonal).
    n_exit : (d, p) ndarray
        Expected absorption counts, accumulated over uncensored entries only.
    """

    b: np.ndarray
    z: np.ndarray
    n_trans: np.ndarray
    n_exit: np.ndarray

    def __post_init__(self):
        b, z, nt, ne = (np.asarray(v, dtype=float)
                        for v in (self.b, self.z, self.n_trans, self.n_exit))
        if b.ndim != 2:
            raise ValueError("b must be (n, p)")
        p = b.shape[1]
        if z.ndim != 2 or z.shape[1] != p:
            raise ValueError("z must be (d, p)")
        d = z.shape[0]
        if nt.shape != (d, p, p) or ne.shape != (d, p):
            raise ValueError("n_trans must be (d, p, p) and n_exit (d, p)")
        for arr, name in ((b, "b"), (z, "z"), (nt, "n_trans"), (ne, "n_exit")):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} has non-finite entries")
            if arr.size and arr.min() < -_STAT_TOL:
                raise ValueError(f"{name} has negative entries")
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class FitConfig:
    """Knobs for :func:`fit`.

    ``loglik_tolerance`` is per observation: the loop stops once successive
    log-likelihoods differ by less than ``loglik_tolerance * n``. Set it to
    None to always run ``max_iterations`` (fixed-iteration protocol).
    ``i_step_every = 0`` freezes the transform parameters at ``beta_init``;
    otherwise every ``i_step_every``-th iteration runs the Newton I-step,
    which keeps log(beta) inside (-5, 7). The R- and I-step stopping rules
    are scale-aware and have no knobs here.
    """

    p: int
    structure: str = "coxian"
    max_iterations: int = 1000
    loglik_tolerance: float | None = 1e-7
    seed: int = 0
    beta_init: float | tuple = 1.0
    i_step_every: int = 1

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.structure not in ("coxian", "general"):
            raise ValueError(f"unknown structure {self.structure!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.i_step_every < 0:
            raise ValueError("i_step_every must be >= 0")
        if self.loglik_tolerance is not None and not 0.0 < self.loglik_tolerance < np.inf:
            raise ValueError("loglik_tolerance must be None or finite and > 0")
        _as_betas(self.beta_init)


@dataclass(frozen=True)
class FitReport:
    """Result of :func:`fit`: the fitted model, the per-iteration observed
    log-likelihood trace, and whether the tolerance rule triggered."""

    model: MIPHModel
    loglik_trace: np.ndarray
    iterations: int
    converged: bool

    @property
    def final_loglik(self) -> float:
        return float(self.loglik_trace[-1])


def _as_betas(beta_init, d: int | None = None) -> np.ndarray:
    """``beta_init`` as floats, finite and > 0; a scalar is repeated over ``d`` margins."""
    betas = np.asarray(beta_init, dtype=float)
    if d is not None:
        if betas.ndim == 0:
            betas = np.full(d, float(betas))
        if betas.shape != (d,):
            raise ValueError(f"beta_init must be scalar or length {d}")
    if not np.all((betas > 0.0) & (betas < np.inf)):
        raise ValueError("beta_init values must be finite and > 0")
    return betas


def transform_data(obs: ObservationSet, betas) -> np.ndarray:
    """Operational times ``x = (exp(beta_i y_i) - 1) / beta_i``, (n, d).

    Raises if any entry overflows the float range (reported with its row and
    margin index).
    """
    betas = _as_betas(betas, obs.n_margins)
    with np.errstate(over="ignore"):
        x = np.expm1(obs.y * betas) / betas
    bad = ~np.isfinite(x)
    if np.any(bad):
        rows, cols = np.nonzero(bad)
        raise NumericalError(
            "operational time overflow at (row, margin) "
            f"{list(zip(rows[:5].tolist(), cols[:5].tolist()))}"
            f"{' ...' if rows.size > 5 else ''}"
        )
    return x


def _require_rows(ok, what: str) -> None:
    """Raise :class:`NumericalError` naming the rows where ``ok`` is False."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise NumericalError(f"{what} for rows {bad[:10].tolist()}"
                             f"{' ...' if bad.size > 10 else ''}")


def _margin_kernels(sub: SubIntensity, x_col, delta_col):
    """exp(T x) for one margin plus the per-state evidence vector a, where
    a[m, j] = e_j' exp(T x_m) t (death observed) or e_j' exp(T x_m) 1
    (censored). Transform Jacobians are constant over states and cancel in
    every posterior, so they are left out here.

    The absorption counts need these full exponentials. The top-left block
    of the Van Loan exponential equals exp(T x) only in exact arithmetic: in
    rows whose posterior weights reach 1e20 and more, the weights set its
    scaling and the block loses exp(T x) entirely."""
    mats = expm_batch(sub.matrix[None, :, :] * x_col[:, None, None])
    a = np.where(
        delta_col[:, None].astype(bool),
        mats @ sub.exit_rates,
        mats.sum(axis=-1),
    )
    return mats, a


def e_step(x, delta, per_obs_pi, subs) -> SufficientStats:
    """Posterior expectations of the complete-data statistics.

    Parameters
    ----------
    x : (n, d) array_like
        Operational times (already transformed).
    delta : (n, d) array_like
        Censoring indicators (1 = death observed).
    per_obs_pi : (n, p) array_like
        Initial vector for each observation (rows sum to 1).
    subs : sequence of SubIntensity
        One per margin.

    Notes
    -----
    For observation m and margin i, the occupancy and transition expectations
    are the diagonal/entries of

        U = integral_0^{x_mi} exp(T_i (x - s)) v c' exp(T_i s) ds,

    where v is the exit-rate vector (death) or the all-ones vector (censored)
    and c is the posterior over the shared start state given the other
    margins. U is the upper-right p x p block of the 2p x 2p exponential
    exp([[T_i, v c'], [0, T_i]] x_mi) (Van Loan's block form);
    linearity in the middle factor collapses the per-state integrals into one.

    A row whose evidence is exactly 0 in double precision raises
    :class:`NumericalError` naming it; no row is dropped. So does a row whose
    posterior weights overflow, its own evidence in a margin being near 1e-308.
    """
    x = np.asarray(x, dtype=float)
    delta = np.asarray(delta)
    per_obs_pi = np.asarray(per_obs_pi, dtype=float)
    n, d = x.shape
    if delta.shape != (n, d):
        raise ValueError("delta shape must match x")
    if len(subs) != d:
        raise ValueError(f"expected {d} sub-intensity matrices, got {len(subs)}")
    p = subs[0].dim
    if any(s.dim != p for s in subs):
        raise ValueError("margins disagree on state-space size")
    if per_obs_pi.shape != (n, p):
        raise ValueError(f"per_obs_pi must be (n, p) = {(n, p)}")
    if not np.all(np.isfinite(x)) or (x.size and x.min() < 0.0):
        raise ValueError("x must be finite and >= 0")

    mats, evidence = zip(*(_margin_kernels(sub, x[:, i], delta[:, i])
                           for i, sub in enumerate(subs)))
    w = per_obs_pi.copy()
    for a_i in evidence:
        w *= a_i
    denom = w.sum(axis=1)
    _require_rows(denom > 0.0, "evidence underflowed to 0")
    b = d * w / denom[:, None]

    z = np.zeros((d, p))
    n_trans = np.zeros((d, p, p))
    n_exit = np.zeros((d, p))
    offdiag = ~np.eye(p, dtype=bool)
    for i, sub in enumerate(subs):
        # posterior over the start state given the *other* margins
        c = per_obs_pi.copy()
        for l in range(d):
            if l != i:
                c *= evidence[l]
        died = delta[:, i].astype(bool)
        v = np.where(died[:, None], sub.exit_rates, np.ones(p))

        blocks = np.zeros((n, 2 * p, 2 * p))
        blocks[:, :p, :p] = sub.matrix
        blocks[:, p:, p:] = sub.matrix
        with np.errstate(over="ignore", invalid="ignore"):
            c /= denom[:, None]
            blocks[:, :p, p:] = v[:, :, None] * c[:, None, :]
            blocks *= x[:, i, None, None]
        _require_rows(np.isfinite(blocks).all(axis=(1, 2)),
                      f"margin {i}: posterior weights overflowed")
        integral = expm_batch(blocks)[:, :p, p:]  # (n, p, p)

        z[i] = np.einsum("mkk->k", integral)
        n_trans[i] = np.where(offdiag, sub.matrix * integral.sum(axis=0).T, 0.0)
        if np.any(died):
            n_exit[i] = sub.exit_rates * np.einsum(
                "mj,mjk->k", c[died], mats[i][died]
            )
    # round tiny negatives from the block exponentials up to zero
    return SufficientStats(*(np.clip(v, 0.0, None) for v in (b, z, n_trans, n_exit)))


def _log_softmax(eta):
    """Row-wise log-softmax with max subtraction."""
    shifted = eta - eta.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def r_step(b, covariates, gamma_init=None, *, max_iter: int = 200,
           coef_cap: float = _R_STEP_COEF_CAP):
    """Weighted multinomial-logistic update of the initial-vector link.

    Maximizes ``sum_m sum_k b[m, k] log softmax(A_m gamma')_k`` over the
    coefficient rows 1..p-1 (row 0 is the zero reference) by Newton iteration
    with step halving; the objective is concave. Every step must raise the
    objective strictly, except the last: once the Newton decrement
    ``lambda^2 / 2`` is at most ``16 eps |objective|``, below what the
    objective can resolve, one full step is taken if it does not lower the
    objective, and the iteration stops. Coefficients are capped at
    ``coef_cap`` in absolute value, with a warning, when the weights are
    quasi-separated and the maximizer runs away.

    Returns ``(gamma, per_obs_pi)``.
    """
    b = np.asarray(b, dtype=float)
    a = np.asarray(covariates, dtype=float)
    n, p = b.shape
    if a.ndim != 2 or a.shape[0] != n:
        raise ValueError("covariates must be (n, g)")
    g = a.shape[1]
    if gamma_init is None:
        gamma = np.zeros((p, g))
    else:
        gamma = np.array(gamma_init, dtype=float)
        if gamma.shape != (p, g):
            raise ValueError(f"gamma_init must be ({p}, {g}), got {gamma.shape}")
        if np.any(gamma[0] != 0.0):
            raise ValueError("gamma_init row 0 must be zero (reference state)")
    if p == 1:
        return gamma, np.ones((n, 1))

    weight = b.sum(axis=1)  # (n,) ~= d
    kk = np.arange(p - 1)

    def value_and_probs(gm):
        logp = _log_softmax(a @ gm.T)
        return float((b * logp).sum()), np.exp(logp)

    cur, probs = value_and_probs(gamma)
    for _ in range(max_iter):
        resid = b - weight[:, None] * probs  # (n, p)
        grad = resid[:, 1:].T @ a  # (p-1, g)

        # -Hessian = blockdiag_k(sum_m w pf_k a a') - X' W X with
        # X[m, k*g + j] = pf[m, k] a[m, j]
        pf = probs[:, 1:]  # (n, p-1)
        x = (pf[:, :, None] * a[:, None, :]).reshape(n, (p - 1) * g)
        wx = weight[:, None] * x
        neg_hess = -(wx.T @ x).reshape(p - 1, g, p - 1, g)
        neg_hess[kk, :, kk, :] += (wx.T @ a).reshape(p - 1, g, g)
        neg_hess = neg_hess.reshape((p - 1) * g, (p - 1) * g)

        try:
            direction = np.linalg.solve(neg_hess, grad.ravel())
        except np.linalg.LinAlgError:
            ridge = 1e-10 * max(np.max(np.diag(neg_hess)), 1.0)
            direction = np.linalg.solve(
                neg_hess + ridge * np.eye(neg_hess.shape[0]), grad.ravel()
            )
        at_resolution = 0.5 * float(grad.ravel() @ direction) <= 16.0 * _EPS * abs(cur)
        direction = direction.reshape(p - 1, g)

        step = 1.0
        improved = False
        while step >= 1e-10:
            trial = gamma.copy()
            trial[1:] += step * direction
            new, new_probs = value_and_probs(trial)
            if new > cur or (at_resolution and new >= cur):
                gamma, cur, probs = trial, new, new_probs
                improved = True
                break
            if at_resolution:
                break
            step *= 0.5
        if not improved:
            break
        if np.max(np.abs(gamma)) > coef_cap:
            warnings.warn(
                "initial-vector regression coefficients hit the cap "
                f"({coef_cap:g}); weights look quasi-separated",
                RuntimeWarning,
            )
            gamma = np.clip(gamma, -coef_cap, coef_cap)
            gamma[0] = 0.0
            _, probs = value_and_probs(gamma)
            break
        if at_resolution:
            break
    return gamma, probs


def m_step(stats: SufficientStats, structure):
    """Closed-form rate updates on the admissible pattern.

    ``t_ks = E[N_ks] / E[Z_k]`` and ``t_k = E[N_k] / E[Z_k]`` per margin;
    this maximizes the complete-data surrogate exactly. States with zero
    expected occupancy get all rates zero and their diagonal set to
    ``_M_STEP_DIAG_FLOOR`` (with a warning) so the matrix stays a valid
    generator block.
    """
    z = stats.z
    d, p = z.shape
    mask = structure.transition_mask()
    if structure.dim != p:
        raise ValueError(f"structure dimension {structure.dim} != stats dimension {p}")
    out = []
    for i in range(d):
        occupied = z[i] > 0.0
        if not np.all(occupied):
            silent = np.flatnonzero(~occupied)
            warnings.warn(
                f"margin {i}: states {silent.tolist()} have zero expected "
                f"occupancy; their rates are zeroed, the diagonal is {_M_STEP_DIAG_FLOOR:g}",
                RuntimeWarning,
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            trans = np.where(occupied[:, None] & mask, stats.n_trans[i] / z[i][:, None], 0.0)
            exits = np.where(occupied, stats.n_exit[i] / z[i], 0.0)
        matrix = trans.copy()
        diag = -(trans.sum(axis=1) + exits)
        dead = (~occupied) | (diag >= 0.0)
        diag[dead] = _M_STEP_DIAG_FLOOR
        matrix[np.arange(p), np.arange(p)] = diag
        out.append(SubIntensity(matrix))
    return out


def _age_scale_loglik(y, delta, per_obs_pi, subs, betas, derivatives=True):
    """Observed log-likelihood with the transform Jacobians included, and its
    gradient and Hessian in theta = log(beta).

    Returns ``(total, grad, hess)`` with the (d,) gradient and the (d, d)
    Hessian, or ``total`` alone without ``derivatives``. Every row keeps its
    exact log, however small; a row whose likelihood is 0 in double
    precision raises :class:`NumericalError` naming it.
    Margin i's factor and its theta-derivatives come from
    :func:`phasetype._age_factors`: survival where censored, density with
    the Jacobian where the death was observed.
    """
    d = y.shape[1]
    parts = [_age_factors(sub, betas[i], y[:, i], delta[:, i].astype(bool), derivatives)
             for i, sub in enumerate(subs)]
    lik = per_obs_pi.copy()
    for f, *_ in parts:
        lik *= f
    rows = lik.sum(axis=1)
    _require_rows(rows > 0.0, "likelihood underflowed to 0")
    total = float(np.log(rows).sum())
    if not derivatives:
        return total
    with np.errstate(over="ignore"):
        inv = 1.0 / rows
    overflow = np.isinf(inv)  # rows under 2**-1024: divide by them instead
    inv[overflow] = 0.0
    factors, first, second = zip(*parts)  # per margin: f, df/dtheta, d2f/dtheta2

    def weighted(replace):
        """Per-row sum_j pi_j prod_l f_l with margin l's factor swapped for
        ``replace[l]``, divided by the row likelihood."""
        w = per_obs_pi.copy()
        for l in range(d):
            w *= replace.get(l, factors[l])
        s = w.sum(axis=1)
        out = s * inv
        out[overflow] = s[overflow] / rows[overflow]
        return out

    score = [weighted({i: first[i]}) for i in range(d)]
    grad = np.array([s.sum() for s in score])
    hess = np.zeros((d, d))
    for i in range(d):
        hess[i, i] = (weighted({i: second[i]}) - score[i] * score[i]).sum()
        for k in range(i):
            hess[i, k] = hess[k, i] = (
                weighted({i: first[i], k: first[k]}) - score[i] * score[k]
            ).sum()
    return total, grad, hess


def observed_loglik(obs: ObservationSet, model: MIPHModel) -> float:
    """Observed-data log-likelihood of ``model`` on ``obs``.

    Censored margins contribute survival factors, uncensored margins density
    factors (with the time-transform Jacobian). A row whose likelihood is 0
    in double precision raises :class:`NumericalError` naming it.
    """
    if model.n_margins != obs.n_margins:
        raise ValueError(
            f"model has {model.n_margins} margins, data has {obs.n_margins}"
        )
    per_obs_pi = model.initial_vectors(obs.covariates)
    subs = [m.sub for m in model.margins]
    betas = np.array([m.transform.beta for m in model.margins])
    return _age_scale_loglik(obs.y, obs.delta, per_obs_pi, subs, betas,
                             derivatives=False)


def i_step(obs: ObservationSet, per_obs_pi, subs, betas_init, *,
           log_bounds=_LOG_BETA_BOUNDS) -> tuple[np.ndarray, float]:
    """Update the transform parameters by guarded Newton ascent of the
    observed log-likelihood over theta = log(beta).

    Each iteration solves with the exact d x d Hessian, its eigenvalues
    clamped so the model is concave, caps the step at 1 in every log(beta),
    keeps theta inside ``log_bounds``, and halves the step until the
    likelihood rises strictly. The step stops once the Newton decrement is
    at most 1e-9 per observation, when no halving ascends, or after 12
    likelihood evaluations. A trial point where some row's likelihood is 0
    counts as -inf and is rejected; at the incumbent such a row raises
    :class:`NumericalError`. The step never lowers the likelihood.

    Returns ``(betas, loglik)``: ``betas = exp(theta)`` at the last accepted
    point (the incumbent if none was), and the log-likelihood evaluated
    there.
    """
    betas_init = _as_betas(betas_init, obs.n_margins)
    per_obs_pi = np.asarray(per_obs_pi, dtype=float)
    lo, hi = float(log_bounds[0]), float(log_bounds[1])

    def evaluate(theta):
        return _age_scale_loglik(obs.y, obs.delta, per_obs_pi, subs, np.exp(theta))

    theta = np.log(betas_init)
    cur, grad, hess = evaluate(theta)
    if not np.isfinite(cur):
        raise NumericalError("transform objective is non-finite at the incumbent")
    evals = 1
    while evals < _I_STEP_MAX_EVALS:
        if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
            break
        vals, vecs = np.linalg.eigh(-hess)
        floor = 1e-8 * np.max(np.abs(vals))
        if not floor > 0.0:
            break
        direction = vecs @ ((vecs.T @ grad) / np.maximum(vals, floor))
        if 0.5 * float(grad @ direction) <= _I_STEP_DECREMENT_TOL * obs.n:
            break
        direction /= max(1.0, np.max(np.abs(direction)))
        step = 1.0
        accepted = False
        while evals < _I_STEP_MAX_EVALS:
            trial = np.clip(theta + step * direction, lo, hi)
            if np.array_equal(trial, theta):
                break
            try:
                new, new_grad, new_hess = evaluate(trial)
            except NumericalError:  # a row of zero likelihood
                new = -np.inf
            evals += 1
            if new > cur:
                theta, cur, grad, hess = trial, new, new_grad, new_hess
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    return np.exp(theta), cur


def _initial_sub_intensities(obs, structure, betas, rng):
    """Admissible random rates, rescaled so the mean absorption time from the
    middle state matches the sample mean of the uncensored transformed times.
    Keeps iteration 1 on a sane numeric scale. A couple censored far past
    that mean can have evidence 0 or nearly so at this start; then every
    margin's mean is doubled, at most 64 times, until no couple's evidence
    under equal start weights is below _START_EVIDENCE."""
    x = transform_data(obs, betas)
    p = structure.dim
    anchor = (p + 1) // 2 - 1  # middle state, 0-based
    raw, targets = [], []
    for i in range(obs.n_margins):
        died = obs.delta[:, i].astype(bool)
        target = float((x[died, i] if np.any(died) else x[:, i]).mean())
        targets.append(target if np.isfinite(target) and target > 0.0 else 1.0)
        raw.append(random_sub_intensity(structure, rng))
    for doubling in range(65):
        subs = [_scale_to_mean(sub, anchor, t * 2.0 ** doubling) for sub, t in zip(raw, targets)]
        # exp(T x) >= exp(diag(T) x) entrywise, so only couples where that
        # cheap bound on the evidence is low need the full exponentials
        bound = np.full((obs.n, p), 1.0 / p)
        for i, sub in enumerate(subs):
            v = np.where(obs.delta[:, i, None] == 1, sub.exit_rates, 1.0)
            bound *= np.exp(np.diag(sub.matrix) * x[:, i, None]) * v
        rows = np.flatnonzero(~(bound.sum(axis=1) >= _START_EVIDENCE))
        w = np.full((rows.size, p), 1.0 / p)
        for i, sub in enumerate(subs):
            w *= _margin_kernels(sub, x[rows, i], obs.delta[rows, i])[1]
        if np.all(w.sum(axis=1) >= _START_EVIDENCE):
            break
    return subs


def fit(obs: ObservationSet, config: FitConfig) -> FitReport:
    """Run the EM loop and return the fitted model plus its trace.

    Deterministic given ``(obs, config)``: the only randomness is the
    rate initialization, seeded by ``config.seed``. Trace entry k is the
    observed log-likelihood at the end of iteration k: the I-step's own value
    where one ran, else one value pass. A couple whose evidence or likelihood
    is 0 in double precision stops the fit with a :class:`NumericalError`
    naming its row; no row is dropped.
    """
    n, d = obs.y.shape
    structure = (CoxianStructure if config.structure == "coxian" else GeneralStructure)(config.p)
    rng = np.random.default_rng(config.seed)
    betas = _as_betas(config.beta_init, d)
    subs = _initial_sub_intensities(obs, structure, betas, rng)
    gamma = np.zeros((config.p, obs.covariates.shape[1]))
    per_obs_pi = np.full((n, config.p), 1.0 / config.p)

    trace = []
    converged = False
    prev = None
    for it in range(1, config.max_iterations + 1):
        try:
            stats = e_step(transform_data(obs, betas), obs.delta, per_obs_pi, subs)
            gamma, per_obs_pi = r_step(stats.b, obs.covariates, gamma)
            subs = m_step(stats, structure)
            if config.i_step_every and it % config.i_step_every == 0:
                betas, ll = i_step(obs, per_obs_pi, subs, betas)
            else:
                ll = _age_scale_loglik(obs.y, obs.delta, per_obs_pi, subs, betas,
                                       derivatives=False)
        except NumericalError as err:
            raise NumericalError(f"EM iteration {it}: {err}") from err
        trace.append(ll)
        if (config.loglik_tolerance is not None and prev is not None
                and abs(ll - prev) < config.loglik_tolerance * n):
            converged = True
            break
        prev = ll

    margins = tuple(Margin(sub=sub, transform=GompertzTransform(float(beta)))
                    for sub, beta in zip(subs, betas))
    return FitReport(model=MIPHModel(margins=margins, gamma=gamma),
                     loglik_trace=np.asarray(trace), iterations=len(trace),
                     converged=converged)
