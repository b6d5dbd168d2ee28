"""EM estimation for covariate-linked multivariate phase-type lifetimes.

The observed data are right-censored joint lifetimes with per-subject
covariates. One EM iteration maps one model to the next by four steps:

* E: posterior expectations of start-state indicators (B), state occupancies
  (Z) and transition/exit counts (N) given the current parameters, on the
  operational time scale. Censored margins contribute survival kernels,
  uncensored margins density kernels; all occupation/transition integrals
  reduce to one sum of Fréchet derivatives of exp(T x) per margin, computed
  on p x p matrices, because the integrand's middle factor is rank one.
* R: weighted multinomial-logistic regression of the B-weights on the
  covariates (softmax link, state 0 is the zero reference row), by damped
  Newton iteration that stops once the Newton decrement falls to the
  rounding resolution of the objective.
* M: closed-form rate updates ``t_ks = E[N_ks] / E[Z_k]`` on the admissible
  structure pattern.
* I: guarded Newton ascent of the observed log-likelihood over
  theta = log(beta), on its analytic gradient and exact d x d Hessian.

The E-step's normalising constants are the couples' likelihoods at its
point (Asmussen, Nerman & Olsson, Scand. J. Stat. 23, 1996): one helper
forms them for the E-step, :func:`observed_loglik` and the EM start, and the
fit's trace comes from the E-steps. Each step exponentiates its own point
at x from :func:`phasetype._operational_time`, as :class:`linalg.TaylorExpm`
carriers in which only rows that need squaring hold p x p matrices.

Times enter estimation on the internal scale (years / 100); see `dataio`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError
from .linalg import _frechet_rows
from .model import Margin, MIPHModel, _softmax
from .phasetype import (
    GompertzTransform,
    SubIntensity,
    _age_factors,
    _exp_factors,
    _exponentials,
    _operational_time,
    random_sub_intensity,
    transition_mask,
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
# weights reach 1/evidence, and this keeps their Fréchet directions v c' x far
# from overflow
_START_EVIDENCE = np.sqrt(np.finfo(float).tiny)
_EPS = np.finfo(float).eps
# I-step budget and stopping rule: likelihood evaluations per call, and the
# Newton decrement per observation below which the step stops
_I_STEP_MAX_EVALS = 12
_I_STEP_DECREMENT_TOL = 1e-9
# the I-step keeps log(beta) inside these bounds; the R-step caps the
# regression coefficients at this size and its Newton iterations at this
# count; the M-step gives states with zero expected occupancy this diagonal
_LOG_BETA_BOUNDS = (-5.0, 7.0)
_R_STEP_COEF_CAP = 1e3
_R_STEP_MAX_ITER = 200
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
    log_evidence : float
        Sum of the log row evidence: the log-likelihood on the operational scale.
    """

    b: np.ndarray
    z: np.ndarray
    n_trans: np.ndarray
    n_exit: np.ndarray
    log_evidence: float

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
        for name in ("p", "max_iterations", "i_step_every", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        transition_mask(self.structure, self.p)
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.i_step_every < 0:
            raise ValueError("i_step_every must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        tol = self.loglik_tolerance
        if tol is not None and (np.ndim(tol) or np.asarray(tol).dtype.kind not in "iuf"
                                or not 0.0 < tol < np.inf):
            raise ValueError(f"loglik_tolerance must be None or finite and > 0, got {tol!r}")
        _as_betas(self.beta_init)


@dataclass(frozen=True)
class FitReport:
    """Result of :func:`fit`: the fitted model, the trace (entry k is the observed
    log-likelihood after iteration k), and whether the tolerance rule triggered."""

    model: MIPHModel
    loglik_trace: np.ndarray
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.loglik_trace)

    @property
    def final_loglik(self) -> float:
        return float(self.loglik_trace[-1])


def _as_betas(beta_init, d: int | None = None) -> np.ndarray:
    """``beta_init`` as floats, finite and > 0; a scalar is repeated over ``d`` margins.
    A bool anywhere is refused, also where numpy would upcast it among floats."""
    if np.asarray(beta_init).dtype.kind not in "iuf" or any(
            isinstance(v, (bool, np.bool_)) for v in np.ravel(np.asarray(beta_init, dtype=object))):
        raise ValueError(f"beta_init values must be integers or floats, got {beta_init!r}")
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
    x = _operational_time(_as_betas(betas, obs.n_margins), obs.y)
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


def _evidence(x, delta, per_obs_pi, subs):
    """Each margin's exponentials and evidence rows (density where ``delta``,
    else survival, on the operational scale), ``w = pi * prod_i evidence_i``
    and its row sums ``denom``. An overflowed x gives a zero row."""
    exps = [_exponentials(sub, x[:, i]) for i, sub in enumerate(subs)]
    evidence = [_exp_factors(sub, exps[i], delta[:, i])[0] for i, sub in enumerate(subs)]
    w = per_obs_pi.copy()
    for a_i in evidence:
        w *= a_i
    return exps, evidence, w, w.sum(axis=1)


def _log_jacobian(obs: ObservationSet, betas) -> float:
    """``sum delta beta y``, the log Jacobians ``exp(beta y)`` of the deaths' densities."""
    return float((obs.delta * betas * obs.y).sum())


def e_step(x, delta, per_obs_pi, subs) -> SufficientStats:
    """Posterior expectations of the complete-data statistics, given the (n, d)
    operational times ``x``, the censoring indicators ``delta`` (1 = death
    observed), each observation's start vector (rows of the (n, p)
    ``per_obs_pi``) and one :class:`SubIntensity` per margin in ``subs``.

    For observation m and margin i, the occupancy and transition expectations
    are the diagonal/entries of

        U = integral_0^{x_mi} exp(T_i (x - s)) v c' exp(T_i s) ds,

    where v is the exit-rate vector (death) or the all-ones vector (censored)
    and c is the posterior over the shared start state given the other
    margins. U is the Fréchet derivative L(T_i x_mi, v c' x_mi) of the
    exponential, the upper-right block of exp([[T_i, v c'], [0, T_i]] x_mi)
    (Van Loan's block form); linearity in the middle factor collapses the
    per-state integrals into one, and only their sum S_i over m is read:
    z_i = diag(S_i), and the transitions are T_i * S_i' off the diagonal.
    The evidence rows come from :func:`_evidence`; on the same
    exponentials, :meth:`linalg.TaylorExpm.left_sum` gives the absorption
    counts ``t * sum_m c_m' exp(T_i x_m)`` over the deaths, and
    :meth:`linalg.TaylorExpm.frechet_sum` the part of S_i over the rows it
    does not square. Both Fréchet kernels take v as ``vs[kind]`` with
    ``vs = [1, t]`` and ``kind = died``, the rule by which
    :func:`phasetype._exp_factors` picks its columns, so no (n, p) array of
    directions is formed. The exponentials are then dropped, and
    :func:`linalg._frechet_rows` adds the squared rows. It scales each of
    them like that 2p x 2p block, so a squared row with large weights c
    loses occupancy (ROADMAP E1).

    ``log_evidence`` is the sum of log ``denom``, the couples' likelihoods on
    the operational scale. A row whose ``denom`` is exactly 0 in double
    precision raises :class:`NumericalError` naming it; no row is dropped. So
    does a row whose posterior weights overflow (its evidence near 1e-308).
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
    exps, evidence, w, denom = _evidence(x, delta, per_obs_pi, subs)
    _require_rows(denom > 0.0, "evidence underflowed to 0")
    b = d * w / denom[:, None]

    sums = np.zeros((d, p, p))  # S_i = sum_m L(T_i x_mi, x_mi v c')
    n_exit = np.zeros((d, p))
    squared = []
    for i, sub in enumerate(subs):
        # posterior over the start state given the *other* margins
        c = per_obs_pi.copy()
        for l in range(d):
            if l != i:
                c *= evidence[l]
        died = delta[:, i].astype(bool)
        # entry m's direction is vs[kind[m]], as _exp_factors picks its columns
        vs, kind = np.array([np.ones(p), sub.exit_rates]), died.astype(np.intp)

        # v, c, x >= 0 and rounding is monotone, so v c' x overflows where its top entry does
        with np.errstate(over="ignore", invalid="ignore"):
            c /= denom[:, None]
            bound = vs.max(axis=1)[kind] * c.max(axis=1) * x[:, i]
        _require_rows(np.isfinite(bound), f"margin {i}: posterior weights overflowed")
        if np.any(died):
            n_exit[i] = sub.exit_rates * exps[i].left_sum(c[died], died)
        sums[i] = exps[i].frechet_sum(vs, kind, x[:, i], c)
        sq = exps[i].scaling[exps[i].index] > 0  # every index is a row: denom > 0
        squared.append((sq, vs, kind[sq], c[sq]))
    del exps
    for i, (sub, (sq, vs, kind, c)) in enumerate(zip(subs, squared)):
        sums[i] += _frechet_rows(sub.matrix, x[sq, i], vs, kind, c).sum(axis=0)
    z = np.einsum("ikk->ik", sums)
    rates = np.array([sub.matrix for sub in subs])
    n_trans = np.where(~np.eye(p, dtype=bool), rates * sums.transpose(0, 2, 1), 0.0)
    # round tiny negatives from the Taylor and Padé approximants up to zero
    return SufficientStats(*(np.clip(v, 0.0, None) for v in (b, z, n_trans, n_exit)),
                           float(np.log(denom).sum()))


def r_step(b, covariates, gamma_init=None):
    """Weighted multinomial-logistic update of the initial-vector link.

    Maximizes ``sum_m sum_k b[m, k] log softmax(A_m gamma')_k`` over the
    coefficient rows 1..p-1 (row 0 is the zero reference) by Newton iteration
    with step halving; the objective is concave. Every step must raise the
    objective strictly, except the last: once the Newton decrement
    ``lambda^2 / 2`` is at most ``16 eps |objective|``, below what the
    objective can resolve, one full step is taken if it does not lower the
    objective, and the iteration stops, as it does after
    ``_R_STEP_MAX_ITER`` iterations. Coefficients are capped at
    ``_R_STEP_COEF_CAP`` in absolute value, with a warning, when the weights
    are quasi-separated and the maximizer runs away.

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
        eta = a @ gm.T
        probs, top, log_total = _softmax(eta)
        return float((b * (eta - top - log_total)).sum()), probs

    cur, probs = value_and_probs(gamma)
    for _ in range(_R_STEP_MAX_ITER):
        resid = b - weight[:, None] * probs  # (n, p)
        # sums over the n rows in einsum: BLAS splits them by its thread count
        grad = np.einsum("mk,mj->kj", resid[:, 1:], a)  # (p-1, g)

        # -Hessian = blockdiag_k(sum_m w pf_k a a') - X' W X with
        # X[m, k*g + j] = pf[m, k] a[m, j]
        pf = probs[:, 1:]  # (n, p-1)
        x = (pf[:, :, None] * a[:, None, :]).reshape(n, (p - 1) * g)
        wx = weight[:, None] * x
        neg_hess = -np.einsum("mi,mj->ij", wx, x).reshape(p - 1, g, p - 1, g)
        neg_hess[kk, :, kk, :] += np.einsum("mi,mj->ij", wx, a).reshape(p - 1, g, g)
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
        if np.max(np.abs(gamma)) > _R_STEP_COEF_CAP:
            warnings.warn(
                "initial-vector regression coefficients hit the cap "
                f"({_R_STEP_COEF_CAP:g}); weights look quasi-separated",
                RuntimeWarning,
            )
            gamma = np.clip(gamma, -_R_STEP_COEF_CAP, _R_STEP_COEF_CAP)
            gamma[0] = 0.0
            _, probs = value_and_probs(gamma)
            break
        if at_resolution:
            break
    return gamma, probs


def m_step(stats: SufficientStats, mask):
    """Closed-form rate updates on the admissible pattern, the (p, p) boolean
    ``mask`` of :func:`phasetype.transition_mask`.

    ``t_ks = E[N_ks] / E[Z_k]`` and ``t_k = E[N_k] / E[Z_k]`` per margin;
    this maximizes the complete-data surrogate exactly. A state with zero
    expected occupancy (with a warning) or no outflow gets the exit rate
    ``-_M_STEP_DIAG_FLOOR``, so the matrix stays a valid generator block.
    """
    z = stats.z
    d, p = z.shape
    if mask.shape != (p, p):
        raise ValueError(f"mask shape {mask.shape} != stats dimension {p}")
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
        dead = ~occupied | (trans.sum(axis=1) + exits <= 0.0)
        out.append(SubIntensity.from_rates(
            trans, np.where(dead, -_M_STEP_DIAG_FLOOR, exits)))
    return out


def _age_scale_loglik(y, delta, per_obs_pi, subs, betas):
    """Observed log-likelihood with the transform Jacobians included, and its
    gradient and Hessian in theta = log(beta): the I-step's objective.

    Returns ``(total, grad, hess)`` with the (d,) gradient and the (d, d)
    Hessian. Every row keeps its exact log, however small; a row whose
    likelihood is 0 in double precision raises :class:`NumericalError`
    naming it.
    Margin i's factor and its theta-derivatives come from
    :func:`phasetype._age_factors`: survival where censored, density with
    the Jacobian where the death was observed, all from the one product
    ``exp(T x) [1, t, T t, T^2 t]`` per distinct x. At a paper-scale fitted
    point (n = 8834, p = 10) both margins' exponentials take about 0.65
    (n, p, p) stacks; each is dropped once its factor rows are taken.
    """
    d = y.shape[1]
    parts = [_age_factors(sub, betas[i], y[:, i], delta[:, i].astype(bool), derivatives=True)
             for i, sub in enumerate(subs)]
    lik = per_obs_pi.copy()
    for f, *_ in parts:
        lik *= f
    rows = lik.sum(axis=1)
    _require_rows(rows > 0.0, "likelihood underflowed to 0")
    total = float(np.log(rows).sum())
    factors, first, second = zip(*parts)  # per margin: f, df/dtheta, d2f/dtheta2

    def weighted(replace):
        """Per-row sum_j pi_j prod_l f_l with margin l's factor swapped for
        ``replace[l]``, divided by the row likelihood."""
        w = per_obs_pi.copy()
        for l in range(d):
            w *= replace.get(l, factors[l])
        return w.sum(axis=1) / rows

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
    factors: the E-step's log evidence plus the deaths' Jacobian term, bit for
    bit as an E-step at ``model`` gives them. A row whose likelihood is 0 in
    double precision (an overflowed x included) raises :class:`NumericalError`.
    """
    if model.n_margins != obs.n_margins:
        raise ValueError(f"model has {model.n_margins} margins, data has {obs.n_margins}")
    betas = np.array([m.transform.beta for m in model.margins])
    denom = _evidence(_operational_time(betas, obs.y), obs.delta,
                      model.initial_vectors(obs.covariates),
                      [m.sub for m in model.margins])[-1]
    _require_rows(denom > 0.0, "likelihood underflowed to 0")
    return float(np.log(denom).sum()) + _log_jacobian(obs, betas)


def i_step(obs: ObservationSet, per_obs_pi, subs, betas_init):
    """Update the transform parameters by guarded Newton ascent of the
    observed log-likelihood over theta = log(beta).

    Each iteration solves with the exact d x d Hessian, its eigenvalues
    clamped so the model is concave, caps the step at 1 in every log(beta),
    keeps theta inside ``_LOG_BETA_BOUNDS``, and halves the step until the
    likelihood rises strictly. The step stops once the Newton decrement is
    at most 1e-9 per observation, when no halving ascends, or after 12
    likelihood evaluations. A trial point where some row's likelihood is 0
    counts as -inf and is rejected; at the incumbent such a row raises
    :class:`NumericalError`. The step never lowers the likelihood.

    Returns ``betas = exp(theta)`` at the last accepted point, or the
    incumbent if none was.
    """
    betas_init = _as_betas(betas_init, obs.n_margins)
    per_obs_pi = np.asarray(per_obs_pi, dtype=float)
    lo, hi = _LOG_BETA_BOUNDS

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
    return np.exp(theta)


def _initial_sub_intensities(obs, mask, betas, rng):
    """Random rates on ``mask``, rescaled so the mean absorption time from the
    middle state, ``e_k' (-T)^{-1} 1``, matches the sample mean of the
    uncensored transformed times.
    Keeps iteration 1 on a sane numeric scale. A couple censored far past
    that mean can have evidence 0 or nearly so at this start; then every
    margin's mean is doubled, at most 64 times, until no couple's evidence
    under equal start weights is below _START_EVIDENCE."""
    x = transform_data(obs, betas)
    p = mask.shape[0]
    anchor = (p + 1) // 2 - 1  # middle state, 0-based
    raw, means, targets = [], [], []
    for i in range(obs.n_margins):
        died = obs.delta[:, i].astype(bool)
        target = float((x[died, i] if np.any(died) else x[:, i]).mean())
        targets.append(target if np.isfinite(target) and target > 0.0 else 1.0)
        raw.append(random_sub_intensity(mask, rng).matrix)
        # every exit rate is >= 0.1, so -T is strictly diagonally dominant
        means.append(float(np.linalg.solve(-raw[-1], np.ones(p))[anchor]))
    for doubling in range(65):
        subs = [SubIntensity(matrix * (mean / (target * 2.0 ** doubling)))
                for matrix, mean, target in zip(raw, means, targets)]
        if _evidence(x, obs.delta, np.full((obs.n, p), 1.0 / p), subs)[-1].min() >= _START_EVIDENCE:
            break
    return subs


def _em_step(obs: ObservationSet, model: MIPHModel, mask, run_i_step: bool):
    """One EM iteration as a map on the point ``model``: E, R (warm at its
    ``gamma``) and M from its start vectors, rates and transforms, then the
    I-step if ``run_i_step``. Returns the next model and the value of
    ``model``, from the E-step's evidence bit for bit as :func:`observed_loglik`
    gives it; nothing else passes between iterations."""
    betas = np.array([m.transform.beta for m in model.margins])
    stats = e_step(transform_data(obs, betas), obs.delta,
                   model.initial_vectors(obs.covariates), [m.sub for m in model.margins])
    value = stats.log_evidence + _log_jacobian(obs, betas)
    gamma, per_obs_pi = r_step(stats.b, obs.covariates, model.gamma)
    subs = m_step(stats, mask)
    if run_i_step:
        betas = i_step(obs, per_obs_pi, subs, betas)
    return MIPHModel(margins=tuple(Margin(sub, GompertzTransform(float(beta)))
                                   for sub, beta in zip(subs, betas)), gamma=gamma), value


def fit(obs: ObservationSet, config: FitConfig) -> FitReport:
    """Run the EM loop from a random start; return its last point and the trace.

    Deterministic given ``(obs, config)`` on the same numpy build and CPU, at
    any BLAS thread count; the only randomness is the start's rates, seeded by
    ``config.seed``. Iteration k is one :func:`_em_step`, with the I-step where
    ``config.i_step_every`` divides k. Trace entry k, the value of the model
    after iteration k, comes from the E-step of iteration k + 1, where the
    tolerance is checked: a fit that stops there returns that model; else one
    :func:`observed_loglik` pass values the last. A couple of zero likelihood
    stops the fit with a :class:`NumericalError` naming its row.
    """
    mask = transition_mask(config.structure, config.p)
    betas = _as_betas(config.beta_init, obs.n_margins)
    subs = _initial_sub_intensities(obs, mask, betas, np.random.default_rng(config.seed))
    model = MIPHModel(margins=tuple(Margin(sub, GompertzTransform(float(beta)))
                                    for sub, beta in zip(subs, betas)),
                      gamma=np.zeros((config.p, obs.covariates.shape[1])))
    trace = []
    for it in range(1, config.max_iterations + 2):
        try:
            if it > config.max_iterations:  # no E-step left to value the last iterate
                following, ll = model, observed_loglik(obs, model)
            else:
                following, ll = _em_step(obs, model, mask, config.i_step_every > 0
                                         and it % config.i_step_every == 0)
        except NumericalError as err:
            raise NumericalError(f"EM iteration {it}: {err}") from err
        if it > 1:  # ll is the value of the model after iteration it - 1
            trace.append(ll)
            if (config.loglik_tolerance is not None and len(trace) > 1
                    and abs(ll - trace[-2]) < config.loglik_tolerance * obs.n):
                return FitReport(model=model, loglik_trace=np.asarray(trace), converged=True)
        model = following
    return FitReport(model=model, loglik_trace=np.asarray(trace), converged=False)
