"""Multivariate inhomogeneous phase-type (mIPH) joint lifetime models.

A d-variate lifetime vector is built from d terminating Markov jump processes
that share a single random start state drawn from an initial vector ``pi`` and
evolve independently afterwards, each margin observed through its own
increasing time transform. The shared start state is the only source of
dependence, which keeps every joint quantity an explicit sum over states:

    S(y)  = sum_j pi_j  prod_i  e_j' exp(T_i g_i^{-1}(y_i)) 1
    f(y)  = sum_j pi_j  prod_i  e_j' exp(T_i g_i^{-1}(y_i)) t_i (g_i^{-1})'(y_i)

Initial vectors may be tied to covariates through multinomial-logistic
coefficients ``gamma`` (reference state 0, zero row), or fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError
from .phasetype import (
    GompertzTransform,
    SubIntensity,
    _age_factors,
    _check_absorbing,
    _check_nonneg,
    _check_start_rows,
    sample_absorption_times,
    validate_initial_vector,
)

__all__ = [
    "Margin",
    "MIPHModel",
    "joint_density",
    "joint_survival",
    "joint_cdf",
    "joint_grid",
    "marginal_survival",
    "condition_on_value",
    "condition_on_survival",
    "kendall_tau",
    "spearman_rho",
    "psi1",
    "psi2",
    "cross_ratio",
    "conditional_expectation",
    "sample_joint_rows",
]

_SURVIVAL_TRUNCATION = 1e-12
_DENOM_FLOOR = 1e-300

# Composite Gauss-Legendre rule for conditional expectations: 8 equal panels
# of 32 nodes each in log operational time. Nodes and weights live on [-1, 1].
_GL_PANELS = 8
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


@dataclass(frozen=True)
class Margin:
    """One coordinate of the joint model: a sub-intensity matrix plus the
    time transform under which that coordinate is observed."""

    sub: SubIntensity
    transform: GompertzTransform


@dataclass(frozen=True)
class MIPHModel:
    """Joint model: margins sharing one latent start state.

    Exactly one of ``gamma`` (covariate-linked initial vectors via softmax,
    reference row 0 fixed at zero) and ``fixed_pi`` may be set; both may be
    omitted when initial vectors are always supplied by the caller.
    """

    margins: tuple[Margin, ...]
    gamma: np.ndarray | None = None
    fixed_pi: np.ndarray | None = None

    def __post_init__(self):
        margins = tuple(self.margins)
        if len(margins) < 1:
            raise ValueError("model needs at least one margin")
        dims = {m.sub.dim for m in margins}
        if len(dims) != 1:
            raise ValueError(f"margins disagree on state-space size: {sorted(dims)}")
        object.__setattr__(self, "margins", margins)
        if self.gamma is not None and self.fixed_pi is not None:
            raise ValueError("set gamma or fixed_pi, not both")
        if self.gamma is not None:
            g = np.asarray(self.gamma, dtype=float)
            if g.ndim != 2 or g.shape[0] != self.dim:
                raise ValueError(
                    f"gamma must be (p, g) with p = {self.dim}, got {g.shape}"
                )
            if not np.all(np.isfinite(g)):
                raise ValueError("gamma has non-finite entries")
            if np.any(g[0] != 0.0):
                raise ValueError("gamma row 0 is the reference and must be zero")
            object.__setattr__(self, "gamma", g)
        if self.fixed_pi is not None:
            object.__setattr__(
                self, "fixed_pi", validate_initial_vector(self.fixed_pi, self.dim)
            )

    @property
    def dim(self) -> int:
        """Number of transient states p."""
        return self.margins[0].sub.dim

    @property
    def n_margins(self) -> int:
        return len(self.margins)

    def initial_vectors(self, covariates) -> np.ndarray:
        """Per-observation initial vectors.

        With ``gamma`` set, rows are ``softmax(A @ gamma.T)`` (computed with
        max subtraction), taken once when every row of ``A @ gamma.T`` is the
        same; with ``fixed_pi`` set, that vector is broadcast.
        """
        a = np.asarray(covariates, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"covariates must be 2-d, got shape {a.shape}")
        if self.gamma is not None:
            if a.shape[1] != self.gamma.shape[1]:
                raise ValueError(
                    f"covariate width {a.shape[1]} does not match gamma "
                    f"width {self.gamma.shape[1]}"
                )
            eta = a @ self.gamma.T
            if len(eta) > 1 and (eta == eta[0]).all():
                # one design row repeated, as `miph simulate --ages` builds
                return np.broadcast_to(_softmax(eta[:1])[0], eta.shape).copy()
            return _softmax(eta)[0]
        if self.fixed_pi is not None:
            return np.broadcast_to(self.fixed_pi, (a.shape[0], self.dim)).copy()
        raise ValueError("model carries neither gamma nor fixed_pi")


def _softmax(eta):
    """Row-wise softmax of 2-d float ``eta`` with max subtraction, in place on
    ``eta - top``. Returns ``(probs, top, log_total)``: the row maxima and log
    normalisers, so the log-probabilities are ``eta - top - log_total``."""
    top = eta.max(axis=1, keepdims=True)
    probs = eta - top
    np.exp(probs, out=probs)
    total = probs.sum(axis=1, keepdims=True)
    probs /= total
    return probs, top, np.log(total)


def _check_points(model: MIPHModel, y):
    """Coerce y to (n, d); remembers whether the input was a single point."""
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 1
    if scalar:
        y = y[None, :]
    if y.ndim != 2 or y.shape[1] != model.n_margins:
        raise ValueError(
            f"expected points with {model.n_margins} coordinates, got shape {y.shape}"
        )
    if not np.all(np.isfinite(y)):
        raise ValueError("evaluation points have non-finite entries")
    if y.size and y.min() < 0.0:
        raise ValueError("evaluation points must be >= 0")
    return y, scalar


def _margin_factors(margin: Margin, y, died) -> np.ndarray:
    """Survival (or, where ``died``, density) factor rows of one margin at
    ages ``y``; see :func:`phasetype._age_factors`."""
    return _age_factors(margin.sub, margin.transform.beta, y, died)[0]


def joint_density(model: MIPHModel, pi, y):
    """Joint density at one point ``(d,)`` or a batch ``(n, d)`` of points."""
    return _over_margins(model, pi, y, lambda m, a: _margin_factors(m, a, True))


def joint_survival(model: MIPHModel, pi, y):
    """Joint survival P(Y_1 > y_1, ..., Y_d > y_d)."""
    return _over_margins(model, pi, y, lambda m, a: _margin_factors(m, a, False))


def joint_cdf(model: MIPHModel, pi, y):
    """Joint distribution function P(Y_1 <= y_1, ..., Y_d <= y_d)."""
    return _over_margins(model, pi, y, lambda m, a: 1.0 - _margin_factors(m, a, False))


def _over_margins(model: MIPHModel, pi, y, factor):
    """``sum_j pi_j prod_i factor(margin_i, y_i)[j]`` at each point of ``y``."""
    pi = validate_initial_vector(pi, model.dim)
    pts, scalar = _check_points(model, y)
    factors = np.ones((pts.shape[0], model.dim))
    for i, margin in enumerate(model.margins):
        factors *= factor(margin, pts[:, i])
    vals = factors @ pi
    return float(vals[0]) if scalar else vals


def joint_grid(model: MIPHModel, pi, axes):
    """Joint density, survival and distribution function, each shaped
    ``(k_1, ..., k_d)``, on the tensor grid of ``axes``, one 1-d array of ages
    per margin. One factor pass per margin over its axis serves all three;
    as a factor row's bits depend on its age alone, the values are bit for
    bit those of the ``joint_*`` functions on the grid's points in row-major
    order."""
    pi = validate_initial_vector(pi, model.dim)
    axes = [np.asarray(a, dtype=float) for a in axes]
    if [a.ndim for a in axes] != [1] * model.n_margins:
        raise ValueError(f"expected {model.n_margins} 1-d axes, got shapes "
                         f"{[a.shape for a in axes]}")
    for a in axes:  # the points (a, ..., a) have the axis's faults
        _check_points(model, np.repeat(a[:, None], model.n_margins, axis=1))
    shape = tuple(a.size for a in axes)
    rows = []  # each margin's density, survival and cdf rows, on its grid axis
    for i, (margin, a) in enumerate(zip(model.margins, axes)):
        dens, surv = np.split(_margin_factors(margin, np.tile(a, 2),
                                              np.repeat([True, False], a.size)), 2)
        at = (1,) * i + (a.size,) + (1,) * (len(axes) - i - 1) + (model.dim,)
        rows.append([r.reshape(at) for r in (dens, surv, 1.0 - surv)])
    factors = np.empty(shape + (model.dim,))
    out = []
    for q in range(3):
        factors[...] = rows[0][q]  # as exact as ones times the first rows
        for r in rows[1:]:
            factors *= r[q]
        out.append((factors.reshape(-1, model.dim) @ pi).reshape(shape))
    return tuple(out)


def marginal_survival(model: MIPHModel, pi, margin: int, y):
    """Survival of one coordinate, ignoring the others, at the scalar or 1-d
    ``y >= 0``; a scalar gives a float."""
    m = model.margins[_check_margin(model, margin)]
    pi = validate_initial_vector(pi, model.dim)
    if np.ndim(y) > 1:
        raise ValueError(f"y must be a scalar or a 1-d array, got shape {np.shape(y)}")
    vals = _margin_factors(m, np.atleast_1d(_check_nonneg(y, "y")), False) @ pi
    return float(vals[0]) if np.ndim(y) == 0 else vals


def _check_margin(model: MIPHModel, margin: int) -> int:
    if isinstance(margin, bool) or not isinstance(margin, (int, np.integer)):
        raise ValueError(f"margin must be an integer, got {margin!r}")
    margin = int(margin)
    if not 0 <= margin < model.n_margins:
        raise ValueError(
            f"margin must be in [0, {model.n_margins}), got {margin}"
        )
    return margin


def condition_on_value(model: MIPHModel, pi, margin: int, y: float):
    """Condition on ``Y_margin = y`` (an observed death time).

    Returns the reduced model over the remaining margins together with the
    updated start-state vector ``alpha_j \\propto pi_j e_j' exp(T x) t``
    (the transform's Jacobian, common to all states, cancels in the
    normalization).
    """
    return _condition(model, pi, margin, y, True)


def condition_on_survival(model: MIPHModel, pi, margin: int, y: float):
    """Condition on ``Y_margin >= y`` (margin still alive at age y).

    Returns the reduced model and ``nu_j \\propto pi_j e_j' exp(T x) 1``.
    """
    return _condition(model, pi, margin, y, False)


def _condition(model: MIPHModel, pi, margin: int, y: float, died: bool):
    margin = _check_margin(model, margin)
    if model.n_margins < 2:
        raise ValueError("conditioning needs at least two margins")
    pi = validate_initial_vector(pi, model.dim)
    y = float(y)
    if not (np.isfinite(y) and y >= 0.0):
        raise ValueError(f"conditioning age must be finite and >= 0, got {y}")
    start = _conditioned_starts(model.margins[margin], pi, np.array([y]), died)[0]
    rest = model.margins[:margin] + model.margins[margin + 1:]
    return MIPHModel(rest, fixed_pi=start), start


def _conditioned_starts(margin: Margin, pi, y, died: bool) -> np.ndarray:
    """Start vectors given the margin's death at (``died``) or survival to
    each age of the 1-d ``y``, one row per age, from one batch."""
    weights = pi * _margin_factors(margin, y, died)
    total = weights.sum(axis=1)
    # the floor applies to pi' exp(T x) v, without the density's Jacobian
    mass = total * np.exp(-margin.transform.beta * y) if died else total
    bad = np.flatnonzero(~(np.isfinite(total) & (mass >= _DENOM_FLOOR)))
    if bad.size:
        raise NumericalError(f"conditioning {'density' if died else 'survival'} underflowed"
                             f" at y = {y[bad[0]]} (mass {mass[bad[0]]:.3e})")
    return weights / total[:, None]


def _precedence_matrix(sub: SubIntensity) -> np.ndarray:
    """U[a, b] = P(a copy started in b is absorbed while a copy started in a
    is still alive), for two independent copies of the same chain.

    Solves ``-(T (+) T) u = 1 (x) t`` with the Kronecker sum
    ``T (+) T = T (x) I + I (x) T``, whose eigenvalues are the pairwise sums
    of T's, so it is invertible once every state reaches an exit. Unstacks
    row-major, so entry ``(a, b)`` sits at flat index ``a * p + b``. T and t
    are first scaled exactly, by a power of two, to max|T| < 1, which leaves
    U unchanged and keeps the sum from overflowing.
    """
    _check_absorbing(sub)
    p = sub.dim
    exponent = np.frexp(np.abs(sub.matrix).max())[1]
    t, eye = np.ldexp(sub.matrix, -exponent), np.eye(p)
    rhs = np.tile(np.ldexp(sub.exit_rates, -exponent), p)
    u = np.linalg.solve(-(np.kron(t, eye) + np.kron(eye, t)), rhs)
    if not np.all(np.isfinite(u)):
        raise NumericalError("precedence matrix has non-finite entries")
    return u.reshape(p, p)


def _check_pair(model: MIPHModel, pair) -> tuple[int, int]:
    k, l = (_check_margin(model, pair[0]), _check_margin(model, pair[1]))
    if k == l:
        raise ValueError("pair must name two distinct margins")
    return k, l


def kendall_tau(model: MIPHModel, pi, pair=(0, 1)) -> float:
    """Kendall's tau between two margins.

    Rank correlations are invariant under the margins' strictly increasing
    time transforms, so this works on the untransformed chains:

        tau = 4 sum_{a,b} pi_a pi_b U_k[a,b] U_l[a,b] - 1
    """
    k, l = _check_pair(model, pair)
    pi = validate_initial_vector(pi, model.dim)
    u_k = _precedence_matrix(model.margins[k].sub)
    u_l = _precedence_matrix(model.margins[l].sub)
    return float(4.0 * pi @ (u_k * u_l) @ pi - 1.0)


def spearman_rho(model: MIPHModel, pi, pair=(0, 1)) -> float:
    """Spearman's rho between two margins.

        rho = 12 sum_j pi_j (pi' U_k)[j] (pi' U_l)[j] - 3,

    with the same precedence matrices as Kendall's tau; ``(pi' U)[j]`` is the
    probability that the coupled margin started in j outlives an independent
    copy started from ``pi``.
    """
    k, l = _check_pair(model, pair)
    pi = validate_initial_vector(pi, model.dim)
    a_k = pi @ _precedence_matrix(model.margins[k].sub)
    a_l = pi @ _precedence_matrix(model.margins[l].sub)
    return float(12.0 * pi @ (a_k * a_l) - 3.0)


def _bivariate_ages(model: MIPHModel, pi, *ages):
    """Validated initial vector of a bivariate model, its ages broadcast to
    1-d arrays, and whether they were all scalars."""
    if model.n_margins != 2:
        raise ValueError("this measure is defined for bivariate models")
    pi = validate_initial_vector(pi, model.dim)
    ages = np.array(np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in ages)))
    if ages.ndim > 2:
        raise ValueError(f"ages must be scalars or 1-d arrays, got shape {ages.shape[1:]}")
    return pi, _check_nonneg(ages, "ages").reshape(len(ages), -1), ages.ndim == 1


def psi1(model: MIPHModel, pi, y1, y2):
    """Survival dependence ratio S(y1, y2) / (S_1(y1) S_2(y2)).

    Equals 1 everywhere iff the margins are independent; > 1 signals
    positive association at (y1, y2). ``y1`` and ``y2`` are scalars or 1-d
    arrays that broadcast together; arrays give an array.
    """
    pi, (y1, y2), scalar = _bivariate_ages(model, pi, y1, y2)
    sv1, sv2 = (_margin_factors(m, y, False) for m, y in zip(model.margins, (y1, y2)))
    denom = (sv1 @ pi) * (sv2 @ pi)
    if np.any(denom < _DENOM_FLOOR):
        k = np.argmax(denom < _DENOM_FLOOR)
        raise NumericalError(f"marginal survival underflowed at ({y1[k]}, {y2[k]}); "
                             "ratio undefined")
    vals = (sv1 * sv2) @ pi / denom
    return float(vals[0]) if scalar else vals


def psi2(model: MIPHModel, pi, margin: int, y):
    """Conditional-expectation ratio E[Y_m | Y_other >= y] / E[Y_m].

    ``y`` is a scalar or a 1-d array. Both expectations are start vectors
    times one vector from :func:`_state_expectations`: ``pi``, and the start
    vectors given the partner's survival to each age, all from one batch.
    """
    margin = _check_margin(model, margin)
    pi, (y,), scalar = _bivariate_ages(model, pi, y)
    e = _state_expectations(model.margins[margin])
    vals = (_conditioned_starts(model.margins[1 - margin], pi, y, False) @ e) / (pi @ e)
    return float(vals[0]) if scalar else vals


def cross_ratio(model: MIPHModel, pi, u):
    """Clayton-type cross-ratio on the diagonal, CR(u, u).

    CR = S * d2S/dy1dy2 / (dS/dy1 * dS/dy2) evaluated at (u, u), with all
    derivatives taken on the joint survival function; the mixed partial is
    the joint density. Identically 1 for one-state models and > 1 under the
    positive dependence induced by a shared start state. ``u`` is a scalar
    or a 1-d array; arrays give an array.
    """
    pi, (u,), scalar = _bivariate_ages(model, pi, u)
    # survival and density rows of each margin from one exponential per age
    died = np.repeat([False, True], u.size)
    (sv1, dv1), (sv2, dv2) = (np.split(_margin_factors(m, np.tile(u, 2), died), 2)
                              for m in model.margins)
    # S, the joint density f, -dS/dy1 and -dS/dy2
    s, f, d1, d2 = np.stack([sv1 * sv2, dv1 * dv2, dv1 * sv2, sv1 * dv2]) @ pi
    denom = d1 * d2
    if np.any(denom < _DENOM_FLOOR):
        raise NumericalError(
            f"survival gradient underflowed at u = {u[np.argmax(denom < _DENOM_FLOOR)]}"
        )
    vals = s * f / denom
    return float(vals[0]) if scalar else vals


def _truncation_point(margin: Margin) -> float:
    def survival(y):
        # slowest start state; 0 past the transform's overflow (it probes far out)
        return float(_margin_factors(margin, np.array([y]), False)[0].max())

    hi = 0.5
    if survival(hi) < _SURVIVAL_TRUNCATION:
        # a steep clock: halve while survival at half the age is still below
        # the cut, so the integration range does not overshoot the support
        while survival(0.5 * hi) < _SURVIVAL_TRUNCATION:
            hi *= 0.5
        return hi
    for _ in range(200):
        hi *= 2.0
        if survival(hi) < _SURVIVAL_TRUNCATION:
            return hi
    raise NumericalError("survival does not decay; expectation diverges")


def _state_expectations(margin: Margin) -> np.ndarray:
    """e[j] = E[Y | start in j], the integral of state j's survival over
    ``[0, hi]``: ``hi`` is the first of 0.5, 1, 2, ... at which every state's
    survival is below 1e-12, or, if it already is at 0.5, the smallest of
    0.5, 0.25, ... at which it is.

    The integral runs in log operational time ``u = log x``, where each
    exponential ``exp(-lambda x)`` falls off over a width of order one
    whatever ``lambda``, and so does the Gompertz cliff at old ages. A fixed
    composite Gauss-Legendre rule, 8 equal panels of 32 nodes, covers ``u``
    from ``log(1e-12 / max exit rate)`` to ``log x(hi)``, all 256 nodes in
    one batch. Below the first node survival is 1 to within 1e-12, so that
    piece contributes its length.
    """
    _check_absorbing(margin.sub)
    hi = _truncation_point(margin)
    beta = margin.transform.beta
    u_lo = np.log(_SURVIVAL_TRUNCATION / margin.sub.exit_rates.max())
    u_hi = beta * hi + np.log(-np.expm1(-beta * hi) / beta)  # log x(hi)
    half = 0.5 * (u_hi - u_lo) / _GL_PANELS
    centres = u_lo + half * (2.0 * np.arange(_GL_PANELS) + 1.0)
    u = (centres[:, None] + half * _GL_NODES[None, :]).ravel()
    y = np.logaddexp(0.0, u + np.log(beta)) / beta  # log1p(beta x) / beta
    dy_du = np.exp(u - beta * y)  # x / (1 + beta x)
    weights = np.tile(_GL_WEIGHTS, _GL_PANELS) * dy_du
    head = np.logaddexp(0.0, u_lo + np.log(beta)) / beta
    return head + half * (weights @ _margin_factors(margin, y, False))


def conditional_expectation(
    model: MIPHModel, pi, margin: int, given: tuple[int, float] | None = None
) -> float:
    """E[Y_margin], optionally given ``Y_l >= y_l`` with ``given = (l, y_l)``.

    Linear in the start vector, the only link between margins: ``start @ e``
    with ``e`` from :func:`_state_expectations` and ``start`` either ``pi``
    or the start vector of :func:`condition_on_survival`.
    """
    margin = _check_margin(model, margin)
    start = validate_initial_vector(pi, model.dim)
    if given is not None:
        l, y_l = _check_margin(model, given[0]), float(given[1])
        if l == margin:
            raise ValueError("conditioning margin must differ from the target margin")
        start = condition_on_survival(model, start, l, y_l)[1]
    return float(start @ _state_expectations(model.margins[margin]))


def _draw_starts(pi_rows: np.ndarray, rng) -> np.ndarray:
    cum = np.cumsum(pi_rows, axis=1)
    cum[:, -1] = 1.0
    u = rng.random(pi_rows.shape[0])
    return (u[:, None] >= cum).sum(axis=1)


def sample_joint_rows(model: MIPHModel, pi_rows, rng) -> np.ndarray:
    """Draw one joint lifetime (ages) per row of the (n, p) initial vectors
    ``pi_rows``; shape (n, d). Deterministic given ``rng``'s state."""
    pi_rows = np.asarray(pi_rows, dtype=float)
    _check_start_rows(pi_rows, model.dim, "start row")
    starts = _draw_starts(pi_rows, rng)
    out = np.empty((pi_rows.shape[0], model.n_margins))
    for i, m in enumerate(model.margins):
        x = sample_absorption_times(m.sub, starts, rng)
        out[:, i] = m.transform.forward(x)
    return out
