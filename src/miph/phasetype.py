"""Univariate phase-type kernels.

A phase-type (PH) lifetime is the absorption time of a Markov jump process on
transient states ``0..p-1`` plus one absorbing state, parameterized by a
sub-intensity matrix ``T`` (the transient-to-transient generator block) and an
initial probability vector ``pi``. The inhomogeneous (IPH) variant observed on
the age scale applies a strictly increasing time transform ``g`` to the
absorption time; this module ships the matrix-Gompertz transform used for
human mortality, ``g(x) = log(beta x + 1) / beta``.

The module holds kernels only: the chain and transform types, transition
masks, random chains, the jump-path sampler, and the factor kernels behind
every density and survival function. Those are evaluated in :mod:`miph.model`,
where an IPH law is a one-margin model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import DataValidationError, NumericalError
from .linalg import TaylorExpm, expm_batch

__all__ = [
    "SubIntensity",
    "GompertzTransform",
    "validate_initial_vector",
    "sample_absorption_times",
    "random_sub_intensity",
    "transition_mask",
]

_ROW_SUM_TOL = 1e-12
# how far an initial vector's sum may be from 1
_PI_SUM_TOL = 1e-9
# random_sub_intensity draws every rate uniformly from [low, high)
_RATE_BOUNDS = (0.1, 2.0)


@dataclass(frozen=True)
class SubIntensity:
    """Sub-intensity matrix of a terminating Markov jump process.

    Off-diagonal entries are nonnegative transition rates, diagonal entries
    are strictly negative, and row k sums to at most the round-off
    ``_ROW_SUM_TOL * max(1, |T_kk|)``; the deficit is the exit rate.

    Attributes
    ----------
    matrix : (p, p) ndarray
    exit_rates : (p,) ndarray
        ``-matrix @ ones``, with tiny negative round-off clipped to zero.
    """

    matrix: np.ndarray
    exit_rates: np.ndarray = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"sub-intensity must be square, got shape {m.shape}")
        if m.shape[0] < 1:
            raise ValueError("sub-intensity must have at least one state")
        if not np.all(np.isfinite(m)):
            raise ValueError("sub-intensity has non-finite entries")
        off = m[~np.eye(m.shape[0], dtype=bool)]
        if off.size and off.min() < 0.0:
            raise ValueError("off-diagonal rates must be >= 0")
        if np.diag(m).max() >= 0.0:
            raise ValueError("diagonal entries must be < 0")
        exits = -m.sum(axis=1)
        if np.any(exits < -_ROW_SUM_TOL * np.maximum(1.0, np.abs(np.diag(m)))):
            raise ValueError(
                f"row sums must be <= 0 (min exit rate {exits.min():.3e})"
            )
        m = m.copy()
        m.flags.writeable = False
        exits = np.clip(exits, 0.0, None)
        exits.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "exit_rates", exits)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_rates(cls, transition_rates, exit_rates) -> "SubIntensity":
        """Assemble from nonnegative off-diagonal rates and exit rates,
        filling the diagonal with minus the total outflow per state."""
        trans = np.array(transition_rates, dtype=float)
        exits = np.asarray(exit_rates, dtype=float)
        p = trans.shape[0]
        if trans.shape != (p, p) or exits.shape != (p,):
            raise ValueError("transition_rates must be (p, p) and exit_rates (p,)")
        np.fill_diagonal(trans, 0.0)
        trans[np.arange(p), np.arange(p)] = -(trans.sum(axis=1) + exits)
        return cls(trans)


def transition_mask(structure: str, p: int) -> np.ndarray:
    """Boolean (p, p) pattern of the admissible transitions between transient
    states: ``"coxian"``, a feed-forward chain where state k may only move
    to k+1 (or exit), or ``"general"``, any state to any other."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if structure == "coxian":
        return np.eye(p, k=1, dtype=bool)
    if structure == "general":
        return ~np.eye(p, dtype=bool)
    raise ValueError(f"unknown structure {structure!r}")


@dataclass(frozen=True)
class GompertzTransform:
    """Matrix-Gompertz time change ``g(x) = log(beta x + 1) / beta``.

    ``inverse`` maps an observed age to operational (Markov) time and
    ``forward`` maps operational time back to age. The derivative
    ``(g^{-1})'(y) = exp(beta y)`` converts operational-time densities to
    age densities.
    """

    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")

    def inverse(self, y):
        """Operational time ``(exp(beta y) - 1) / beta`` for age y >= 0;
        inf, without a warning, where it overflows."""
        return _operational_time(self.beta, _check_nonneg(y, "y"))

    def forward(self, x):
        """Age ``log(beta x + 1) / beta`` for operational time x >= 0."""
        x = _check_nonneg(x, "x")
        return np.log1p(self.beta * x) / self.beta


def _check_nonneg(v, name: str):
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
    if v.size and v.min() < 0.0:
        raise ValueError(f"{name} must be >= 0")
    return v[()] if v.ndim == 0 else v


def validate_initial_vector(pi, dim: int) -> np.ndarray:
    """Check pi is a length-``dim`` probability vector; returns it as float64."""
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (dim,):
        raise DataValidationError(f"initial vector must have {dim} entries, got shape {pi.shape}")
    _check_start_rows(pi[None], dim, "initial vector")
    return pi


def _check_start_rows(rows, dim: int, what: str) -> None:
    """Raise :class:`DataValidationError` unless ``rows`` is (n, dim) and each row
    a probability vector; from row sums and one minimum, no (n, dim) temporary."""
    if rows.ndim != 2 or rows.shape[1] != dim:
        raise DataValidationError(f"{what}s must have shape (n, {dim}), got shape {rows.shape}")
    sums = rows.sum(axis=1)  # finite only where every entry is
    if not np.all(np.isfinite(sums)):
        raise DataValidationError(f"{what} has non-finite entries")
    if rows.size and rows.min() < -1e-12:
        raise DataValidationError(f"{what} has negative entries")
    bad = np.abs(sums - 1.0) > _PI_SUM_TOL
    if np.any(bad):
        raise DataValidationError(f"{what} sums to {sums[bad][0]:.12f}, expected 1")


def _exponentials(sub: SubIntensity, x) -> TaylorExpm:
    """exp(T x) at the entries of the 1-d ``x``: :func:`linalg.expm_batch`
    once per distinct finite x, its index pointing each entry at the row
    of its value, -1 where x overflowed; such an x is never exponentiated,
    and its products are 0."""
    xs, inverse = np.unique(np.asarray(x, dtype=float), return_inverse=True)
    ok = np.isfinite(xs)
    return replace(expm_batch(sub.matrix, xs[ok]),
                   index=np.where(ok, np.cumsum(ok) - 1, -1)[inverse])


def _exp_factors(sub: SubIntensity, exps: TaylorExpm, died, derivatives: bool = False) -> list:
    """Per-state factor rows ``e_j' exp(T x_m) v_m``; ``exps = _exponentials(sub, x)``.

    ``v_m`` is the exit-rate vector t where ``died`` (a density factor) and
    the all-ones vector elsewhere (a survival factor); ``died`` broadcasts
    against the index. Returns ``[u]``, or with ``derivatives`` also the
    x-derivatives ``exp(T x) T v`` and ``exp(T x) T^2 v``, which come from
    the same exponentials because T commutes with exp(T x); T 1 = -t.
    Each is a column of the one product ``exp(T x) [1, t, T t, T^2 t]``
    (:meth:`linalg.TaylorExpm.times`), so no p x p matrix is formed for a
    row that is not squared, and the value's bits do not depend on
    ``derivatives``. An overflowed x gets exact zero rows, the limit of
    every factor.
    """
    died = np.broadcast_to(np.asarray(died, dtype=bool), exps.index.shape)
    t = sub.exit_rates
    tt = sub.matrix @ t
    # term k of a survival row is column k of exp(T x) [1, t, T t, T^2 t],
    # negated for k > 0 (exp(T x) T^k 1 = -exp(T x) T^(k-1) t); a density
    # row's is column k + 1
    first = died.astype(np.intp)
    terms = exps.times(np.column_stack([np.ones(sub.dim), t, tt, sub.matrix @ tt]),
                       *(first + k for k in range(3 if derivatives else 1)))
    for term in terms[1:]:
        np.negative(term, out=term, where=~died[:, None])
    return terms


def _operational_time(beta, y):
    """``expm1(beta y) / beta``, inf where it overflows; ``beta`` broadcasts
    against ``y``. The likelihood, the E-step and :meth:`GompertzTransform.inverse`
    take x from here, so they share x bit for bit; each takes its own
    exponentials of it."""
    with np.errstate(over="ignore"):
        return np.expm1(beta * y) / beta


def _age_factors(sub: SubIntensity, beta: float, y, died,
                 derivatives: bool = False) -> list:
    """Per-state factor rows at ages y under the Gompertz clock ``beta``.

    Row m is ``e_j' exp(T x_m) 1`` (survival) or, where ``died``,
    ``e_j' exp(T x_m) t exp(beta y_m)`` (density with the Jacobian), at
    ``x = _operational_time(beta, y)``. Ages whose operational time
    overflows get exact zero rows. With ``derivatives`` the list also holds
    the first and second derivatives in theta = log(beta), from the chain
    rule ``x_beta = (y e^{beta y} - x) / beta`` and
    ``x_betabeta = (y^2 e^{beta y} - 2 x_beta) / beta`` on the operational-
    time derivatives of :func:`_exp_factors`.
    """
    y = np.asarray(y, dtype=float)
    x = _operational_time(beta, y)
    with np.errstate(over="ignore"):
        jac = np.exp(beta * y)
    terms = _exp_factors(sub, _exponentials(sub, x), died, derivatives)
    ok = np.isfinite(x)[:, None]
    died = np.broadcast_to(np.asarray(died, dtype=bool), y.shape)[:, None]
    # an observed death carries the Jacobian exp(beta y); overflowed rows stay 0
    j_d = np.where(died & ok, jac[:, None], 1.0)
    f = terms[0] * j_d
    if not derivatives:
        return [f]
    u, u_x, u_xx = terms
    yo, xo, jac = y[:, None], x[:, None], jac[:, None]
    y_d = np.where(died, yo, 0.0)
    # 0 * inf in rows whose x_beta overflows; f is 0 there, so callers raise
    with np.errstate(over="ignore", invalid="ignore"):
        x_b = (yo * jac - xo) / beta
        x_bb = (yo * yo * jac - 2.0 * x_b) / beta
        u_b = u_x * x_b
        u_bb = u_xx * x_b * x_b + u_x * x_bb
        f_b = (u_b + y_d * u) * j_d
        f_bb = (u_bb + 2.0 * y_d * u_b + y_d * y_d * u) * j_d
        f1 = np.where(ok, beta * f_b, 0.0)
        f2 = np.where(ok, beta * f_b + beta * beta * f_bb, 0.0)
    return [f, f1, f2]


def _check_absorbing(sub: SubIntensity) -> None:
    """Raise unless every state reaches one with an exit (-T nonsingular);
    a graph check, as mean absorption times can exceed 1e7."""
    reach = sub.exit_rates > 0.0
    for _ in range(sub.dim):
        reach |= (sub.matrix > 0.0) @ reach
    if not reach.all():
        raise NumericalError(f"states {np.flatnonzero(~reach).tolist()} never reach absorption")


def sample_absorption_times(sub: SubIntensity, start_states, rng) -> np.ndarray:
    """Vectorized jump-path simulation for an array of start states.

    All paths advance in lockstep: one exponential holding draw and one
    categorical jump draw per alive path per round. Output is deterministic
    given ``rng``'s state.
    """
    starts = np.asarray(start_states)
    if starts.ndim != 1:
        raise ValueError("start_states must be 1-d")
    if starts.size and not (starts.min() >= 0 and starts.max() < sub.dim):
        raise ValueError("start states out of range")
    _check_absorbing(sub)  # else some paths never end

    p = sub.dim
    rates = -np.diag(sub.matrix)  # (p,) total outflow per state
    jump = np.concatenate(
        [np.where(np.eye(p, dtype=bool), 0.0, sub.matrix), sub.exit_rates[:, None]],
        axis=1,
    ) / rates[:, None]  # (p, p+1) jump-chain probabilities
    cum = np.cumsum(jump, axis=1)
    cum[:, -1] = 1.0  # close any round-off gap so draws always land

    n = starts.size
    times = np.zeros(n)
    state = starts.astype(np.int64).copy()
    alive = np.ones(n, dtype=bool)
    while True:
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        cur = state[idx]
        times[idx] += rng.exponential(1.0 / rates[cur])
        u = rng.random(idx.size)
        nxt = (u[:, None] >= cum[cur]).sum(axis=1)
        absorbed = nxt == p
        alive[idx[absorbed]] = False
        state[idx[~absorbed]] = nxt[~absorbed]
    return times


def random_sub_intensity(mask, rng) -> SubIntensity:
    """Draw rates uniformly from ``_RATE_BOUNDS`` on the transitions where the
    (p, p) boolean ``mask`` is set, and an exit rate for every state."""
    p = mask.shape[0]
    trans = np.zeros((p, p))
    trans[mask] = rng.uniform(*_RATE_BOUNDS, size=int(mask.sum()))
    exits = rng.uniform(*_RATE_BOUNDS, size=p)
    return SubIntensity.from_rates(trans, exits)
