"""Univariate phase-type building blocks.

A phase-type (PH) lifetime is the absorption time of a Markov jump process on
transient states ``0..p-1`` plus one absorbing state, parameterized by a
sub-intensity matrix ``T`` (the transient-to-transient generator block) and an
initial probability vector ``pi``. The inhomogeneous (IPH) variant observed on
the age scale applies a strictly increasing time transform ``g`` to the
absorption time; this module ships the matrix-Gompertz transform used for
human mortality, ``g(x) = log(beta x + 1) / beta``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DataValidationError
from .linalg import expm_batch, solve

__all__ = [
    "SubIntensity",
    "CoxianStructure",
    "GeneralStructure",
    "GompertzTransform",
    "validate_initial_vector",
    "ph_density",
    "ph_survival",
    "iph_density",
    "iph_survival",
    "sample_absorption_times",
    "random_sub_intensity",
]

_ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class SubIntensity:
    """Sub-intensity matrix of a terminating Markov jump process.

    Off-diagonal entries are nonnegative transition rates, diagonal entries
    are strictly negative, and every row sum is <= 0; the deficit is the exit
    rate to the absorbing state.

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
        if exits.min() < -_ROW_SUM_TOL:
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


@dataclass(frozen=True)
class CoxianStructure:
    """Feed-forward chain: state k may only move to k+1 or exit."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    def transition_mask(self) -> np.ndarray:
        """Boolean (p, p) mask of admissible off-diagonal transitions."""
        mask = np.zeros((self.dim, self.dim), dtype=bool)
        idx = np.arange(self.dim - 1)
        mask[idx, idx + 1] = True
        return mask

    def validate(self, sub: SubIntensity) -> None:
        """Raise if ``sub`` carries rates outside the admissible pattern."""
        if sub.dim != self.dim:
            raise ValueError(f"dimension mismatch: structure {self.dim}, matrix {sub.dim}")
        forbidden = ~(self.transition_mask() | np.eye(self.dim, dtype=bool))
        if np.any(sub.matrix[forbidden] != 0.0):
            raise ValueError("matrix has transitions outside the feed-forward pattern")


@dataclass(frozen=True)
class GeneralStructure:
    """Unrestricted transient-state topology."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    def transition_mask(self) -> np.ndarray:
        return ~np.eye(self.dim, dtype=bool)

    def validate(self, sub: SubIntensity) -> None:
        if sub.dim != self.dim:
            raise ValueError(f"dimension mismatch: structure {self.dim}, matrix {sub.dim}")


@dataclass(frozen=True)
class GompertzTransform:
    """Matrix-Gompertz time change ``g(x) = log(beta x + 1) / beta``.

    ``inverse`` maps an observed age to operational (Markov) time,
    ``forward`` maps operational time back to age, and ``intensity`` is the
    derivative ``(g^{-1})'(y) = exp(beta y)``, the factor that converts
    operational-time densities to age densities.
    """

    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")

    def inverse(self, y):
        """Operational time ``(exp(beta y) - 1) / beta`` for age y >= 0."""
        y = _check_nonneg(y, "y")
        return np.expm1(self.beta * y) / self.beta

    def forward(self, x):
        """Age ``log(beta x + 1) / beta`` for operational time x >= 0."""
        x = _check_nonneg(x, "x")
        return np.log1p(self.beta * x) / self.beta

    def intensity(self, y):
        """Jacobian ``exp(beta y)`` of the inverse transform at age y."""
        y = _check_nonneg(y, "y")
        return np.exp(self.beta * y)


def _check_nonneg(v, name: str):
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
    if v.size and v.min() < 0.0:
        raise ValueError(f"{name} must be >= 0")
    return v[()] if v.ndim == 0 else v


def validate_initial_vector(pi, dim: int, *, tol: float = 1e-9) -> np.ndarray:
    """Check pi is a length-``dim`` probability vector; returns it as float64."""
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (dim,):
        raise DataValidationError(
            f"initial vector must have shape ({dim},), got {pi.shape}"
        )
    if not np.all(np.isfinite(pi)):
        raise DataValidationError("initial vector has non-finite entries")
    if pi.min() < -1e-12:
        raise DataValidationError("initial vector has negative entries")
    if abs(pi.sum() - 1.0) > tol:
        raise DataValidationError(
            f"initial vector sums to {pi.sum():.12f}, expected 1"
        )
    return pi


def _exp_factors(sub: SubIntensity, x, died, derivatives: bool = False) -> list:
    """Per-state factor rows ``e_j' exp(T x_m) v_m`` at operational times x.

    ``v_m`` is the exit-rate vector t where ``died`` (a density factor) and
    the all-ones vector elsewhere (a survival factor); ``died`` broadcasts
    against the 1-d ``x``. Returns ``[u]``, or with ``derivatives`` also
    the x-derivatives ``exp(T x) T v`` and ``exp(T x) T^2 v``, which come
    from the same exponentials because T commutes with exp(T x); T 1 = -t.

    Each distinct finite x is exponentiated once and its row copied to every
    repeat. Non-finite x (an operational time that overflowed) gets exact
    zero rows, the limit of every factor, and is never exponentiated.
    """
    x = np.asarray(x, dtype=float)
    died = np.broadcast_to(np.asarray(died, dtype=bool), x.shape)
    xs, inverse = np.unique(x, return_inverse=True)
    ok = np.isfinite(xs)
    t = sub.exit_rates
    vectors = [t]
    if derivatives:
        vectors += [sub.matrix @ t, sub.matrix @ (sub.matrix @ t)]
    # per distinct x: exp(T x) 1, then exp(T x) T^k t for k = 0, 1, 2
    rows = np.zeros((len(vectors) + 1, xs.size, sub.dim))
    if np.any(ok):
        mats = expm_batch(sub.matrix[None, :, :] * xs[ok, None, None])
        rows[0, ok] = mats.sum(axis=-1)
        for k, vec in enumerate(vectors, start=1):
            rows[k, ok] = mats @ vec
    # term k of a survival row is exp(T x) T^k 1 = -exp(T x) T^(k-1) t (k > 0);
    # rows where ``died`` are overwritten with the density version
    dead = inverse[died]
    out = []
    for k in range(len(vectors)):
        f = rows[k][inverse]
        if k:
            np.negative(f, out=f)
        f[died] = rows[k + 1][dead]
        out.append(f)
    return out


def _age_factors(sub: SubIntensity, beta: float, y, died,
                 derivatives: bool = False) -> list:
    """Per-state factor rows at ages y under the Gompertz clock ``beta``.

    Row m is ``e_j' exp(T x_m) 1`` (survival) or, where ``died``,
    ``e_j' exp(T x_m) t exp(beta y_m)`` (density with the Jacobian), at
    ``x = expm1(beta y) / beta``. Ages whose operational time overflows get
    exact zero rows. With ``derivatives`` the list also holds the first and
    second derivatives in theta = log(beta), from the chain rule
    ``x_beta = (y e^{beta y} - x) / beta`` and
    ``x_betabeta = (y^2 e^{beta y} - 2 x_beta) / beta`` on the operational-
    time derivatives of :func:`_exp_factors`.
    """
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore"):
        x = np.expm1(beta * y) / beta
        jac = np.exp(beta * y)
    terms = _exp_factors(sub, x, died, derivatives)
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


def ph_density(sub: SubIntensity, pi, x):
    """Phase-type density ``pi @ exp(T x) @ exit_rates`` at x >= 0.

    ``x`` may be a scalar or a 1-d array; the result matches its shape.
    """
    pi = validate_initial_vector(pi, sub.dim)
    xv = _check_nonneg(x, "x")
    vals = _exp_factors(sub, np.atleast_1d(xv), True)[0] @ pi
    return float(vals[0]) if np.ndim(x) == 0 else vals


def ph_survival(sub: SubIntensity, pi, x):
    """Phase-type survival ``pi @ exp(T x) @ ones`` at x >= 0."""
    pi = validate_initial_vector(pi, sub.dim)
    xv = _check_nonneg(x, "x")
    vals = _exp_factors(sub, np.atleast_1d(xv), False)[0] @ pi
    return float(vals[0]) if np.ndim(x) == 0 else vals


def iph_density(sub: SubIntensity, pi, transform: GompertzTransform, y):
    """Age-scale density: PH density at ``g^{-1}(y)`` times the Jacobian.

    Zero at ages whose operational time overflows the float range.
    """
    pi = validate_initial_vector(pi, sub.dim)
    yv = _check_nonneg(y, "y")
    vals = _age_factors(sub, transform.beta, np.atleast_1d(yv), True)[0] @ pi
    return float(vals[0]) if np.ndim(y) == 0 else vals


def iph_survival(sub: SubIntensity, pi, transform: GompertzTransform, y):
    """Age-scale survival: PH survival evaluated at ``g^{-1}(y)``.

    Zero at ages whose operational time overflows the float range.
    """
    pi = validate_initial_vector(pi, sub.dim)
    yv = _check_nonneg(y, "y")
    vals = _age_factors(sub, transform.beta, np.atleast_1d(yv), False)[0] @ pi
    return float(vals[0]) if np.ndim(y) == 0 else vals


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


def random_sub_intensity(structure, rng, low: float = 0.1, high: float = 2.0) -> SubIntensity:
    """Draw admissible rates uniformly from [low, high) on ``structure``'s
    pattern (exit rate included for every state)."""
    p = structure.dim
    mask = structure.transition_mask()
    trans = np.zeros((p, p))
    trans[mask] = rng.uniform(low, high, size=int(mask.sum()))
    exits = rng.uniform(low, high, size=p)
    return SubIntensity.from_rates(trans, exits)


def mean_from_state(sub: SubIntensity, state: int) -> float:
    """Expected absorption time started from ``state``: ``e_k' (-T)^{-1} 1``."""
    if not 0 <= state < sub.dim:
        raise ValueError(f"state must be in [0, {sub.dim}), got {state}")
    return float(solve(-sub.matrix, np.ones(sub.dim))[state])


def _scale_to_mean(sub: SubIntensity, state: int, target: float) -> SubIntensity:
    """Rescale all rates so the mean absorption time from ``state`` equals
    ``target`` (used to seed estimation at a sensible magnitude)."""
    if not (np.isfinite(target) and target > 0.0):
        raise ValueError(f"target mean must be positive, got {target}")
    factor = mean_from_state(sub, state) / target
    return SubIntensity(sub.matrix * factor)
