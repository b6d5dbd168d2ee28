"""Dense matrix kernels used throughout the package.

Matrices are plain float64 ``numpy.ndarray`` objects (row-major). The
kernels numpy lacks, exp(x T) for one T at many scalars x and a *batched*
Fréchet derivative, are implemented here since the fitting loop
exponentiates thousands of small matrices per iteration. The exponential,
:func:`expm_batch`, is the module's one export.

The exponential returns no stack of matrices: callers need exp(x T) times a
few vectors, a weighted sum of its rows, or a sum of its Fréchet derivatives
in rank-one directions, and for the x it does not square all three come from
the shared powers of T and each x's Taylor weights (:class:`TaylorExpm`).

Both Fréchet kernels take their rank-one directions by one rule: a (q, p)
table ``vs`` of directions and each entry's number ``kind`` into it, the
E-step's ``vs = [1, t]`` and ``kind = died``. The private row kernel,
:func:`_frechet_rows`, serves the squared rows. It is row-wise, with a Padé
solve per pair (x T, x v c') scaled by the pair's block norm, so a large
direction sets the scaling of these rows alone. It cuts its rows into
blocks of at most ``_BLOCK_ENTRIES`` matrix entries, each building its own
pairs, which stay in cache, and runs them on a thread pool opened for that
call and joined before it returns (numpy releases the GIL in ``matmul`` and
the ``linalg`` gufuncs). Rows of one block run inline. The split changes no
bit of the result.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = ["expm_batch"]


# Padé-13 coefficients and the 1-norm threshold above which scaling kicks in
# (Higham 2005, "The scaling and squaring method revisited").
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_THETA13 = 5.371920351148152
# expm_batch's Taylor degree and the 1-norm up to which it meets double precision
_TAYLOR_DEGREE = 18
_THETA18 = 1.090863719290036


def _scaling_power(norms, theta) -> np.ndarray:
    """Squarings per matrix: the least s >= 0 with ``norms / 2**s <= theta``."""
    with np.errstate(divide="ignore"):
        s = np.ceil(np.log2(norms / theta))
    return np.where(norms > theta, s, 0.0).astype(np.int64)


def _pade13_uv(x, s):
    """Odd and even parts U, V of the degree-13 Padé approximant of exp at
    ``x / 2**s`` for a stack ``x`` of ``[a | e]`` pairs read as the block
    matrices [[a, e], [0, a]], so that exp(x / 2**s) ~ (V - U)^-1 (V + U)."""
    x = x / (2.0 ** s)[:, None, None]
    eye = np.eye(x.shape[-2], x.shape[-1])
    b = _PADE13
    x2 = _block_mul(x, x)
    x4 = _block_mul(x2, x2)
    x6 = _block_mul(x2, x4)
    u = _block_mul(x, (
        _block_mul(x6, b[13] * x6 + b[11] * x4 + b[9] * x2)
        + b[7] * x6
        + b[5] * x4
        + b[3] * x2
        + b[1] * eye
    ))
    v = (
        _block_mul(x6, b[12] * x6 + b[10] * x4 + b[8] * x2)
        + b[6] * x6
        + b[4] * x4
        + b[2] * x2
        + b[0] * eye
    )
    return u, v


def _square(r, s, mul):
    """Square each matrix ``r[i]`` of the stack in place, ``s[i]`` times."""
    # rows in descending s, so that the rows still to square form a prefix
    active = s.size - np.cumsum(np.bincount(s))[:-1]  # rows with s > k
    if active.size:
        order = np.argsort(-s, kind="stable")[:active[0]]
        t = r[order]
        for m in active:
            t[:m] = mul(t[:m], t[:m])
        r[order] = t
    return r


def _block_mul(x, y):
    """Product of the stacks ``[x0 | x1]`` and ``[y0 | y1]`` (each (n, p, 2p))
    read as the block matrices [[x0, x1], [0, x0]] and [[y0, y1], [0, y0]]:
    ``[x0 y0 | x0 y1 + x1 y0]``."""
    p = x.shape[-2]
    out = x[..., :p] @ y
    out[..., p:] += x[..., p:] @ y[..., :p]
    return out


# matrix entries of one row block (about 1000 rows at p = 10): a block's
# temporaries stay in cache, and the small-p stacks of a desk-scale fit stay
# in one block, where two threads would only contend for the GIL
_BLOCK_ENTRIES = 100_000
# most threads one call's pool has
_MAX_WORKERS = 4


def _worker_count() -> int:
    """The cores this process may run on, at most ``_MAX_WORKERS``."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform (macOS)
        cores = os.cpu_count() or 1
    return max(1, min(cores, _MAX_WORKERS))


@dataclass(frozen=True, eq=False)
class TaylorExpm:
    """exp(x t) at the scalars of one :func:`expm_batch` call, held as the
    terms of its Taylor polynomials rather than as p x p matrices.

    Attributes
    ----------
    powers : (18, p, p) ndarray
        ``T**k`` for k = 1..18, with ``T = t / |t|_1`` (t itself when 0).
    weights : (k, 18) ndarray
        Row i's Taylor weights ``z**k / k!``, ``z = x_i |t|_1 / 2**s_i``.
    scaling : (k,) ndarray of int
        Row i's scaling power s_i.
    squared : (m, p, p) ndarray
        ``exp(x_i t)`` of the rows with s_i > 0, in row order: the only
        rows held as matrices.
    index : (n,) ndarray of int
        The row each entry reads, -1 for an entry whose products are 0;
        ``expm_batch`` sets 0..k-1, and a caller that exponentiates the
        distinct values of a longer array swaps in its own.
    """

    powers: np.ndarray
    weights: np.ndarray
    scaling: np.ndarray
    squared: np.ndarray
    index: np.ndarray

    def times(self, v, *picks):
        """``exp(x t) @ v`` per entry, (n, p, q), for a (p, q) ``v``; given
        picks, each an (n,) array of column numbers, a list with one (n, p)
        array per pick, whose entry j is column ``pick[j]`` of entry j's
        product, so that no more than the columns used are gathered.

        A row with s = 0 is ``v + sum_k w_k T**k v``: its weights times the
        shared ``T**k v``, a vector-matrix product of its own, as a GEMM
        over the rows would round rows at its block edges apart. So a row's
        bits depend on its x, t and v alone. Squared rows are their
        matrices times v; entries with index -1 get exact zeros.
        """
        v = np.asarray(v, dtype=float)
        p, q = v.shape
        rows = np.empty((self.scaling.size + 1, p, q))
        rows[-1] = 0.0  # read by index -1
        plain = self.scaling == 0
        tv = np.reshape(self.powers @ v, (_TAYLOR_DEGREE, p * q))
        w = self.weights[plain]
        products = w[:, None, :] @ tv
        products += v.ravel()
        rows[:-1][plain] = products.reshape(len(w), p, q)
        rows[:-1][~plain] = self.squared @ v
        if not picks:
            return rows[self.index]
        return [rows[self.index, :, pick] for pick in picks]

    def left_sum(self, c, entries) -> np.ndarray:
        """``sum_j c[j]' exp(x t)`` over the entries selected by ``entries``
        (a boolean mask or indices), with one (p,) row ``c[j]`` each.

        Rows with s = 0 contribute ``sum_j c[j] + sum_k Q_k' T**k`` with
        ``Q = W' C``, one (18 x n) (n x p) contraction of their weights and
        c-rows, by ``einsum``: OpenBLAS may run that skinny GEMM on two
        threads, at 4-8 ms where ``einsum`` takes 1 ms (n = 8834, p = 10,
        on a 2-vCPU VM). Squared rows contract their matrices.
        """
        rows = self.index[entries]
        c = np.asarray(c, dtype=float)[rows >= 0]  # zero rows add nothing
        rows = rows[rows >= 0]
        plain = self.scaling[rows] == 0
        c_plain = c[plain]
        q = np.einsum("mk,mj->kj", self.weights[rows[plain]], c_plain)
        total = c_plain.sum(axis=0) + np.einsum("kj,kjl->l", q, self.powers)
        slot = np.cumsum(self.scaling > 0) - 1
        return total + np.einsum("mj,mjl->l", c[~plain], self.squared[slot[rows[~plain]]])

    def frechet_sum(self, vs, kind, x, c) -> np.ndarray:
        """``sum_j L(x[j] t, x[j] vs[kind[j]] c[j]')``, (p, p), over the
        entries whose row has s = 0, with one scalar ``x[j]`` (its row's),
        one (p,) row ``c[j]`` and one direction number ``kind[j]`` into the
        (q, p) ``vs`` each, and ``L`` as in :func:`_frechet_rows`; squared
        rows and index -1 add nothing.

        Per direction v, the derivative of the Taylor polynomial, ``sum_k
        (1/k!) sum_{j<k} (T**j v)(q_k' T**(k-1-j))`` with ``q_k = sum_m x_m
        h_m**(k-1) c_m`` over that direction's entries and ``h = x |t|_1``:
        one (n x 18) (n x p) ``einsum`` of the weights and c-rows (no GEMM
        over n, as in :meth:`left_sum`), then Horner on T. The degree-1 term
        is formed from x, so t = 0 gives x v c' exactly.
        """
        kind = np.asarray(kind)
        x, c = np.asarray(x, dtype=float), np.asarray(c, dtype=float)
        plain = self.index >= 0
        plain[plain] = self.scaling[self.index[plain]] == 0
        sums = []
        for k, v in enumerate(np.asarray(vs, dtype=float)):
            use = plain & (kind == k)
            xk = x[use]
            a = np.empty((xk.size, _TAYLOR_DEGREE))
            a[:, 0] = xk
            w = self.weights[self.index[use], :-1]
            a[:, 1:] = xk[:, None] * w / np.arange(2, _TAYLOR_DEGREE + 1)
            q = np.einsum("mk,mj->kj", a, c[use])
            for j in range(_TAYLOR_DEGREE - 2, -1, -1):  # q_j <- sum_{i >= j} q_i' T**(i-j)
                q[j] += q[j + 1] @ self.powers[0]
            sums.append(np.outer(v, q[0]) + np.einsum("kj,kl->jl", self.powers[:-1] @ v, q[1:]))
        return functools.reduce(np.add, sums)


def expm_batch(t, xs) -> TaylorExpm:
    """Matrix exponential of one square matrix at many scalar multiples.

    Parameters
    ----------
    t : (p, p) array_like
        Square matrix with finite entries.
    xs : (n,) array_like
        Finite scalars.

    Returns
    -------
    TaylorExpm
        ``exp(xs[i] * t)`` for each scalar, as the products
        ``exp(xs[i] t) @ v`` (:meth:`TaylorExpm.times`; ``v`` the identity
        gives the (n, p, p) matrices), the sums ``sum_j c[j]' exp(xs[j] t)``
        (:meth:`TaylorExpm.left_sum`) and, over the unsquared rows, the sums
        of Fréchet derivatives in rank-one directions
        (:meth:`TaylorExpm.frechet_sum`).

    Notes
    -----
    Taylor-18 scaling and squaring (Bader, Blanes & Casas, Mathematics 7
    (2019) 1174) on the powers of ``T = t / |t|_1``, taken once per call.
    Each x gets the least s >= 0 with ``|x| |t|_1 / 2**s <= theta_18``, and
    the weights ``z**k / k!`` of ``z = x |t|_1 / 2**s``. A row with s = 0
    stays as its weights: a product with it is its weights times the powers
    times the vectors, never a p x p matrix (Al-Mohy & Higham, SIAM J. Sci.
    Comput. 33 (2011) 488-511, for exp(x t) times a few vectors). A row with
    s > 0 is formed as the weights times the powers, a vector-matrix product
    of its own, and squared s times. A zero x or t gives the exact identity.
    """
    t = np.asarray(t, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1] or xs.ndim != 1:
        raise ValueError(f"expected a square matrix and 1-d scalars, got {t.shape}, {xs.shape}")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(xs))):
        raise ValueError("inputs have non-finite entries")
    p = t.shape[0]
    norm = np.abs(t).sum(axis=0).max(initial=0.0)
    powers = [t / norm if norm else t]
    for _ in range(_TAYLOR_DEGREE - 1):
        powers.append(powers[-1] @ powers[0])
    powers = np.array(powers)
    s = _scaling_power(np.abs(xs) * norm, _THETA18)
    # z**k / k! for k = 1..18, a running product filled in column by column,
    # one vector operation per degree; the identity, of weight 1, is added last
    z = xs * norm / 2.0 ** s
    weights = np.empty((xs.size, _TAYLOR_DEGREE))
    weights[:, 0] = z
    for k in range(1, _TAYLOR_DEGREE):
        np.multiply(weights[:, k - 1], z / (k + 1), out=weights[:, k])
    high = s > 0
    w = weights[high]
    r = w[:, None, :] @ powers.reshape(_TAYLOR_DEGREE, p * p)
    squared = _square(r.reshape(len(w), p, p) + np.eye(p), s[high], np.matmul)
    return TaylorExpm(powers, weights, s, squared, np.arange(xs.size))


def _expm_frechet_block(t, xs, v, c) -> np.ndarray:
    """``L(xs[i] t, xs[i] v[i] c[i]')``, (m, p, p), for one row block."""
    p = t.shape[0]
    x_i = xs[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.concatenate([t * x_i, v[:, :, None] * c[:, None, :] * x_i], axis=-1)
        cols = np.abs(x).sum(axis=-2)
        norms = (cols[:, :p] + cols[:, p:]).max(axis=-1, initial=0.0)
    if not np.all(np.isfinite(norms)):
        raise ValueError("a Fréchet pair's block norm is not finite")
    s = _scaling_power(norms, _THETA13)
    u, v = _pade13_uv(x, s)
    # R = Q (V + U) and L = Q (Lu + Lv) + Q (Lu - Lv) R with Q = (V - U)^-1;
    # on small stacked matrices one inverse and three matmuls beat a solve
    # with 3p right-hand sides, and V - U is well conditioned at these norms
    q = np.linalg.inv(v[..., :p] - u[..., :p])
    r = q @ (v + u)
    r[..., p:] += (q @ (u[..., p:] - v[..., p:])) @ r[..., :p]
    return _square(r, s, _block_mul)[..., p:]


def _frechet_rows(t, xs, vs, kind, c) -> np.ndarray:
    """Fréchet derivatives of the matrix exponential of one (p, p) ``t`` at
    the (n,) scalars ``xs``, each in a rank-one direction: the (n, p, p)
    ``L(xs[i] t, xs[i] vs[kind[i]] c[i]')`` for the (q, p) directions ``vs``,
    each row's direction number ``kind[i]`` and its (p,) row ``c[i]``, where
    ``L(a, e) = integral_0^1 exp(a (1 - s)) e exp(a s) ds`` is the
    upper-right block of ``exp([[a, e], [0, a]])``.

    Al-Mohy & Higham, "Computing the Fréchet derivative of the matrix
    exponential", SIAM J. Matrix Anal. Appl. 30 (2009), Alg. 6.4, batched
    and always at degree 13. It runs on p x p matrices: the Padé polynomial
    and the squaring loop ``L <- R L + L R, R <- R R`` act on ``[R | L]``
    as on the block matrix [[R, L], [0, R]]. Each pair is scaled by the
    1-norm of that 2p x 2p block; ``exp(x t)``, the block's other half, is
    not returned, since a large direction sets its scaling too. The E-step
    runs it on the rows :func:`expm_batch` squares alone, and takes the
    others from :meth:`TaylorExpm.frechet_sum`, scaled by x |t|_1, with the
    same directions. A zero pair maps to the exact 0. A pair whose block
    norm is not finite, from a non-finite input or an overflowing ``x v
    c'``, raises ValueError.
    """
    n, p = c.shape
    rows = max(1, _BLOCK_ENTRIES // max(1, p * p))
    out = np.empty((n, p, p))

    def block(i):
        j = slice(i, i + rows)
        out[j] = _expm_frechet_block(t, xs[j], vs[kind[j]], c[j])

    if n <= rows:
        block(0)
        return out
    # an error raised in a block reaches the caller once every block is done
    with ThreadPoolExecutor(_worker_count(), thread_name_prefix="miph-linalg") as pool:
        futures = [pool.submit(block, i) for i in range(0, n, rows)]
    for future in futures:
        future.result()
    return out
