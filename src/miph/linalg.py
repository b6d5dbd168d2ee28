"""Dense matrix kernels used throughout the package.

Matrices are plain float64 ``numpy.ndarray`` objects (row-major). The
kernels numpy lacks, exp(x T) for one T at many scalars x and a *batched*
Fréchet derivative, are implemented here since the fitting loop
exponentiates thousands of small matrices per iteration.

The Fréchet kernel is row-wise, with a Padé solve per pair (x T, x v c').
So it cuts its rows into blocks of at most ``_BLOCK_ENTRIES`` matrix
entries, each building its own pairs, which stay in cache, and runs them on
a thread pool opened for that call and joined before it returns (numpy
releases the GIL in ``matmul`` and the ``linalg`` gufuncs). Rows of one
block run inline. The split changes no bit of the result.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = [
    "expm_batch",
    "expm_frechet_batch",
]


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


def expm_batch(t, xs) -> np.ndarray:
    """Matrix exponential of one square matrix at many scalar multiples.

    Parameters
    ----------
    t : (p, p) array_like
        Square matrix with finite entries.
    xs : (n,) array_like
        Finite scalars.

    Returns
    -------
    (n, p, p) ndarray
        ``exp(xs[i] * t)`` for each scalar.

    Notes
    -----
    Taylor-18 scaling and squaring (Bader, Blanes & Casas, Mathematics 7
    (2019) 1174) on the powers of ``T = t / |t|_1``, taken once per call.
    Each x gets the least s >= 0 with ``|x| |t|_1 / 2**s <= theta_18``, and
    its row is the weights ``z**k / k!`` of ``z = x |t|_1 / 2**s`` times the
    powers, a vector-matrix product of its own (a GEMM of the stack would
    round rows at its block edges apart), squared s times. A zero x or t
    gives the exact identity.
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
    s = _scaling_power(np.abs(xs) * norm, _THETA18)
    # z**k / k! for k = 1..18; the identity, of weight 1, is added last
    z = xs * norm / 2.0 ** s
    weights = np.cumprod(np.divide.outer(z, np.arange(1.0, _TAYLOR_DEGREE + 1)), axis=1)
    r = weights[:, None, :] @ np.reshape(powers, (_TAYLOR_DEGREE, p * p))
    return _square(r.reshape(xs.size, p, p) + np.eye(p), s, np.matmul)


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


def expm_frechet_batch(t, xs, v, c) -> np.ndarray:
    """Fréchet derivatives of the matrix exponential of one matrix at many
    scalar multiples, each in a rank-one direction.

    Parameters
    ----------
    t : (p, p) array_like
        Square matrix.
    xs : (n,) array_like
        Scalars.
    v, c : (n, p) array_like
        Factors of the directions.

    Returns
    -------
    (n, p, p) ndarray
        ``L(xs[i] t, xs[i] v[i] c[i]')``, where ``L(a, e) = integral_0^1
        exp(a (1 - s)) e exp(a s) ds`` is the upper-right block of
        ``exp([[a, e], [0, a]])``.

    Notes
    -----
    Al-Mohy & Higham, "Computing the Fréchet derivative of the matrix
    exponential", SIAM J. Matrix Anal. Appl. 30 (2009), Alg. 6.4, batched
    and always at degree 13. It runs on p x p matrices: the Padé polynomial
    and the squaring loop ``L <- R L + L R, R <- R R`` act on ``[R | L]``
    as on the block matrix [[R, L], [0, R]]. Each pair is scaled by the
    1-norm of that 2p x 2p block; ``exp(x t)``, the block's other half, is
    not returned, since a large direction sets its scaling too. A zero pair
    maps to the exact 0. A pair whose block norm is not finite, from a
    non-finite input or an overflowing ``x v c'``, raises ValueError.
    """
    t, xs, v, c = (np.asarray(arg, dtype=float) for arg in (t, xs, v, c))
    if (t.ndim != 2 or t.shape[0] != t.shape[1] or xs.ndim != 1
            or v.shape != (xs.size, t.shape[0]) or c.shape != v.shape):
        raise ValueError("expected a square matrix, 1-d scalars and two (n, p) factors, "
                         f"got {t.shape}, {xs.shape}, {v.shape}, {c.shape}")
    n, p = v.shape
    rows = max(1, _BLOCK_ENTRIES // max(1, p * p))
    out = np.empty((n, p, p))

    def block(i):
        j = slice(i, i + rows)
        out[j] = _expm_frechet_block(t, xs[j], v[j], c[j])

    if n <= rows:
        block(0)
        return out
    # an error raised in a block reaches the caller once every block is done
    with ThreadPoolExecutor(_worker_count(), thread_name_prefix="miph-linalg") as pool:
        futures = [pool.submit(block, i) for i in range(0, n, rows)]
    for future in futures:
        future.result()
    return out
