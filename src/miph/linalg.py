"""Dense matrix kernels used throughout the package.

Matrices are plain float64 ``numpy.ndarray`` objects (row-major). The
kernels numpy lacks, exp(x T) for one T at many scalars x and a *batched*
Fréchet derivative, are implemented here since the fitting loop
exponentiates thousands of small matrices per iteration.

The Fréchet kernel is row-wise, with a Padé solve per pair. So it cuts its
stack into row blocks of at most ``_BLOCK_ENTRIES`` matrix entries, whose
temporaries stay in cache, and runs them on a thread pool opened for that
call and joined before it returns (numpy releases the GIL in ``matmul`` and
the ``linalg`` gufuncs), each block writing its slice of one output. A stack
of one block runs inline. The split changes no bit of the result.
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


def _pade13_uv(x, s, mul, eye):
    """Odd and even parts U, V of the degree-13 Padé approximant of exp at
    ``x / 2**s``, so that exp(x / 2**s) ~ (V - U)^-1 (V + U). ``mul``
    multiplies two stacks and ``eye`` is their identity."""
    x = x / (2.0 ** s)[:, None, None]
    b = _PADE13
    x2 = mul(x, x)
    x4 = mul(x2, x2)
    x6 = mul(x2, x4)
    u = mul(x, (
        mul(x6, b[13] * x6 + b[11] * x4 + b[9] * x2)
        + b[7] * x6
        + b[5] * x4
        + b[3] * x2
        + b[1] * eye
    ))
    v = (
        mul(x6, b[12] * x6 + b[10] * x4 + b[8] * x2)
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


def _in_blocks(kernel, width, *stacks):
    """``kernel(*stacks)``, an (n, p, width) array, for a kernel that maps
    each row of the (n, p, p) stacks on its own. A stack of at most
    ``_BLOCK_ENTRIES`` entries runs inline; a larger one is cut into row
    blocks of at most that many, which run on a pool of this call's own and
    write their slices of one output. An error raised in a block reaches
    the caller once every block is done."""
    n, p = stacks[0].shape[:2]
    rows = max(1, _BLOCK_ENTRIES // (p * p))
    if n <= rows:
        return kernel(*stacks)
    out = np.empty((n, p, width))

    def block(i):
        out[i:i + rows] = kernel(*(s[i:i + rows] for s in stacks))

    with ThreadPoolExecutor(_worker_count(), thread_name_prefix="miph-linalg") as pool:
        futures = [pool.submit(block, i) for i in range(0, n, rows)]
    for future in futures:
        future.result()
    return out


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


def _expm_frechet_block(a, e) -> np.ndarray:
    """``[exp(a[i]) | L(a[i], e[i])]``, (m, p, 2p), for one block (m, p, p)
    of ``expm_frechet_batch``."""
    p = a.shape[-1]
    x = np.concatenate([a, e], axis=-1)
    cols = np.abs(x).sum(axis=-2)
    norms = (cols[:, :p] + cols[:, p:]).max(axis=-1)
    s = _scaling_power(norms, _THETA13)
    eye = np.eye(p, 2 * p)
    u, v = _pade13_uv(x, s, _block_mul, eye)
    # R = Q (V + U) and L = Q (Lu + Lv) + Q (Lu - Lv) R with Q = (V - U)^-1;
    # on small stacked matrices one inverse and three matmuls beat a solve
    # with 3p right-hand sides, and V - U is well conditioned at these norms
    q = np.linalg.inv(v[..., :p] - u[..., :p])
    r = q @ (v + u)
    r[..., p:] += (q @ (u[..., p:] - v[..., p:])) @ r[..., :p]
    r[norms == 0.0] = eye
    return _square(r, s, _block_mul)


def expm_frechet_batch(a, e) -> np.ndarray:
    """Fréchet derivative of the matrix exponential for a stack of matrices.

    Parameters
    ----------
    a, e : (..., p, p) array_like
        Stacks of the same shape with finite entries.

    Returns
    -------
    (..., p, p) ndarray
        ``L(a[i], e[i]) = integral_0^1 exp(a (1 - t)) e exp(a t) dt``, the
        upper-right block of ``exp([[a, e], [0, a]])``.

    Notes
    -----
    Al-Mohy & Higham, "Computing the Fréchet derivative of the matrix
    exponential", SIAM J. Matrix Anal. Appl. 30 (2009), Alg. 6.4, batched
    and always at degree 13. It runs on p x p matrices: the Padé polynomial
    and the squaring loop ``L <- R L + L R, R <- R R`` act on ``[R | L]``
    as on the block matrix [[R, L], [0, R]]. Each matrix is scaled by the
    1-norm of that 2p x 2p block, the column sums of ``|a| + |e|``, so every
    matrix gets the scaling power of the block exponential; ``exp(a)``, the
    block's other half, is not returned, since a large ``e`` sets its
    scaling too. A zero pair maps to the exact 0. The stack runs in row
    blocks on threads of its own, inline when it fits in one block, and the
    result does not depend on the blocks.
    """
    a = np.asarray(a, dtype=float)
    e = np.asarray(e, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or e.shape != a.shape:
        raise ValueError("expected two stacks of square matrices of one shape, "
                         f"got shapes {a.shape} and {e.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(e))):
        raise ValueError("input stacks have non-finite entries")
    if a.size == 0:
        return np.zeros_like(a)
    p = a.shape[-1]
    r = _in_blocks(_expm_frechet_block, 2 * p, a.reshape(-1, p, p), e.reshape(-1, p, p))
    return r[..., p:].reshape(a.shape)
