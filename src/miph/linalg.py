"""Dense matrix kernels used throughout the package.

Matrices are plain float64 ``numpy.ndarray`` objects (row-major). The one
kernel numpy lacks, a *batched* matrix exponential, is implemented here
directly since the fitting loop exponentiates thousands of small matrices
per iteration; the Kronecker sum and a residual-checked solve serve the
closed-form dependence measures.
"""

from __future__ import annotations

import numpy as np

from .exceptions import SingularMatrixError

__all__ = [
    "expm_batch",
    "kron_sum",
    "solve",
]


def _as_square(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


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


def expm_batch(a) -> np.ndarray:
    """Matrix exponential of a stack of square matrices.

    Parameters
    ----------
    a : (..., p, p) array_like
        Batch of square matrices with finite entries.

    Returns
    -------
    (..., p, p) ndarray
        ``exp(a[i])`` for each matrix in the stack.

    Notes
    -----
    Padé-13 scaling-and-squaring applied per matrix: each matrix gets its own
    scaling power from its 1-norm, and the squaring loop masks matrices that
    are already done. Always uses the degree-13 approximant (no degree
    switching), trading a few matmuls on easy inputs for simplicity; accuracy
    matches the scalar path to ~1e-13. A zero matrix maps to the exact
    identity.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("input stack has non-finite entries")
    batch_shape = a.shape[:-2]
    p = a.shape[-1]
    if p == 0:
        return np.zeros_like(a)
    a = a.reshape(-1, p, p)

    # per-matrix 1-norm (max abs column sum) -> scaling power s
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    with np.errstate(divide="ignore"):
        s = np.ceil(np.log2(norms / _THETA13))
    s = np.where(norms > _THETA13, s, 0.0).astype(np.int64)
    scaled = a / (2.0 ** s)[:, None, None]

    b = _PADE13
    eye = np.broadcast_to(np.eye(p), scaled.shape)
    a2 = scaled @ scaled
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = scaled @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6
        + b[5] * a4
        + b[3] * a2
        + b[1] * eye
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6
        + b[4] * a4
        + b[2] * a2
        + b[0] * eye
    )
    r = np.linalg.solve(v - u, v + u)
    # the Pade solve of b0*I by b0*I rounds the diagonal to 1 - eps/2
    r[norms == 0.0] = np.eye(p)

    for k in range(int(s.max()) if s.size else 0):
        todo = s > k
        r[todo] = r[todo] @ r[todo]
    return r.reshape(*batch_shape, p, p)


def kron_sum(a, b) -> np.ndarray:
    """Kronecker sum ``a (+) b = kron(a, I) + kron(I, b)`` for square a, b.

    With column-stacking vec, ``(a (+) b) vec(V) = vec(b V + V a^T)``; its
    eigenvalues are all pairwise sums of the factors' eigenvalues, so the
    Kronecker sum of two sub-intensity matrices is invertible.
    """
    a = _as_square(a, "a")
    b = _as_square(b, "b")
    return np.kron(a, np.eye(b.shape[0])) + np.kron(np.eye(a.shape[0]), b)


def solve(a, b, *, rtol: float = 1e-10) -> np.ndarray:
    """Solve ``a @ x = b`` with a residual guarantee.

    Parameters
    ----------
    a : (p, p) array_like
    b : (p,) or (p, k) array_like
    rtol : float, optional
        Residual contract: the returned ``x`` satisfies
        ``max|a @ x - b| <= rtol * max|b|``. One step of iterative refinement
        is applied if the first solve misses it.

    Raises
    ------
    ValueError
        Shape mismatch or non-finite input.
    SingularMatrixError
        ``a`` is singular to working precision, or the residual contract
        cannot be met.
    """
    a = _as_square(a, "a")
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != a.shape[0]:
        raise ValueError(f"incompatible shapes: a {a.shape}, b {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("b has non-finite entries")
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as err:
        raise SingularMatrixError(str(err)) from err

    bound = rtol * max(np.max(np.abs(b)), np.finfo(float).tiny)
    residual = a @ x - b
    if np.max(np.abs(residual)) > bound:
        try:
            x = x - np.linalg.solve(a, residual)
        except np.linalg.LinAlgError as err:  # pragma: no cover - same matrix
            raise SingularMatrixError(str(err)) from err
        residual = a @ x - b
        if np.max(np.abs(residual)) > bound:
            raise SingularMatrixError(
                "system too ill-conditioned to meet the residual tolerance "
                f"(residual {np.max(np.abs(residual)):.3e}, bound {bound:.3e})"
            )
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("solution has non-finite entries")
    return x
