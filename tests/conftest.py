"""Shared fixtures: the published spousal-mortality reference model and
small random-model helpers used by the property tests."""

import csv
import itertools

import numpy as np
import pytest

from miph import DataValidationError, GompertzTransform, Margin, MIPHModel, SubIntensity
from miph.dataio import _BLOCK

# 10-state feed-forward sub-intensity fitted to male excess lifetimes
DIAG_1 = [-0.049, -3.662, -1.8e-7, -1.9e-4, -0.611, -0.002, -9.778, -0.36,
          -1.852, -0.023]
SUPER_1 = [1.7e-7, 2.877, 1.8e-7, 1.9e-4, 0.611, 0.002, 5.73, 0.225, 1.099]
# ... and to female excess lifetimes
DIAG_2 = [-0.196, -0.291, -0.763, -2.8e-8, -0.001, -0.003, -3.182, -0.172,
          -0.008, -3e-6]
SUPER_2 = [0.196, 0.291, 0.763, 2.8e-8, 0.001, 0.003, 1.165, 2e-7, 2.3e-10]

BETA_1 = 43.101
BETA_2 = 47.474

# per-couple initial vectors for entry ages (63,63), (68,63), (63,68), (73,63);
# published to 4 decimals, renormalized here to exact probability vectors
COUPLE_PI_RAW = {
    1: [0.0526, 0.0734, 0.0448, 0.0886, 0.4065, 0.0330, 0.0326, 0.0569,
        0.1077, 0.1039],
    2: [0.0356, 0.0313, 0.0297, 0.0398, 0.2805, 0.0476, 0.0396, 0.0384,
        0.2472, 0.2102],
    3: [0.0285, 0.0242, 0.0114, 0.1625, 0.4399, 0.0419, 0.0304, 0.1282,
        0.0819, 0.0510],
    4: [0.0172, 0.0095, 0.0140, 0.0127, 0.1378, 0.0489, 0.0343, 0.0184,
        0.4041, 0.3030],
}
COUPLE_AGES_YEARS = {1: (63.0, 63.0), 2: (68.0, 63.0), 3: (63.0, 68.0),
                     4: (73.0, 63.0)}

# multinomial-regression coefficients (reference state is row 0) on the
# design (1, age1, age2, age1*age2) with ages on the internal scale
GAMMA_TABLE = np.array([
    [0.0, 0.0, 0.0, 0.0],
    [-20.963, 43.733, 43.021, -84.049],
    [24.826, -24.630, -39.256, 38.453],
    [-51.036, 57.442, 90.062, -104.233],
    [-42.469, 56.804, 70.273, -89.556],
    [14.850, -41.377, -39.438, 89.687],
    [54.157, -97.618, -98.445, 173.553],
    [-14.363, -5.608, 22.990, 8.794],
    [-11.589, 12.732, -4.892, 18.559],
    [21.474, -31.068, -54.907, 84.080],
])


def chain_matrix(diag, superdiag):
    return np.diag(diag) + np.diag(superdiag, k=1)


def couple_pi(c: int) -> np.ndarray:
    raw = np.asarray(COUPLE_PI_RAW[c])
    return raw / raw.sum()


@pytest.fixture(scope="session")
def spousal_model() -> MIPHModel:
    return MIPHModel(margins=(
        Margin(SubIntensity(chain_matrix(DIAG_1, SUPER_1)),
               GompertzTransform(BETA_1)),
        Margin(SubIntensity(chain_matrix(DIAG_2, SUPER_2)),
               GompertzTransform(BETA_2)),
    ))


@pytest.fixture(scope="session")
def spousal_model_with_gamma(spousal_model) -> MIPHModel:
    return MIPHModel(margins=spousal_model.margins, gamma=GAMMA_TABLE)


def random_chain(rng, p: int, low: float = 0.1, high: float = 2.0) -> SubIntensity:
    """Random feed-forward sub-intensity with exits from every state."""
    sup = rng.uniform(low, high, size=p - 1) if p > 1 else np.empty(0)
    exits = rng.uniform(low, high, size=p)
    m = np.diag(sup, k=1) if p > 1 else np.zeros((p, p))
    m[np.arange(p), np.arange(p)] = -(np.concatenate([sup, [0.0]]) + exits)
    return SubIntensity(m)


def random_pi(rng, p: int) -> np.ndarray:
    w = rng.uniform(0.2, 1.0, size=p)
    return w / w.sum()


def stiff_chain_model(f: float) -> MIPHModel:
    """A bivariate model whose chain leaves its first state at rate f, next
    to an exit rate of 1e-3 there and 0.1 in the slow last state; the same
    chain on both margins, with a fixed start vector."""
    sub = SubIntensity(np.array([[-(f + 1e-3), f, 0.0],
                                 [0.0, -2.0, 1.0],
                                 [0.0, 0.0, -0.1]]))
    return MIPHModel((Margin(sub, GompertzTransform(1.0)),
                      Margin(sub, GompertzTransform(2.0))),
                     fixed_pi=np.array([0.2, 0.3, 0.5]))


def random_bivariate_model(rng, p: int, betas=(1.0, 1.5)):
    """A random bivariate model plus a matching random initial vector."""
    model = MIPHModel(margins=(
        Margin(random_chain(rng, p), GompertzTransform(betas[0])),
        Margin(random_chain(rng, p), GompertzTransform(betas[1])),
    ))
    return model, random_pi(rng, p)


def frozen_expm_batch(a):
    """A stack of matrix exponentials, ``exp(a[i])`` for (..., p, p) ``a``:
    ``linalg.expm_batch`` as it was while it ran Padé-13 scaling and
    squaring per matrix, kept verbatim. It is the oracle for stacks of
    unrelated matrices, such as Van Loan blocks, and the reference that the
    Taylor kernel's unsquared rows agree with."""
    b = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0)
    theta13 = 5.371920351148152
    a = np.asarray(a, dtype=float)
    batch_shape = a.shape[:-2]
    p = a.shape[-1]
    a = a.reshape(-1, p, p)
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    with np.errstate(divide="ignore"):
        s = np.ceil(np.log2(norms / theta13))
    s = np.where(norms > theta13, s, 0.0).astype(np.int64)
    scaled = a / (2.0 ** s)[:, None, None]
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
    r[norms == 0.0] = np.eye(p)
    for k in range(int(s.max()) if s.size else 0):
        todo = s > k
        r[todo] = r[todo] @ r[todo]
    return r.reshape(*batch_shape, p, p)


def frozen_expm_frechet_batch(a, e):
    """Fréchet derivatives ``L(a[i], e[i])`` for (n, p, p) stacks ``a`` and
    ``e``: the Fréchet row kernel (now ``linalg._frechet_rows``) as it was
    while it took two stacks of unrelated matrices, kept verbatim and run
    as one block. The kernel that builds its pairs ``x t`` and ``x v c'``
    itself must match it bit for bit until the Fréchet arithmetic is
    changed on purpose."""
    b = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0)
    theta13 = 5.371920351148152
    a = np.asarray(a, dtype=float)
    e = np.asarray(e, dtype=float)
    p = a.shape[-1]

    def mul(x, y):  # [x0 | x1] [y0 | y1] as [[x0, x1], [0, x0]] [[y0, y1], [0, y0]]
        out = x[..., :p] @ y
        out[..., p:] += x[..., p:] @ y[..., :p]
        return out

    x = np.concatenate([a, e], axis=-1)
    cols = np.abs(x).sum(axis=-2)
    norms = (cols[:, :p] + cols[:, p:]).max(axis=-1)
    with np.errstate(divide="ignore"):
        s = np.ceil(np.log2(norms / theta13))
    s = np.where(norms > theta13, s, 0.0).astype(np.int64)
    eye = np.eye(p, 2 * p)
    x = x / (2.0 ** s)[:, None, None]
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
    q = np.linalg.inv(v[..., :p] - u[..., :p])
    r = q @ (v + u)
    r[..., p:] += (q @ (u[..., p:] - v[..., p:])) @ r[..., :p]
    r[norms == 0.0] = eye
    # rows in descending s, so that the rows still to square form a prefix
    active = s.size - np.cumsum(np.bincount(s))[:-1]
    if active.size:
        order = np.argsort(-s, kind="stable")[:active[0]]
        t = r[order]
        for m in active:
            t[:m] = mul(t[:m], t[:m])
        r[order] = t
    return r[..., p:]


def frozen_read_columns(path, columns, *, nonnegative=(), indicator=()) -> np.ndarray:
    """The named columns of a CSV file as an (n, len(columns)) float array:
    ``dataio.read_columns`` as it was while it parsed every file line by line
    in blocks of ``_BLOCK`` rows, kept verbatim. The reader that parses a
    clean file in one numpy call must return its array bit for bit, or raise
    the same exception with the same message."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataValidationError(f"{path}: file is empty") from None
        missing = [c for c in columns if c not in header]
        if missing:
            raise DataValidationError(f"{path}: missing columns {missing}")
        repeated = [c for c in columns if header.count(c) > 1]
        if repeated:
            raise DataValidationError(f"{path}: columns named more than once {repeated}")
        blocks = iter(lambda: list(itertools.islice(reader, _BLOCK)), [])
        parts = [_frozen_parse_block(path, rows, 2 + b * _BLOCK, header, columns,
                                      nonnegative, indicator)
                 for b, rows in enumerate(blocks)]
    if not any(len(v) for v in parts):
        raise DataValidationError(f"{path}: no data rows")
    return np.concatenate(parts)


def _frozen_parse_block(path, rows, first_line, header, columns, nonnegative, indicator):
    """One block of CSV rows as floats, each column in one numpy conversion
    and checked with array masks; raises naming the block's first fault."""
    keep = [bool("".join(r).strip()) for r in rows]  # blank lines are skipped
    rows = list(itertools.compress(rows, keep))
    lines = np.flatnonzero(keep) + first_line
    # each check runs, in message order, on the rows before the earliest
    # fault found so far, so the last fault it records is the one to report
    cut, fault = len(rows), None

    def check(mask, text):
        nonlocal cut, fault
        hits = np.flatnonzero(mask[:cut])
        if hits.size:
            cut = int(hits[0])
            fault = f"line {lines[cut]}{text(cut)}"

    check(np.fromiter(map(len, rows), np.intp, len(rows)) != len(header),
          lambda k: f": expected {len(header)} fields, got {len(rows[k])}")
    parsed = []
    for c in columns:
        j = header.index(c)
        cells = [r[j] for r in rows[:cut]]
        try:
            v = np.array(cells, dtype=float)
        except ValueError:  # the block raises: find its first bad cell
            for k, cell in enumerate(cells):
                try:
                    float(cell)
                except ValueError:
                    break
            cut, fault = k, (f"line {lines[k]}, column {c}: "
                             f"non-numeric value {cell.strip()!r}")
            v = np.array(cells[:k], dtype=float)
        check(~np.isfinite(v), lambda k, c=c: f", column {c}: non-finite value")
        parsed.append(v)
    values = np.column_stack([v[:cut] for v in parsed])
    for c in nonnegative:
        check(values[:, columns.index(c)] < 0.0,
              lambda k, c=c: f", column {c}: negative value")
    for c in indicator:
        v = values[:, columns.index(c)]
        check((v != 0.0) & (v != 1.0), lambda k, c=c, v=v:
              f", column {c}: indicator must be 0 or 1, got {float(v[k])!r}")
    if fault is not None:
        raise DataValidationError(f"{path}, {fault}")
    return values
