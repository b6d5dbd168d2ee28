"""File formats, the conditional Kaplan-Meier estimator, and simulation.

CSV data files are bivariate with the fixed header
``time1,time2,delta1,delta2,age1,age2``: observed times and entry ages in
years, and censoring indicators. In every CSV file read, ``delta`` columns
are 0 or 1 and all other columns are >= 0. On load, times and ages are
divided by 100 (the internal scale keeps matrix exponentials
well-conditioned) and the regression design ``(1, age1, age2, age1 * age2)``
is assembled from the scaled ages. All CSV text of the package is read by
:func:`read_columns` and written by :func:`write_rows`.

Models travel as JSON documents with ``"format": "miph-v1"`` carrying the
sub-intensity matrices, transform parameters, and either regression
coefficients or a fixed initial vector.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import warnings

import numpy as np

from .estimation import ObservationSet
from .exceptions import DataValidationError, NumericalError
from .model import Margin, MIPHModel, sample_joint_rows
from .phasetype import GompertzTransform, SubIntensity

__all__ = [
    "TIME_SCALE",
    "load_csv",
    "write_csv",
    "standard_design",
    "save_model",
    "load_model",
    "beran_cdf",
    "generate_synthetic",
]

TIME_SCALE = 100.0
_CSV_COLUMNS = ("time1", "time2", "delta1", "delta2", "age1", "age2")
# the columns that hold 0 or 1; every other column read must be >= 0
_INDICATORS = ("delta1", "delta2")
_FORMAT = "miph-v1"
# rows per block of the line-by-line CSV check and of the CSV writer's
# per-row formatting: bounds the memory of the Python lists a block makes;
# 4096-row blocks parsed faster than 65536-row ones
_BLOCK = 1 << 12


def standard_design(age1, age2) -> np.ndarray:
    """Design matrix ``(1, age1, age2, age1 * age2)`` from scaled ages."""
    age1 = np.asarray(age1, dtype=float)
    age2 = np.asarray(age2, dtype=float)
    ones = np.ones_like(age1)
    return np.column_stack([ones, age1, age2, age1 * age2])


def load_csv(path) -> ObservationSet:
    """Read a bivariate lifetime CSV (times/ages in years) into an
    :class:`~miph.estimation.ObservationSet` on the internal scale.

    Columns may come in any order, extra columns are ignored and blank lines
    are skipped, and so is a UTF-8 byte-order mark. Raises :class:`DataValidationError` for an empty file, a
    missing or repeated column or no data rows, and, naming the line and the
    column, for a row whose field count differs from the header's (line
    only), a non-numeric or non-finite cell, a negative time or age, or an
    indicator outside {0, 1}. The earliest faulty line is named, with its
    first fault in that order, cells in the order of the schema header, or
    the line of a field past the csv module's size limit.
    """
    data = read_columns(path, _CSV_COLUMNS)
    y = data[:, 0:2] / TIME_SCALE
    delta = data[:, 2:4].astype(np.int8)
    ages = data[:, 4:6] / TIME_SCALE
    return ObservationSet(y=y, delta=delta,
                          covariates=standard_design(ages[:, 0], ages[:, 1]))


def read_columns(path, columns) -> np.ndarray:
    """Read the named columns of a CSV file as an (n, len(columns)) float
    array, under the rules and with the errors of :func:`load_csv`: the
    ``delta`` columns (``_INDICATORS``) must be 0 or 1, and all other columns
    >= 0. Cells are checked in the order of ``columns``, for negative values
    before indicators.

    A clean file is parsed in one call to numpy's C reader. Text it refuses,
    and a file with a fault, are read again block by block, which names the
    earliest fault or accepts what only Python's ``float`` or the blank-line
    rule accepts."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataValidationError(f"{path}: file is empty") from None
        except csv.Error as err:  # a field past the csv module's size limit
            raise DataValidationError(f"{path}, line {reader.line_num}: {err}") from None
        missing = [c for c in columns if c not in header]
        if missing:
            raise DataValidationError(f"{path}: missing columns {missing}")
        repeated = [c for c in columns if header.count(c) > 1]
        if repeated:
            raise DataValidationError(f"{path}: columns named more than once {repeated}")
        if fh.seekable():  # a pipe cannot be read twice: check it line by line
            values = _parse_clean(fh, header, columns)
            if values is not None:
                return values
            fh.seek(0)
            reader = csv.reader(fh)  # its line_num counts from the top again
            next(reader)
        parts = []
        for first in itertools.count(2, _BLOCK):
            rows = []
            try:
                rows.extend(itertools.islice(reader, _BLOCK))
            except csv.Error as err:  # the rows read before it may hold an earlier fault
                _parse_block(path, rows, first, header, columns)
                raise DataValidationError(f"{path}, line {reader.line_num}: {err}") from None
            if not rows:
                break
            parts.append(_parse_block(path, rows, first, header, columns))
    if not any(len(v) for v in parts):
        raise DataValidationError(f"{path}: no data rows")
    return np.concatenate(parts)


def _parse_clean(fh, header, columns):
    """The data lines after the header as the named columns, in one C-level
    parse; None when the parse fails or a check finds a fault."""
    try:
        with warnings.catch_warnings():  # a file without data rows
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(fh, delimiter=",", comments=None, quotechar=None,
                               ndmin=2)
    except ValueError:
        return None
    if table.shape[1] != len(header) or not len(table):
        return None
    index = [header.index(c) for c in columns]
    values = table if index == list(range(len(header))) else table[:, index]
    if not np.isfinite(values).all():
        return None
    for c, v in zip(columns, values.T):
        if ((v != 0.0) & (v != 1.0) if c in _INDICATORS else v < 0.0).any():
            return None
    return values


def _parse_block(path, rows, first_line, header, columns):
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
    for c, v in zip(columns, values.T):
        if c not in _INDICATORS:
            check(v < 0.0, lambda k, c=c: f", column {c}: negative value")
    for c, v in zip(columns, values.T):
        if c in _INDICATORS:
            check((v != 0.0) & (v != 1.0), lambda k, c=c, v=v:
                  f", column {c}: indicator must be 0 or 1, got {float(v[k])!r}")
    if fault is not None:
        raise DataValidationError(f"{path}, {fault}")
    return values


def write_csv(path, obs: ObservationSet) -> None:
    """Write an ObservationSet back to the bivariate CSV schema (years).

    ``path`` is a file name or an open text stream (left open). Floats are
    written with 17 significant digits, so a load/write cycle round-trips
    every field to full double precision.
    """
    if obs.n_margins != 2:
        raise DataValidationError("CSV schema is bivariate; data has "
                                  f"{obs.n_margins} margins")
    a = obs.covariates
    if a.shape[1] != 4 or not np.array_equal(a[:, 3], a[:, 1] * a[:, 2]):
        raise DataValidationError(
            "only the standard design (1, age1, age2, age1*age2) can be "
            "written back to CSV"
        )
    y = obs.y * TIME_SCALE
    ages = a[:, 1:3] * TIME_SCALE
    write_rows(path, _CSV_COLUMNS,
               ["%d" if c in _INDICATORS else "%.17g" for c in _CSV_COLUMNS],
               [y[:, 0], y[:, 1], obs.delta[:, 0], obs.delta[:, 1],
                ages[:, 0], ages[:, 1]])


def write_rows(dest, header, specs, columns) -> None:
    """Write CSV text: the ``header`` names, then one line for each row of
    ``columns`` (equal-length 1-d arrays, one per field), each field written
    by its printf conversion in ``specs``, such as ``"%.17g"``; a spec for
    each column, or ValueError.

    ``dest`` is a file name or an open text stream (left open). A column
    that holds one value on every row is formatted once, into the line; the
    other columns are formatted ``_BLOCK`` rows at a time.
    """
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0])
    fields, varying = [], []
    for spec, c in zip(specs, columns, strict=True):
        if n and _constant(c):
            spec = (spec % c[:1].tolist()[0]).replace("%", "%%")
        else:
            varying.append(c)
        fields.append(spec)
    line = ",".join(fields) + "\n"
    with (contextlib.nullcontext(dest) if hasattr(dest, "write")
          else open(dest, "w", newline="", encoding="utf-8")) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, _BLOCK):
            block = [c[start:start + _BLOCK].tolist() for c in varying]
            rows = zip(*block) if block else itertools.repeat((), min(_BLOCK, n - start))
            fh.writelines(line % row for row in rows)


def _constant(c) -> bool:
    """Whether every entry of a non-empty column formats as its first one:
    equal values of a numeric or text dtype, with the sign of a float zero
    agreeing too."""
    if c.dtype.kind not in "biufSU" or c[0] != c[-1] or not (c == c[0]).all():
        return False
    return c.dtype.kind != "f" or c[0] != 0.0 or (np.signbit(c) == np.signbit(c[0])).all()


def save_model(model: MIPHModel, path) -> None:
    """Serialize a model to the versioned JSON document format."""
    doc = {
        "format": _FORMAT,
        "time_scale": TIME_SCALE,
        "p": model.dim,
        "d": model.n_margins,
        "margins": [
            {
                "sub_intensity": m.sub.matrix.tolist(),
                "beta": m.transform.beta,
            }
            for m in model.margins
        ],
        "gamma": None if model.gamma is None else model.gamma.tolist(),
        "pi": None if model.fixed_pi is None else model.fixed_pi.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_model(path) -> MIPHModel:
    """Load a model saved by :func:`save_model`, with or without a UTF-8
    byte-order mark. Validates the format tag, and the ``time_scale``, ``p``
    and ``d`` a document may declare against :data:`TIME_SCALE` and the
    margins it holds. A string or a boolean where a number belongs is
    refused, naming its key, though numpy would read it as one."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise DataValidationError(f"{path}: not valid JSON ({err})") from None
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise DataValidationError(
            f"{path}: expected a {_FORMAT!r} document, got format "
            f"{doc.get('format')!r}" if isinstance(doc, dict)
            else f"{path}: expected a JSON object"
        )
    try:
        margins = tuple(
            Margin(
                sub=SubIntensity(np.asarray(
                    _numbers(m["sub_intensity"], f"margin {i} sub_intensity"), dtype=float)),
                transform=GompertzTransform(float(_numbers(m["beta"], f"margin {i} beta"))),
            )
            for i, m in enumerate(doc["margins"])
        )
        gamma = _numbers(doc.get("gamma"), "gamma")
        pi = _numbers(doc.get("pi"), "pi")
        model = MIPHModel(
            margins=margins,
            gamma=None if gamma is None else np.asarray(gamma, dtype=float),
            fixed_pi=None if pi is None else np.asarray(pi, dtype=float),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise DataValidationError(f"{path}: malformed model document: {err}") from None
    for key, value in (("time_scale", TIME_SCALE), ("p", model.dim), ("d", model.n_margins)):
        if key in doc and (isinstance(doc[key], bool) or doc[key] != value):
            raise DataValidationError(f"{path}: {key} is {doc[key]!r}, expected {value!r}")
    return model


def _numbers(value, key: str):
    """``value``, a JSON number or nested list, as given; TypeError naming
    ``key`` where it holds a string or a boolean."""
    if isinstance(value, (str, bool)):
        raise TypeError(f"{key} holds {value!r}, not a number")
    if isinstance(value, list):
        for v in value:
            _numbers(v, key)
    return value


def beran_cdf(times, deltas, covariates, query, bandwidth: float, t):
    """Conditional distribution function by kernel-weighted product limit.

    ``F(t | a) = 1 - prod_{i: x_(i) <= t} (1 - delta_(i) w_(i) / W_(i))``
    where ``w_i`` is a Gaussian kernel weight in the covariates
    (``exp(-||a - A_i||^2 / (2 b^2))``; the normalizing constant cancels) and
    ``W_i`` sums the weights of subjects still at risk. Ties are ordered
    uncensored-first, original order within; with constant covariates, any
    bandwidth reduces the estimator to the Kaplan-Meier product limit.

    Parameters
    ----------
    times, deltas : (n,) array_like
    covariates : (n,) or (n, q) array_like
        Kernel covariates (e.g. scaled entry ages), *not* a design matrix.
    query : scalar or (q,) array_like
        Finite covariate point to condition on.
    bandwidth : float
        Kernel bandwidth b > 0, in the covariates' units.
    t : scalar or array_like
        Evaluation time(s), not NaN; values below the smallest observation
        give 0.
    """
    times = np.asarray(times, dtype=float)
    deltas = np.asarray(deltas)
    cov = np.asarray(covariates, dtype=float)
    if cov.ndim == 1:
        cov = cov[:, None]
    n = times.shape[0]
    if times.ndim != 1 or n < 1:
        raise ValueError("times must be a nonempty 1-d array")
    if deltas.shape != (n,) or cov.shape[0] != n:
        raise ValueError("times, deltas and covariates must agree on n")
    if not np.all(np.isin(deltas, (0, 1))):
        raise ValueError("deltas entries must be 0 or 1")
    if not (np.all(np.isfinite(times)) and times.min() >= 0.0 and np.all(np.isfinite(cov))):
        raise ValueError("times must be finite and >= 0, and covariates finite")
    q = np.atleast_1d(np.asarray(query, dtype=float))
    if q.shape != (cov.shape[1],) or not np.all(np.isfinite(q)):
        raise ValueError(f"query must have {cov.shape[1]} finite coordinates")
    bandwidth = float(bandwidth)
    if not (np.isfinite(bandwidth) and bandwidth > 0.0):
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
    t_arr = np.asarray(t, dtype=float)
    if np.any(np.isnan(t_arr)):
        raise ValueError("evaluation times must not be NaN")

    dist2 = (((cov - q) / bandwidth) ** 2).sum(axis=1)
    with np.errstate(under="ignore"):
        weights = np.exp(-0.5 * dist2)
    if not np.any(weights > 0.0):
        raise NumericalError(
            "all kernel weights underflowed; increase the bandwidth or move "
            "the query point closer to the data"
        )

    # event order: time ascending, uncensored before censored at ties,
    # original order as the final tiebreak (lexsort is stable)
    order = np.lexsort((1 - deltas.astype(np.int64), times))
    ts = times[order]
    ws = weights[order]
    ds = deltas[order].astype(bool)
    at_risk = np.cumsum(ws[::-1])[::-1]
    with np.errstate(invalid="ignore", divide="ignore"):
        factors = np.where(ds & (at_risk > 0.0), 1.0 - ws / at_risk, 1.0)
    surv_steps = np.cumprod(factors)

    idx = np.searchsorted(ts, t_arr, side="right")
    flat = np.concatenate([[1.0], surv_steps])
    vals = 1.0 - flat[idx]
    return float(vals) if np.ndim(t) == 0 else vals


def generate_synthetic(model: MIPHModel, covariate_sampler, censoring_rate: float,
                       n: int, seed: int) -> ObservationSet:
    """Simulate right-censored joint lifetimes from a model.

    ``covariate_sampler(rng, n)`` must return an (n, g) design matrix with a
    leading 1-column, matched to the model's coefficient width. Censoring
    times are independent exponentials whose common rate is calibrated by
    Newton's method so the expected censored fraction over all margins equals
    ``censoring_rate``. Deterministic given ``seed``.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    censoring_rate = float(censoring_rate)
    if not (0.0 <= censoring_rate < 1.0):
        raise ValueError(f"censoring_rate must be in [0, 1), got {censoring_rate}")
    rng = np.random.default_rng(seed)
    design = np.asarray(covariate_sampler(rng, n), dtype=float)
    if design.ndim != 2 or design.shape[0] != n:
        raise ValueError(f"covariate sampler must return (n, g), got {design.shape}")
    pi_rows = model.initial_vectors(design)
    y = sample_joint_rows(model, pi_rows, rng)

    if censoring_rate == 0.0:
        return ObservationSet(y=y, delta=np.ones_like(y, dtype=np.int8), covariates=design)
    cens = rng.exponential(1.0 / _censoring_rate(y.ravel(), censoring_rate), size=y.shape)
    delta = (y <= cens).astype(np.int8)
    return ObservationSet(y=np.minimum(y, cens), delta=delta, covariates=design)


def _censoring_rate(y, fraction: float) -> float:
    """The rate r with ``mean(1 - exp(-r y)) = fraction``, by Newton's method:
    the mean is increasing and concave in r and, by Jensen, at most
    ``fraction`` at r0 = -log(1 - fraction) / mean(y), so the iterates rise
    to the root without a bracket. They stop once a step is within a few
    ulps of r, or not positive because rounding crossed the root."""
    rate, step = -np.log1p(-fraction) / y.mean(), np.inf
    while step > 4.0 * np.spacing(rate):
        decay = np.expm1(-rate * y)  # exp(-r y) - 1
        step = (fraction + decay.mean()) / np.mean(y * (1.0 + decay))
        rate += step
    return float(rate)
