"""Command-line interface.

Subcommands::

    miph fit       DATA.csv  --p 10 [--output DIR] ...
    miph eval      MODEL.json --ages 63,63 --points "12,30;30,12" | --grid 0:40:41
    miph measures  MODEL.json --ages 63,63 [--cr-grid 0:29:30] ...
    miph simulate  MODEL.json --n 1000 --ages 63,63 [--censoring-rate 0.2]
    miph beran     DATA.csv  --ages 63,63 [--bandwidth 0.001]

Times and ages are given and reported in years; the conversion to the
internal scale (years / 100) happens inside; ``eval --grid`` goes through
:func:`miph.model.joint_grid`. All outputs are CSV/JSON text
(written to --output or stdout), never images. Exit codes: 0 success,
1 stdout closed before the output was written (``miph ... | head``),
2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import repeat
from pathlib import Path

import numpy as np

from . import dataio, estimation, model as model_ops
from .exceptions import DataValidationError, NumericalError

_AGE_RANGE_SCALED = (0.0, 1.5)


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise DataValidationError(f"{what} must be two comma-separated numbers, got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError:
        raise DataValidationError(f"{what} must be numeric, got {text!r}") from None
    if not (np.isfinite(a) and np.isfinite(b)) or a < 0 or b < 0:
        raise DataValidationError(f"{what} must be finite and >= 0")
    return a, b


def _parse_points(text: str) -> np.ndarray:
    pts = [_parse_pair(chunk, "point") for chunk in text.split(";") if chunk.strip()]
    if not pts:
        raise DataValidationError("no evaluation points given")
    return np.asarray(pts)


def _parse_grid(text: str, what: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise DataValidationError(f"{what} must look like start:stop:num, got {text!r}")
    try:
        start, stop, num = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise DataValidationError(f"{what} must be numeric, got {text!r}") from None
    if num < 1 or not 0.0 <= start <= stop < np.inf:  # NaN fails every comparison
        raise DataValidationError(f"{what}: need finite 0 <= start <= stop and num >= 1")
    return np.linspace(start, stop, num)


def _check_age_range(scaled_ages) -> None:
    """Warn once about all the ages outside the calibrated range."""
    lo, hi = _AGE_RANGE_SCALED
    ages = np.atleast_1d(scaled_ages)
    out = ages[(ages < lo) | (ages > hi)] * dataio.TIME_SCALE
    if out.size:
        which = (f"age {out[0]:g} years is" if out.size == 1 else
                 f"{out.size} ages, from {out.min():g} to {out.max():g} years, are")
        _warn(f"{which} outside the calibrated range [{lo * dataio.TIME_SCALE:g}, "
              f"{hi * dataio.TIME_SCALE:g}]; results are extrapolations")


def _couple_ages(text: str) -> np.ndarray:
    """Scaled ages from --ages "A1,A2" in years, with the range warning."""
    scaled = np.array(_parse_pair(text, "--ages")) / dataio.TIME_SCALE
    _check_age_range(scaled)
    return scaled


def _couple_design(mdl, scaled) -> np.ndarray:
    """The standard design (1, age1, age2, age1*age2) of (n, 2) scaled ages,
    the only one the CLI builds; refuses a model that needs another."""
    if mdl.gamma is not None and mdl.gamma.shape[1] != 4:
        raise DataValidationError("model expects a custom design; the CLI only "
                                  "builds the standard (1, age1, age2, age1*age2) one")
    return dataio.standard_design(scaled[:, 0], scaled[:, 1])


def _bivariate_model(path, command: str):
    """The model at ``path``; ``command`` names the caller if it is not bivariate."""
    mdl = dataio.load_model(path)
    if mdl.n_margins != 2:
        raise DataValidationError(f"{command} expects a bivariate model")
    return mdl


def _initial_vector(mdl, ages_arg: str | None) -> np.ndarray:
    """Resolve the initial vector from --ages (gamma models) or the model."""
    if mdl.gamma is not None:
        if ages_arg is None:
            raise DataValidationError(
                "model links initial vectors to covariates; pass --ages A1,A2"
            )
        return mdl.initial_vectors(_couple_design(mdl, _couple_ages(ages_arg)[None]))[0]
    if mdl.fixed_pi is not None:
        if ages_arg is not None:
            _warn("model carries a fixed initial vector; --ages ignored")
        return mdl.fixed_pi
    raise DataValidationError("model carries neither coefficients nor an initial vector")


def _cmd_fit(args) -> int:
    obs = dataio.load_csv(args.data)
    config = estimation.FitConfig(
        p=args.p,
        structure=args.structure,
        max_iterations=args.iterations,
        loglik_tolerance=None if args.tolerance == 0 else args.tolerance,
        seed=args.seed,
        beta_init=args.beta_init,
        i_step_every=args.i_step_every,
    )
    # an output path that cannot be a directory fails before the fit, not after
    out_dir = Path(args.output if args.output is not None else ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    report = estimation.fit(obs, config)

    model_path = out_dir / "model.json"
    trace_path = out_dir / "loglik.csv"
    dataio.save_model(report.model, model_path)
    trace = report.loglik_trace
    dataio.write_rows(trace_path, ("iteration", "loglik"), ("%d", "%.17g"),
                      [np.arange(1, len(trace) + 1), trace])

    betas = ", ".join(f"{m.transform.beta:.6g}" for m in report.model.margins)
    print(f"fitted {report.model.dim}-state model on {obs.n} observations")
    print(f"iterations: {report.iterations} (converged: {report.converged})")
    print(f"final log-likelihood: {report.final_loglik:.6f}")
    print(f"transform parameters: {betas}")
    print(f"model written to {model_path}, trace to {trace_path}")
    return 0


def _cmd_eval(args) -> int:
    mdl = _bivariate_model(args.model, "eval")
    pi = _initial_vector(mdl, args.ages)
    if (args.points is None) == (args.grid is None):
        raise DataValidationError("pass exactly one of --points or --grid")
    if args.points is not None:
        pts_years = _parse_points(args.points)
        pts = pts_years / dataio.TIME_SCALE
        dens, surv, cdf = (f(mdl, pi, pts) for f in (
            model_ops.joint_density, model_ops.joint_survival, model_ops.joint_cdf))
        times, spec = [pts_years[:, 0], pts_years[:, 1]], "%g"
    else:
        axis = _parse_grid(args.grid, "--grid")
        dens, surv, cdf = (v.ravel() for v in model_ops.joint_grid(
            mdl, pi, [axis / dataio.TIME_SCALE] * 2))
        text = np.array([format(t, "g") for t in axis])  # %g, once per axis value
        times, spec = [np.repeat(text, axis.size), np.tile(text, axis.size)], "%s"
    dataio.write_rows(sys.stdout if args.output is None else args.output,
                      ("time1", "time2", "density", "survival", "cdf"),
                      (spec, spec, "%.12g", "%.12g", "%.12g"),
                      [*times, dens / dataio.TIME_SCALE**2, surv, cdf])
    return 0


def _cmd_measures(args) -> int:
    mdl = _bivariate_model(args.model, "measures")
    pi = _initial_vector(mdl, args.ages)
    cr_grid = _parse_grid(args.cr_grid, "--cr-grid")
    psi_grid = _parse_grid(args.psi_grid, "--psi-grid")

    rows = [
        ("kendall_tau", "", "", model_ops.kendall_tau(mdl, pi)),
        ("spearman_rho", "", "", model_ops.spearman_rho(mdl, pi)),
    ]
    psi = psi_grid / dataio.TIME_SCALE
    psi_text = [format(u, "g") for u in psi_grid]
    rows += zip(repeat("psi1"), psi_text, psi_text, model_ops.psi1(mdl, pi, psi, psi))
    for margin in (0, 1):
        rows += zip(repeat(f"psi2_margin{margin + 1}"), repeat(""), psi_text,
                    model_ops.psi2(mdl, pi, margin, psi))
    cr_text = [format(u, "g") for u in cr_grid]
    rows += zip(repeat("cross_ratio"), cr_text, cr_text,
                model_ops.cross_ratio(mdl, pi, cr_grid / dataio.TIME_SCALE))

    dataio.write_rows(sys.stdout if args.output is None else args.output,
                      ("measure", "time1", "time2", "value"),
                      ("%s", "%s", "%s", "%.12g"), list(zip(*rows)))
    return 0


def _cmd_simulate(args) -> int:
    mdl = _bivariate_model(args.model, "simulate")
    if (args.ages is None) == (args.covariates is None):
        raise DataValidationError("pass exactly one of --ages or --covariates")

    if args.ages is not None:
        if args.n is None:
            raise DataValidationError("--n is required with --ages")
        # a view of the one couple; generate_synthetic refuses n < 1
        scaled = np.broadcast_to(_couple_ages(args.ages), (max(args.n, 0), 2))
    else:
        scaled = dataio.read_columns(args.covariates, ("age1", "age2")) / dataio.TIME_SCALE
        if args.n not in (None, len(scaled)):
            raise DataValidationError(
                f"--n {args.n} does not match {len(scaled)} covariate rows")
        _check_age_range(scaled)

    design = _couple_design(mdl, scaled)
    n = len(design) if args.n is None else args.n
    obs = dataio.generate_synthetic(mdl, lambda rng, size: design,
                                    args.censoring_rate, n, args.seed)
    dataio.write_csv(sys.stdout if args.output is None else args.output, obs)
    if args.output is not None:
        print(f"wrote {obs.n} rows to {args.output}")
    return 0


def _cmd_beran(args) -> int:
    obs = dataio.load_csv(args.data)
    query = _couple_ages(args.ages)
    bandwidth = args.bandwidth
    if args.bandwidth_unit == "years":
        bandwidth = bandwidth / dataio.TIME_SCALE
    grid_years = _parse_grid(args.grid, "--grid")
    grid = grid_years / dataio.TIME_SCALE
    ages = obs.covariates[:, 1:3]

    cdf = np.concatenate([
        dataio.beran_cdf(obs.y[:, m], obs.delta[:, m], ages, query, bandwidth, grid)
        for m in (0, 1)
    ])
    dataio.write_rows(sys.stdout if args.output is None else args.output,
                      ("margin", "time", "cdf", "survival"),
                      ("%d", "%g", "%.12g", "%.12g"),
                      [np.repeat([1, 2], grid.size), np.tile(grid_years, 2),
                       cdf, 1.0 - cdf])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miph",
        description="Joint lifetime models of multivariate phase type.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", default=None, help="output file/directory")

    p_fit = sub.add_parser("fit", help="estimate a model from a lifetime CSV")
    p_fit.add_argument("data", help="CSV with time1,time2,delta1,delta2,age1,age2")
    p_fit.add_argument("--p", type=int, required=True, help="number of states")
    p_fit.add_argument("--structure", choices=("coxian", "general"), default="coxian")
    p_fit.add_argument("--iterations", type=int, default=1000)
    p_fit.add_argument("--tolerance", type=float, default=1e-7,
                       help="per-observation log-likelihood stopping tolerance "
                            "(0 = run --iterations exactly)")
    p_fit.add_argument("--beta-init", type=float, default=1.0)
    p_fit.add_argument("--i-step-every", type=int, default=1,
                       help="how often to update the transforms (0 = frozen)")
    p_fit.add_argument("--seed", type=int, default=0, help="seed of the initial rates")
    common(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_eval = sub.add_parser("eval", help="evaluate density/survival/CDF")
    p_eval.add_argument("model", help="model JSON")
    p_eval.add_argument("--ages", default=None, help="couple ages in years, e.g. 63,63")
    p_eval.add_argument("--points", default=None,
                        help='times in years: "t1,t2;t1,t2;..."')
    p_eval.add_argument("--grid", default=None,
                        help="years start:stop:num, evaluated on the square grid")
    common(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_meas = sub.add_parser("measures", help="dependence measures and curves")
    p_meas.add_argument("model", help="model JSON")
    p_meas.add_argument("--ages", default=None, help="couple ages in years")
    p_meas.add_argument("--cr-grid", default="0:29:30",
                        help="cross-ratio diagonal grid, years start:stop:num")
    p_meas.add_argument("--psi-grid", default="0:29:30",
                        help="psi curves grid, years start:stop:num")
    common(p_meas)
    p_meas.set_defaults(func=_cmd_measures)

    p_sim = sub.add_parser("simulate", help="draw synthetic censored data")
    p_sim.add_argument("model", help="model JSON")
    p_sim.add_argument("--n", type=int, default=None, help="number of couples")
    p_sim.add_argument("--censoring-rate", type=float, default=0.0)
    p_sim.add_argument("--ages", default=None,
                       help="constant couple ages in years, e.g. 63,63")
    p_sim.add_argument("--covariates", default=None,
                       help="CSV with age1,age2 columns (years), one row per couple")
    p_sim.add_argument("--seed", type=int, default=0, help="seed of the sampler")
    common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_ber = sub.add_parser("beran", help="conditional Kaplan-Meier curves")
    p_ber.add_argument("data", help="CSV with time1,time2,delta1,delta2,age1,age2")
    p_ber.add_argument("--ages", required=True, help="query ages in years")
    p_ber.add_argument("--bandwidth", type=float, default=0.001)
    p_ber.add_argument("--bandwidth-unit", choices=("scaled", "years"),
                       default="scaled",
                       help="units of --bandwidth (default: internal scale)")
    p_ber.add_argument("--grid", default="0:40:81",
                       help="evaluation times, years start:stop:num")
    common(p_ber)
    p_ber.set_defaults(func=_cmd_beran)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a reader gone early shows here, not at exit
        return status
    except BrokenPipeError:  # valid input; the exit's flush goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (NumericalError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except (DataValidationError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
