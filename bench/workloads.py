"""The four workloads: inputs, the timed calls, and the checks on their output.

Each workload runs in rounds of identical composition. A round is a list of
tasks and a task is a list of calls made one after another (closed loop, one
caller): one ``estimation.fit`` call on ``desk-fit`` and ``paper-fit``, one
couple's ``miph measures`` then ``miph eval --grid`` on ``measures-eval``,
and ``miph simulate`` then ``miph beran`` on ``io``. Only the calls are
timed; every call's output is checked afterwards, outside the timed region.

The fit workloads fit pinned data, not data drawn from the run's seed: how
long an EM run takes depends on where its R-step stalls fall, and that moves
from draw to draw (on a 2-vCPU Xeon VM, 24 desk-fit iterations took 10.8 s on
one draw and 16.9 s on another), so a seeded draw would measure the draw
rather than the code.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from miph import cli, dataio, estimation
from miph import model as model_ops
from miph.model import Margin, MIPHModel
from miph.phasetype import GompertzTransform, SubIntensity

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODEL_PATH = ROOT / "demos" / "models" / "spousal_reference.json"
REFERENCE_JSON = HERE / "reference" / "outputs.json"
REFERENCE_EVAL = HERE / "reference" / "eval_grid.npz"

DESK_DATA_SEED = 1031
PAPER_DATA_SEED = 8834

# reference couples (entry ages in years) -> index into the published
# values below; measures-eval runs two of them per round
COUPLES = {"63,63": 0, "68,63": 1, "63,68": 2, "73,63": 3}
MEASURES_COUPLES = ("63,63", "73,63")
TAU_PRINTED = (0.3104, 0.2562, 0.4367, 0.2139)
RHO_PRINTED = (0.4526, 0.3938, 0.6144, 0.3381)
EVAL_GRID = "0:40:101"
EVAL_STEP = 0.4
REL_TOL, ABS_FLOOR = 1e-6, 1e-12
# a fit may end at most this share of |reference| below the reference
# log-likelihood per observation recorded at the benchmark's first commit
LOGLIK_SLACK = 0.01


@dataclass
class Call:
    """One timed call: its kind, wall time, and why it failed (or None)."""

    kind: str
    seconds: float
    error: str | None = None
    info: dict = field(default_factory=dict)


def timed(kind, fn, check, quiet) -> Call:
    """Time ``fn()``, then run ``check(result)`` inside ``quiet()``.

    ``check`` returns ``(error or None, info)``. A call that raises, or whose
    check raises, is a failed call, not a crash of the benchmark.
    """
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            result = fn()
    except Exception as err:  # counted as a failed operation
        return Call(kind, time.perf_counter() - start, f"raised {err!r}")
    seconds = time.perf_counter() - start
    with quiet():
        try:
            error, info = check(result)
        except Exception as err:  # a check that cannot run is a failed check
            error, info = f"check raised {err!r}", {}
    return Call(kind, seconds, error, info)


def close(got, ref) -> bool:
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return bool(np.all(np.abs(got - ref) <= np.maximum(REL_TOL * np.abs(ref), ABS_FLOOR)))


def load_reference() -> dict:
    with open(REFERENCE_JSON, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- fits


def random_chain(rng, p: int, low: float = 0.1, high: float = 2.0) -> SubIntensity:
    """Random feed-forward sub-intensity with exits from every state."""
    sup = rng.uniform(low, high, size=p - 1) if p > 1 else np.empty(0)
    exits = rng.uniform(low, high, size=p)
    m = np.diag(sup, k=1) if p > 1 else np.zeros((p, p))
    m[np.arange(p), np.arange(p)] = -(np.concatenate([sup, [0.0]]) + exits)
    return SubIntensity(m)


def desk_data(seed=DESK_DATA_SEED, n=2000, p=3, betas=(2.0, 2.5), censoring=0.2,
              n_covariates=2):
    """The acceptance-7 generating model and its censored sample."""
    rng = np.random.default_rng(seed)
    margins = tuple(Margin(random_chain(rng, p), GompertzTransform(b)) for b in betas)
    gamma = np.vstack([
        np.zeros(n_covariates + 1),
        rng.uniform(-1.0, 1.0, size=(p - 1, n_covariates + 1)),
    ])
    model = MIPHModel(margins, gamma=gamma)

    def sampler(srng, size):
        return np.column_stack(
            [np.ones(size)] + [srng.uniform(0.0, 1.0, size=size)
                               for _ in range(n_covariates)]
        )

    return model, dataio.generate_synthetic(model, sampler, censoring, n, seed + 1)


def paper_data(n=8834, seed=PAPER_DATA_SEED):
    """Couples drawn from the published model: spouse ages uniform on
    60-75 years, 60 % of margins censored."""
    model = dataio.load_model(MODEL_PATH)

    def sampler(rng, size):
        ages = rng.uniform(60.0, 75.0, size=(size, 2)) / dataio.TIME_SCALE
        return dataio.standard_design(ages[:, 0], ages[:, 1])

    return dataio.generate_synthetic(model, sampler, 0.6, n, seed)


class FitWorkload:
    """One ``estimation.fit`` call per round on pinned data."""

    def __init__(self, name: str, seed: int, tiny: bool, work: Path):
        self.name, self.tiny = name, tiny

    def config(self):
        raise NotImplementedError

    def data(self):
        raise NotImplementedError

    def setup(self) -> None:
        self.obs = self.data()
        self.fit_config = self.config()
        self.reference = None if self.tiny else load_reference()["loglik_per_obs"][self.name]

    def round(self, quiet) -> list[list[Call]]:
        return [[timed("fit", lambda: estimation.fit(self.obs, self.fit_config),
                       self.check, quiet)]]

    def check(self, report):
        n = self.obs.n
        trace = np.asarray(report.loglik_trace, dtype=float)
        if trace.size == 0 or not np.all(np.isfinite(trace)):
            return "log-likelihood trace is empty or not finite", {}
        info = {"loglik_per_obs": float(trace[-1] / n), "iterations": int(report.iterations)}
        if trace.size > 1 and np.diff(trace).min() < -1e-8 * n:
            return f"log-likelihood fell by {-np.diff(trace).min():.3g}", info
        ref = self.reference
        if ref is not None and info["loglik_per_obs"] < ref - LOGLIK_SLACK * abs(ref):
            return (f"log-likelihood per observation {info['loglik_per_obs']:.6f} "
                    f"is below the reference {ref:.6f}"), info
        return None, info


class DeskFit(FitWorkload):
    """Acceptance-7 data and configuration, capped at 40 iterations: the cap
    takes in the long R-step stall at iteration 40."""

    def data(self):
        return desk_data(n=300 if self.tiny else 2000)[1]

    def config(self):
        return estimation.FitConfig(p=3, i_step_every=2, beta_init=1.0, seed=41,
                                    max_iterations=2 if self.tiny else 40)


class PaperFit(FitWorkload):
    """Paper-scale couples; two iterations with one I-step at the second."""

    def data(self):
        return paper_data(n=300 if self.tiny else 8834)

    def config(self):
        cap = 1 if self.tiny else 2
        return estimation.FitConfig(p=10, i_step_every=cap, beta_init=45.0,
                                    max_iterations=cap)


# ---------------------------------------------------------------- CLI


def _cli(argv):
    return lambda: cli.main([str(a) for a in argv])


class MeasuresEval:
    """``miph measures`` (default grids) and ``miph eval --grid 0:40:101``
    for two reference couples, in an order drawn from the seed."""

    def __init__(self, name: str, seed: int, tiny: bool, work: Path):
        self.name, self.tiny, self.work = name, tiny, work
        order = np.random.default_rng(seed).permutation(len(MEASURES_COUPLES))
        self.couples = [MEASURES_COUPLES[i] for i in order]
        # tiny grids are subsets of the default ones, so the same reference
        # values apply
        self.grids = (["--cr-grid", "1:29:3", "--psi-grid", "0:28:3"] if tiny else [])
        self.eval_grid = "0:40:21" if tiny else EVAL_GRID

    def setup(self) -> None:
        self.reference = load_reference()["measures"]
        with np.load(REFERENCE_EVAL) as ref:
            self.eval_reference = {ages: ref[ages] for ages in MEASURES_COUPLES}

    def round(self, quiet) -> list[list[Call]]:
        tasks = []
        for ages in self.couples:
            measures_out = self.work / "measures.csv"
            eval_out = self.work / "eval.csv"
            tasks.append([
                timed("measures",
                      _cli(["measures", MODEL_PATH, "--ages", ages, *self.grids,
                            "--output", measures_out]),
                      lambda rc, a=ages: self.check_measures(rc, a, measures_out),
                      quiet),
                timed("eval_grid",
                      _cli(["eval", MODEL_PATH, "--ages", ages, "--grid",
                            self.eval_grid, "--output", eval_out]),
                      lambda rc, a=ages: self.check_eval(rc, a, eval_out),
                      quiet),
            ])
        return tasks

    def check_measures(self, rc, ages, path):
        if rc != 0:
            return f"miph measures exited {rc}", {}
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        values = {(r["measure"], r["time1"], r["time2"]): float(r["value"]) for r in rows}
        c = COUPLES[ages]
        tau, rho = values[("kendall_tau", "", "")], values[("spearman_rho", "", "")]
        if abs(tau - TAU_PRINTED[c]) >= 0.02 or abs(rho - RHO_PRINTED[c]) >= 0.03:
            return f"tau {tau:.4f} or rho {rho:.4f} is off the published values", {}
        cr = [v for (m, t1, _), v in values.items() if m == "cross_ratio" and float(t1) >= 1]
        if not cr or min(cr) <= 1.0:
            return "cross-ratio is not above 1 on u = 1..29", {}
        ref = self.reference[ages]
        if not self.tiny and len(values) != len(ref):
            return f"{len(values)} values, the reference has {len(ref)}", {}
        for key, v in values.items():
            r = ref.get("|".join(key))
            if r is None or not close(v, r):
                return f"{key} = {v!r} differs from the reference {r!r}", {}
        return None, {}

    def check_eval(self, rc, ages, path):
        if rc != 0:
            return f"miph eval exited {rc}", {}
        out = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        points = int(self.eval_grid.split(":")[2]) ** 2
        if out.shape != (points, 5):
            return f"eval wrote {out.shape[0]} rows, not {points}", {}
        idx = np.rint(out[:, :2] / EVAL_STEP).astype(int)
        if np.any(np.abs(idx * EVAL_STEP - out[:, :2]) > 1e-9):
            return "eval grid points are off the reference grid", {}
        ref = self.eval_reference[ages][idx[:, 0], idx[:, 1]]
        if not close(out[:, 2:], ref):
            worst = np.max(np.abs(out[:, 2:] - ref) / np.maximum(np.abs(ref), ABS_FLOOR))
            return f"eval values differ from the reference (worst relative {worst:.3g})", {}
        if ages == "63,63":
            surv = {(t1, t2): s for t1, t2, s in out[:, [0, 1, 3]]}
            s1, s2 = surv[(12.0, 30.0)], surv[(30.0, 12.0)]
            if not (0.31 <= s1 <= 0.33 and 0.108 <= s2 <= 0.128):
                return f"S(12,30) = {s1:.4f}, S(30,12) = {s2:.4f} out of range", {}
        return None, {}


class SimulateBeran:
    """``miph simulate`` to a CSV, then ``miph beran`` on that file."""

    AGES = "63,63"
    CENSORING = 0.2

    def __init__(self, name: str, seed: int, tiny: bool, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.n = 50_000 if tiny else 500_000

    def setup(self) -> None:
        self.model = dataio.load_model(MODEL_PATH)
        a = np.array([63.0]) / dataio.TIME_SCALE
        self.pi = self.model.initial_vectors(dataio.standard_design(a, a))[0]

    def round(self, quiet) -> list[list[Call]]:
        data = self.work / "simulated.csv"
        out = self.work / "beran.csv"
        return [[
            timed("simulate",
                  _cli(["simulate", MODEL_PATH, "--n", self.n, "--ages", self.AGES,
                        "--censoring-rate", self.CENSORING, "--seed", self.seed,
                        "--output", data]),
                  lambda rc: self.check_simulated(rc, data), quiet),
            timed("beran",
                  _cli(["beran", data, "--ages", self.AGES, "--bandwidth", 2,
                        "--bandwidth-unit", "years", "--output", out]),
                  lambda rc: self.check_beran(rc, out), quiet),
        ]]

    def check_simulated(self, rc, path):
        if rc != 0:
            return f"miph simulate exited {rc}", {}
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        censored = 1.0 - float(data[:, 2:4].mean())
        if data.shape[0] != self.n or abs(censored - self.CENSORING) > 0.01:
            return f"{data.shape[0]} rows, censored fraction {censored:.4f}", {}
        return None, {"censored": censored}

    def check_beran(self, rc, path):
        if rc != 0:
            return f"miph beran exited {rc}", {}
        out = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        worst = 0.0
        for margin in (1, 2):
            rows = out[out[:, 0] == margin]
            exact = 1.0 - model_ops.marginal_survival(
                self.model, self.pi, margin - 1, rows[:, 1] / dataio.TIME_SCALE)
            worst = max(worst, float(np.max(np.abs(rows[:, 2] - exact))))
        if worst > 0.01:
            return f"Beran CDF is {worst:.4f} from 1 - marginal survival", {}
        return None, {"beran_sup_error": worst}


WORKLOADS = {
    "desk-fit": DeskFit,
    "paper-fit": PaperFit,
    "measures-eval": MeasuresEval,
    "io": SimulateBeran,
}


def make(name: str, seed: int, tiny: bool, work: Path):
    return WORKLOADS[name](name, seed, tiny, work)
