"""Fitting the model to censored data.

Simulates right-censored joint lifetimes from a known model, then recovers
it with the EM-type fitting loop (expectation, regression, maximization,
and a periodic transform-parameter update). Individual parameters are not
identifiable -- many parameterizations give the same law -- so the check
that matters is agreement of the fitted survival surface with the truth.

Run from the repository root (under ten seconds):

    python3 demos/04_fitting.py
"""

import numpy as np

from miph import (
    FitConfig,
    GompertzTransform,
    Margin,
    MIPHModel,
    SubIntensity,
    fit,
    generate_synthetic,
    joint_survival,
)


def make_true_model():
    chain = lambda d, s: SubIntensity.from_rates(
        transition_rates=np.diag(s, k=1), exit_rates=d,
    )
    m1 = Margin(chain(np.array([0.1, 0.4, 1.5]), np.array([0.9, 0.7])),
                GompertzTransform(2.0))
    m2 = Margin(chain(np.array([0.2, 0.3, 1.1]), np.array([1.1, 0.5])),
                GompertzTransform(2.5))
    gamma = np.array([
        [0.0, 0.0],
        [0.4, -1.2],
        [-0.3, 0.8],
    ])
    return MIPHModel((m1, m2), gamma=gamma)


def covariate_sampler(rng, n):
    return np.column_stack([np.ones(n), rng.uniform(0.0, 1.0, size=n)])


def main():
    true_model = make_true_model()
    obs = generate_synthetic(true_model, covariate_sampler,
                             censoring_rate=0.2, n=800, seed=11)
    censored = 1.0 - obs.delta.mean()
    print(f"simulated {obs.n} pairs, {censored:.0%} of margins censored")

    config = FitConfig(p=3, max_iterations=150, loglik_tolerance=1e-7,
                       i_step_every=2, beta_init=1.0, seed=3)
    report = fit(obs, config)
    trace = report.loglik_trace
    print(f"\nstopped after {report.iterations} iterations "
          f"(converged: {report.converged})")
    print(f"log-likelihood: {trace[0]:.2f} -> {trace[-1]:.2f}")
    print("first increments:", np.round(np.diff(trace[:6]), 3))
    print("fitted transform parameters:",
          [round(m.transform.beta, 3) for m in report.model.margins],
          "(true: [2.0, 2.5])")

    # Compare survival surfaces averaged over the observed covariates.
    # Initial vectors enter the law linearly, so averaging them is exact.
    pi_true = true_model.initial_vectors(obs.covariates).mean(axis=0)
    pi_fit = report.model.initial_vectors(obs.covariates).mean(axis=0)
    grid = np.linspace(0.1, 1.2, 6)
    print("\n   y1     y2     S_true    S_fit     |diff|")
    worst = 0.0
    for y1 in grid:
        for y2 in grid:
            st = joint_survival(true_model, pi_true, np.array([y1, y2]))
            sf = joint_survival(report.model, pi_fit, np.array([y1, y2]))
            worst = max(worst, abs(st - sf))
            if np.isclose(y1, y2):
                print(f"  {y1:.2f}   {y2:.2f}   {st:.4f}   {sf:.4f}   "
                      f"{abs(st - sf):.4f}")
    print(f"\nsup |S_true - S_fit| over the 6x6 grid: {worst:.4f}")


if __name__ == "__main__":
    main()
