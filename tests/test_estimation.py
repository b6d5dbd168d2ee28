"""EM machinery tests.

Oracles, in increasing strength:

* closed forms for the single-state model (everything is exact);
* adaptive quadrature of the occupation/transition integrals, assembled
  from scipy's scalar matrix exponential rather than the block construction;
* the score identity: at the current parameters, the gradient of the
  observed log-likelihood in each rate equals E[N]/rate - E[Z], so finite
  differences of an independently coded likelihood check every conditional
  expectation at once;
* a quasi-Newton reference optimizer for the initial-vector regression.
"""

import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.optimize

from miph import (
    CoxianStructure,
    FitConfig,
    GeneralStructure,
    GompertzTransform,
    Margin,
    MIPHModel,
    NumericalError,
    ObservationSet,
    SubIntensity,
    SufficientStats,
    e_step,
    fit,
    i_step,
    m_step,
    observed_loglik,
    r_step,
    sample_joint,
    transform_data,
)
from miph import estimation, phasetype
from miph.estimation import _age_scale_loglik
from miph.linalg import expm_batch

from conftest import random_chain, random_pi


def _toy_data(seed=307, n=6, d=2, p=2):
    """Small operational-scale data set with mixed censoring."""
    rng = np.random.default_rng(seed)
    subs = [random_chain(rng, p) for _ in range(d)]
    x = rng.uniform(0.1, 2.0, size=(n, d))
    delta = (rng.random((n, d)) < 0.6).astype(int)
    delta[0] = 1  # keep at least one death and one censoring around
    delta[1] = 0
    pi_rows = np.vstack([random_pi(rng, p) for _ in range(n)])
    return x, delta, pi_rows, subs


def direct_loglik(x, delta, pi_rows, subs):
    """Operational-scale observed log-likelihood, coded independently."""
    n, d = x.shape
    total = 0.0
    for m in range(n):
        factors = np.ones(subs[0].dim)
        for i, sub in enumerate(subs):
            mat = scipy.linalg.expm(sub.matrix * x[m, i])
            if delta[m, i]:
                factors = factors * (mat @ sub.exit_rates)
            else:
                factors = factors * mat.sum(axis=1)
        total += np.log(float(pi_rows[m] @ factors))
    return total


def quadrature_e_step(x, delta, pi_rows, subs):
    """E-step statistics by adaptive quadrature of their defining integrals."""
    n, d = x.shape
    p = subs[0].dim
    a = np.zeros((d, n, p))
    for i, sub in enumerate(subs):
        for m in range(n):
            mat = scipy.linalg.expm(sub.matrix * x[m, i])
            a[i, m] = mat @ sub.exit_rates if delta[m, i] else mat.sum(axis=1)
    w = pi_rows.copy()
    for i in range(d):
        w *= a[i]
    denom = w.sum(axis=1)
    b = d * w / denom[:, None]

    offdiag = ~np.eye(p, dtype=bool)
    z = np.zeros((d, p))
    n_trans = np.zeros((d, p, p))
    n_exit = np.zeros((d, p))
    for i, sub in enumerate(subs):
        for m in range(n):
            c = pi_rows[m].copy()
            for l in range(d):
                if l != i:
                    c *= a[l, m]
            c /= denom[m]
            v = sub.exit_rates if delta[m, i] else np.ones(p)
            x_mi = x[m, i]

            def integrand(s):
                left = scipy.linalg.expm(sub.matrix * (x_mi - s))
                right = scipy.linalg.expm(sub.matrix * s)
                return (left @ np.outer(v, c) @ right).ravel()

            u, _ = scipy.integrate.quad_vec(
                integrand, 0.0, x_mi, epsabs=1e-13, epsrel=1e-11
            )
            u = u.reshape(p, p)
            z[i] += np.diag(u)
            n_trans[i] += np.where(offdiag, sub.matrix * u.T, 0.0)
            if delta[m, i]:
                mat = scipy.linalg.expm(sub.matrix * x_mi)
                n_exit[i] += sub.exit_rates * (c @ mat)
    return b, z, n_trans, n_exit


class TestObservationSet:
    def test_valid_construction(self):
        obs = ObservationSet(
            y=[[0.5, 0.7]], delta=[[1, 0]], covariates=[[1.0, 0.63]]
        )
        assert obs.n == 1 and obs.n_margins == 2
        assert not obs.y.flags.writeable

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ObservationSet(y=[[0.5]], delta=[[2]], covariates=[[1.0]])
        with pytest.raises(ValueError):
            ObservationSet(y=[[-0.5]], delta=[[1]], covariates=[[1.0]])
        with pytest.raises(ValueError):
            ObservationSet(y=[[0.5]], delta=[[1]], covariates=[[2.0]])
        with pytest.raises(ValueError):
            ObservationSet(y=[[0.5]], delta=[[1, 0]], covariates=[[1.0]])


class TestTransformData:
    def test_matches_formula(self):
        obs = ObservationSet(
            y=[[0.5, 0.7], [0.1, 0.0]],
            delta=np.ones((2, 2), dtype=int),
            covariates=[[1.0], [1.0]],
        )
        got = transform_data(obs, (2.0, 3.0))
        expected = np.expm1(obs.y * np.array([2.0, 3.0])) / np.array([2.0, 3.0])
        np.testing.assert_allclose(got, expected, rtol=1e-15)

    def test_overflow_names_offenders(self):
        obs = ObservationSet(
            y=[[0.5, 9.0]], delta=[[1, 1]], covariates=[[1.0]]
        )
        with pytest.raises(NumericalError, match=r"\(0, 1\)"):
            transform_data(obs, (1.0, 200.0))


class TestEStep:
    def test_b_rows_sum_to_margin_count(self):
        x, delta, pi_rows, subs = _toy_data()
        stats = e_step(x, delta, pi_rows, subs)
        np.testing.assert_allclose(stats.b.sum(axis=1), 2.0, rtol=1e-12)

    def test_single_state_closed_forms(self):
        rng = np.random.default_rng(311)
        subs = [SubIntensity(np.array([[-1.7]])), SubIntensity(np.array([[-0.4]]))]
        x = rng.uniform(0.1, 3.0, size=(5, 2))
        delta = (rng.random((5, 2)) < 0.5).astype(int)
        pi_rows = np.ones((5, 1))
        stats = e_step(x, delta, pi_rows, subs)
        np.testing.assert_allclose(stats.b, 2.0, rtol=1e-12)
        np.testing.assert_allclose(stats.z[:, 0], x.sum(axis=0), rtol=1e-10)
        np.testing.assert_allclose(
            stats.n_exit[:, 0], delta.sum(axis=0).astype(float), rtol=1e-10
        )
        assert stats.n_trans.max() == 0.0

    @pytest.mark.parametrize("p", [2, 3])
    def test_against_quadrature(self, p):
        x, delta, pi_rows, subs = _toy_data(seed=313 + p, n=5, d=2, p=p)
        stats = e_step(x, delta, pi_rows, subs)
        b, z, n_trans, n_exit = quadrature_e_step(x, delta, pi_rows, subs)
        np.testing.assert_allclose(stats.b, b, rtol=1e-6, atol=1e-12)
        np.testing.assert_allclose(stats.z, z, rtol=1e-6, atol=1e-12)
        np.testing.assert_allclose(stats.n_trans, n_trans, rtol=1e-6, atol=1e-12)
        np.testing.assert_allclose(stats.n_exit, n_exit, rtol=1e-6, atol=1e-12)

    def test_score_identity(self):
        # d loglik / d rate = E[N]/rate - E[Z] at the current parameters
        x, delta, pi_rows, subs = _toy_data(seed=331, n=8, d=2, p=3)
        stats = e_step(x, delta, pi_rows, subs)
        h = 1e-6
        for i, sub in enumerate(subs):
            trans = np.where(np.eye(3, dtype=bool), 0.0, sub.matrix)
            exits = sub.exit_rates.copy()

            def ll(tr, ex):
                mod = [s for s in subs]
                mod[i] = SubIntensity.from_rates(tr, ex)
                return direct_loglik(x, delta, pi_rows, mod)

            for k, s in [(0, 1), (1, 2), (2, 0)]:
                if trans[k, s] == 0.0:
                    continue
                up, down = trans.copy(), trans.copy()
                up[k, s] += h
                down[k, s] -= h
                fd = (ll(up, exits) - ll(down, exits)) / (2 * h)
                expected = stats.n_trans[i][k, s] / trans[k, s] - stats.z[i][k]
                np.testing.assert_allclose(fd, expected, rtol=2e-5, atol=1e-7)

            for k in range(3):
                up, down = exits.copy(), exits.copy()
                up[k] += h
                down[k] -= h
                fd = (ll(trans, up) - ll(trans, down)) / (2 * h)
                expected = stats.n_exit[i][k] / exits[k] - stats.z[i][k]
                np.testing.assert_allclose(fd, expected, rtol=2e-5, atol=1e-7)

    def test_start_state_score_identity(self):
        # d loglik / d pi_j (unnormalized) = b_j / (d * pi_j)
        x, delta, pi_rows, subs = _toy_data(seed=337, n=2, d=2, p=2)
        x, delta, pi_rows = x[:1], delta[:1], pi_rows[:1]
        stats = e_step(x, delta, pi_rows, subs)
        h = 1e-7
        for j in range(2):
            up, down = pi_rows.copy(), pi_rows.copy()
            up[0, j] += h
            down[0, j] -= h
            fd = (direct_loglik(x, delta, up, subs)
                  - direct_loglik(x, delta, down, subs)) / (2 * h)
            expected = stats.b[0, j] / (2 * pi_rows[0, j])
            np.testing.assert_allclose(fd, expected, rtol=1e-6)

    def test_zero_evidence_rows_raise(self):
        rng = np.random.default_rng(347)
        subs = [random_chain(rng, 2) for _ in range(2)]
        x = np.array([[0.5, 0.4], [2000.0, 0.4], [0.3, 0.2]])
        delta = np.ones((3, 2), dtype=int)
        pi_rows = np.tile(random_pi(rng, 2), (3, 1))
        with pytest.raises(NumericalError, match=r"evidence .* rows \[1\]$"):
            e_step(x, delta, pi_rows, subs)

    def test_all_rows_underflow_raises(self):
        rng = np.random.default_rng(349)
        subs = [random_chain(rng, 2) for _ in range(2)]
        x = np.full((2, 2), 2000.0)
        delta = np.ones((2, 2), dtype=int)
        pi_rows = np.tile(random_pi(rng, 2), (2, 1))
        with pytest.raises(NumericalError, match=r"rows \[0, 1\]$"):
            e_step(x, delta, pi_rows, subs)

    def test_row_below_the_old_floor_keeps_its_weights(self):
        """Row 1's evidence is about 1e-305, under the 1e-300 floor that once
        dropped such rows from the statistics."""
        subs = [SubIntensity(np.diag([-1.0, -2.0]))] * 2
        x = np.array([[0.5, 0.4], [351.0, 351.0]])
        pi_rows = np.full((2, 2), 0.5)
        stats = e_step(x, np.zeros((2, 2), dtype=int), pi_rows, subs)
        assert 1e-308 < 0.5 * np.exp(-702.0) < 1e-300
        np.testing.assert_allclose(stats.b.sum(axis=1), [2.0, 2.0], rtol=1e-12)

    def test_subnormal_evidence_row(self):
        """Row 1's evidence is about 1e-310, where 1/evidence overflows. Split
        over both margins, its posterior weights stay finite and its b-row
        sums to d; all in one margin, they overflow and the row is named."""
        subs = [SubIntensity(np.diag([-1.0, -2.0]))] * 2
        pi_rows = np.full((2, 2), 0.5)
        censored = np.zeros((2, 2), dtype=int)
        stats = e_step(np.array([[0.5, 0.4], [356.5, 356.5]]), censored, pi_rows, subs)
        assert 0.0 < 0.5 * np.exp(-713.0) < 2.0 ** -1024
        np.testing.assert_allclose(stats.b.sum(axis=1), [2.0, 2.0], rtol=1e-12)
        with pytest.raises(NumericalError, match=r"margin 0: .* rows \[1\]$"):
            e_step(np.array([[0.5, 0.4], [713.0, 0.4]]), censored, pi_rows, subs)

    def test_exit_counts_sum_to_deaths(self):
        # row 1's own evidence in margin 0 is about 5e-53, so its posterior
        # weights given margin 1 are about 2e52; each observed death still
        # adds exactly one expected absorption
        sub = SubIntensity(np.array([[-1.5, 0.5], [0.0, -0.8]]))
        x = np.array([[0.7, 0.4], [150.0, 0.9], [2.0, 1.0], [40.0, 60.0]])
        delta = np.array([[1, 1], [1, 0], [0, 1], [1, 1]])
        stats = e_step(x, delta, np.tile([0.3, 0.7], (4, 1)), [sub, sub])
        np.testing.assert_allclose(stats.n_exit.sum(axis=1), delta.sum(axis=0),
                                   rtol=1e-12)

    def test_shape_validation(self):
        x, delta, pi_rows, subs = _toy_data()
        with pytest.raises(ValueError):
            e_step(x, delta[:, :1], pi_rows, subs)
        with pytest.raises(ValueError):
            e_step(x, delta, pi_rows[:, :1], subs)
        with pytest.raises(ValueError):
            e_step(x, delta, pi_rows, subs[:1])


class TestSufficientStats:
    def test_shape_and_sign_validation(self):
        with pytest.raises(ValueError):
            SufficientStats(
                b=np.ones((3, 2)), z=np.ones((2, 2)),
                n_trans=np.ones((2, 2, 2)), n_exit=-np.ones((2, 2)),
            )
        with pytest.raises(ValueError):
            SufficientStats(
                b=np.ones((3, 2)), z=np.ones((2, 3)),
                n_trans=np.ones((2, 2, 2)), n_exit=np.ones((2, 2)),
            )


class TestRStep:
    def test_intercept_only_closed_form(self):
        rng = np.random.default_rng(353)
        b = rng.uniform(0.0, 1.0, size=(40, 3))
        b = 2.0 * b / b.sum(axis=1, keepdims=True)  # rows sum to d = 2
        a = np.ones((40, 1))
        gamma, probs = r_step(b, a)
        expected = b.sum(axis=0) / b.sum()
        np.testing.assert_allclose(probs[0], expected, rtol=1e-9)
        np.testing.assert_allclose(probs, np.tile(expected, (40, 1)), rtol=1e-9)
        assert np.all(gamma[0] == 0.0)

    def test_against_quasi_newton_reference(self):
        rng = np.random.default_rng(359)
        n, p, g = 60, 3, 2
        a = np.column_stack([np.ones(n), rng.normal(size=n)])
        b = rng.uniform(0.0, 1.0, size=(n, p))
        b = 2.0 * b / b.sum(axis=1, keepdims=True)

        def negobj(theta):
            gm = np.vstack([np.zeros(g), theta.reshape(p - 1, g)])
            eta = a @ gm.T
            logp = eta - scipy.special.logsumexp(eta, axis=1, keepdims=True)
            return -(b * logp).sum()

        ref = scipy.optimize.minimize(
            negobj, np.zeros((p - 1) * g), method="BFGS",
            options={"gtol": 1e-11, "maxiter": 500},
        )
        gamma, _ = r_step(b, a)
        got = negobj(gamma[1:].ravel())
        assert got <= ref.fun + 1e-8
        np.testing.assert_allclose(gamma[1:].ravel(), ref.x, atol=1e-4)

    def test_single_state_shortcut(self):
        gamma, probs = r_step(np.full((5, 1), 2.0), np.ones((5, 1)))
        np.testing.assert_array_equal(probs, np.ones((5, 1)))
        np.testing.assert_array_equal(gamma, np.zeros((1, 1)))

    def test_separation_hits_cap_with_warning(self):
        # weights fully determined by the sign of the covariate
        x = np.array([-1.0] * 20 + [1.0] * 20)
        a = np.column_stack([np.ones(40), x])
        b = np.zeros((40, 2))
        b[:20, 0] = 1.0
        b[20:, 1] = 1.0
        with pytest.warns(RuntimeWarning, match="cap"):
            gamma, probs = r_step(b, a, coef_cap=5.0)
        assert np.max(np.abs(gamma)) <= 5.0
        assert probs[0, 0] > 0.99 and probs[-1, 1] > 0.99

    def test_rejects_nonzero_reference_row(self):
        with pytest.raises(ValueError):
            r_step(np.ones((3, 2)), np.ones((3, 1)), gamma_init=np.ones((2, 1)))

    def test_no_stall_over_the_desk_fit(self, monkeypatch):
        """Acceptance-7 data for 40 EM iterations: every R-step call stops
        within 10 objective evaluations. An absolute gradient tolerance
        below the objective's rounding floor made thousands at iteration 40."""
        from test_acceptance import _synthetic_for_em

        _, obs = _synthetic_for_em(seed=1031, n=2000, p=3, betas=(2.0, 2.5),
                                   censoring=0.2, n_covariates=2)
        evals = []
        log_softmax, inner = estimation._log_softmax, estimation.r_step

        def counting_log_softmax(eta):
            evals[-1] += 1
            return log_softmax(eta)

        def counted_r_step(*args, **kwargs):
            evals.append(0)
            return inner(*args, **kwargs)

        monkeypatch.setattr(estimation, "_log_softmax", counting_log_softmax)
        monkeypatch.setattr(estimation, "r_step", counted_r_step)
        fit(obs, FitConfig(p=3, max_iterations=40, loglik_tolerance=None,
                           i_step_every=2, beta_init=1.0, seed=41))
        assert len(evals) == 40
        assert max(evals) <= 10, evals


class TestMStep:
    def test_exact_ratios(self):
        stats = SufficientStats(
            b=np.full((4, 2), 1.0),
            z=np.array([[2.0, 4.0]]),
            n_trans=np.array([[[0.0, 1.0], [0.0, 0.0]]]),
            n_exit=np.array([[0.5, 2.0]]),
        )
        (sub,) = m_step(stats, CoxianStructure(2))
        np.testing.assert_allclose(sub.matrix[0, 1], 0.5)   # 1.0 / 2.0
        np.testing.assert_allclose(sub.exit_rates, [0.25, 0.5])
        np.testing.assert_allclose(sub.matrix[0, 0], -0.75)

    def test_maximizes_complete_data_surrogate(self):
        x, delta, pi_rows, subs = _toy_data(seed=367, n=10, d=2, p=3)
        stats = e_step(x, delta, pi_rows, subs)
        structure = GeneralStructure(3)
        fitted = m_step(stats, structure)
        mask = structure.transition_mask()

        def surrogate(i, sub):
            trans = np.where(mask, sub.matrix, 0.0)
            with np.errstate(divide="ignore"):
                log_trans = np.where(
                    stats.n_trans[i] > 0, np.log(np.where(mask, trans, 1.0)), 0.0
                )
                log_exit = np.where(
                    stats.n_exit[i] > 0, np.log(sub.exit_rates), 0.0
                )
            val = (stats.n_trans[i] * log_trans).sum()
            val += (stats.n_exit[i] * log_exit).sum()
            val -= (stats.z[i] * (trans.sum(axis=1) + sub.exit_rates)).sum()
            return val

        for i in range(2):
            base = surrogate(i, fitted[i])
            trans = np.where(mask, fitted[i].matrix, 0.0)
            exits = fitted[i].exit_rates.copy()
            for factor in (0.99, 1.01):
                for k, s in zip(*np.nonzero(mask)):
                    tr = trans.copy()
                    tr[k, s] *= factor
                    assert surrogate(i, SubIntensity.from_rates(tr, exits)) <= base
                for k in range(3):
                    ex = exits.copy()
                    ex[k] *= factor
                    assert surrogate(i, SubIntensity.from_rates(trans, ex)) <= base

    def test_zero_occupancy_states_get_floored(self):
        stats = SufficientStats(
            b=np.full((2, 2), 1.0),
            z=np.array([[3.0, 0.0]]),
            n_trans=np.array([[[0.0, 0.6], [0.0, 0.0]]]),
            n_exit=np.array([[1.5, 0.0]]),
        )
        with pytest.warns(RuntimeWarning, match="occupancy"):
            (sub,) = m_step(stats, CoxianStructure(2))
        assert sub.matrix[1, 1] == -1e-8
        assert sub.exit_rates[1] == pytest.approx(1e-8)

    def test_respects_coxian_mask(self):
        stats = SufficientStats(
            b=np.full((2, 2), 1.0),
            z=np.array([[2.0, 2.0]]),
            n_trans=np.array([[[0.0, 1.0], [0.8, 0.0]]]),  # lower entry too
            n_exit=np.array([[0.5, 0.5]]),
        )
        (sub,) = m_step(stats, CoxianStructure(2))
        assert sub.matrix[1, 0] == 0.0


def reference_age_scale_loglik(y, delta, per_obs_pi, subs, betas):
    """The log-likelihood value as coded before the derivatives were added,
    less its 1e-300 floor, which no row here reaches: the value half of
    `_age_scale_loglik` must stay bit-equal to it."""
    n, d = y.shape
    lik = per_obs_pi.copy()
    for i, sub in enumerate(subs):
        beta = betas[i]
        with np.errstate(over="ignore"):
            x = np.expm1(beta * y[:, i]) / beta
        ok = np.isfinite(x)
        factors = np.zeros((n, sub.dim))
        if np.any(ok):
            mats = expm_batch(sub.matrix[None, :, :] * x[ok, None, None])
            died = delta[ok, i].astype(bool)
            factors[ok] = np.where(
                died[:, None],
                (mats @ sub.exit_rates) * np.exp(beta * y[ok, i])[:, None],
                mats.sum(axis=-1),
            )
        lik *= factors
    return float(np.log(lik.sum(axis=1)).sum())


class TestIStep:
    def _age_data(self, seed=373, n=400, betas=(3.0, 2.0)):
        rng = np.random.default_rng(seed)
        sub = random_chain(rng, 2)
        pi = random_pi(rng, 2)
        model = MIPHModel((Margin(sub, GompertzTransform(betas[0])),
                           Margin(sub, GompertzTransform(betas[1]))))
        y = sample_joint(model, pi, rng, n)
        obs = ObservationSet(y=y, delta=np.ones_like(y, dtype=int),
                             covariates=np.ones((n, 1)))
        return obs, np.tile(pi, (n, 1)), [sub, sub]

    def _loglik(self, obs, pi_rows, subs, betas):
        return _age_scale_loglik(obs.y, obs.delta, pi_rows, subs,
                                 np.asarray(betas, dtype=float), derivatives=False)

    def _mixed_case(self, rng, p, n=60):
        """Two margins with their own rates, censored and observed rows."""
        subs = [random_chain(rng, p) for _ in range(2)]
        y = rng.uniform(0.05, 1.5, size=(n, 2))
        delta = (rng.random((n, 2)) < 0.5).astype(int)
        delta[1], delta[2] = (1, 1), (0, 0)
        pi_rows = np.vstack([random_pi(rng, p) for _ in range(n)])
        return y, delta, pi_rows, subs, rng.uniform(0.5, 5.0, size=2)

    def test_zero_likelihood_rows_raise(self):
        """Row 0 is past the Gompertz overflow in margin 0, and row 3's
        operational time in margin 1 is finite but its likelihood is 0."""
        rng = np.random.default_rng(371)
        for p in (1, 3):
            y, delta, pi_rows, subs, betas = self._mixed_case(rng, p)
            y[0, 0] = 2000.0
            y[3, 1] = 100.0
            for derivatives in (False, True):
                with pytest.raises(NumericalError, match=r"rows \[0, 3\]$"):
                    _age_scale_loglik(y, delta, pi_rows, subs, betas, derivatives)

    def test_row_below_the_old_floor_keeps_its_log(self):
        """Row 1's likelihood is about 1e-305, under the 1e-300 floor that
        once replaced its log by log(1e-300)."""
        subs = [SubIntensity(np.diag([-1.0, -2.0]))] * 2
        y = np.log1p([[0.5, 0.4], [351.0, 351.0]])  # operational times at beta = 1
        x = np.expm1(y)
        pi_rows = np.full((2, 2), 0.5)
        exact = np.logaddexp.reduce(np.log(0.5) - x.sum(axis=1)[:, None] * [1.0, 2.0],
                                    axis=1).sum()
        total = _age_scale_loglik(y, np.zeros((2, 2), dtype=int), pi_rows, subs,
                                  np.ones(2), derivatives=False)
        assert total < np.log(0.5 * 1e-300)
        np.testing.assert_allclose(total, exact, rtol=1e-12)

    def test_subnormal_likelihood_row_keeps_finite_derivatives(self):
        """Row 1's likelihood is about 1e-310, where 1/likelihood overflows:
        the gradient and Hessian stay finite and match central differences."""
        subs = [SubIntensity(np.diag([-1.0, -2.0]))] * 2
        y = np.log1p([[0.5, 0.4], [356.5, 356.5]])  # operational times at beta = 1
        delta = np.zeros((2, 2), dtype=int)
        pi_rows = np.full((2, 2), 0.5)
        total, grad, hess = _age_scale_loglik(y, delta, pi_rows, subs, np.ones(2))
        assert total < np.log(2.0 ** -1024)
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            up = _age_scale_loglik(y, delta, pi_rows, subs, np.exp(e))
            down = _age_scale_loglik(y, delta, pi_rows, subs, np.exp(-e))
            assert abs(grad[i] - (up[0] - down[0]) / (2 * h)) <= 1e-6 * abs(grad[i])
            num = (up[1] - down[1]) / (2 * h)
            assert np.max(np.abs(hess[i] - num)) <= 1e-6 * np.max(np.abs(num))

    def test_analytic_derivatives_match_central_differences(self):
        rng = np.random.default_rng(367)
        h = 1e-5
        for p in (1, 2, 3, 4, 3, 2):
            y, delta, pi_rows, subs, betas = self._mixed_case(rng, p)
            total, grad, hess = _age_scale_loglik(y, delta, pi_rows, subs, betas)
            assert np.isfinite(total)
            theta = np.log(betas)
            num_grad = np.zeros(2)
            num_hess = np.zeros((2, 2))
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                up = _age_scale_loglik(y, delta, pi_rows, subs, np.exp(theta + e))
                down = _age_scale_loglik(y, delta, pi_rows, subs, np.exp(theta - e))
                num_grad[i] = (up[0] - down[0]) / (2 * h)
                num_hess[i] = (up[1] - down[1]) / (2 * h)
            assert np.max(np.abs(grad - num_grad)) <= 1e-6 * np.max(np.abs(num_grad))
            assert np.max(np.abs(hess - num_hess)) <= 1e-6 * np.max(np.abs(num_hess))
            np.testing.assert_array_equal(hess, hess.T)

    def test_value_bit_equal_to_reference(self):
        rng = np.random.default_rng(373)
        for p in (1, 2, 3, 5):
            y, delta, pi_rows, subs, betas = self._mixed_case(rng, p)
            total, _, _ = _age_scale_loglik(y, delta, pi_rows, subs, betas)
            assert total == reference_age_scale_loglik(y, delta, pi_rows, subs, betas)

    def test_joint_mode_improves_and_flattens_gradient(self):
        obs, pi_rows, subs = self._age_data()
        start = np.array([1.0, 1.0])
        got, ll = i_step(obs, pi_rows, subs, start)
        before = self._loglik(obs, pi_rows, subs, start)
        after = self._loglik(obs, pi_rows, subs, got)
        assert after > before
        assert ll == after

        def grad_log_beta(betas):
            g = np.zeros(2)
            for i in range(2):
                up, down = betas.copy(), betas.copy()
                up[i] *= np.exp(1e-5)
                down[i] *= np.exp(-1e-5)
                g[i] = (self._loglik(obs, pi_rows, subs, up)
                        - self._loglik(obs, pi_rows, subs, down)) / 2e-5
            return g

        g0 = np.abs(grad_log_beta(start)).max()
        g1 = np.abs(grad_log_beta(got)).max()
        assert g1 < 0.05 * g0

    def test_improves_from_bad_start(self):
        obs, pi_rows, subs = self._age_data(seed=379)
        start = np.array([1.0, 1.0])
        got, _ = i_step(obs, pi_rows, subs, start)
        assert (self._loglik(obs, pi_rows, subs, got)
                > self._loglik(obs, pi_rows, subs, start))

    def test_never_returns_worse_than_incumbent(self):
        obs, pi_rows, subs = self._age_data(seed=383, n=150)
        first, ll_first = i_step(obs, pi_rows, subs, np.array([1.0, 1.0]))
        second, ll_second = i_step(obs, pi_rows, subs, first)
        assert ll_second >= ll_first
        assert ll_second == self._loglik(obs, pi_rows, subs, second)

    def test_stays_inside_the_bounds(self, monkeypatch):
        # the likelihood rises towards beta = (3, 2), above the upper bound
        obs, pi_rows, subs = self._age_data(seed=389, n=150)
        calls = []
        monkeypatch.setattr(phasetype, "expm_batch",
                            lambda a: calls.append(1) or expm_batch(a))
        start = np.array([1.0, 1.0])
        got, _ = i_step(obs, pi_rows, subs, start, log_bounds=(-5.0, 0.0))
        np.testing.assert_array_equal(got, start)
        assert len(calls) == 2  # one evaluation: the incumbent
        got, _ = i_step(obs, pi_rows, subs, np.array([0.5, 0.5]),
                        log_bounds=(-5.0, 0.0))
        assert np.all(got <= 1.0)
        assert (self._loglik(obs, pi_rows, subs, got)
                > self._loglik(obs, pi_rows, subs, [0.5, 0.5]))

    def test_exponential_budget(self, monkeypatch):
        calls = []
        monkeypatch.setattr(phasetype, "expm_batch",
                            lambda a: calls.append(1) or expm_batch(a))
        for seed, start in ((373, (1.0, 1.0)), (383, (3.0, 2.0))):
            obs, pi_rows, subs = self._age_data(seed=seed, n=150)
            calls.clear()
            i_step(obs, pi_rows, subs, np.array(start))
            assert 1 <= len(calls) <= 24

    def test_zero_likelihood_incumbent_raises(self):
        # at beta = (0.01, 50) most rows have likelihood 0 in double precision
        obs, pi_rows, subs = self._age_data(seed=379, n=150)
        with pytest.raises(NumericalError, match=r"likelihood underflowed to 0 for rows"):
            i_step(obs, pi_rows, subs, np.array([0.01, 50.0]))

    def test_zero_likelihood_trial_is_rejected(self, monkeypatch):
        """A trial point where some row's likelihood is 0 counts as -inf: the
        step halves back to a point where every row is positive."""
        obs, pi_rows, subs = self._age_data(seed=373, n=150)
        trials = []
        real = estimation._age_scale_loglik

        def zero_at_first_trial(y, delta, per_obs_pi, subs, betas, derivatives=True):
            trials.append(betas)
            if len(trials) == 2:
                per_obs_pi = per_obs_pi.copy()
                per_obs_pi[7] = 0.0
            return real(y, delta, per_obs_pi, subs, betas, derivatives)

        monkeypatch.setattr(estimation, "_age_scale_loglik", zero_at_first_trial)
        got, ll = i_step(obs, pi_rows, subs, np.array([1.0, 1.0]))
        assert len(trials) >= 3
        assert not np.array_equal(got, trials[1])
        assert ll > self._loglik(obs, pi_rows, subs, [1.0, 1.0])


class TestObservedLoglik:
    def test_matches_independent_computation(self):
        rng = np.random.default_rng(397)
        sub1, sub2 = random_chain(rng, 2), random_chain(rng, 2)
        pi = random_pi(rng, 2)
        betas = (2.0, 3.0)
        model = MIPHModel(
            (Margin(sub1, GompertzTransform(betas[0])),
             Margin(sub2, GompertzTransform(betas[1]))),
            fixed_pi=pi,
        )
        y = np.array([[0.4, 0.6], [0.2, 0.1], [0.8, 0.3]])
        delta = np.array([[1, 0], [1, 1], [0, 0]])
        obs = ObservationSet(y=y, delta=delta, covariates=np.ones((3, 1)))

        total = 0.0
        for m in range(3):
            factors = pi.copy()
            for i, (sub, beta) in enumerate(((sub1, betas[0]), (sub2, betas[1]))):
                x = np.expm1(beta * y[m, i]) / beta
                mat = scipy.linalg.expm(sub.matrix * x)
                if delta[m, i]:
                    factors = factors * (mat @ sub.exit_rates) * np.exp(beta * y[m, i])
                else:
                    factors = factors * mat.sum(axis=1)
            total += np.log(factors.sum())
        np.testing.assert_allclose(observed_loglik(obs, model), total, rtol=1e-12)

    def test_underflow_row_raises(self):
        rng = np.random.default_rng(401)
        sub = random_chain(rng, 2)
        model = MIPHModel(
            (Margin(sub, GompertzTransform(40.0)),) * 2,
            fixed_pi=random_pi(rng, 2),
        )
        obs = ObservationSet(
            y=[[0.3, 0.3], [0.3, 5.0]],
            delta=[[1, 1], [1, 1]],
            covariates=[[1.0], [1.0]],
        )
        with pytest.raises(NumericalError, match="rows"):
            observed_loglik(obs, model)


class TestFit:
    def _synthetic(self, seed, n, p=2, betas=(2.0, 3.0), censor=0.7):
        rng = np.random.default_rng(seed)
        sub = random_chain(rng, p)
        pi = random_pi(rng, p)
        model = MIPHModel(
            tuple(Margin(sub, GompertzTransform(b)) for b in betas)
        )
        y = sample_joint(model, pi, rng, n)
        cutoff = np.quantile(y, censor)
        delta = (y <= cutoff).astype(int)
        y = np.minimum(y, cutoff)
        cov = np.column_stack([np.ones(n), rng.normal(size=n)])
        return ObservationSet(y=y, delta=delta, covariates=cov)

    def test_deterministic(self):
        obs = self._synthetic(409, n=120)
        config = FitConfig(p=2, max_iterations=6, loglik_tolerance=None,
                           seed=11, i_step_every=3)
        a = fit(obs, config)
        b = fit(obs, config)
        np.testing.assert_array_equal(a.loglik_trace, b.loglik_trace)
        for ma, mb in zip(a.model.margins, b.model.margins):
            np.testing.assert_array_equal(ma.sub.matrix, mb.sub.matrix)
            assert ma.transform.beta == mb.transform.beta
        np.testing.assert_array_equal(a.model.gamma, b.model.gamma)

    def test_single_state_recovers_exponential_mle(self):
        obs = self._synthetic(419, n=200)
        config = FitConfig(p=1, max_iterations=3, loglik_tolerance=None,
                           i_step_every=0, beta_init=1.0)
        report = fit(obs, config)
        x = transform_data(obs, (1.0, 1.0))
        for i, margin in enumerate(report.model.margins):
            mle = obs.delta[:, i].sum() / x[:, i].sum()
            np.testing.assert_allclose(-margin.sub.matrix[0, 0], mle, rtol=1e-12)
        assert report.model.margins[0].transform.beta == 1.0

    def test_trace_is_monotone_with_frozen_transforms(self):
        obs = self._synthetic(421, n=300)
        config = FitConfig(p=2, max_iterations=40, loglik_tolerance=None,
                           i_step_every=0, beta_init=(2.0, 3.0), seed=7)
        report = fit(obs, config)
        diffs = np.diff(report.loglik_trace)
        assert diffs.min() >= -1e-8 * obs.n

    def test_tolerance_stopping(self):
        obs = self._synthetic(431, n=150)
        config = FitConfig(p=2, max_iterations=400, loglik_tolerance=1e-5,
                           i_step_every=0, beta_init=(2.0, 3.0), seed=3)
        report = fit(obs, config)
        assert report.converged
        assert report.iterations < 400
        assert report.iterations == report.loglik_trace.size

    def test_full_loop_improves_fit(self):
        obs = self._synthetic(433, n=250)
        config = FitConfig(p=2, max_iterations=12, loglik_tolerance=None,
                           seed=5, i_step_every=2, beta_init=1.0)
        report = fit(obs, config)
        assert report.final_loglik > report.loglik_trace[0]
        assert np.all(np.isfinite(report.loglik_trace))
        assert not report.converged
        # the fitted transforms moved off the (wrong) initial value
        fitted = [m.transform.beta for m in report.model.margins]
        assert all(b != 1.0 for b in fitted)

    def test_start_rescaled_only_for_faint_evidence(self):
        """Row 0 is censored at 600 times the uncensored mean, so at the
        start scaled to that mean its evidence is below _START_EVIDENCE; the
        means are doubled until it is not, and the fit runs. Without such a
        row the start is the plain rescale, bit for bit."""
        structure = CoxianStructure(2)

        def plain_start(o):
            rng = np.random.default_rng(0)
            x = transform_data(o, np.ones(2))
            return [phasetype._scale_to_mean(
                phasetype.random_sub_intensity(structure, rng), 0,
                x[o.delta[:, i] == 1, i].mean()) for i in range(2)]

        def start(o):
            return estimation._initial_sub_intensities(
                o, structure, np.ones(2), np.random.default_rng(0))

        def evidence(o, subs):
            x = transform_data(o, np.ones(2))
            w = np.full((o.n, 2), 0.5)
            for i, sub in enumerate(subs):
                w *= estimation._margin_kernels(sub, x[:, i], o.delta[:, i])[1]
            return w.sum(axis=1)

        obs = self._synthetic(389, 200)
        for a, b in zip(start(obs), plain_start(obs)):
            np.testing.assert_array_equal(a.matrix, b.matrix)

        y, delta = obs.y.copy(), obs.delta.copy()
        x_mean = np.expm1(y[delta[:, 0] == 1, 0]).mean()
        y[0, 0], delta[0, 0] = np.log1p(600.0 * x_mean), 0
        far = ObservationSet(y=y, delta=delta, covariates=obs.covariates)
        faint = evidence(far, plain_start(far)) < estimation._START_EVIDENCE
        np.testing.assert_array_equal(np.flatnonzero(faint), [0])
        assert evidence(far, start(far)).min() >= estimation._START_EVIDENCE
        report = fit(far, FitConfig(p=2, max_iterations=3, loglik_tolerance=None,
                                    i_step_every=0, beta_init=1.0))
        assert np.all(np.isfinite(report.loglik_trace))

    @pytest.mark.parametrize("i_step_every", [1, 0])
    def test_one_likelihood_pass_per_iteration(self, monkeypatch, i_step_every):
        """With an I-step its last evaluation is the iteration's value; without
        one, one value pass per iteration."""
        obs = self._synthetic(409, n=120)
        outside = []
        inside = [False]
        real_loglik, real_i_step = estimation._age_scale_loglik, estimation.i_step

        def counted(*args, **kwargs):
            if not inside[0]:
                outside.append(kwargs.get("derivatives", True))
            return real_loglik(*args, **kwargs)

        def flagged(*args, **kwargs):
            inside[0] = True
            try:
                return real_i_step(*args, **kwargs)
            finally:
                inside[0] = False

        monkeypatch.setattr(estimation, "_age_scale_loglik", counted)
        monkeypatch.setattr(estimation, "i_step", flagged)
        config = FitConfig(p=2, max_iterations=4, loglik_tolerance=None, seed=11,
                           i_step_every=i_step_every, beta_init=(2.0, 3.0))
        report = fit(obs, config)
        assert report.iterations == 4
        assert outside == ([] if i_step_every else [False] * 4)

    @pytest.mark.parametrize("iterations", [4, 3])
    def test_final_loglik_is_the_returned_model_value(self, iterations):
        """The last trace entry is the observed log-likelihood of the model
        returned, whether the last iteration ran an I-step (4) or not (3)."""
        obs = self._synthetic(433, n=250)
        config = FitConfig(p=2, max_iterations=iterations, loglik_tolerance=None,
                           seed=5, i_step_every=2, beta_init=1.0)
        report = fit(obs, config)
        np.testing.assert_allclose(report.final_loglik,
                                   observed_loglik(obs, report.model), rtol=1e-12)

    @pytest.mark.parametrize("kwargs", [
        {"loglik_tolerance": -1.0}, {"loglik_tolerance": 0.0},
        {"loglik_tolerance": float("nan")}, {"loglik_tolerance": float("inf")},
        {"beta_init": 0.0}, {"beta_init": float("nan")}, {"beta_init": (2.0, -1.0)},
        {"beta_init": (2.0, float("inf"))},
    ])
    def test_config_rejects_bad_tolerance_and_beta(self, kwargs):
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=name):
            FitConfig(p=2, **kwargs)
        FitConfig(p=2, loglik_tolerance=None, beta_init=(2.0, 3.0))
