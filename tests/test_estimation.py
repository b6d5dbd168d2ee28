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

import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.optimize

from miph import (
    FitConfig,
    GompertzTransform,
    Margin,
    MIPHModel,
    NumericalError,
    ObservationSet,
    SubIntensity,
    SufficientStats,
    e_step,
    fit,
    generate_synthetic,
    i_step,
    m_step,
    observed_loglik,
    r_step,
    sample_joint_rows,
    standard_design,
    transform_data,
    transition_mask,
)
from miph import estimation, linalg, phasetype
from miph.estimation import _age_scale_loglik
from miph.linalg import expm_batch

from conftest import frozen_expm_batch, random_chain, random_pi


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


def per_row_margin_kernels(sub, x_col, delta_col):
    """exp(T x) of every row of one margin, and the per-state evidence
    e_j' exp(T x_m) t (death observed) or e_j' exp(T x_m) 1 (censored), as
    the E-step computed them before it took both from
    `phasetype._exponentials`: one exponential per row, repeats included."""
    exps = expm_batch(sub.matrix, x_col)
    return exps, phasetype._exp_factors(sub, exps, delta_col)[0]


def block_e_step(x, delta, pi_rows, subs):
    """E-step statistics with each occupancy integral read off the 2p x 2p
    Van Loan block exp([[T, v c'], [0, T]] x), as the E-step once computed
    them, and the evidence and absorption counts from
    :func:`per_row_margin_kernels`. Also returns the largest posterior weight c."""
    n, d = x.shape
    p = subs[0].dim
    exps, evidence = zip(*(per_row_margin_kernels(sub, x[:, i], delta[:, i])
                           for i, sub in enumerate(subs)))
    w = pi_rows.copy()
    for a_i in evidence:
        w *= a_i
    denom = w.sum(axis=1)
    b = d * w / denom[:, None]
    z = np.zeros((d, p))
    n_trans = np.zeros((d, p, p))
    n_exit = np.zeros((d, p))
    offdiag = ~np.eye(p, dtype=bool)
    largest = 0.0
    for i, sub in enumerate(subs):
        c = pi_rows.copy()
        for l in range(d):
            if l != i:
                c *= evidence[l]
        c /= denom[:, None]
        largest = max(largest, c.max())
        died = delta[:, i].astype(bool)
        v = np.where(died[:, None], sub.exit_rates, np.ones(p))
        blocks = np.zeros((n, 2 * p, 2 * p))
        blocks[:, :p, :p] = sub.matrix
        blocks[:, p:, p:] = sub.matrix
        blocks[:, :p, p:] = v[:, :, None] * c[:, None, :]
        blocks *= x[:, i, None, None]
        integral = frozen_expm_batch(blocks)[:, :p, p:]
        z[i] = np.einsum("mkk->k", integral)
        n_trans[i] = np.where(offdiag, sub.matrix * integral.sum(axis=0).T, 0.0)
        if np.any(died):
            n_exit[i] = sub.exit_rates * exps[i].left_sum(c[died], died)
    stats = [np.clip(v, 0.0, None) for v in (b, z, n_trans, n_exit)]
    return stats, largest


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

    def test_log_evidence_is_the_operational_loglik(self):
        """The E-step's normalising constants are the couples' likelihoods
        on the operational scale: their log sum is the likelihood coded
        independently."""
        for seed, p in ((307, 2), (331, 3)):
            x, delta, pi_rows, subs = _toy_data(seed=seed, n=8, p=p)
            stats = e_step(x, delta, pi_rows, subs)
            np.testing.assert_allclose(stats.log_evidence,
                                       direct_loglik(x, delta, pi_rows, subs), rtol=1e-12)

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

    def test_matches_the_block_form(self):
        """The Fréchet kernel scales each row as the Van Loan block did, so
        the statistics keep their values to rounding, also where posterior
        weights of 1e50 make both miss the occupancies (ROADMAP E1)."""
        x, delta, pi_rows, subs = _toy_data()
        x_far = x.copy()
        x_far[2, 0] = 85.0  # row 2's own evidence in margin 0 is about 1e-50
        sub = SubIntensity(np.array([[-1.5, 0.5], [0.0, -0.8]]))
        cases = [
            ((x, delta, pi_rows, subs), 10.0),
            ((x_far, delta, pi_rows, subs), 1e49),
            ((np.array([[0.7, 0.4], [150.0, 0.9], [2.0, 1.0], [40.0, 60.0]]),
              np.array([[1, 1], [1, 0], [0, 1], [1, 1]]),
              np.tile([0.3, 0.7], (4, 1)), [sub, sub]), 1e52),
        ]
        for args, weight in cases:
            stats = e_step(*args)
            expected, largest = block_e_step(*args)
            assert weight / 10.0 <= largest < 10.0 * weight
            for got, want in zip((stats.b, stats.z, stats.n_trans, stats.n_exit),
                                 expected):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_row_blocks_change_no_bit(self, monkeypatch):
        """At n = 2500 and p = 10 the Fréchet kernel splits its stacks into
        row blocks on the shared pool; every statistic is bit for bit that of
        the same stacks in one block."""
        x, delta, pi_rows, subs = _toy_data(seed=359, n=2500, d=2, p=10)
        assert 2500 * 10 * 10 > 2 * linalg._BLOCK_ENTRIES
        split = e_step(x, delta, pi_rows, subs)
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 10 ** 12)
        whole = e_step(x, delta, pi_rows, subs)
        for name in ("b", "z", "n_trans", "n_exit"):
            np.testing.assert_array_equal(getattr(split, name), getattr(whole, name))

    def test_builds_no_input_stacks(self, monkeypatch):
        """With its exponentials taken beforehand and one worker, an E-step at
        paper scale (n = 8834, p = 10, two Coxian margins) peaks below six
        (n, p, p) stacks: the Fréchet kernel builds each block's pairs itself,
        so the stacks x T and v c' x, two more, are never formed."""
        x, delta, pi_rows, subs = _toy_data(seed=367, n=8834, d=2, p=10)
        taken = {id(sub): phasetype._exponentials(sub, x[:, i]) for i, sub in enumerate(subs)}
        monkeypatch.setattr(estimation, "_exponentials", lambda sub, _: taken[id(sub)])
        monkeypatch.setattr(linalg, "_worker_count", lambda: 1)
        tracemalloc.start()
        try:
            e_step(x, delta, pi_rows, subs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8834 * 10 * 10 * 8, peak / (8834 * 10 * 10 * 8)

    def test_releases_each_carrier_and_integral_once_read(self, monkeypatch):
        """Taking its own exponentials, on two workers, the same E-step peaks
        below six (n, p, p) stacks (5.68 measured; its rows are 93 % squared):
        each margin's carriers are dropped once its absorption counts and
        unsquared occupancy sums are read, before the Fréchet kernel runs on
        the squared rows, and each kernel output once summed. Both margins'
        carriers, alive through both Fréchet loops beside the previous
        margin's derivative, took it to 8.8."""
        x, delta, pi_rows, subs = _toy_data(seed=367, n=8834, d=2, p=10)
        monkeypatch.setattr(linalg, "_worker_count", lambda: 2)
        tracemalloc.start()
        try:
            e_step(x, delta, pi_rows, subs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8834 * 10 * 10 * 8, peak / (8834 * 10 * 10 * 8)

    @staticmethod
    def _mostly_unsquared(n=8834, p=10):
        """``_toy_data`` with its times shrunk 20-fold but for the first 7 %
        of rows, so that about 93 % of rows are not squared, as in a
        paper-scale fit."""
        x, delta, pi_rows, subs = _toy_data(seed=367, n=n, d=2, p=p)
        x[n * 7 // 100:] *= 0.05
        return x, delta, pi_rows, subs

    def test_kernel_takes_the_squared_entries_alone(self, monkeypatch):
        """The Padé Fréchet kernel gets each margin's entries whose carrier
        row is squared, in entry order, with the directions ``[1, t]`` and
        each entry's death indicator as its direction number; the other
        rows' occupancies come from ``TaylorExpm.frechet_sum``."""
        x, delta, pi_rows, subs = self._mostly_unsquared(n=2000, p=4)
        calls = []
        monkeypatch.setattr(estimation, "_frechet_rows",
                            lambda *args: calls.append(args) or linalg._frechet_rows(*args))
        stats = e_step(x, delta, pi_rows, subs)
        assert len(calls) == 2
        for i, (sub, (t, xs, vs, kind, c)) in enumerate(zip(subs, calls)):
            exps = phasetype._exponentials(sub, x[:, i])
            squared = exps.scaling[exps.index] > 0
            assert 0 < squared.sum() <= 0.1 * len(x)
            np.testing.assert_array_equal(t, sub.matrix)
            np.testing.assert_array_equal(xs, x[squared, i])
            np.testing.assert_array_equal(vs, [np.ones(4), sub.exit_rates])
            np.testing.assert_array_equal(kind, delta[squared, i])
            assert c.shape == (squared.sum(), 4)
        np.testing.assert_allclose(stats.z.sum(axis=1), x.sum(axis=0), rtol=1e-12)

    def test_unsquared_rows_build_no_stacks(self, monkeypatch):
        """With 93 % of rows unsquared, the paper-scale E-step on two
        workers peaks below two (n, p, p) stacks (1.70 measured; 5.76 when
        every row went through the Fréchet kernel)."""
        x, delta, pi_rows, subs = self._mostly_unsquared()
        monkeypatch.setattr(linalg, "_worker_count", lambda: 2)
        tracemalloc.start()
        try:
            e_step(x, delta, pi_rows, subs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8834 * 10 * 10 * 8, peak / (8834 * 10 * 10 * 8)

    def test_overflow_row_bound_is_the_elementwise_check(self):
        """``v.max() * c.max() * x`` is finite exactly when every entry of
        ``v c' x`` is, for nonnegative factors, zero exit rates included:
        rounding is monotone, and the largest entry is that product."""
        rng = np.random.default_rng(373)
        n, p = 100000, 4
        x = np.where(rng.random(n) < 0.05, 0.0, 10.0 ** rng.uniform(-3.0, 3.0, size=n))
        v = 10.0 ** rng.uniform(-5.0, 150.0, size=(n, p))
        v[rng.random((n, p)) < 0.2] = 0.0
        # each row's largest weight puts v.max() c.max() x within ulps of the
        # largest float, on either side
        with np.errstate(divide="ignore", over="ignore"):
            edge = np.minimum(np.finfo(float).max / (v.max(axis=1) * x), np.finfo(float).max)
            top = edge * 2.0 ** rng.uniform(-1e-14, 1e-14, size=n)
        c = rng.uniform(0.0, 1.0, size=(n, p))
        c /= c.max(axis=1)[:, None]
        c *= top[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            bound = np.isfinite(v.max(axis=1) * c.max(axis=1) * x)
            elementwise = np.isfinite(v[:, :, None] * c[:, None, :]
                                      * x[:, None, None]).all(axis=(1, 2))
        assert 0.2 * n < bound.sum() < 0.8 * n
        np.testing.assert_array_equal(bound, elementwise)

    def test_one_exponential_per_distinct_time(self, monkeypatch):
        """With repeated operational times, some of them censored in one row
        and observed in another, each margin exponentiates every distinct x
        once, in `phasetype`; the evidence and absorption counts are bit for
        bit those of one exponential per row."""
        x, delta, pi_rows, subs = _toy_data(seed=353, n=8, d=2, p=3)
        x = np.vstack([x, x[:5], x[2:4]])
        delta = np.vstack([delta, 1 - delta[:5], delta[2:4]])
        pi_rows = np.vstack([pi_rows, pi_rows[3:8], pi_rows[:2]])
        sizes = []
        monkeypatch.setattr(phasetype, "expm_batch",
                            lambda t, xs: sizes.append(len(xs)) or expm_batch(t, xs))
        stats = e_step(x, delta, pi_rows, subs)
        assert sizes == [np.unique(col).size for col in x.T] == [8, 8]
        (b, z, n_trans, n_exit), _ = block_e_step(x, delta, pi_rows, subs)
        np.testing.assert_array_equal(stats.b, b)
        np.testing.assert_array_equal(stats.n_exit, n_exit)
        np.testing.assert_allclose(stats.z, z, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(stats.n_trans, n_trans, rtol=1e-12, atol=0.0)

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
                log_evidence=0.0,
            )
        with pytest.raises(ValueError):
            SufficientStats(
                b=np.ones((3, 2)), z=np.ones((2, 3)),
                n_trans=np.ones((2, 2, 2)), n_exit=np.ones((2, 2)),
                log_evidence=0.0,
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

    def test_separation_hits_cap_with_warning(self, monkeypatch):
        # weights fully determined by the sign of the covariate
        x = np.array([-1.0] * 20 + [1.0] * 20)
        a = np.column_stack([np.ones(40), x])
        b = np.zeros((40, 2))
        b[:20, 0] = 1.0
        b[20:, 1] = 1.0
        monkeypatch.setattr(estimation, "_R_STEP_COEF_CAP", 5.0)
        with pytest.warns(RuntimeWarning, match="cap"):
            gamma, probs = r_step(b, a)
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
        softmax, inner = estimation._softmax, estimation.r_step

        def counting_softmax(eta):
            evals[-1] += 1
            return softmax(eta)

        def counted_r_step(*args, **kwargs):
            evals.append(0)
            return inner(*args, **kwargs)

        monkeypatch.setattr(estimation, "_softmax", counting_softmax)
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
            log_evidence=0.0,
        )
        (sub,) = m_step(stats, transition_mask("coxian", 2))
        np.testing.assert_allclose(sub.matrix[0, 1], 0.5)   # 1.0 / 2.0
        np.testing.assert_allclose(sub.exit_rates, [0.25, 0.5])
        np.testing.assert_allclose(sub.matrix[0, 0], -0.75)

    def test_maximizes_complete_data_surrogate(self):
        x, delta, pi_rows, subs = _toy_data(seed=367, n=10, d=2, p=3)
        stats = e_step(x, delta, pi_rows, subs)
        mask = transition_mask("general", 3)
        fitted = m_step(stats, mask)

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
            log_evidence=0.0,
        )
        with pytest.warns(RuntimeWarning, match="occupancy"):
            (sub,) = m_step(stats, transition_mask("coxian", 2))
        assert sub.matrix[1, 1] == -1e-8
        assert sub.exit_rates[1] == pytest.approx(1e-8)

    def test_respects_coxian_mask(self):
        stats = SufficientStats(
            b=np.full((2, 2), 1.0),
            z=np.array([[2.0, 2.0]]),
            n_trans=np.array([[[0.0, 1.0], [0.8, 0.0]]]),  # lower entry too
            n_exit=np.array([[0.5, 0.5]]),
            log_evidence=0.0,
        )
        (sub,) = m_step(stats, transition_mask("coxian", 2))
        assert sub.matrix[1, 0] == 0.0


def mixed_case(rng, p, n=60):
    """Two margins with their own rates, censored and observed rows, on the
    age scale: ``(y, delta, pi_rows, subs, betas)``."""
    subs = [random_chain(rng, p) for _ in range(2)]
    y = rng.uniform(0.05, 1.5, size=(n, 2))
    delta = (rng.random((n, 2)) < 0.5).astype(int)
    delta[1], delta[2] = (1, 1), (0, 0)
    pi_rows = np.vstack([random_pi(rng, p) for _ in range(n)])
    return y, delta, pi_rows, subs, rng.uniform(0.5, 5.0, size=2)


def row_below_the_old_floor():
    """Two censored couples under diagonal rates at beta = 1 with start
    weights 1/2; row 1's likelihood is about 1e-305. Returns the rates, the
    ages and the exact log-likelihood."""
    subs = [SubIntensity(np.diag([-1.0, -2.0]))] * 2
    y = np.log1p([[0.5, 0.4], [351.0, 351.0]])  # operational times at beta = 1
    x = np.expm1(y)
    exact = np.logaddexp.reduce(np.log(0.5) - x.sum(axis=1)[:, None] * [1.0, 2.0],
                                axis=1).sum()
    return subs, y, exact


def reference_age_scale_loglik(y, delta, per_obs_pi, subs, betas):
    """The log-likelihood value as coded before the derivatives were added,
    less its 1e-300 floor, which no row here reaches, on one exponential per
    finite row and its product with [1, t, T t, T^2 t]: the value half of
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
            tt = sub.matrix @ sub.exit_rates
            u = expm_batch(sub.matrix, x[ok]).times(np.column_stack(
                [np.ones(sub.dim), sub.exit_rates, tt, sub.matrix @ tt]))
            died = delta[ok, i].astype(bool)
            factors[ok] = np.where(
                died[:, None],
                u[..., 1] * np.exp(beta * y[ok, i])[:, None],
                u[..., 0],
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
        y = sample_joint_rows(model, np.broadcast_to(pi, (n, model.dim)), rng)
        obs = ObservationSet(y=y, delta=np.ones_like(y, dtype=int),
                             covariates=np.ones((n, 1)))
        return obs, np.tile(pi, (n, 1)), [sub, sub]

    def _loglik(self, obs, pi_rows, subs, betas):
        return _age_scale_loglik(obs.y, obs.delta, pi_rows, subs,
                                 np.asarray(betas, dtype=float))[0]

    def test_zero_likelihood_rows_raise(self):
        """Row 0 is past the Gompertz overflow in margin 0, and row 3's
        operational time in margin 1 is finite but its likelihood is 0."""
        rng = np.random.default_rng(371)
        for p in (1, 3):
            y, delta, pi_rows, subs, betas = mixed_case(rng, p)
            y[0, 0] = 2000.0
            y[3, 1] = 100.0
            with pytest.raises(NumericalError, match=r"rows \[0, 3\]$"):
                _age_scale_loglik(y, delta, pi_rows, subs, betas)

    def test_row_below_the_old_floor_keeps_its_log(self):
        """Row 1's likelihood is about 1e-305, under the 1e-300 floor that
        once replaced its log by log(1e-300)."""
        subs, y, exact = row_below_the_old_floor()
        total, _, _ = _age_scale_loglik(y, np.zeros((2, 2), dtype=int), np.full((2, 2), 0.5),
                                        subs, np.ones(2))
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
            y, delta, pi_rows, subs, betas = mixed_case(rng, p)
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
            y, delta, pi_rows, subs, betas = mixed_case(rng, p)
            total, _, _ = _age_scale_loglik(y, delta, pi_rows, subs, betas)
            assert total == reference_age_scale_loglik(y, delta, pi_rows, subs, betas)

    def test_likelihood_builds_no_exponential_stacks(self, spousal_model_with_gamma):
        """At a paper-scale fitted point (8834 couples drawn from the
        published model, p = 10, two EM iterations from beta = 45), where
        some rows' exponentials are squared, one likelihood evaluation with
        derivatives peaks below three (n, p, p) stacks and holds less than
        one after it returns: only squared rows are p x p matrices."""
        def sampler(rng, size):
            ages = rng.uniform(0.60, 0.75, size=(size, 2))
            return standard_design(ages[:, 0], ages[:, 1])

        obs = generate_synthetic(spousal_model_with_gamma, sampler, 0.6, 8834, 8834)
        model = fit(obs, FitConfig(p=10, i_step_every=2, beta_init=45.0,
                                   max_iterations=2)).model
        pi_rows = model.initial_vectors(obs.covariates)
        subs = [m.sub for m in model.margins]
        betas = np.array([m.transform.beta for m in model.margins])
        stack = 8834 * 10 * 10 * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _age_scale_loglik(obs.y, obs.delta, pi_rows, subs, betas)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert any(np.any(phasetype._exponentials(sub, x).scaling > 0)
                   for sub, x in zip(subs, transform_data(obs, betas).T))
        assert peak - before <= 3 * stack, (peak - before) / stack
        assert held - before <= stack, (held - before) / stack

    def test_joint_mode_improves_and_flattens_gradient(self):
        obs, pi_rows, subs = self._age_data()
        start = np.array([1.0, 1.0])
        got = i_step(obs, pi_rows, subs, start)
        before = self._loglik(obs, pi_rows, subs, start)
        after = self._loglik(obs, pi_rows, subs, got)
        assert after > before

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
        got = i_step(obs, pi_rows, subs, start)
        assert (self._loglik(obs, pi_rows, subs, got)
                > self._loglik(obs, pi_rows, subs, start))

    def test_never_returns_worse_than_incumbent(self):
        obs, pi_rows, subs = self._age_data(seed=383, n=150)
        first = i_step(obs, pi_rows, subs, np.array([1.0, 1.0]))
        second = i_step(obs, pi_rows, subs, first)
        assert self._loglik(obs, pi_rows, subs, second) >= self._loglik(obs, pi_rows, subs, first)

    def test_stays_inside_the_bounds(self, monkeypatch):
        # the likelihood rises towards beta = (3, 2), above the upper bound
        obs, pi_rows, subs = self._age_data(seed=389, n=150)
        calls = []
        monkeypatch.setattr(phasetype, "expm_batch",
                            lambda t, xs: calls.append(1) or expm_batch(t, xs))
        monkeypatch.setattr(estimation, "_LOG_BETA_BOUNDS", (-5.0, 0.0))
        start = np.array([1.0, 1.0])
        got = i_step(obs, pi_rows, subs, start)
        np.testing.assert_array_equal(got, start)
        assert len(calls) == 2  # one evaluation: the incumbent
        got = i_step(obs, pi_rows, subs, np.array([0.5, 0.5]))
        assert np.all(got <= 1.0)
        assert (self._loglik(obs, pi_rows, subs, got)
                > self._loglik(obs, pi_rows, subs, [0.5, 0.5]))

    def test_exponential_budget(self, monkeypatch):
        calls = []
        monkeypatch.setattr(phasetype, "expm_batch",
                            lambda t, xs: calls.append(1) or expm_batch(t, xs))
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

        def zero_at_first_trial(y, delta, per_obs_pi, subs, betas):
            trials.append(betas)
            if len(trials) == 2:
                per_obs_pi = per_obs_pi.copy()
                per_obs_pi[7] = 0.0
            return real(y, delta, per_obs_pi, subs, betas)

        monkeypatch.setattr(estimation, "_age_scale_loglik", zero_at_first_trial)
        got = i_step(obs, pi_rows, subs, np.array([1.0, 1.0]))
        assert len(trials) >= 3
        assert not np.array_equal(got, trials[1])
        assert self._loglik(obs, pi_rows, subs, got) > self._loglik(obs, pi_rows, subs, [1.0, 1.0])


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

    @staticmethod
    def _model_and_data(y, delta, pi, subs, betas):
        model = MIPHModel(tuple(Margin(sub, GompertzTransform(beta))
                                for sub, beta in zip(subs, betas)), fixed_pi=pi)
        obs = ObservationSet(y=y, delta=delta, covariates=np.ones((len(y), 1)))
        return model, obs

    def test_zero_likelihood_rows_raise(self):
        """Row 0 is past the Gompertz overflow in margin 0, and row 3's
        operational time in margin 1 is finite but its likelihood is 0."""
        rng = np.random.default_rng(371)
        for p in (1, 3):
            y, delta, pi_rows, subs, betas = mixed_case(rng, p)
            y[0, 0] = 2000.0
            y[3, 1] = 100.0
            model, obs = self._model_and_data(y, delta, pi_rows[0], subs, betas)
            with pytest.raises(NumericalError, match=r"rows \[0, 3\]$"):
                observed_loglik(obs, model)

    def test_row_below_the_old_floor_keeps_its_log(self):
        """Row 1's likelihood is about 1e-305, under the 1e-300 floor that
        once replaced its log by log(1e-300)."""
        subs, y, exact = row_below_the_old_floor()
        model, obs = self._model_and_data(y, np.zeros((2, 2), dtype=int), np.full(2, 0.5),
                                          subs, np.ones(2))
        total = observed_loglik(obs, model)
        assert total < np.log(0.5 * 1e-300)
        np.testing.assert_allclose(total, exact, rtol=1e-12)


class TestFit:
    def _synthetic(self, seed, n, p=2, betas=(2.0, 3.0), censor=0.7):
        rng = np.random.default_rng(seed)
        sub = random_chain(rng, p)
        pi = random_pi(rng, p)
        model = MIPHModel(
            tuple(Margin(sub, GompertzTransform(b)) for b in betas)
        )
        y = sample_joint_rows(model, np.broadcast_to(pi, (n, model.dim)), rng)
        cutoff = np.quantile(y, censor)
        delta = (y <= cutoff).astype(int)
        y = np.minimum(y, cutoff)
        cov = np.column_stack([np.ones(n), rng.normal(size=n)])
        return ObservationSet(y=y, delta=delta, covariates=cov)

    def _far_censored(self, obs):
        """``obs`` with row 0 of margin 0 censored at 600 times the mean
        uncensored operational time (at beta = 1)."""
        y, delta = obs.y.copy(), obs.delta.copy()
        x_mean = np.expm1(y[delta[:, 0] == 1, 0]).mean()
        y[0, 0], delta[0, 0] = np.log1p(600.0 * x_mean), 0
        return ObservationSet(y=y, delta=delta, covariates=obs.covariates)

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

    def test_general_structure_fills_the_lower_triangle(self):
        """The same desk-style couples fitted on both patterns: the general
        fit ascends and moves mass below the diagonal, the Coxian fit keeps
        every rate off the superdiagonal at zero."""
        from test_acceptance import _synthetic_for_em

        _, obs = _synthetic_for_em(seed=1031, n=300, p=3, betas=(2.0, 2.5),
                                   censoring=0.2, n_covariates=2)
        reports = {structure: fit(obs, FitConfig(
            p=3, structure=structure, max_iterations=20, loglik_tolerance=None,
            i_step_every=2, beta_init=1.0, seed=41)) for structure in ("general", "coxian")}
        general = reports["general"]
        assert np.diff(general.loglik_trace).min() >= -1e-8 * obs.n
        lower = np.tril_indices(3, -1)
        for margin in general.model.margins:
            assert np.all(margin.sub.matrix[lower] > 0.0)
        banned = ~(np.eye(3, dtype=bool) | np.eye(3, k=1, dtype=bool))
        for margin in reports["coxian"].model.margins:
            assert np.all(margin.sub.matrix[banned] == 0.0)

    def test_start_rescaled_only_for_faint_evidence(self):
        """Row 0 is censored at 600 times the uncensored mean, so at the
        start scaled to that mean its evidence is below _START_EVIDENCE; the
        means are doubled until it is not, and the fit runs. Without such a
        row the start is the plain rescale, bit for bit."""
        mask = transition_mask("coxian", 2)

        def plain_start(o):
            rng = np.random.default_rng(0)
            x = transform_data(o, np.ones(2))
            subs = []
            for i in range(2):
                t = phasetype.random_sub_intensity(mask, rng).matrix
                mean = float(np.linalg.solve(-t, np.ones(2))[0])  # from state 0, the middle
                subs.append(SubIntensity(t * (mean / x[o.delta[:, i] == 1, i].mean())))
            return subs

        def start(o):
            return estimation._initial_sub_intensities(o, mask, np.ones(2),
                                                       np.random.default_rng(0))

        def evidence(o, subs):
            x = transform_data(o, np.ones(2))
            w = np.full((o.n, 2), 0.5)
            for i, sub in enumerate(subs):
                w *= phasetype._exp_factors(sub, phasetype._exponentials(sub, x[:, i]),
                                            o.delta[:, i])[0]
            return w.sum(axis=1)

        obs = self._synthetic(389, 200)
        for a, b in zip(start(obs), plain_start(obs)):
            np.testing.assert_array_equal(a.matrix, b.matrix)

        far = self._far_censored(obs)
        faint = evidence(far, plain_start(far)) < estimation._START_EVIDENCE
        np.testing.assert_array_equal(np.flatnonzero(faint), [0])
        assert evidence(far, start(far)).min() >= estimation._START_EVIDENCE
        report = fit(far, FitConfig(p=2, max_iterations=3, loglik_tolerance=None,
                                    i_step_every=0, beta_init=1.0))
        assert np.all(np.isfinite(report.loglik_trace))

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP E1")
    def test_far_censored_row_keeps_occupancy_and_ascent(self, monkeypatch):
        """With one couple censored far out (``_far_censored``), the first
        E-step's occupancies of each margin sum to its operational times,
        and EM with frozen transforms does not lower the likelihood. The far
        row is squared, so the Fréchet kernel takes it, and its block-norm
        scaling loses margin 0's occupancy (99.3 against 304.8) and the
        trace falls: -314.85, -323.91, -329.63."""
        far = self._far_censored(self._synthetic(389, 200))
        calls, inner = [], estimation.e_step

        def recorded(x, *args):
            calls.append((x, inner(x, *args)))
            return calls[-1][1]

        monkeypatch.setattr(estimation, "e_step", recorded)
        report = fit(far, FitConfig(p=2, max_iterations=3, loglik_tolerance=None,
                                    i_step_every=0, beta_init=1.0))
        x, stats = calls[0]
        np.testing.assert_allclose(stats.z.sum(axis=1), x.sum(axis=0), rtol=1e-10)
        assert np.diff(report.loglik_trace).min() >= -1e-8 * far.n

    @pytest.mark.parametrize("structure,p", [("coxian", 1), ("coxian", 3), ("general", 4)])
    def test_start_has_the_target_mean_from_the_middle_state(self, structure, p):
        """The start's mean absorption time from the middle state equals the
        mean uncensored operational time; at p = 1 that is 1 / rate."""
        obs = self._synthetic(409, n=120)
        x = transform_data(obs, np.ones(2))
        subs = estimation._initial_sub_intensities(
            obs, transition_mask(structure, p), np.ones(2), np.random.default_rng(3))
        middle = (p + 1) // 2 - 1
        for i, sub in enumerate(subs):
            target = x[obs.delta[:, i] == 1, i].mean()
            means = np.linalg.solve(-sub.matrix, np.ones(p))
            np.testing.assert_allclose(means[middle], target, rtol=1e-12)
            if p == 1:
                np.testing.assert_allclose(-1.0 / sub.matrix[0, 0], target, rtol=1e-14)

    @pytest.mark.parametrize("i_step_every", [1, 0])
    def test_one_value_pass_per_fit(self, monkeypatch, i_step_every):
        """Each E-step values the iterate it starts from, so a fit that runs
        to ``max_iterations`` makes one value pass, for its last iterate; the
        I-step's evaluations are its own trials and serve no trace entry."""
        obs = self._synthetic(409, n=120)
        outside, values = [], []
        inside = [False]
        real_loglik, real_i_step = estimation._age_scale_loglik, estimation.i_step
        real_value = estimation.observed_loglik

        def counted(*args):
            if not inside[0]:
                outside.append(args)
            return real_loglik(*args)

        def flagged(*args, **kwargs):
            inside[0] = True
            try:
                return real_i_step(*args, **kwargs)
            finally:
                inside[0] = False

        monkeypatch.setattr(estimation, "_age_scale_loglik", counted)
        monkeypatch.setattr(estimation, "i_step", flagged)
        monkeypatch.setattr(estimation, "observed_loglik",
                            lambda *a: values.append(1) or real_value(*a))
        config = FitConfig(p=2, max_iterations=4, loglik_tolerance=None, seed=11,
                           i_step_every=i_step_every, beta_init=(2.0, 3.0))
        report = fit(obs, config)
        assert report.iterations == 4
        assert outside == [] and len(values) == 1

    @pytest.mark.parametrize("i_step_every", [0, 1, 2])
    def test_matches_the_steps_run_one_by_one(self, i_step_every):
        """A loop of the public steps, run one by one from the start, gives
        the fit's trace, coefficients, rates and transforms bit for bit:
        trace entry k is the log evidence of the E-step that opens
        iteration k + 1, plus the deaths' Jacobian term, and a fifth E-step
        gives the last entry as the fit's one value pass does."""
        obs = self._synthetic(433, n=250)
        config = FitConfig(p=2, max_iterations=4, loglik_tolerance=None, seed=5,
                           i_step_every=i_step_every, beta_init=1.0)
        mask = transition_mask("coxian", 2)
        betas = np.ones(2)
        subs = estimation._initial_sub_intensities(obs, mask, betas,
                                                   np.random.default_rng(5))
        gamma, pi_rows = np.zeros((2, 2)), np.full((obs.n, 2), 0.5)
        trace = []
        for it in range(1, 6):
            stats = e_step(transform_data(obs, betas), obs.delta, pi_rows, subs)
            if it > 1:
                trace.append(stats.log_evidence + float((obs.delta * betas * obs.y).sum()))
            if it == 5:
                break
            gamma, pi_rows = r_step(stats.b, obs.covariates, gamma)
            subs = m_step(stats, mask)
            if i_step_every and it % i_step_every == 0:
                betas = i_step(obs, pi_rows, subs, betas)

        report = fit(obs, config)
        np.testing.assert_array_equal(report.loglik_trace, trace)
        np.testing.assert_array_equal(report.model.gamma, gamma)
        for margin, sub, beta in zip(report.model.margins, subs, betas):
            np.testing.assert_array_equal(margin.sub.matrix, sub.matrix)
            assert margin.transform.beta == beta

    @pytest.mark.parametrize("i_step_every", [0, 1, 2])
    def test_continues_exactly_from_its_returned_model(self, i_step_every):
        """A 20-iteration fit's model, stepped 20 more times by `_em_step`
        on the same I-step schedule, is the 40-iteration fit bit for bit:
        trace, coefficients, rates and transforms. The model is the loop's
        whole state. Each step returns the value of the model it started
        from, so the first repeats the 20-iteration fit's last entry, and
        `observed_loglik` values the last."""
        obs = self._synthetic(433, n=250)

        def run(iterations):
            return fit(obs, FitConfig(p=2, max_iterations=iterations, loglik_tolerance=None,
                                      seed=5, i_step_every=i_step_every, beta_init=1.0))

        first = run(20)
        model, values = first.model, []
        for it in range(21, 41):
            model, ll = estimation._em_step(obs, model, transition_mask("coxian", 2),
                                            i_step_every > 0 and it % i_step_every == 0)
            values.append(ll)
        assert values[0] == first.loglik_trace[-1]
        trace = [*first.loglik_trace, *values[1:], observed_loglik(obs, model)]
        whole = run(40)
        np.testing.assert_array_equal(trace, whole.loglik_trace)
        np.testing.assert_array_equal(model.gamma, whole.model.gamma)
        for margin, other in zip(model.margins, whole.model.margins):
            np.testing.assert_array_equal(margin.sub.matrix, other.sub.matrix)
            assert margin.transform.beta == other.transform.beta

    @pytest.mark.parametrize("i_step_every", [0, 1, 2])
    def test_each_step_exponentiates_its_own_point(self, monkeypatch, i_step_every):
        """The start exponentiates once per margin, and so does every E-step,
        every I-step evaluation and the fit's one value pass: nothing is
        handed from one to the next."""
        obs = self._synthetic(433, n=250)
        calls, steps, evals, values = [], [], [], []
        real_loglik, real_e_step = estimation._age_scale_loglik, estimation.e_step
        real_value = estimation.observed_loglik
        monkeypatch.setattr(phasetype, "expm_batch",
                            lambda t, xs: calls.append(1) or expm_batch(t, xs))
        monkeypatch.setattr(estimation, "_age_scale_loglik",
                            lambda *a, **k: evals.append(1) or real_loglik(*a, **k))
        monkeypatch.setattr(estimation, "e_step",
                            lambda *a: steps.append(1) or real_e_step(*a))
        monkeypatch.setattr(estimation, "observed_loglik",
                            lambda *a: values.append(1) or real_value(*a))
        fit(obs, FitConfig(p=2, max_iterations=4, loglik_tolerance=None, seed=5,
                           i_step_every=i_step_every, beta_init=1.0))
        assert len(steps) == 4 and len(values) == 1 and bool(evals) == (i_step_every > 0)
        assert len(calls) == 2 + 2 * len(steps) + 2 * len(evals) + 2 * len(values)

    def test_one_parameter_point_alive_at_a_time(self, monkeypatch):
        """Whenever the fit exponentiates, at most the other margin's
        exponentials of the same point are still alive, and none outlive the
        fit. On the far-censored data the start doubles its means once, and
        the previous doubling's exponentials are gone before the next are
        taken."""
        refs, alive = [], []
        real = phasetype._exponentials

        def tracked(sub, x):
            alive.append(sum(ref() is not None for ref in refs))
            exps = real(sub, x)
            refs.append(weakref.ref(exps))
            return exps

        monkeypatch.setattr(estimation, "_exponentials", tracked)
        monkeypatch.setattr(phasetype, "_exponentials", tracked)
        for obs in (self._synthetic(433, n=250),
                    self._far_censored(self._synthetic(389, 200))):
            alive.clear()
            fit(obs, FitConfig(p=2, max_iterations=4, loglik_tolerance=None, seed=5,
                               i_step_every=1, beta_init=1.0))
            assert len(alive) > 8 and max(alive) == 1
            assert all(ref() is None for ref in refs)

    @pytest.mark.parametrize("i_step_every", [0, 2])
    def test_trace_entry_is_the_value_of_that_iterate(self, i_step_every):
        """Entry k of a 4-iteration trace is the observed log-likelihood of
        the k-iteration fit's model, bit for bit, whether the E-step that
        opens iteration k + 1 gave it or the value pass after the last."""
        obs = self._synthetic(433, n=250)

        def run(iterations):
            return fit(obs, FitConfig(p=2, max_iterations=iterations, loglik_tolerance=None,
                                      seed=5, i_step_every=i_step_every, beta_init=1.0))

        trace = run(4).loglik_trace
        for k in range(1, 5):
            assert trace[k - 1] == observed_loglik(obs, run(k).model), k

    @pytest.mark.parametrize("i_step_every", [0, 2])
    def test_tolerance_stop_returns_the_fixed_count_fit(self, i_step_every):
        """A fit stopped by the tolerance returns the model, trace and
        iteration count of the same fit run for that many iterations without
        one: the iteration whose E-step showed the stop leaves no trace."""
        obs = self._synthetic(431, n=150)

        def run(iterations, tolerance):
            return fit(obs, FitConfig(p=2, max_iterations=iterations,
                                      loglik_tolerance=tolerance, i_step_every=i_step_every,
                                      beta_init=(2.0, 3.0), seed=3))

        stopped = run(400, 1e-5)
        assert stopped.converged and stopped.iterations < 400
        fixed = run(stopped.iterations, None)
        assert not fixed.converged and fixed.iterations == stopped.iterations
        np.testing.assert_array_equal(fixed.loglik_trace, stopped.loglik_trace)
        np.testing.assert_array_equal(fixed.model.gamma, stopped.model.gamma)
        for margin, other in zip(fixed.model.margins, stopped.model.margins):
            np.testing.assert_array_equal(margin.sub.matrix, other.sub.matrix)
            assert margin.transform.beta == other.transform.beta

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

    @pytest.mark.parametrize("iterations,i_step_every", [(4, 1), (5, 2)])
    def test_fitted_model_reproduces_its_trace(self, monkeypatch, iterations,
                                               i_step_every):
        """The returned model's start vectors are the last R-step's bit for
        bit, so its log-likelihood is the last trace entry exactly. On this
        data a softmax that rounds differently moves it by one ulp."""
        from test_acceptance import _synthetic_for_em

        _, obs = _synthetic_for_em(seed=1031, n=300, p=3, betas=(2.0, 2.5),
                                   censoring=0.2, n_covariates=2)
        probs, inner = [], estimation.r_step

        def recorded(*args, **kwargs):
            gamma, per_obs_pi = inner(*args, **kwargs)
            probs.append(per_obs_pi)
            return gamma, per_obs_pi

        monkeypatch.setattr(estimation, "r_step", recorded)
        report = fit(obs, FitConfig(p=3, beta_init=1.0, seed=41, loglik_tolerance=None,
                                    max_iterations=iterations, i_step_every=i_step_every))
        assert observed_loglik(obs, report.model) == report.final_loglik
        assert np.array_equal(report.model.initial_vectors(obs.covariates), probs[-1])

    def test_same_fit_at_one_and_two_blas_threads(self):
        """The paper-scale fit (8834 couples drawn from the published model,
        p = 10, beta = 45, four iterations with I-steps at the second and
        fourth) in child processes with one and two OpenBLAS threads: trace,
        beta, gamma and rates hash alike. Sums over the couples must not go
        through BLAS, whose split of a long inner dimension, and with it the
        rounding, follows the thread count. From the third E-step on, the
        Fréchet row kernel gets more than one row block, so its pool runs
        under both thread counts."""
        root = Path(__file__).resolve().parent.parent
        script = textwrap.dedent(f"""
            import hashlib
            import numpy as np
            from miph import dataio, estimation

            model = dataio.load_model({str(root / "demos" / "models" / "spousal_reference.json")!r})

            def sampler(rng, size):
                ages = rng.uniform(60.0, 75.0, size=(size, 2)) / dataio.TIME_SCALE
                return dataio.standard_design(ages[:, 0], ages[:, 1])

            obs = dataio.generate_synthetic(model, sampler, 0.6, 8834, 8834)
            report = estimation.fit(obs, estimation.FitConfig(
                p=10, i_step_every=2, beta_init=45.0, max_iterations=4))
            digest = hashlib.sha256()
            for values in (report.loglik_trace,
                           [m.transform.beta for m in report.model.margins],
                           report.model.gamma,
                           [m.sub.matrix for m in report.model.margins]):
                digest.update(np.ascontiguousarray(values, dtype=float).tobytes())
            print(digest.hexdigest())
        """)
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
                [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            digests.append(run.stdout.strip())
        assert digests[0] == digests[1]

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

    @pytest.mark.parametrize("kwargs", [
        {"p": 2.0}, {"p": True}, {"max_iterations": 2.5}, {"max_iterations": "3"},
        {"i_step_every": 1.5}, {"i_step_every": np.float64(2.0)}, {"seed": 1.5},
        {"seed": None},
    ])
    def test_config_rejects_counts_that_are_not_integers(self, kwargs):
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            FitConfig(**{"p": 2, **kwargs})
        FitConfig(p=np.int64(2), max_iterations=np.int32(3), i_step_every=np.uint8(0),
                  seed=np.int64(7))

    @pytest.mark.parametrize("seed", [-1, np.int64(-7)])
    def test_config_rejects_a_negative_seed(self, seed):
        # it used to construct, and the fit then failed in numpy's generator
        with pytest.raises(ValueError, match="seed must be >= 0"):
            FitConfig(p=2, seed=seed)
        FitConfig(p=2, seed=0)

    @pytest.mark.parametrize("kwargs", [
        {"loglik_tolerance": True}, {"loglik_tolerance": "1e-7"},
        {"loglik_tolerance": [1e-7]}, {"beta_init": True}, {"beta_init": "2"},
        {"beta_init": ("1", 2.0)}, {"beta_init": (True, False)},
        {"beta_init": [True, 1.0]}, {"beta_init": (2.0, np.True_)},
    ])
    def test_config_rejects_tolerance_and_beta_that_are_not_numbers(self, kwargs):
        # a bool tolerance used to run as 1 per observation, and a bool or
        # string beta_init used to construct, a bool among floats as 1.0
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=name):
            FitConfig(p=2, **kwargs)
        FitConfig(p=2, loglik_tolerance=np.float32(1e-3), beta_init=(2, np.float64(3.0)))
        FitConfig(p=2, loglik_tolerance=1, beta_init=np.int64(45))
