"""Joint-model tests.

Oracles: 2-d quadrature of the joint density, finite differences of the
joint survival function, Monte Carlo concordance / conditional frequencies
from the independent path simulator, and exact product/ratio identities.
Reference dependence values for the spousal model live in the acceptance
suite; here a couple of them pin the same fixtures at looser cost.
"""

import re
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
import scipy.stats

import miph.model
import miph.phasetype
from miph import (
    DataValidationError,
    GompertzTransform,
    Margin,
    MIPHModel,
    NumericalError,
    SubIntensity,
    condition_on_survival,
    condition_on_value,
    conditional_expectation,
    cross_ratio,
    joint_cdf,
    joint_density,
    joint_grid,
    joint_survival,
    kendall_tau,
    load_model,
    marginal_survival,
    psi1,
    psi2,
    random_sub_intensity,
    sample_joint_rows,
    save_model,
    spearman_rho,
    transition_mask,
)

from conftest import (
    COUPLE_AGES_YEARS,
    COUPLE_PI_RAW,
    couple_pi,
    random_bivariate_model,
    random_chain,
    random_pi,
    stiff_chain_model,
)


def _marginal_density(model, pi, margin, y):
    """Density of one coordinate at the scalar or 1-d ``y``: the joint density
    of a model of that margin alone."""
    one = MIPHModel((model.margins[margin],))
    return joint_density(one, pi, np.asarray(y, dtype=float)[..., None])


def _sample(model, pi, rng, n):
    """``n`` joint lifetimes that all start from ``pi``."""
    return sample_joint_rows(model, np.broadcast_to(pi, (n, model.dim)), rng)


def _trivariate_model(seed=211, betas=(1.0, 2.0, 1.5), p=3):
    rng = np.random.default_rng(seed)
    margins = tuple(
        Margin(random_chain(rng, p), GompertzTransform(b)) for b in betas
    )
    return MIPHModel(margins), random_pi(rng, p)


class TestConstruction:
    def test_margins_must_share_state_space(self):
        m1 = Margin(SubIntensity(np.array([[-1.0]])), GompertzTransform(1.0))
        m2 = Margin(
            SubIntensity(np.array([[-2.0, 1.0], [0.0, -1.0]])),
            GompertzTransform(1.0),
        )
        with pytest.raises(ValueError):
            MIPHModel((m1, m2))

    def test_gamma_reference_row_must_be_zero(self):
        rng = np.random.default_rng(1)
        sub = random_chain(rng, 2)
        margins = (Margin(sub, GompertzTransform(1.0)),) * 2
        with pytest.raises(ValueError):
            MIPHModel(margins, gamma=np.ones((2, 3)))
        MIPHModel(margins, gamma=np.vstack([np.zeros(3), np.ones(3)]))

    def test_gamma_and_fixed_pi_are_exclusive(self):
        rng = np.random.default_rng(2)
        sub = random_chain(rng, 2)
        margins = (Margin(sub, GompertzTransform(1.0)),) * 2
        with pytest.raises(ValueError):
            MIPHModel(
                margins,
                gamma=np.vstack([np.zeros(2), np.ones(2)]),
                fixed_pi=np.array([0.5, 0.5]),
            )

    def test_initial_vectors_softmax(self):
        rng = np.random.default_rng(3)
        sub = random_chain(rng, 3)
        gamma = np.vstack([np.zeros(2), rng.normal(size=(2, 2))])
        model = MIPHModel((Margin(sub, GompertzTransform(1.0)),) * 2, gamma=gamma)
        a = rng.normal(size=(5, 2))
        got = model.initial_vectors(a)
        eta = a @ gamma.T
        expected = np.exp(eta) / np.exp(eta).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(got, expected, rtol=1e-12)
        np.testing.assert_allclose(got.sum(axis=1), 1.0, atol=1e-14)

    def test_initial_vectors_constant_rows_take_one_softmax(self, spousal_model_with_gamma):
        # the design `miph simulate --ages 63,63` builds: one row, repeated
        from miph import standard_design
        age = np.full(1000, 0.63)
        a = standard_design(age, age)
        got = spousal_model_with_gamma.initial_vectors(a)
        expected = miph.model._softmax(a @ spousal_model_with_gamma.gamma.T)[0]
        np.testing.assert_array_equal(got, expected)
        assert got.flags.writeable and got.flags.c_contiguous

    def test_initial_vectors_mixed_rows_take_a_softmax_per_row(self, spousal_model_with_gamma):
        from miph import standard_design
        for odd in (0, 500, 999):  # one row differs: first, middle, last
            age = np.full(1000, 0.63)
            age[odd] = 0.73
            a = standard_design(age, np.full(1000, 0.63))
            got = spousal_model_with_gamma.initial_vectors(a)
            expected = miph.model._softmax(a @ spousal_model_with_gamma.gamma.T)[0]
            np.testing.assert_array_equal(got, expected)
            assert not np.array_equal(got[odd], got[(odd + 1) % 1000])

    def test_initial_vectors_fixed_broadcast(self):
        rng = np.random.default_rng(4)
        sub = random_chain(rng, 3)
        pi = random_pi(rng, 3)
        model = MIPHModel((Margin(sub, GompertzTransform(1.0)),) * 2, fixed_pi=pi)
        got = model.initial_vectors(np.zeros((4, 7)))
        np.testing.assert_array_equal(got, np.tile(pi, (4, 1)))

    def test_initial_vectors_requires_some_link(self):
        rng = np.random.default_rng(5)
        model, _ = _trivariate_model()
        with pytest.raises(ValueError):
            model.initial_vectors(np.zeros((2, 2)))


class TestJointEvaluation:
    def test_density_integrates_to_one(self):
        model, pi = random_bivariate_model(np.random.default_rng(109), p=3)
        total, _ = scipy.integrate.dblquad(
            lambda y2, y1: joint_density(model, pi, np.array([y1, y2])),
            0.0, 8.0, 0.0, 8.0, epsabs=1e-9, epsrel=1e-7,
        )
        np.testing.assert_allclose(total, 1.0, rtol=1e-6)

    def test_cdf_inclusion_exclusion(self):
        for seed in (113, 127):
            model, pi = random_bivariate_model(np.random.default_rng(seed), p=4)
            pts = np.random.default_rng(seed + 1).uniform(0.05, 3.0, size=(25, 2))
            c = joint_cdf(model, pi, pts)
            s = joint_survival(model, pi, pts)
            s1 = marginal_survival(model, pi, 0, pts[:, 0])
            s2 = marginal_survival(model, pi, 1, pts[:, 1])
            np.testing.assert_allclose(c, 1.0 - s1 - s2 + s, atol=1e-12)

    def test_cdf_limits(self):
        model, pi = random_bivariate_model(np.random.default_rng(131), p=3)
        assert joint_cdf(model, pi, np.array([0.0, 0.0])) == pytest.approx(
            0.0, abs=1e-30
        )
        big = np.array([60.0, 60.0])
        np.testing.assert_allclose(joint_cdf(model, pi, big), 1.0, atol=1e-10)
        np.testing.assert_allclose(joint_survival(model, pi, big), 0.0, atol=1e-12)

    def test_cdf_is_zero_at_age_zero_for_the_reference_model(self, spousal_model):
        pi = couple_pi(1)
        pts = np.array([[0.45, 0.0], [0.0, 0.3], [0.0, 0.0]])
        np.testing.assert_array_equal(joint_cdf(spousal_model, pi, pts), 0.0)

    def test_density_is_mixed_survival_derivative(self):
        model, pi = random_bivariate_model(np.random.default_rng(137), p=3)
        h = 1e-5
        for y in ([0.4, 0.7], [1.2, 0.3], [0.9, 0.9]):
            y1, y2 = y
            s = lambda a, b: joint_survival(model, pi, np.array([a, b]))
            fd = (s(y1 + h, y2 + h) - s(y1 + h, y2 - h)
                  - s(y1 - h, y2 + h) + s(y1 - h, y2 - h)) / (4 * h * h)
            np.testing.assert_allclose(
                joint_density(model, pi, np.array(y)), fd, rtol=1e-5
            )

    def test_rectangle_mass_nonnegative(self):
        model, pi = random_bivariate_model(np.random.default_rng(139), p=4)
        rng = np.random.default_rng(149)
        for _ in range(40):
            a = rng.uniform(0.0, 2.0, size=2)
            b = a + rng.uniform(0.0, 2.0, size=2)
            c = lambda y: joint_cdf(model, pi, y)
            mass = (c(np.array([b[0], b[1]])) - c(np.array([a[0], b[1]]))
                    - c(np.array([b[0], a[1]])) + c(np.array([a[0], a[1]])))
            assert mass >= -1e-12

    def test_marginals_match_survival_of_single_margin(self):
        model, pi = random_bivariate_model(np.random.default_rng(151), p=3)
        y = np.linspace(0.1, 2.0, 9)
        far = np.column_stack([y, np.zeros_like(y)])
        np.testing.assert_allclose(
            joint_survival(model, pi, far),
            marginal_survival(model, pi, 0, y),
            rtol=1e-12,
        )
        h = 1e-6
        fd = (marginal_survival(model, pi, 1, y - h)
              - marginal_survival(model, pi, 1, y + h)) / (2 * h)
        np.testing.assert_allclose(
            _marginal_density(model, pi, 1, y), fd, rtol=1e-6
        )

    @pytest.mark.parametrize("shape", [(2, 3), (1, 1), (3, 1), (1, 1, 1)])
    def test_marginal_survival_rejects_arrays_above_1d(self, shape):
        model, pi = random_bivariate_model(np.random.default_rng(153), p=2)
        with pytest.raises(ValueError, match=re.escape(f"1-d array, got shape {shape}")):
            marginal_survival(model, pi, 0, np.full(shape, 0.5))

    def test_point_validation(self):
        model, pi = random_bivariate_model(np.random.default_rng(157), p=2)
        with pytest.raises(ValueError):
            joint_density(model, pi, np.array([0.5, -0.1]))
        with pytest.raises(ValueError):
            joint_density(model, pi, np.array([0.5, 0.5, 0.5]))

    def test_trivariate_evaluation(self):
        model, pi = _trivariate_model()
        y = np.array([0.5, 0.8, 0.3])
        s = joint_survival(model, pi, y)
        assert 0.0 < s < 1.0

    def test_exchangeable_margins_are_positively_orthant_dependent(self):
        # with identical margins, S(y,..,y) = E[a^d] >= (E[a])^d = prod S_i(y)
        rng = np.random.default_rng(283)
        sub = random_chain(rng, 3)
        pi = random_pi(rng, 3)
        margin = Margin(sub, GompertzTransform(2.0))
        model = MIPHModel((margin,) * 3)
        for y in (0.2, 0.6, 1.1):
            s = joint_survival(model, pi, np.full(3, y))
            s_prod = marginal_survival(model, pi, 0, y) ** 3
            assert s >= s_prod - 1e-15

    def test_repeated_ages_are_exponentiated_once(self, spousal_model,
                                                  monkeypatch):
        # repeated ages plus ages past the Gompertz overflow point
        # (beta * y > 709 for both margins)
        ages = np.array([0.0, 0.12, 0.3, 0.12, 0.3, 0.3, 25.0, 25.0, 40.0, 0.45])
        pts = np.column_stack([ages, ages[::-1]])
        pts = np.vstack([pts, pts[:, ::-1], [[0.12, 0.12], [25.0, 0.3]]])
        pi = couple_pi(1)
        kernel = miph.phasetype._age_factors
        for margin, col in zip(spousal_model.margins, pts.T):
            sub, beta = margin.sub, margin.transform.beta
            for died in (False, True):
                pointwise = np.vstack([
                    kernel(sub, beta, np.array([y]), died)[0] for y in col
                ])
                assert np.array_equal(kernel(sub, beta, col, died)[0], pointwise)
        # the per-state factors agree bit for bit; the final ``factors @ pi``
        # may round differently in the last bit for a 1-row and an n-row
        # product (BLAS row blocking)
        for fn in (joint_density, joint_survival, joint_cdf):
            pointwise = np.array([fn(spousal_model, pi, y) for y in pts])
            np.testing.assert_array_max_ulp(
                fn(spousal_model, pi, pts), pointwise, maxulp=2
            )
        overflowed = (pts >= 25.0).any(axis=1)
        assert np.all(joint_survival(spousal_model, pi, pts)[overflowed] == 0.0)
        assert np.all(joint_density(spousal_model, pi, pts)[overflowed] == 0.0)

        sizes = []
        real = miph.phasetype.expm_batch

        def counting(t, xs):
            sizes.append(len(xs))
            return real(t, xs)

        monkeypatch.setattr(miph.phasetype, "expm_batch", counting)
        joint_survival(spousal_model, pi, pts)
        finite = [np.unique(col[col < 25.0]).size for col in pts.T]
        assert sizes == finite


class TestJointGrid:
    """``joint_grid`` is the pointwise functions on a tensor grid, bit for bit."""

    def _pointwise(self, model, pi, axes):
        pts = np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
        return [fn(model, pi, pts) for fn in (joint_density, joint_survival, joint_cdf)]

    def test_non_square_grid_of_a_general_structure_model(self):
        rng = np.random.default_rng(433)
        model = MIPHModel(tuple(
            Margin(random_sub_intensity(transition_mask("general", 4), rng),
                   GompertzTransform(beta)) for beta in (1.0, 2.5)))
        pi = random_pi(rng, 4)
        # a repeated age, and ages whose operational time overflows (beta y > 709)
        axes = [np.array([0.0, 0.3, 1.2, 0.3, 800.0, 0.05]),
                np.array([0.7, 300.0, 0.0, 2.0])]
        grids = joint_grid(model, pi, axes)
        for grid, points in zip(grids, self._pointwise(model, pi, axes)):
            assert grid.shape == (6, 4)
            assert np.array_equal(grid.ravel(), points)
        assert np.all(grids[0][4] == 0.0) and np.all(grids[1][4] == 0.0)
        assert grids[2][4, 1] == pytest.approx(1.0, abs=1e-15)  # pi sums to 1

    def test_trivariate_grid(self):
        model, pi = _trivariate_model()
        axes = [np.array([0.2, 0.9]), np.array([0.5]), np.array([0.0, 0.4, 1.5])]
        grids = joint_grid(model, pi, axes)
        for grid, points in zip(grids, self._pointwise(model, pi, axes)):
            assert grid.shape == (2, 1, 3)
            assert np.array_equal(grid.ravel(), points)

    def test_errors_are_those_of_the_pointwise_functions(self):
        model, pi = random_bivariate_model(np.random.default_rng(439), p=2)
        good = np.array([0.1, 0.5])
        for bad in (np.array([0.2, -0.1]), np.array([np.nan]), np.array([0.3, np.inf])):
            with pytest.raises(ValueError) as grid_err:
                joint_grid(model, pi, [good, bad])
            with pytest.raises(ValueError) as point_err:
                joint_density(model, pi, np.column_stack([np.resize(good, bad.size), bad]))
            assert str(grid_err.value) == str(point_err.value)
        for axes in ([good], [good] * 3, [good, good[:, None]], [good, 0.5]):
            with pytest.raises(ValueError, match="expected 2 1-d axes"):
                joint_grid(model, pi, axes)
        for bad_pi in (np.array([0.5, 0.6]), np.ones(3) / 3, np.array([np.nan, 1.0])):
            with pytest.raises(DataValidationError) as grid_err:
                joint_grid(model, bad_pi, [good, good])
            with pytest.raises(DataValidationError) as point_err:
                joint_density(model, bad_pi, good)
            assert str(grid_err.value) == str(point_err.value)


class TestIndependenceDegeneracy:
    """p = 1 collapses the latent state, so margins become independent."""

    def _single_state(self):
        m1 = Margin(SubIntensity(np.array([[-1.3]])), GompertzTransform(2.0))
        m2 = Margin(SubIntensity(np.array([[-0.7]])), GompertzTransform(3.0))
        return MIPHModel((m1, m2)), np.array([1.0])

    def test_joint_factorizes(self):
        model, pi = self._single_state()
        pts = np.array([[0.3, 0.6], [1.0, 0.2], [0.05, 0.05]])
        s1 = marginal_survival(model, pi, 0, pts[:, 0])
        s2 = marginal_survival(model, pi, 1, pts[:, 1])
        np.testing.assert_allclose(joint_survival(model, pi, pts), s1 * s2,
                                   rtol=1e-13)
        f1 = _marginal_density(model, pi, 0, pts[:, 0])
        f2 = _marginal_density(model, pi, 1, pts[:, 1])
        np.testing.assert_allclose(joint_density(model, pi, pts), f1 * f2,
                                   rtol=1e-13)

    def test_rank_correlations_vanish(self):
        model, pi = self._single_state()
        assert kendall_tau(model, pi) == pytest.approx(0.0, abs=1e-14)
        assert spearman_rho(model, pi) == pytest.approx(0.0, abs=1e-14)

    def test_ratio_measures_are_unity(self):
        model, pi = self._single_state()
        assert psi1(model, pi, 0.4, 0.9) == pytest.approx(1.0, abs=1e-12)
        assert psi2(model, pi, 0, 0.5) == pytest.approx(1.0, abs=1e-9)
        for u in (0.05, 0.2, 0.5):
            assert cross_ratio(model, pi, u) == pytest.approx(1.0, abs=1e-12)


class TestConditioning:
    def test_value_conditioning_matches_density_ratio(self):
        model, pi = _trivariate_model()
        y1 = 0.45
        reduced, alpha = condition_on_value(model, pi, 0, y1)
        assert reduced.n_margins == 2
        np.testing.assert_allclose(alpha.sum(), 1.0, atol=1e-13)
        for rest in ([0.3, 0.7], [1.1, 0.2]):
            lhs = joint_density(reduced, alpha, np.array(rest))
            full = joint_density(model, pi, np.array([y1, *rest]))
            f1 = _marginal_density(model, pi, 0, y1)
            np.testing.assert_allclose(lhs, full / f1, rtol=1e-11)

    def test_survival_conditioning_matches_survival_ratio(self):
        model, pi = _trivariate_model(seed=223)
        y2 = 0.6
        reduced, nu = condition_on_survival(model, pi, 1, y2)
        for rest in ([0.25, 0.5], [0.9, 1.4]):
            lhs = joint_survival(reduced, nu, np.array(rest))
            full = joint_survival(model, pi, np.array([rest[0], y2, rest[1]]))
            s2 = marginal_survival(model, pi, 1, y2)
            np.testing.assert_allclose(lhs, full / s2, rtol=1e-11)

    def test_survival_conditioning_against_simulation(self):
        model, pi = random_bivariate_model(np.random.default_rng(163), p=3)
        rng = np.random.default_rng(167)
        draws = _sample(model, pi, rng, 300_000)
        y1 = float(np.quantile(draws[:, 0], 0.4))
        kept = draws[draws[:, 0] >= y1]
        reduced, nu = condition_on_survival(model, pi, 0, y1)
        probe = float(np.quantile(kept[:, 1], 0.5))
        empirical = float(np.mean(kept[:, 1] >= probe))
        exact = marginal_survival(reduced, nu, 0, probe)
        assert abs(empirical - exact) < 0.01

    def test_conditioning_far_out_raises(self, spousal_model):
        model, pi = random_bivariate_model(np.random.default_rng(173), p=2)
        # at 7.0 pi' exp(T x) t is below the floor, its product with the
        # Jacobian e^{beta y} is not
        for y in (7.0, 80.0):
            with pytest.raises(NumericalError):
                condition_on_value(model, pi, 0, y)
        # 2000 years: the reference model's operational time overflows
        for condition in (condition_on_value, condition_on_survival):
            for margin in (0, 1):
                with pytest.raises(NumericalError):
                    condition(spousal_model, couple_pi(1), margin, 20.0)

    def test_conditioning_needs_two_margins(self):
        m = Margin(SubIntensity(np.array([[-1.0]])), GompertzTransform(1.0))
        model = MIPHModel((m,))
        with pytest.raises(ValueError):
            condition_on_value(model, np.array([1.0]), 0, 0.5)


class TestMarginWithoutAbsorption:
    """A model file whose first margin never exits: its states only swap
    (every exit rate is 0), so its survival is 1 at every age."""

    def test_numerical_error_without_overflow_warnings(self, tmp_path):
        closed = SubIntensity(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        sub = SubIntensity(np.array([[-2.0, 1.0], [0.0, -1.0]]))
        path = tmp_path / "closed.json"
        save_model(MIPHModel((Margin(closed, GompertzTransform(5.0)),
                              Margin(sub, GompertzTransform(5.0)))), path)
        model, pi = load_model(path), np.array([0.3, 0.7])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for measure in (
                lambda: kendall_tau(model, pi),
                lambda: spearman_rho(model, pi),
                lambda: conditional_expectation(model, pi, 0),
                lambda: conditional_expectation(model, pi, 0, given=(1, 0.2)),
                lambda: psi2(model, pi, 0, np.array([0.1, 0.2])),
                # its jump paths would never end
                lambda: _sample(model, pi, np.random.default_rng(0), 5),
            ):
                with pytest.raises(NumericalError, match="never reach absorption"):
                    measure()
            # the other margin is unaffected: its partner survives surely
            assert conditional_expectation(model, pi, 1, given=(0, 0.2)) == (
                pytest.approx(conditional_expectation(model, pi, 1), rel=1e-15))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestRankCorrelations:
    def test_against_simulated_concordance(self):
        model, pi = random_bivariate_model(np.random.default_rng(179), p=3)
        rng = np.random.default_rng(181)
        draws = _sample(model, pi, rng, 300_000)
        tau_hat = scipy.stats.kendalltau(draws[:, 0], draws[:, 1]).statistic
        rho_hat = scipy.stats.spearmanr(draws[:, 0], draws[:, 1]).statistic
        assert abs(kendall_tau(model, pi) - tau_hat) < 0.012
        assert abs(spearman_rho(model, pi) - rho_hat) < 0.015

    def test_invariant_to_time_transforms(self):
        # rank correlations depend only on the chains and the start vector
        rng = np.random.default_rng(191)
        sub1, sub2 = random_chain(rng, 3), random_chain(rng, 3)
        pi = random_pi(rng, 3)
        a = MIPHModel((Margin(sub1, GompertzTransform(1.0)),
                       Margin(sub2, GompertzTransform(1.0))))
        b = MIPHModel((Margin(sub1, GompertzTransform(37.0)),
                       Margin(sub2, GompertzTransform(80.0))))
        assert kendall_tau(a, pi) == pytest.approx(kendall_tau(b, pi), abs=1e-15)
        assert spearman_rho(a, pi) == pytest.approx(spearman_rho(b, pi), abs=1e-15)

    def test_bounds_and_symmetry(self):
        rng = np.random.default_rng(193)
        for _ in range(5):
            model, pi = random_bivariate_model(rng, p=int(rng.integers(2, 6)))
            t = kendall_tau(model, pi)
            r = spearman_rho(model, pi)
            assert -1.0 < t < 1.0 and -1.0 < r < 1.0
            assert kendall_tau(model, pi, pair=(1, 0)) == pytest.approx(t, abs=1e-15)

    def test_rejects_identical_pair(self):
        model, pi = random_bivariate_model(np.random.default_rng(197), p=2)
        with pytest.raises(ValueError):
            kendall_tau(model, pi, pair=(1, 1))

    @pytest.mark.parametrize("structure", ["coxian", "general"])
    def test_precedence_matrix_is_a_probability_of_order(self, structure):
        """U[a, b] = P(Y_b < Y_a) for independent copies started in a and b.
        Two such lifetimes never tie, so U + U' = 1."""
        rng = np.random.default_rng(53)
        for p in range(1, 9):
            sub = random_sub_intensity(transition_mask(structure, p), rng)
            u = miph.model._precedence_matrix(sub)
            assert np.all(u >= -1e-12) and np.all(u <= 1.0 + 1e-12)
            assert np.max(np.abs(u + u.T - 1.0)) <= 1e-12

    def test_precedence_matrix_near_the_float_limit(self):
        """Rates near 1e308 would overflow the Kronecker sum T (+) T to -inf;
        T and t are scaled by a power of two first, which U does not see.
        Two copies of one state tie in law, so U = 1/2; a state left at rate
        1e308 for the one that exits is as good as that state."""
        u = miph.model._precedence_matrix(SubIntensity([[-1e308]]))
        np.testing.assert_array_equal(u, [[0.5]])
        u = miph.model._precedence_matrix(SubIntensity([[-1e308, 1e308], [0.0, -1.0]]))
        np.testing.assert_array_equal(u, np.full((2, 2), 0.5))
        np.testing.assert_array_equal(u + u.T, np.ones((2, 2)))

    @pytest.mark.parametrize("f", [1e2, 1e6, 1e8])
    def test_stiff_chain_against_extended_precision(self, f):
        """A rate f next to exit rates of 1e-3 and 0.1 leaves a residual far
        above 1e-10 max|b| at f = 1e8, while the solve's backward error stays
        at rounding level; the closed forms hold against a 40-digit solve of
        the same Kronecker-sum system."""
        model = stiff_chain_model(f)
        pi, t = model.fixed_pi, model.margins[0].sub.matrix
        p = t.shape[0]
        with mp.workdps(40):
            t = np.vectorize(mp.mpf, otypes=[object])(t)
            eye = np.eye(p, dtype=object)
            a = -(np.kron(t, eye) + np.kron(eye, t))
            b = np.tile(-t.sum(axis=1), p)
            u = mp.lu_solve(mp.matrix(a.tolist()), mp.matrix(b.tolist()))
            u = np.array(u.tolist(), dtype=object).reshape(p, p)
            w = np.vectorize(mp.mpf, otypes=[object])(pi)
            tau = 4 * w @ (u * u) @ w - 1
            rho = 12 * w @ (w @ u) ** 2 - 3
        assert kendall_tau(model, pi) == pytest.approx(float(tau), rel=1e-13)
        assert spearman_rho(model, pi) == pytest.approx(float(rho), rel=1e-13)


@pytest.mark.parametrize("call, bad", [
    (lambda m, pi, y: kendall_tau(m, pi, (0, 2)), "2"),
    (lambda m, pi, y: spearman_rho(m, pi, (-1, 0)), "-1"),
    (lambda m, pi, y: marginal_survival(m, pi, 2, y), "2"),
    (lambda m, pi, y: psi2(m, pi, -1, y), "-1"),
    (lambda m, pi, y: conditional_expectation(m, pi, 0, given=(2, y)), "2"),
    # indices that are not integers are refused, not truncated
    (lambda m, pi, y: kendall_tau(m, pi, (0, 1.5)), "1.5"),
    (lambda m, pi, y: spearman_rho(m, pi, (np.float64(0.0), 1)), "0.0"),
    (lambda m, pi, y: marginal_survival(m, pi, 0.7, y), "0.7"),
    (lambda m, pi, y: psi2(m, pi, 0.4, y), "0.4"),
    (lambda m, pi, y: condition_on_survival(m, pi, "1", y), "'1'"),
    (lambda m, pi, y: conditional_expectation(m, pi, 0, given=(1.9, y)), "1.9"),
    # a bool is an int to Python, but not a margin index
    (lambda m, pi, y: marginal_survival(m, pi, True, y), "True"),
    (lambda m, pi, y: psi2(m, pi, False, y), "False"),
])
def test_margin_index_out_of_range_or_not_an_integer(call, bad):
    model, pi = random_bivariate_model(np.random.default_rng(193), p=2)
    with pytest.raises(ValueError, match=f"margin must be .*{re.escape(bad)}"):
        call(model, pi, 0.3)


def test_numpy_integer_margins_are_indices():
    model, pi = random_bivariate_model(np.random.default_rng(193), p=2)
    assert kendall_tau(model, pi, (np.int64(1), np.int32(0))) == kendall_tau(model, pi, (1, 0))
    assert psi2(model, pi, np.int8(1), 0.3) == psi2(model, pi, 1, 0.3)


class TestDependenceMeasures:
    def test_psi1_from_direct_ratio(self):
        model, pi = random_bivariate_model(np.random.default_rng(199), p=3)
        y1, y2 = np.array([0.5, 0.0, 1.3, 0.5]), np.array([0.8, 0.8, 0.2, 0.8])
        direct = joint_survival(model, pi, np.column_stack([y1, y2])) / (
            marginal_survival(model, pi, 0, y1)
            * marginal_survival(model, pi, 1, y2)
        )
        got = psi1(model, pi, y1, y2)
        np.testing.assert_allclose(got, direct, rtol=1e-12)
        scalar = [psi1(model, pi, a, b) for a, b in zip(y1, y2)]
        assert all(isinstance(v, float) for v in scalar)
        np.testing.assert_array_max_ulp(got, np.array(scalar), maxulp=2)
        # a scalar broadcasts against an array
        np.testing.assert_array_equal(psi1(model, pi, 0.5, y2),
                                      psi1(model, pi, np.full(4, 0.5), y2))

    def test_psi2_against_simulation(self):
        model, pi = random_bivariate_model(np.random.default_rng(227), p=3)
        rng = np.random.default_rng(229)
        draws = _sample(model, pi, rng, 300_000)
        y = float(np.quantile(draws[:, 1], 0.6))
        kept = draws[draws[:, 1] >= y, 0]
        empirical = kept.mean() / draws[:, 0].mean()
        got = psi2(model, pi, 0, y)
        assert abs(got - empirical) < 0.02 * empirical + 0.01
        ages = np.array([0.0, y, 0.3, 1.2, y])
        curve = psi2(model, pi, 0, ages)
        np.testing.assert_array_max_ulp(
            curve, np.array([psi2(model, pi, 0, a) for a in ages]), maxulp=2
        )
        assert isinstance(got, float) and curve[1] == curve[4]

    def test_conditional_expectation_against_simulation(self):
        model, pi = random_bivariate_model(np.random.default_rng(233), p=3)
        rng = np.random.default_rng(239)
        draws = _sample(model, pi, rng, 200_000)
        np.testing.assert_allclose(
            conditional_expectation(model, pi, 0), draws[:, 0].mean(), rtol=0.01
        )
        given = conditional_expectation(model, pi, 1, given=(0, 0.5))
        np.testing.assert_allclose(
            given, draws[draws[:, 0] >= 0.5, 1].mean(), rtol=0.02,
        )
        # the start state is the only link: linear in the start vector
        _, nu = condition_on_survival(model, pi, 0, 0.5)
        per_state = [conditional_expectation(model, e_j, 1) for e_j in np.eye(3)]
        np.testing.assert_allclose(given, nu @ per_state, rtol=1e-13)

    def test_cross_ratio_against_survival_differences(self):
        model, pi = random_bivariate_model(np.random.default_rng(241), p=3)
        h = 1e-4
        grid = np.array([0.3, 0.8, 1.5])
        curve = cross_ratio(model, pi, grid)
        np.testing.assert_array_max_ulp(
            curve, np.array([cross_ratio(model, pi, u) for u in grid]), maxulp=2
        )
        for u in grid:
            s = lambda a, b: joint_survival(model, pi, np.array([a, b]))
            d1 = (s(u - h, u) - s(u + h, u)) / (2 * h)
            d2 = (s(u, u - h) - s(u, u + h)) / (2 * h)
            f = (s(u + h, u + h) - s(u + h, u - h)
                 - s(u - h, u + h) + s(u - h, u - h)) / (4 * h * h)
            oracle = s(u, u) * f / (d1 * d2)
            np.testing.assert_allclose(cross_ratio(model, pi, u), oracle,
                                       rtol=1e-5)

    def test_positive_association_with_identical_margins(self):
        # identical margins make tau, psi1(y, y), and CR(u, u) provably
        # >= their independence values (variance / Cauchy-Schwarz arguments)
        rng = np.random.default_rng(251)
        sub = random_chain(rng, 4)
        pi = random_pi(rng, 4)
        model = MIPHModel((Margin(sub, GompertzTransform(1.5)),) * 2)
        assert kendall_tau(model, pi) > 0.0
        assert psi1(model, pi, 0.6, 0.6) > 1.0
        assert cross_ratio(model, pi, 0.6) >= 1.0


def _adaptive_expectation(model, pi):
    """E[Y_1] by adaptive quadrature of the scalar marginal survival over the
    same truncated range as the library."""
    hi = miph.model._truncation_point(model.margins[0])
    val, _ = scipy.integrate.quad(
        lambda y: marginal_survival(model, pi, 0, y), 0.0, hi,
        epsabs=0.0, epsrel=1e-10, limit=500,
    )
    return val


def _log_uniform_chain(rng, p: int, slow: float, fast: float = 2.0):
    """Feed-forward sub-intensity with rates drawn log-uniformly in
    [slow, fast] and an exit from every state."""
    rates = lambda n: np.exp(rng.uniform(np.log(slow), np.log(fast), size=n))
    sup = rates(p - 1)
    m = np.diag(sup, k=1) if p > 1 else np.zeros((1, 1))
    m[np.arange(p), np.arange(p)] = -(np.concatenate([sup, [0.0]]) + rates(p))
    return SubIntensity(m)


class TestConditionalExpectationQuadrature:
    """The fixed Gauss-Legendre rule against independent integrals: adaptive
    quadrature of the scalar survival, and the closed form for mixtures of
    exponential chains."""

    @pytest.mark.parametrize("couple", sorted(COUPLE_PI_RAW))
    def test_reference_couples_against_adaptive_quadrature(self, spousal_model,
                                                           couple):
        pi = couple_pi(couple)
        for margin in (0, 1):
            for given in (None, 0.0, 0.10, 0.20, 0.29):
                if given is None:
                    reduced = MIPHModel(margins=(spousal_model.margins[margin],))
                    start = pi
                    got = conditional_expectation(spousal_model, pi, margin)
                else:
                    reduced, start = condition_on_survival(
                        spousal_model, pi, 1 - margin, given
                    )
                    got = conditional_expectation(
                        spousal_model, pi, margin, given=(1 - margin, given)
                    )
                np.testing.assert_allclose(
                    got, _adaptive_expectation(reduced, start), rtol=1e-8
                )

    def test_random_models_against_adaptive_quadrature(self):
        rng = np.random.default_rng(307)
        for _ in range(20):
            p = int(rng.integers(1, 8))
            beta = float(np.exp(rng.uniform(np.log(0.01), np.log(63.0))))
            slow = float(np.exp(rng.uniform(np.log(1e-4), np.log(0.5))))
            model = MIPHModel(margins=(
                Margin(_log_uniform_chain(rng, p, slow), GompertzTransform(beta)),
            ))
            pi = random_pi(rng, p)
            np.testing.assert_allclose(
                conditional_expectation(model, pi, 0),
                _adaptive_expectation(model, pi), rtol=1e-8,
            )

    @pytest.mark.parametrize("beta", [0.01, 0.1, 1.0, 10.0, 63.0, 1000.0])
    def test_stiff_mixtures_against_closed_form(self, beta):
        # a fast and a very slow exponential state: the survival falls by
        # 99 % over a span thousands of times shorter than its support
        # (beta = 1000 puts the whole support below the first truncation
        # probe at 0.5). With x(y) = (exp(beta y) - 1) / beta, a state with
        # exit rate lam contributes exp(lam / beta) E1(lam / beta) / beta.
        mp.mp.dps = 30
        pi = np.array([0.99, 0.01])
        for fast in (2.0, 10.0, 100.0, 1e4):
            rates = (fast, 1e-4)
            model = MIPHModel(margins=(
                Margin(SubIntensity(np.diag([-r for r in rates])),
                       GompertzTransform(beta)),
            ))
            exact = float(sum(
                w * mp.exp(r / mp.mpf(beta)) * mp.e1(r / mp.mpf(beta)) / beta
                for w, r in zip(pi, rates)
            ))
            np.testing.assert_allclose(
                conditional_expectation(model, pi, 0), exact, rtol=1e-8
            )


class TestSpousalReference:
    """Light pins on the calibrated spousal model; the acceptance suite
    checks the full published set."""

    def test_survival_at_reference_ages(self, spousal_model):
        pi = couple_pi(1)
        s = joint_survival(spousal_model, pi, np.array([0.12, 0.30]))
        assert 0.31 <= s <= 0.33

    def test_kendall_tau_couple_one(self, spousal_model):
        assert abs(kendall_tau(spousal_model, couple_pi(1)) - 0.3104) < 0.02

    def test_cross_ratio_exceeds_one_sample(self, spousal_model):
        for u in (0.01, 0.10, 0.29):
            assert cross_ratio(spousal_model, couple_pi(1), u) > 1.0

    @pytest.mark.parametrize("couple", sorted(COUPLE_PI_RAW))
    def test_curves_match_pointwise_calls(self, spousal_model, couple):
        # the default ``miph measures`` grid, 0..29 years; the factor rows
        # agree bit for bit, and the ratios of 10-term contractions that BLAS
        # rounds differently for 1 and 30 rows differ by up to 4 ulp here
        pi, ages = couple_pi(couple), np.linspace(0.0, 0.29, 30)
        for curve, point in (
            (psi1(spousal_model, pi, ages, ages),
             lambda y: psi1(spousal_model, pi, y, y)),
            (psi2(spousal_model, pi, 0, ages), lambda y: psi2(spousal_model, pi, 0, y)),
            (psi2(spousal_model, pi, 1, ages), lambda y: psi2(spousal_model, pi, 1, y)),
            (cross_ratio(spousal_model, pi, ages),
             lambda y: cross_ratio(spousal_model, pi, y)),
        ):
            np.testing.assert_allclose(
                curve, [point(y) for y in ages], rtol=1e-14, atol=0.0
            )

    def test_gamma_model_reproduces_couple_vectors(self, spousal_model_with_gamma):
        from miph import standard_design
        for c, ages in COUPLE_AGES_YEARS.items():
            a = standard_design(np.array([ages[0] / 100]),
                                np.array([ages[1] / 100]))
            got = spousal_model_with_gamma.initial_vectors(a)[0]
            np.testing.assert_allclose(got, couple_pi(c), atol=2e-4)


class TestSampling:
    def test_empirical_survival_matches_exact(self):
        model, pi = random_bivariate_model(np.random.default_rng(257), p=3)
        rng = np.random.default_rng(263)
        draws = _sample(model, pi, rng, 200_000)
        for y in ([0.3, 0.3], [0.8, 0.4]):
            emp = np.mean((draws[:, 0] >= y[0]) & (draws[:, 1] >= y[1]))
            assert abs(emp - joint_survival(model, pi, np.array(y))) < 0.005

    def test_rows_variant_uses_per_row_vectors(self):
        rng = np.random.default_rng(269)
        sub = random_chain(rng, 2)
        model = MIPHModel((Margin(sub, GompertzTransform(1.0)),) * 2)
        # each half starts in a fixed state; compare group frequencies with
        # the exact survival under the corresponding degenerate start vector
        rows = np.repeat(np.eye(2), 30_000, axis=0)
        draws = sample_joint_rows(model, rows, np.random.default_rng(271))
        probe = np.array([0.4, 0.4])
        for g, start in enumerate(np.eye(2)):
            block = draws[g * 30_000:(g + 1) * 30_000]
            emp = np.mean((block[:, 0] >= probe[0]) & (block[:, 1] >= probe[1]))
            exact = joint_survival(model, start, probe)
            assert abs(emp - exact) < 0.01

    def test_deterministic_under_seed(self):
        model, pi = random_bivariate_model(np.random.default_rng(277), p=2)
        a = _sample(model, pi, np.random.default_rng(3), 100)
        b = _sample(model, pi, np.random.default_rng(3), 100)
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_shapes(self):
        """The error gives the array's shape and the expected (n, p), also
        for one 1-d vector where rows are due; a single initial vector
        keeps its own message."""
        model, pi = random_bivariate_model(np.random.default_rng(281), p=2)
        for rows, shape in ((np.ones((4, 3)) / 3, r"\(4, 3\)"), (pi, r"\(2,\)")):
            with pytest.raises(DataValidationError,
                               match=rf"start rows must have shape \(n, 2\), got shape {shape}"):
                sample_joint_rows(model, rows, np.random.default_rng(0))
        with pytest.raises(DataValidationError,
                           match=r"initial vector must have 2 entries, got shape \(3,\)"):
            joint_survival(model, np.ones(3) / 3, np.array([0.1, 0.1]))

    @pytest.mark.parametrize("row", [[np.nan, np.nan], [-1.0, -1.0], [2.5, 2.5]])
    def test_rows_variant_rejects_invalid_start_rows(self, row):
        """Each row meets the rules of an initial vector: finite, no negative
        entry and a sum of 1."""
        model, _ = random_bivariate_model(np.random.default_rng(283), p=2)
        rows = np.vstack([np.full((3, 2), 0.5), row])
        with pytest.raises(DataValidationError, match="start row"):
            sample_joint_rows(model, rows, np.random.default_rng(0))
