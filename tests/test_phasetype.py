"""Phase-type building-block tests.

Oracles: closed-form moments via (-T)^{-1}, adaptive quadrature of the
density, and large-sample Kolmogorov-Smirnov agreement for the simulator.
On the operational clock a PH law is ``pi @`` the factor rows of
`_exp_factors`; on the age scale it is a one-margin model, evaluated by
`joint_density` and `marginal_survival`.
"""

import numpy as np
import pytest
import scipy.integrate

from miph import (
    DataValidationError,
    GompertzTransform,
    Margin,
    MIPHModel,
    SubIntensity,
    joint_density,
    marginal_survival,
    sample_absorption_times,
    transition_mask,
    validate_initial_vector,
)
from miph.phasetype import _exp_factors, _exponentials, random_sub_intensity

from conftest import BETA_1, BETA_2, DIAG_1, DIAG_2, SUPER_1, SUPER_2, \
    chain_matrix, couple_pi, random_chain, random_pi


def _ph(sub, pi, x, died):
    """PH density (``died``) or survival on the operational clock at the 1-d
    ``x``: ``pi`` times the factor rows of one batch of exponentials."""
    return _exp_factors(sub, _exponentials(sub, x), died)[0] @ pi


def _ph_at(sub, pi, x, died):
    """:func:`_ph` at one operational time, for scalar quadrature."""
    return float(_ph(sub, pi, np.array([x]), died)[0])


def _iph_model(sub, transform):
    """The IPH law of chain ``sub`` under ``transform``: a one-margin model."""
    return MIPHModel((Margin(sub, transform),))


def _iph_density(model, pi, y):
    """Age-scale density of a one-margin model at the scalar or 1-d ``y``."""
    return joint_density(model, pi, np.asarray(y, dtype=float)[..., None])


class TestSubIntensity:
    def test_basic_construction(self):
        t = SubIntensity(np.array([[-2.0, 1.5], [0.0, -1.0]]))
        assert t.dim == 2
        np.testing.assert_array_equal(t.exit_rates, [0.5, 1.0])
        assert not t.matrix.flags.writeable

    def test_from_rates(self):
        t = SubIntensity.from_rates([[0.0, 1.5], [0.0, 0.0]], [0.5, 1.0])
        np.testing.assert_allclose(t.matrix, [[-2.0, 1.5], [0.0, -1.0]])

    def test_rejects_negative_off_diagonal(self):
        with pytest.raises(ValueError):
            SubIntensity(np.array([[-2.0, -0.1], [0.0, -1.0]]))

    def test_rejects_nonnegative_diagonal(self):
        with pytest.raises(ValueError):
            SubIntensity(np.array([[0.0, 0.0], [0.0, -1.0]]))

    def test_rejects_row_sum_above_zero(self):
        with pytest.raises(ValueError):
            SubIntensity(np.array([[-1.0, 1.5], [0.0, -1.0]]))
        # the slack is relative to max(1, |T_kk|): 1e-9 of the diagonal is too much
        for diagonal in (1.0, 1e6):
            with pytest.raises(ValueError, match="row sums"):
                SubIntensity(np.array([[-diagonal, diagonal * (1.0 + 1e-9)], [0.0, -1.0]]))

    def test_from_rates_accepts_its_own_output_at_large_rates(self):
        """Each row sum rounds on the scale of its diagonal: with transition
        rates up to 1e8 and exits under 1e-9, a check against an absolute
        1e-12 rejected 842 of these 2000 draws."""
        rng = np.random.default_rng(0)
        for _ in range(2000):
            t = SubIntensity.from_rates(rng.uniform(0.0, 1e8, (3, 3)),
                                        rng.uniform(0.0, 1e-9, 3))
            assert t.exit_rates.min() >= 0.0

    def test_clips_tiny_negative_exit_rates(self):
        # row sums a hair above zero are rounding, not invalidity
        t = SubIntensity(np.array([[-1.0, 1.0 + 5e-13], [0.0, -1.0]]))
        assert t.exit_rates[0] == 0.0

    def test_rejects_non_square_and_non_finite(self):
        with pytest.raises(ValueError):
            SubIntensity(np.ones((2, 3)))
        with pytest.raises(ValueError):
            SubIntensity(np.array([[-np.inf, 0.0], [0.0, -1.0]]))


class TestStructures:
    def test_coxian_mask(self):
        mask = transition_mask("coxian", 4)
        expected = np.zeros((4, 4), dtype=bool)
        expected[0, 1] = expected[1, 2] = expected[2, 3] = True
        np.testing.assert_array_equal(mask, expected)

    def test_general_mask(self):
        mask = transition_mask("general", 3)
        np.testing.assert_array_equal(mask, ~np.eye(3, dtype=bool))

    def test_rejects_unknown_structure_and_empty_chain(self):
        with pytest.raises(ValueError, match="unknown structure"):
            transition_mask("erlang", 3)
        with pytest.raises(ValueError, match="p must be"):
            transition_mask("coxian", 0)


class TestGompertzTransform:
    def test_round_trip(self):
        tr = GompertzTransform(43.101)
        y = np.linspace(0.0, 1.2, 201)
        np.testing.assert_allclose(tr.forward(tr.inverse(y)), y, atol=1e-12)
        x = np.geomspace(1e-8, 1e10, 100)
        np.testing.assert_allclose(tr.inverse(tr.forward(x)) / x, 1.0,
                                   rtol=1e-10)

    def test_inverse_derivative_is_intensity(self):
        tr = GompertzTransform(2.5)
        y = np.linspace(0.01, 3.0, 50)
        h = 1e-6
        fd = (tr.inverse(y + h) - tr.inverse(y - h)) / (2 * h)
        np.testing.assert_allclose(fd, np.exp(tr.beta * y), rtol=1e-7)

    def test_known_values(self):
        tr = GompertzTransform(1.0)
        assert tr.inverse(0.0) == 0.0
        np.testing.assert_allclose(tr.inverse(1.0), np.e - 1.0, rtol=1e-15)
        np.testing.assert_allclose(tr.forward(np.e - 1.0), 1.0, rtol=1e-15)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            GompertzTransform(0.0)
        with pytest.raises(ValueError):
            GompertzTransform(-1.0)


class TestInitialVector:
    def test_accepts_probability_vector(self):
        validate_initial_vector(np.array([0.25, 0.75]), 2)

    def test_rejects_bad_vectors(self):
        with pytest.raises(DataValidationError):
            validate_initial_vector(np.array([0.5, 0.6]), 2)
        with pytest.raises(DataValidationError):
            validate_initial_vector(np.array([-0.1, 1.1]), 2)
        with pytest.raises(DataValidationError):
            validate_initial_vector(np.array([0.5, 0.5]), 3)


class TestDensities:
    def test_ph_density_integrates_to_one(self):
        rng = np.random.default_rng(61)
        for _ in range(4):
            p = int(rng.integers(1, 6))
            sub = random_chain(rng, p)
            pi = random_pi(rng, p)
            total, _ = scipy.integrate.quad(
                lambda x: _ph_at(sub, pi, x, True), 0.0, np.inf, limit=200
            )
            np.testing.assert_allclose(total, 1.0, rtol=1e-8)

    def test_ph_density_is_minus_survival_derivative(self):
        rng = np.random.default_rng(67)
        sub = random_chain(rng, 4)
        pi = random_pi(rng, 4)
        x = np.linspace(0.05, 6.0, 40)
        h = 1e-6
        fd = (_ph(sub, pi, x - h, False) - _ph(sub, pi, x + h, False)) / (2 * h)
        np.testing.assert_allclose(fd, _ph(sub, pi, x, True), rtol=1e-6)

    def test_survival_boundary_and_monotonicity(self):
        rng = np.random.default_rng(71)
        sub = random_chain(rng, 3)
        pi = random_pi(rng, 3)
        assert _ph_at(sub, pi, 0.0, False) == pytest.approx(1.0, abs=1e-14)
        x = np.linspace(0.0, 20.0, 200)
        s = _ph(sub, pi, x, False)
        assert np.all(np.diff(s) <= 1e-14)
        assert s[-1] < 1e-3

    def test_iph_density_integrates_to_one(self):
        rng = np.random.default_rng(73)
        pi = random_pi(rng, 3)
        model = _iph_model(random_chain(rng, 3), GompertzTransform(3.0))
        total, _ = scipy.integrate.quad(
            lambda y: _iph_density(model, pi, y), 0.0, np.inf, limit=200
        )
        np.testing.assert_allclose(total, 1.0, rtol=1e-8)

    def test_iph_matches_ph_through_substitution(self):
        # S_Y(y) = S_Z(g^{-1}(y)) and f_Y(y) = f_Z(g^{-1}(y)) lambda(y)
        rng = np.random.default_rng(79)
        sub = random_chain(rng, 4)
        pi = random_pi(rng, 4)
        tr = GompertzTransform(40.0)
        model = _iph_model(sub, tr)
        y = np.linspace(0.01, 0.2, 25)
        np.testing.assert_allclose(
            marginal_survival(model, pi, 0, y),
            _ph(sub, pi, tr.inverse(y), False),
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            _iph_density(model, pi, y),
            _ph(sub, pi, tr.inverse(y), True) * np.exp(tr.beta * y),
            rtol=1e-12,
        )

    def test_scalar_and_array_evaluation_agree(self):
        rng = np.random.default_rng(83)
        sub = random_chain(rng, 3)
        pi = random_pi(rng, 3)
        x = np.array([0.1, 0.7, 2.0])
        batch = _ph(sub, pi, x, True)
        singles = [_ph_at(sub, pi, xi, True) for xi in x]
        np.testing.assert_allclose(batch, singles, rtol=1e-13)
        # the reference margins at 200, 250 and 4000 years, where the
        # operational time is 6e35 to 7e49 and then overflows
        y = np.array([2.0, 2.5, 40.0])
        for diag, superdiag, beta in ((DIAG_1, SUPER_1, BETA_1),
                                      (DIAG_2, SUPER_2, BETA_2)):
            ref = SubIntensity(chain_matrix(diag, superdiag))
            tr = GompertzTransform(beta)
            model = _iph_model(ref, tr)
            for fn in (lambda v: marginal_survival(model, couple_pi(1), 0, v),
                       lambda v: _iph_density(model, couple_pi(1), v)):
                batch = fn(y)
                singles = [fn(yi) for yi in y]
                assert all(isinstance(v, float) for v in singles)
                np.testing.assert_allclose(batch, singles, rtol=1e-13)
                np.testing.assert_array_equal(batch, 0.0)
            xs = tr.inverse(y[:2])
            for died in (False, True):
                batch = _ph(ref, couple_pi(1), xs, died)
                singles = [_ph_at(ref, couple_pi(1), xi, died) for xi in xs]
                np.testing.assert_allclose(batch, singles, rtol=1e-13)

    def test_rejects_negative_times(self):
        model = _iph_model(SubIntensity(np.array([[-1.0]])), GompertzTransform(1.0))
        with pytest.raises(ValueError):
            marginal_survival(model, np.array([1.0]), 0, -0.5)
        with pytest.raises(ValueError):
            _iph_density(model, np.array([1.0]), -0.5)


class TestExpFactors:
    """The factor kernel on the products of ``_exponentials``: no row's bits
    depend on the other x of the call, and an overflowed x gives exact
    zeros."""

    @staticmethod
    def _operational_times(rng, n=300):
        # operational times over 1e-3..1e4 on the reference chain: unsquared
        # rows and rows squared up to 17 times, with repeats
        x = 10.0 ** rng.uniform(-3.0, 4.0, size=n)
        x[::7] = x[1::7][: x[::7].size]
        return x

    @pytest.mark.parametrize("diag, superdiag", [(DIAG_1, SUPER_1), (DIAG_2, SUPER_2)])
    def test_row_subset_bit_equal_to_the_full_call(self, diag, superdiag):
        rng = np.random.default_rng(401)
        sub = SubIntensity(chain_matrix(diag, superdiag))
        x = self._operational_times(rng)
        died = rng.random(x.size) < 0.4
        exps = _exponentials(sub, x)
        assert 0 < np.count_nonzero(exps.scaling == 0) < exps.scaling.size
        full = _exp_factors(sub, exps, died, derivatives=True)
        for rows in (rng.permutation(x.size)[:40], np.arange(x.size)[::-1], [5], [0, 0, 3]):
            part = _exp_factors(sub, _exponentials(sub, x[rows]), died[rows],
                                derivatives=True)
            for got, want in zip(part, full):
                np.testing.assert_array_equal(got, want[rows])
        # the value's products are taken apart from the derivatives'
        np.testing.assert_array_equal(_exp_factors(sub, exps, died)[0], full[0])

    def test_overflowed_time_gives_exact_zero_rows(self):
        rng = np.random.default_rng(409)
        sub = SubIntensity(chain_matrix(DIAG_1, SUPER_1))
        x = self._operational_times(rng, n=40)
        x[[3, 17, 18]] = np.inf
        died = rng.random(x.size) < 0.5
        exps = _exponentials(sub, x)
        np.testing.assert_array_equal(exps.index[[3, 17, 18]], -1)
        assert exps.weights.shape[0] == np.unique(x[np.isfinite(x)]).size
        finite = np.isfinite(x)
        kept = _exp_factors(sub, _exponentials(sub, x[finite]), died[finite], True)
        for got, want in zip(_exp_factors(sub, exps, died, derivatives=True), kept):
            np.testing.assert_array_equal(got[~finite], 0.0)
            np.testing.assert_array_equal(got[finite], want)
        c = rng.uniform(0.0, 1.0, size=(x.size, sub.dim))
        np.testing.assert_array_equal(exps.left_sum(c, np.arange(x.size)),
                                      exps.left_sum(c[finite], finite))


class TestMoments:
    def test_mean_matches_survival_integral(self):
        rng = np.random.default_rng(89)
        sub = random_chain(rng, 4)
        pi = random_pi(rng, 4)
        closed = float(pi @ np.linalg.solve(-sub.matrix, np.ones(4)))
        quad, _ = scipy.integrate.quad(
            lambda x: _ph_at(sub, pi, x, False), 0.0, np.inf, limit=200
        )
        np.testing.assert_allclose(closed, quad, rtol=1e-9)


class TestSampler:
    def test_kolmogorov_smirnov_at_one_million(self):
        rng = np.random.default_rng(97)
        sub = random_chain(rng, 3)
        pi = random_pi(rng, 3)
        n = 1_000_000
        starts = rng.choice(3, size=n, p=pi)
        draws = np.sort(sample_absorption_times(sub, starts, rng))
        cdf = np.empty(n)
        for lo in range(0, n, 200_000):
            hi = min(lo + 200_000, n)
            cdf[lo:hi] = 1.0 - _ph(sub, pi, draws[lo:hi], False)
        i = np.arange(1, n + 1)
        d = max(np.max(cdf - (i - 1) / n), np.max(i / n - cdf))
        assert d < 0.002  # 1% critical value is ~0.00163

    def test_single_state_is_exponential(self):
        rng = np.random.default_rng(101)
        sub = SubIntensity(np.array([[-3.0]]))
        draws = sample_absorption_times(sub, np.zeros(200_000, dtype=int), rng)
        np.testing.assert_allclose(draws.mean(), 1.0 / 3.0, rtol=0.01)
        assert np.all(draws > 0.0)

    def test_deterministic_under_seed(self):
        sub = SubIntensity(np.array([[-2.0, 1.0], [0.0, -1.0]]))
        starts = np.zeros(50, dtype=int)
        a = sample_absorption_times(sub, starts, np.random.default_rng(5))
        b = sample_absorption_times(sub, starts, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_single_path(self):
        sub = SubIntensity(np.array([[-2.0, 1.0], [0.0, -1.0]]))
        t = sample_absorption_times(sub, np.array([0]), np.random.default_rng(9))
        assert t.shape == (1,) and t.dtype == np.float64 and t[0] > 0.0

    def test_rejects_bad_start_states(self):
        sub = SubIntensity(np.array([[-1.0]]))
        with pytest.raises(ValueError):
            sample_absorption_times(sub, np.array([1]), np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_absorption_times(sub, np.array([-1]), np.random.default_rng(0))


class TestRandomSubIntensity:
    def test_respects_structure(self):
        # nothing outside the mask and the diagonal, every rate on the mask
        rng = np.random.default_rng(103)
        for p in (1, 3, 6):
            for structure in ("coxian", "general"):
                mask = transition_mask(structure, p)
                sub = random_sub_intensity(mask, rng)
                assert sub.dim == p
                assert np.all(sub.matrix[~(mask | np.eye(p, dtype=bool))] == 0.0)
                assert np.all(sub.matrix[mask] > 0.0)

    def test_rates_within_bounds(self):
        rng = np.random.default_rng(107)
        sub = random_sub_intensity(transition_mask("general", 4), rng)
        off = sub.matrix[~np.eye(4, dtype=bool)]
        assert np.all(off >= 0.1) and np.all(off < 2.0)
        assert np.all(sub.exit_rates >= 0.1) and np.all(sub.exit_rates < 2.0)
