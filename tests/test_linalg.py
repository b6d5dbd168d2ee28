"""Matrix-kernel tests.

Expected values come from oracles that avoid the implementation paths under
test: extended-precision truncated series (mpmath) for the exponential,
composite-Simpson / adaptive quadrature of the integrand (built from scipy's
scalar expm, not the block construction) for the Van Loan integral, and
scipy's ``expm_frechet`` and the 2p x 2p Van Loan block for the batched
Fréchet derivative that the E-step reads that integral from. The exponential
of one matrix at many scalars agrees with a frozen copy of the earlier
per-matrix Padé kernel on the rows it does not square, and with mpmath on
those it does. The Fréchet kernel split into row blocks on a call's own
threads is bit-identical to the same kernel run in one block, and to a
frozen copy of the earlier kernel that took stacks of unrelated pairs.
"""

import dataclasses
import multiprocessing
import os
import sys
import threading

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from miph import SubIntensity, e_step, linalg, transition_mask
from miph.linalg import expm_batch, expm_frechet_batch
from miph.phasetype import random_sub_intensity

from conftest import (DIAG_1, DIAG_2, SUPER_1, SUPER_2, chain_matrix, frozen_expm_batch,
                      frozen_expm_frechet_batch, random_chain)

FIXED_T = np.array([[-2.0, 1.0], [0.0, -1.5]])

# 200-term series of exp(T * 0.5) at 50 decimal digits, frozen:
FIXED_EXPM_HALF = np.array([
    [0.3678794411714423216, 0.20897422313914477109],
    [0.0, 0.47236655274101470714],
])
# upper-right Van Loan block for C = ones, x = 0.5, same oracle:
FIXED_VANLOAN_UR = np.array([
    [0.23400872569256838137, 0.32215953742047304541],
    [0.20897422313914477109, 0.29060138283323251854],
])


def series_expm(a: np.ndarray, terms: int = 200) -> np.ndarray:
    """Truncated Taylor series in 50-digit arithmetic."""
    mp.mp.dps = 50
    m = mp.matrix(a.tolist())
    term = mp.eye(a.shape[0])
    acc = mp.eye(a.shape[0])
    for k in range(1, terms + 1):
        term = term * m / k
        acc = acc + term
    return np.array([[float(acc[i, j]) for j in range(a.shape[0])]
                     for i in range(a.shape[0])])


def mpmath_expm(t, xs):
    """exp(x t) for each x at 40 digits, rounded to float64."""
    mp.mp.dps = 40
    m = mp.matrix(t.tolist())
    return np.array([np.array(mp.expm(m * mp.mpf(x)).tolist(), dtype=float) for x in xs])


def norm_rel_err(got, ref):
    """Largest entry of |got - ref| per matrix over the largest of |ref|
    (0 where both are exactly 0)."""
    return (np.abs(got - ref).max(axis=(-2, -1))
            / np.maximum(np.abs(ref).max(axis=(-2, -1)), np.finfo(float).tiny))


def expm_stack(t, xs):
    """``expm_batch(t, xs)`` as the (n, p, p) stack of its exponentials: its
    products with the identity, which are the matrices bit for bit."""
    return expm_batch(t, xs).times(np.eye(np.shape(t)[0]))


def squarings(t, xs):
    """The scaling power ``expm_batch`` gives each x for the matrix t."""
    return linalg._scaling_power(np.abs(xs) * np.abs(t).sum(axis=0).max(), linalg._THETA18)


class TestExpm:
    """The exponential itself, through the kernel."""

    def test_fixed_value_against_frozen_series(self):
        (got,) = expm_stack(FIXED_T, [0.5])
        np.testing.assert_allclose(got, FIXED_EXPM_HALF, rtol=1e-13, atol=1e-15)

    def test_oracle_agrees_with_itself(self):
        # guards the frozen literals against transcription drift
        np.testing.assert_allclose(
            series_expm(FIXED_T * 0.5), FIXED_EXPM_HALF, rtol=1e-14, atol=1e-16
        )

    def test_random_matrices_against_series(self):
        rng = np.random.default_rng(7)
        stack = rng.uniform(-1.0, 1.0, size=(5, 3, 3))
        for k in range(stack.shape[0]):
            np.testing.assert_allclose(
                expm_stack(stack[k], [1.0])[0], series_expm(stack[k]), rtol=1e-12, atol=1e-14
            )

    def test_semigroup_property(self):
        # x and y reach several squarings: exp(x T) exp(y T) = exp((x + y) T)
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = int(rng.integers(1, 7))
            t = random_chain(rng, p).matrix
            x, y = rng.uniform(0.0, 5.0, size=2)
            e_x, e_y, e_xy = expm_stack(t, [x, y, x + y])
            np.testing.assert_allclose(e_x @ e_y, e_xy, atol=1e-12)

    def test_substochastic_for_sub_intensities(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            p = int(rng.integers(1, 7))
            t = random_chain(rng, p).matrix
            (e,) = expm_stack(t, [rng.uniform(0.0, 50.0)])
            assert e.min() >= -1e-14
            assert e.sum(axis=1).max() <= 1.0 + 1e-12

    def test_scale_zero_is_identity(self):
        np.testing.assert_array_equal(expm_stack(FIXED_T, [0.0]), np.eye(2)[None])

    def test_rejects_bad_input(self):
        # t must be one square finite matrix, and xs a 1-d finite array
        for t in (np.ones((2, 3)), np.ones(4), np.ones((1, 2, 2)),
                  np.array([[np.nan, 0.0], [0.0, 1.0]]),
                  np.array([[np.inf, 0.0], [0.0, -1.0]])):
            with pytest.raises(ValueError):
                expm_stack(t, [1.0])
        for xs in (0.5, [[0.5, 1.0]], [0.5, np.nan], [np.inf], [-np.inf, 1.0]):
            with pytest.raises(ValueError):
                expm_stack(FIXED_T, xs)


class TestExpmBatch:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(17)
        stack = rng.uniform(-2.0, 2.0, size=(40, 4, 4))
        for k in range(stack.shape[0]):
            np.testing.assert_allclose(
                expm_stack(stack[k], [1.0])[0], scipy.linalg.expm(stack[k]),
                rtol=1e-9, atol=1e-12
            )

    def test_huge_scales_stay_substochastic(self):
        rng = np.random.default_rng(19)
        t = random_chain(rng, 4).matrix
        got = expm_stack(t, [0.0, 1.0, 1e3, 1e6, 3e4])
        np.testing.assert_allclose(got[0], np.eye(4), atol=1e-15)
        assert got.min() >= -1e-14
        assert got.sum(axis=2).max() <= 1.0 + 1e-12

    def test_zero_matrix_is_exact_identity(self):
        # x = 0 at any t, and any x at t = 0, give the exact identity
        rng = np.random.default_rng(29)
        t = random_chain(rng, 10).matrix
        got = expm_stack(t, [0.0, 2.5, -0.0, 40.0])
        for k in (0, 2):
            np.testing.assert_array_equal(got[k], np.eye(10))
        np.testing.assert_allclose(got[1], scipy.linalg.expm(2.5 * t), rtol=1e-12, atol=1e-15)
        for p in (1, 3, 10):
            np.testing.assert_array_equal(expm_stack(np.zeros((p, p)), [0.0, 1.0, -3.0, 1e300]),
                                          np.broadcast_to(np.eye(p), (4, p, p)))

    def test_batch_shapes_roundtrip(self):
        # one (p, p) matrix at n scalars gives (n, p, p); no scalars give an
        # empty stack, and p = 0 gives n empty matrices
        rng = np.random.default_rng(23)
        t = rng.uniform(-1.0, 1.0, size=(5, 5))
        got = expm_stack(t, [0.3, 1.0, -2.0])
        assert got.shape == (3, 5, 5)
        np.testing.assert_allclose(got[1], scipy.linalg.expm(t), rtol=1e-12, atol=1e-13)
        for xs in ([], np.empty(0)):
            assert expm_stack(t, xs).shape == (0, 5, 5)
        assert expm_stack(np.zeros((0, 0)), [1.0, 2.0]).shape == (2, 0, 0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            expm_stack(np.ones((2, 3)), [1.0, 2.0])
        with pytest.raises(ValueError):
            expm_stack(np.full((2, 2), np.inf), [1.0])


class TestTaylorKernel:
    """The shared-powers kernel at its seams: the edge theta_18 where a row
    starts to be squared, and the rows that are not squared at all."""

    @pytest.mark.parametrize("p", [1, 3, 6, 10])
    def test_against_mpmath_on_both_sides_of_theta(self, p):
        rng = np.random.default_rng(131 + p)
        for t in (random_chain(rng, p).matrix,
                  random_sub_intensity(transition_mask("general", p), rng).matrix,
                  rng.uniform(-1.0, 1.0, size=(p, p))):
            edge = linalg._THETA18 / np.abs(t).sum(axis=0).max()
            xs = np.array([1.0 - 1e-12, 1.0 + 1e-12, -(1.0 - 1e-12), -(1.0 + 1e-12)]) * edge
            np.testing.assert_array_equal(squarings(t, xs), [0, 1, 0, 1])
            assert norm_rel_err(expm_stack(t, xs), mpmath_expm(t, xs)).max() <= 2e-15

    def test_empty_xs(self):
        rng = np.random.default_rng(137)
        for p in (1, 4):
            got = expm_stack(random_chain(rng, p).matrix, [])
            assert got.shape == (0, p, p) and got.dtype == float


class TestExpmBatchStiffRegime:
    """Row sums of exp(T x) for the published sub-intensities (rates from
    1e-10 to 10) against mpmath at 40 digits, out to the operational times
    that the conditional-expectation nodes reach (about 2e8 and beyond).

    Relative error where mpmath's value is a normal float64, absolute error
    where it underflows. The bounds hold the measured errors with some room:
    at most 8.1e-14 up to x = 1e2, 7.6e-12 at 1e4, 1.1e-9 at 1e6 and 5.7e-8
    at 2e8, the last from the growth of rounding error over about 31
    squarings.
    """

    BOUNDS = {1e-5: 1e-13, 1e-2: 1e-13, 1.0: 1e-13, 1e2: 1e-13,
              1e4: 2e-11, 1e6: 2e-9, 2e8: 1e-7}

    @pytest.mark.parametrize("diag, superdiag", [(DIAG_1, SUPER_1),
                                                 (DIAG_2, SUPER_2)])
    def test_row_sums_against_mpmath(self, diag, superdiag):
        t = chain_matrix(diag, superdiag)
        xs = np.array(sorted(self.BOUNDS))
        got = expm_stack(t, xs).sum(axis=-1)
        mp.mp.dps = 40
        tiny = np.finfo(float).tiny
        for x, row in zip(xs, got):
            exact = mp.expm(mp.matrix(t.tolist()) * mp.mpf(x))
            for i, value in enumerate(row):
                ref = mp.fsum(exact[i, j] for j in range(t.shape[0]))
                err = abs(mp.mpf(value) - ref)
                if ref >= tiny:
                    assert err / ref <= self.BOUNDS[x], (x, i, float(err / ref))
                else:
                    assert err <= tiny, (x, i, float(err))

    @pytest.mark.parametrize("diag, superdiag", [(DIAG_1, SUPER_1),
                                                 (DIAG_2, SUPER_2)])
    def test_factor_rows_against_mpmath(self, diag, superdiag):
        """The survival and density rows exp(x T) [1, t] that the likelihood
        takes from ``expm_batch``'s products, by the same rule and bounds."""
        t = chain_matrix(diag, superdiag)
        v = factor_columns(t)[:, :2]
        xs = np.array(sorted(self.BOUNDS))
        got = expm_batch(t, xs).times(v)
        mp.mp.dps = 40
        tiny = np.finfo(float).tiny
        for x, rows in zip(xs, got):
            exact = mp.expm(mp.matrix(t.tolist()) * mp.mpf(x)) * mp.matrix(v.tolist())
            for (i, k), value in np.ndenumerate(rows):
                ref = exact[i, k]
                err = abs(mp.mpf(value) - ref)
                if ref >= tiny:
                    assert err / ref <= self.BOUNDS[x], (x, i, k, float(err / ref))
                else:
                    assert err <= tiny, (x, i, k, float(err))


def simpson_van_loan(t, c, x, panels=2000):
    """Composite-Simpson quadrature of exp(t(x-s)) c exp(t s) on [0, x]."""
    s = np.linspace(0.0, x, panels + 1)
    vals = np.stack([
        scipy.linalg.expm(t * (x - si)) @ c @ scipy.linalg.expm(t * si)
        for si in s
    ])
    return scipy.integrate.simpson(vals, x=s, axis=0)


def van_loan(t, c, x):
    """exp(t x) and integral_0^x exp(t (x - s)) c exp(t s) ds from one
    exponential of the block [[t, c], [0, t]] x, as the E-step once built
    it, through the frozen per-matrix Padé kernel."""
    p = t.shape[0]
    block = np.zeros((2 * p, 2 * p))
    block[:p, :p] = t
    block[:p, p:] = c
    block[p:, p:] = t
    full = frozen_expm_batch(block * x)
    return full[:p, :p], full[:p, p:]


class TestVanLoan:
    def test_fixed_value_against_frozen_series(self):
        left, upper_right = van_loan(FIXED_T, np.ones((2, 2)), 0.5)
        np.testing.assert_allclose(upper_right, FIXED_VANLOAN_UR,
                                   rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(left, FIXED_EXPM_HALF, rtol=1e-13, atol=1e-15)

    def test_fixed_value_against_simpson(self):
        _, got = van_loan(FIXED_T, np.ones((2, 2)), 0.5)
        np.testing.assert_allclose(
            got, simpson_van_loan(FIXED_T, np.ones((2, 2)), 0.5), rtol=1e-10
        )

    def test_random_cases_against_adaptive_quadrature(self):
        rng = np.random.default_rng(29)
        for _ in range(6):
            p = int(rng.integers(1, 6))
            t = random_chain(rng, p).matrix
            c = rng.uniform(0.0, 1.0, size=(p, p))
            x = float(rng.uniform(0.1, 3.0))

            def integrand(s):
                return (scipy.linalg.expm(t * (x - s)) @ c
                        @ scipy.linalg.expm(t * s)).ravel()

            oracle, _ = scipy.integrate.quad_vec(
                integrand, 0.0, x, epsabs=1e-13, epsrel=1e-11
            )
            _, got = van_loan(t, c, x)
            np.testing.assert_allclose(got.ravel(), oracle, rtol=1e-8, atol=1e-12)

    def test_zero_length_integral(self):
        left, upper_right = van_loan(FIXED_T, np.ones((2, 2)), 0.0)
        np.testing.assert_array_equal(upper_right, np.zeros((2, 2)))
        np.testing.assert_array_equal(left, np.eye(2))

    def test_rejects_mismatched_shapes(self):
        # the E-step, which builds the integrals' inputs, rejects margins of
        # different sizes and operational times that are negative or not finite
        sub = SubIntensity(FIXED_T)
        x, delta, pi_rows = np.full((1, 2), 0.5), np.ones((1, 2)), np.full((1, 2), 0.5)
        with pytest.raises(ValueError):
            e_step(x, delta, pi_rows, [sub, SubIntensity(-np.eye(3))])
        for bad in (-0.5, np.inf):
            with pytest.raises(ValueError):
                e_step(np.array([[0.5, bad]]), delta, pi_rows, [sub, sub])


def scaling_power_xs(t, rng):
    """x = 0 and one x per scaling power s = 0..16 that ``expm_batch`` gives
    with t (seven of them with s = 0), shuffled so that rows of every power
    interleave."""
    edge = linalg._THETA18 / np.abs(t).sum(axis=0).max()
    xs = np.append(edge * 2.0 ** (np.arange(-6, 17) - 0.5), 0.0)
    return xs[rng.permutation(xs.size)]


def assert_agrees_with_the_frozen_copy_and_mpmath(t, xs):
    """Rows of exp(x t) that are not squared are within 1e-14 normwise of
    the frozen Padé kernel; squared rows, where the two kernels' squarings
    round apart, are within 1e-15 * 2**s of mpmath, the rounding growth of s
    squarings."""
    got = expm_stack(t, xs)
    s = squarings(t, xs)
    plain = s == 0
    assert plain.any() and not plain.all()
    assert norm_rel_err(got[plain], frozen_expm_batch(t * xs[plain, None, None])).max() <= 1e-14
    err = norm_rel_err(got[~plain], mpmath_expm(t, xs[~plain]))
    assert np.all(err <= 1e-15 * 2.0 ** s[~plain]), (s[~plain], err)


class TestExpmBatchUnchanged:
    """The shared-powers Taylor kernel against the per-matrix Padé kernel it
    replaced, kept as ``frozen_expm_batch``, and mpmath where it squares
    (the test names are kept from when the two kernels were one)."""

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 10])
    def test_bit_identical_to_the_frozen_copy(self, p):
        # bidiagonal and general sub-intensities, at every scaling power
        rng = np.random.default_rng(59 + p)
        for t in (random_chain(rng, p).matrix,
                  random_sub_intensity(transition_mask("general", p), rng).matrix):
            assert_agrees_with_the_frozen_copy_and_mpmath(t, scaling_power_xs(t, rng))

    def test_bit_identical_on_general_matrices(self):
        # a matrix with eigenvalues of both signs, at scalars of both signs
        rng = np.random.default_rng(61)
        t = rng.uniform(-1.0, 1.0, size=(4, 4))
        xs = rng.choice([-1.0, 1.0], size=40) * 2.0 ** rng.uniform(-4.0, 6.0, size=40)
        assert_agrees_with_the_frozen_copy_and_mpmath(t, xs)


def factor_columns(t):
    """The columns [1, t, T t, T^2 t] that the likelihood multiplies
    exp(x T) by, with t = -T 1 the exit rates."""
    exits = -t.sum(axis=1)
    return np.column_stack([np.ones(len(t)), exits, t @ exits, t @ (t @ exits)])


def column_rel_err(got, ref):
    """:func:`norm_rel_err` of each column of the (n, p, q) products,
    the largest per row."""
    return np.max([norm_rel_err(got[..., k:k + 1], ref[..., k:k + 1])
                   for k in range(got.shape[-1])], axis=0)


class TestTaylorProducts:
    """What ``expm_batch`` returns instead of matrices: the products
    exp(x t) V of rows it does not square, formed from its weights and the
    shared T^k V, and the sums c' exp(x t) of the E-step's absorption
    counts."""

    @pytest.mark.parametrize("p", [1, 3, 10])
    def test_unsquared_rows_against_the_frozen_copy(self, p):
        rng = np.random.default_rng(139 + p)
        for t in (random_chain(rng, p).matrix,
                  random_sub_intensity(transition_mask("general", p), rng).matrix):
            xs = scaling_power_xs(t, rng)
            plain = squarings(t, xs) == 0
            v = factor_columns(t)
            got = expm_batch(t, xs).times(v)[plain]
            want = frozen_expm_batch(t * xs[plain, None, None]) @ v
            assert column_rel_err(got, want).max() <= 1e-14

    @pytest.mark.parametrize("p", [1, 3, 6, 10])
    def test_products_against_mpmath_on_both_sides_of_theta(self, p):
        rng = np.random.default_rng(149 + p)
        mp.mp.dps = 40
        for t in (random_chain(rng, p).matrix,
                  random_sub_intensity(transition_mask("general", p), rng).matrix,
                  rng.uniform(-1.0, 1.0, size=(p, p))):
            edge = linalg._THETA18 / np.abs(t).sum(axis=0).max()
            xs = np.array([1.0 - 1e-12, 1.0 + 1e-12, -(1.0 - 1e-12), -(1.0 + 1e-12)]) * edge
            np.testing.assert_array_equal(squarings(t, xs), [0, 1, 0, 1])
            v = factor_columns(t)
            exact = [mp.expm(mp.matrix(t.tolist()) * mp.mpf(x)) * mp.matrix(v.tolist())
                     for x in xs]
            want = np.array([np.array(e.tolist(), dtype=float) for e in exact])
            assert column_rel_err(expm_batch(t, xs).times(v), want).max() <= 2e-15

    @pytest.mark.parametrize("p", [1, 3, 10])
    def test_left_sum_against_full_matrices(self, p):
        # squared and unsquared rows, weights over six decades, entries
        # left out, and entries reading no row (index -1), which add nothing
        rng = np.random.default_rng(157 + p)
        for t in (random_chain(rng, p).matrix,
                  random_sub_intensity(transition_mask("general", p), rng).matrix):
            xs = scaling_power_xs(t, rng)
            exps = expm_batch(t, xs)
            full = exps.times(np.eye(p))
            index = rng.integers(-1, xs.size, size=60)
            entries = rng.random(60) < 0.7
            c = rng.uniform(0.0, 1.0, size=(60, p)) * 10.0 ** rng.uniform(-3.0, 3.0, (60, 1))
            got = dataclasses.replace(exps, index=index).left_sum(c[entries], entries)
            use = entries & (index >= 0)
            want = np.einsum("mj,mjk->k", c[use], full[index[use]])
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
            np.testing.assert_array_equal(exps.left_sum(c[:0], np.zeros(xs.size, bool)),
                                          np.zeros(p))


def random_sub_intensities(rng, n, p):
    """n sub-intensities of dimension p, alternately feed-forward and general."""
    return np.stack([(random_chain(rng, p) if k % 2 else
                      random_sub_intensity(transition_mask("general", p), rng)).matrix
                     for k in range(n)])


def rank_one(t, xs, v, c):
    """The stacks ``xs[i] t`` and ``xs[i] v[i] c[i]'`` that the Fréchet
    kernel builds block by block, with its elementwise operations in its
    order."""
    x_i = xs[:, None, None]
    return t * x_i, v[:, :, None] * c[:, None, :] * x_i


def frechet_scaling_xs(t, v, c, powers, rng):
    """One x per row of the factors, giving that row the scaling power
    ``powers[k]`` in the Fréchet kernel (the 1-norm of the block
    [[x t, x v c'], [0, x t]] is linear in x >= 0), or 0 where it is -1;
    the rows come back shuffled, so that powers interleave."""
    norms = (np.abs(t).sum(axis=0)[None, :] + np.abs(v).sum(axis=1)[:, None]
             * np.abs(c)).max(axis=1)
    xs = np.where(powers < 0, 0.0, linalg._THETA13 * 2.0 ** (powers - 0.5) / norms)
    order = rng.permutation(len(xs))
    return xs[order], v[order], c[order]


class TestExpmFrechetBatch:
    @pytest.mark.parametrize("p", range(1, 7))
    def test_against_scipy(self, p):
        rng = np.random.default_rng(67 + p)
        n = 12
        for t in random_sub_intensities(rng, 2, p):
            xs = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
            v = rng.uniform(0.0, 1.0, size=(n, p))
            c = rng.uniform(0.0, 1.0, size=(n, p))
            frechet = expm_frechet_batch(t, xs, v, c)
            for k in range(n):
                _, ref_frechet = scipy.linalg.expm_frechet(t * xs[k], np.outer(v[k], c[k]) * xs[k])
                assert norm_rel_err(frechet[k], ref_frechet) <= 1e-12, (k, xs[k])

    def test_against_the_van_loan_block(self):
        # E-step inputs on the fits' Coxian structures: v c' x with posterior
        # weights c up to 1e80, where the block's scaling comes from c; both
        # forms scale alike. (On dense general matrices the two round apart
        # by up to 1e-7 in rows where both miss the integral by 1e-4; scipy
        # checks those above.)
        rng = np.random.default_rng(71)
        for p in (1, 2, 3, 5, 10):
            for k, t in enumerate((random_chain(rng, p).matrix,
                                   random_sub_intensity(transition_mask("coxian", p), rng).matrix)):
                n = 16
                xs = rng.uniform(0.05, 30.0, size=n)
                v = rng.uniform(0.0, 2.0, size=(n, p))
                c = rng.uniform(0.1, 1.0, size=(n, p)) * 10.0 ** np.linspace(0, 80, n)[:, None]
                frechet = expm_frechet_batch(t, xs, v, c)
                for m in range(n):
                    _, ref_frechet = van_loan(t, np.outer(v[m], c[m]), xs[m])
                    assert norm_rel_err(frechet[m], ref_frechet) <= 1e-13, (p, k, m)

    def test_zero_stack_is_exact(self):
        rng = np.random.default_rng(72)
        t, xs, v, c = random_chain(rng, 4).matrix, rng.uniform(0.1, 2.0, 3), np.ones((3, 4)), np.ones((3, 4))
        for args in ((np.zeros((4, 4)), xs, np.zeros((3, 4)), c), (t, np.zeros(3), v, c)):
            np.testing.assert_array_equal(expm_frechet_batch(*args), np.zeros((3, 4, 4)))

    def test_empty_stack(self):
        for n, p in ((0, 3), (2, 0)):
            got = expm_frechet_batch(np.zeros((p, p)), np.zeros(n), np.zeros((n, p)), np.zeros((n, p)))
            assert got.shape == (n, p, p)

    def test_rejects_bad_input(self):
        t, xs, v = np.zeros((3, 3)), np.zeros(2), np.zeros((2, 3))
        for args in ((np.zeros((3, 2)), xs, v, v), (np.zeros(3), xs, v, v),
                     (t, np.zeros((2, 1)), v, v), (t, xs, np.zeros((2, 2)), v),
                     (t, xs, v, np.zeros((3, 3))), (t, np.zeros(3), v, v)):
            with pytest.raises(ValueError):
                expm_frechet_batch(*args)
        for bad in (np.nan, np.inf):
            for k in range(4):
                args = [t.copy(), xs.copy(), v.copy(), v.copy()]
                args[k].flat[1] = bad
                with pytest.raises(ValueError, match="not finite"):
                    expm_frechet_batch(*args)

    def test_overflowing_direction_raises(self):
        # finite factors whose product x v c' overflows give a ValueError from
        # the block that builds it, not a RuntimeWarning and a wrong result
        t = random_chain(np.random.default_rng(74), 3).matrix
        xs = np.array([1.0, 2.0, 0.5])
        v, c = np.ones((3, 3)), np.ones((3, 3))
        c[1] = 1e200
        v[1, 2] = 1e200
        with pytest.raises(ValueError, match="not finite"):
            expm_frechet_batch(t, xs, v, c)
        with pytest.raises(ValueError, match="not finite"):
            expm_frechet_batch(t * 1e300, xs * 1e10, np.ones((3, 3)), np.ones((3, 3)))


class TestFrozenKernel:
    """The kernel that builds its pairs block by block equals the frozen
    two-stack kernel, run as one block on the same pairs, bit for bit: on
    Coxian, general and the stiff reference chains, at every scaling power
    from 0 to 16, with v the exit rates and v = 1, split into blocks and
    whole, on one worker and on several."""

    @staticmethod
    def assert_bit_identical(monkeypatch, t, xs, v, c):
        want = frozen_expm_frechet_batch(*rank_one(t, xs, v, c))
        p = t.shape[0]
        for rows, workers in ((10 ** 12, 1), (3, 1), (3, 3), (1, 4)):
            monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", rows * p * p)
            monkeypatch.setattr(linalg, "_worker_count", lambda workers=workers: workers)
            np.testing.assert_array_equal(expm_frechet_batch(t, xs, v, c), want)

    @pytest.mark.parametrize("structure", ["coxian", "general"])
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 10])
    def test_every_scaling_power(self, monkeypatch, structure, p):
        rng = np.random.default_rng(131 + p)
        t = random_sub_intensity(transition_mask(structure, p), rng).matrix
        powers = np.repeat(np.arange(-1, 17), 2)
        c = rng.uniform(0.1, 1.0, size=(powers.size, p)) * 10.0 ** rng.uniform(
            0.0, 12.0, size=(powers.size, 1))
        for v in (np.ones_like(c), np.tile(-t.sum(axis=1), (powers.size, 1))):
            xs, v_rows, c_rows = frechet_scaling_xs(t, v, c, powers, rng)
            self.assert_bit_identical(monkeypatch, t, xs, v_rows, c_rows)

    @pytest.mark.parametrize("diag, superdiag", [(DIAG_1, SUPER_1),
                                                 (DIAG_2, SUPER_2)])
    def test_stiff_reference_chains(self, monkeypatch, diag, superdiag):
        t = chain_matrix(diag, superdiag)
        rng = np.random.default_rng(137)
        xs = np.geomspace(1e-5, 2e8, 30)
        c = rng.uniform(0.1, 1.0, size=(30, 10)) * 10.0 ** np.linspace(0, 40, 30)[:, None]
        for v in (np.ones_like(c), np.tile(-t.sum(axis=1), (30, 1))):
            self.assert_bit_identical(monkeypatch, t, xs, v, c)


@pytest.fixture
def split_run(monkeypatch):
    """``split_run(t, xs, v, c, rows=r)`` returns ``expm_frechet_batch(t, xs,
    v, c)`` run in row blocks of r rows on the call's pool, and run in one
    block inline."""
    threads = []

    def spy(*args, kernel=linalg._expm_frechet_block):
        threads.append(threading.current_thread().name)
        return kernel(*args)

    monkeypatch.setattr(linalg, "_expm_frechet_block", spy)

    def run(t, xs, v, c, rows):
        n, p = v.shape
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 10 ** 12)
        threads.clear()
        whole = expm_frechet_batch(t, xs, v, c)
        assert threads == [threading.current_thread().name]
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", rows * p * p)
        threads.clear()
        split = expm_frechet_batch(t, xs, v, c)
        assert len(threads) == -(-n // rows) > 1
        assert all(name.startswith("miph-linalg") for name in threads)
        return split, whole

    return run


def assert_blocks_change_no_bit(split_run, t, xs, v, c, rows):
    split, whole = split_run(t, xs, v, c, rows=rows)
    np.testing.assert_array_equal(split, whole)


class TestRowBlocks:
    """The Fréchet kernel is row-wise, so cutting its rows into blocks that
    run on the call's pool changes no bit: the split result is array_equal
    to the result of one block."""

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_random_stacks(self, split_run, rows):
        rng = np.random.default_rng(79)
        t = rng.uniform(-1.0, 1.0, size=(4, 4))
        xs = 2.0 ** rng.uniform(-4.0, 6.0, size=40)
        v, c = rng.uniform(-1.0, 1.0, size=(2, 40, 4))
        assert_blocks_change_no_bit(split_run, t, xs, v, c, rows)

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 10])
    def test_coxian_stacks(self, split_run, p):
        # E-step inputs: T x and v c' x with weights c up to 1e40
        rng = np.random.default_rng(83 + p)
        n = 24
        t = random_sub_intensity(transition_mask("coxian", p), rng).matrix
        xs = 10.0 ** rng.uniform(-3.0, 4.0, size=n)
        v = rng.uniform(0.0, 2.0, size=(n, p))
        c = rng.uniform(0.1, 1.0, size=(n, p)) * 10.0 ** np.linspace(0, 40, n)[:, None]
        assert_blocks_change_no_bit(split_run, t, xs, v, c, rows=5)

    @pytest.mark.parametrize("diag, superdiag", [(DIAG_1, SUPER_1),
                                                 (DIAG_2, SUPER_2)])
    def test_stiff_reference_chains(self, split_run, diag, superdiag):
        t = chain_matrix(diag, superdiag)
        xs = np.geomspace(1e-5, 2e8, 30)
        ones = np.ones((len(xs), t.shape[0]))
        assert_blocks_change_no_bit(split_run, t, xs, ones, ones, rows=4)

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 10])
    def test_every_scaling_power(self, split_run, p):
        # scaling powers 0..30 and a zero x, interleaved
        rng = np.random.default_rng(89 + p)
        t = random_sub_intensity(transition_mask("general", p), rng).matrix
        v, c = rng.uniform(0.0, 1.0, size=(2, 32, p))
        xs, v, c = frechet_scaling_xs(t, v, c, np.arange(-1, 31), rng)
        assert_blocks_change_no_bit(split_run, t, xs, v, c, rows=3)


def linalg_threads():
    """The live threads of the kernels' pools."""
    return [t for t in threading.enumerate() if t.name.startswith("miph-linalg")]


@pytest.fixture
def built_pools(monkeypatch):
    """The list of every executor that `linalg` builds during the test."""
    built = []

    class CountedPool(linalg.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(linalg, "ThreadPoolExecutor", CountedPool)
    return built


class TestSharedPool:
    """The pool that one Fréchet call's row blocks share: opened for rows of
    more than one block and joined before the call returns, so no thread of
    it outlives the call."""

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        rng = np.random.default_rng(101)
        t, ones = random_chain(rng, 3).matrix, np.ones((40, 3))
        xs = rng.uniform(0.1, 5.0, size=40)
        xs[13] = 99.0  # marks the fourth block of four rows
        raised_in = []

        def failing(*args, kernel=linalg._expm_frechet_block):
            if np.any(args[1] == 99.0):
                raised_in.append(threading.current_thread().name)
                raise RuntimeError("block kernel failed")
            return kernel(*args)

        monkeypatch.setattr(linalg, "_expm_frechet_block", failing)
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 4 * 3 * 3)
        with pytest.raises(RuntimeError, match="block kernel failed"):
            expm_frechet_batch(t, xs, ones, ones)
        assert len(raised_in) == 1
        assert raised_in[0].startswith("miph-linalg")
        assert linalg_threads() == []

    def test_never_more_workers_than_the_cap(self, monkeypatch, built_pools):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)),
                            raising=False)
        assert linalg._worker_count() == linalg._MAX_WORKERS
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 3 * 3)  # one row a block
        threads = set()

        def spy(*args, kernel=linalg._expm_frechet_block):
            threads.add(threading.current_thread().name)
            return kernel(*args)

        monkeypatch.setattr(linalg, "_expm_frechet_block", spy)
        rng = np.random.default_rng(103)
        ones = np.ones((200, 3))
        expm_frechet_batch(random_chain(rng, 3).matrix, rng.uniform(0.1, 5.0, 200), ones, ones)
        assert [pool._max_workers for pool in built_pools] == [linalg._MAX_WORKERS]
        assert 1 <= len(threads) <= linalg._MAX_WORKERS
        assert linalg_threads() == []
        # without an affinity call, the CPU count stands in, under the same cap
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for cpus, workers in ((64, linalg._MAX_WORKERS), (2, 2), (None, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            assert linalg._worker_count() == workers

    def test_concurrent_callers_match_one_block(self, monkeypatch, built_pools):
        # more callers than cores, each opening a pool of its own and writing
        # blocks of its own output, with thread switches forced often
        rng = np.random.default_rng(109)
        calls = [(t, rng.uniform(0.1, 50.0, size=30), *rng.uniform(0.0, 1.0, size=(2, 30, 3)))
                 for t in random_sub_intensities(rng, 6, 3)]
        expected = [expm_frechet_batch(*args) for args in calls]  # one block each
        assert built_pools == []
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 2 * 3 * 3)
        ran_on = set()

        def spy(*args, kernel=linalg._expm_frechet_block):
            ran_on.add(threading.current_thread())
            return kernel(*args)

        monkeypatch.setattr(linalg, "_expm_frechet_block", spy)
        results = [None] * len(calls)
        start = threading.Barrier(len(calls))

        def call(k):
            start.wait()
            results[k] = expm_frechet_batch(*calls[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(k,)) for k in range(len(calls))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert len(built_pools) == len(calls)
        assert ran_on and ran_on <= {t for pool in built_pools for t in pool._threads}
        assert linalg_threads() == []
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork on this platform")
    def test_a_forked_child_builds_its_own_pool(self, monkeypatch):
        # a split call leaves no pool thread behind, so a forked child
        # inherits none and opens its own pool for its split rows
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 3 * 3)
        rng = np.random.default_rng(113)
        ones = np.ones((40, 3))
        args = (random_chain(rng, 3).matrix, rng.uniform(0.1, 5.0, 40), ones, ones)
        expected = expm_frechet_batch(*args)
        assert linalg_threads() == []
        with multiprocessing.get_context("fork").Pool(1) as children:
            got = children.apply_async(expm_frechet_batch, args).get(timeout=60)
        np.testing.assert_array_equal(got, expected)

    def test_stacks_of_one_block_never_build_the_pool(self, monkeypatch):
        # rows of one block run inline and open no pool; the exponential,
        # one GEMM, opens none at any size
        class RefusingPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a pool was built")

        monkeypatch.setattr(linalg, "ThreadPoolExecutor", RefusingPool)
        rng = np.random.default_rng(107)
        rows = linalg._BLOCK_ENTRIES // 100
        # empty calls, one full block at p = 10, and the desk-scale fit's
        # 2000 rows at p = 3
        for n, p in ((0, 3), (2, 0), (rows, 10), (2000, 3)):
            t = rng.uniform(-1.0, 1.0, size=(p, p))
            v = rng.uniform(-1.0, 1.0, size=(n, p))
            assert expm_frechet_batch(t, rng.uniform(0.0, 2.0, n), v, v).shape == (n, p, p)
        t = random_chain(rng, 10).matrix
        assert expm_stack(t, rng.uniform(0.0, 50.0, size=4 * rows)).shape == (4 * rows, 10, 10)
