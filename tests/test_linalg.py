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
threads is bit-identical to the same kernel run in one block.
"""

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
                      random_chain)

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


def squarings(t, xs):
    """The scaling power ``expm_batch`` gives each x for the matrix t."""
    return linalg._scaling_power(np.abs(xs) * np.abs(t).sum(axis=0).max(), linalg._THETA18)


class TestExpm:
    """The exponential itself, through the kernel."""

    def test_fixed_value_against_frozen_series(self):
        (got,) = expm_batch(FIXED_T, [0.5])
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
                expm_batch(stack[k], [1.0])[0], series_expm(stack[k]), rtol=1e-12, atol=1e-14
            )

    def test_semigroup_property(self):
        # x and y reach several squarings: exp(x T) exp(y T) = exp((x + y) T)
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = int(rng.integers(1, 7))
            t = random_chain(rng, p).matrix
            x, y = rng.uniform(0.0, 5.0, size=2)
            e_x, e_y, e_xy = expm_batch(t, [x, y, x + y])
            np.testing.assert_allclose(e_x @ e_y, e_xy, atol=1e-12)

    def test_substochastic_for_sub_intensities(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            p = int(rng.integers(1, 7))
            t = random_chain(rng, p).matrix
            (e,) = expm_batch(t, [rng.uniform(0.0, 50.0)])
            assert e.min() >= -1e-14
            assert e.sum(axis=1).max() <= 1.0 + 1e-12

    def test_scale_zero_is_identity(self):
        np.testing.assert_array_equal(expm_batch(FIXED_T, [0.0]), np.eye(2)[None])

    def test_rejects_bad_input(self):
        # t must be one square finite matrix, and xs a 1-d finite array
        for t in (np.ones((2, 3)), np.ones(4), np.ones((1, 2, 2)),
                  np.array([[np.nan, 0.0], [0.0, 1.0]]),
                  np.array([[np.inf, 0.0], [0.0, -1.0]])):
            with pytest.raises(ValueError):
                expm_batch(t, [1.0])
        for xs in (0.5, [[0.5, 1.0]], [0.5, np.nan], [np.inf], [-np.inf, 1.0]):
            with pytest.raises(ValueError):
                expm_batch(FIXED_T, xs)


class TestExpmBatch:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(17)
        stack = rng.uniform(-2.0, 2.0, size=(40, 4, 4))
        for k in range(stack.shape[0]):
            np.testing.assert_allclose(
                expm_batch(stack[k], [1.0])[0], scipy.linalg.expm(stack[k]),
                rtol=1e-9, atol=1e-12
            )

    def test_huge_scales_stay_substochastic(self):
        rng = np.random.default_rng(19)
        t = random_chain(rng, 4).matrix
        got = expm_batch(t, [0.0, 1.0, 1e3, 1e6, 3e4])
        np.testing.assert_allclose(got[0], np.eye(4), atol=1e-15)
        assert got.min() >= -1e-14
        assert got.sum(axis=2).max() <= 1.0 + 1e-12

    def test_zero_matrix_is_exact_identity(self):
        # x = 0 at any t, and any x at t = 0, give the exact identity
        rng = np.random.default_rng(29)
        t = random_chain(rng, 10).matrix
        got = expm_batch(t, [0.0, 2.5, -0.0, 40.0])
        for k in (0, 2):
            np.testing.assert_array_equal(got[k], np.eye(10))
        np.testing.assert_allclose(got[1], scipy.linalg.expm(2.5 * t), rtol=1e-12, atol=1e-15)
        for p in (1, 3, 10):
            np.testing.assert_array_equal(expm_batch(np.zeros((p, p)), [0.0, 1.0, -3.0, 1e300]),
                                          np.broadcast_to(np.eye(p), (4, p, p)))

    def test_batch_shapes_roundtrip(self):
        # one (p, p) matrix at n scalars gives (n, p, p); no scalars give an
        # empty stack, and p = 0 gives n empty matrices
        rng = np.random.default_rng(23)
        t = rng.uniform(-1.0, 1.0, size=(5, 5))
        got = expm_batch(t, [0.3, 1.0, -2.0])
        assert got.shape == (3, 5, 5)
        np.testing.assert_allclose(got[1], scipy.linalg.expm(t), rtol=1e-12, atol=1e-13)
        for xs in ([], np.empty(0)):
            assert expm_batch(t, xs).shape == (0, 5, 5)
        assert expm_batch(np.zeros((0, 0)), [1.0, 2.0]).shape == (2, 0, 0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            expm_batch(np.ones((2, 3)), [1.0, 2.0])
        with pytest.raises(ValueError):
            expm_batch(np.full((2, 2), np.inf), [1.0])


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
            assert norm_rel_err(expm_batch(t, xs), mpmath_expm(t, xs)).max() <= 2e-15

    def test_empty_xs(self):
        rng = np.random.default_rng(137)
        for p in (1, 4):
            got = expm_batch(random_chain(rng, p).matrix, [])
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
        got = expm_batch(t, xs).sum(axis=-1)
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


def scaling_power_stack(p, rng):
    """One general p x p matrix per scaling power 0..30, plus a zero matrix,
    shuffled so that rows of every scaling power interleave in the stack."""
    rows = []
    for s in range(31):
        t = random_sub_intensity(transition_mask("general", p), rng).matrix
        norm = np.abs(t).sum(axis=0).max()
        rows.append(t * (5.371920351148152 * 2.0 ** (s - 0.5) / norm))
    rows.append(np.zeros((p, p)))
    return np.stack(rows)[rng.permutation(len(rows))]


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
    got = expm_batch(t, xs)
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


def random_sub_intensities(rng, n, p):
    """n sub-intensities of dimension p, alternately feed-forward and general."""
    return np.stack([(random_chain(rng, p) if k % 2 else
                      random_sub_intensity(transition_mask("general", p), rng)).matrix
                     for k in range(n)])


class TestExpmFrechetBatch:
    @pytest.mark.parametrize("p", range(1, 7))
    def test_against_scipy(self, p):
        rng = np.random.default_rng(67 + p)
        n = 12
        x = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
        a = random_sub_intensities(rng, n, p) * x[:, None, None]
        e = rng.uniform(0.0, 1.0, size=(n, p, p)) * x[:, None, None]
        frechet = expm_frechet_batch(a, e)
        for k in range(n):
            _, ref_frechet = scipy.linalg.expm_frechet(a[k], e[k])
            assert norm_rel_err(frechet[k], ref_frechet) <= 1e-12, (k, x[k])

    def test_against_the_van_loan_block(self):
        # E-step inputs on the fits' Coxian structures: v c' x with posterior
        # weights c up to 1e80, where the block's scaling comes from c; both
        # forms scale alike. (On dense general matrices the two round apart
        # by up to 1e-7 in rows where both miss the integral by 1e-4; scipy
        # checks those above.)
        rng = np.random.default_rng(71)
        for p in (1, 2, 3, 5, 10):
            n = 16
            t = np.stack([(random_chain(rng, p) if k % 2 else
                           random_sub_intensity(transition_mask("coxian", p), rng)).matrix
                          for k in range(n)])
            x = rng.uniform(0.05, 30.0, size=n)
            v = rng.uniform(0.0, 2.0, size=(n, p))
            c = rng.uniform(0.1, 1.0, size=(n, p)) * 10.0 ** np.linspace(0, 80, n)[:, None]
            a = t * x[:, None, None]
            e = v[:, :, None] * c[:, None, :] * x[:, None, None]
            frechet = expm_frechet_batch(a, e)
            for k in range(n):
                _, ref_frechet = van_loan(t[k], e[k] / x[k], x[k])
                assert norm_rel_err(frechet[k], ref_frechet) <= 1e-13, (p, k)

    def test_zero_stack_is_exact(self):
        frechet = expm_frechet_batch(np.zeros((3, 4, 4)), np.zeros((3, 4, 4)))
        np.testing.assert_array_equal(frechet, np.zeros((3, 4, 4)))

    def test_empty_stack(self):
        for shape in ((0, 3, 3), (2, 0, 0)):
            assert expm_frechet_batch(np.zeros(shape), np.zeros(shape)).shape == shape

    def test_batch_shapes_roundtrip(self):
        rng = np.random.default_rng(73)
        a = random_sub_intensities(rng, 6, 3).reshape(2, 3, 3, 3)
        e = rng.uniform(0.0, 1.0, size=a.shape)
        frechet = expm_frechet_batch(a, e)
        assert frechet.shape == a.shape
        _, ref_frechet = scipy.linalg.expm_frechet(a[1, 2], e[1, 2])
        np.testing.assert_allclose(frechet[1, 2], ref_frechet, rtol=1e-12, atol=1e-14)

    def test_rejects_bad_input(self):
        good = np.zeros((2, 3, 3))
        for a, e in ((good, np.zeros((2, 3, 2))), (good, np.zeros((3, 3))),
                     (np.zeros((2, 3, 2)), np.zeros((2, 3, 2))), (np.zeros(3), np.zeros(3))):
            with pytest.raises(ValueError):
                expm_frechet_batch(a, e)
        for bad in (np.nan, np.inf):
            broken = good.copy()
            broken[1, 0, 2] = bad
            with pytest.raises(ValueError):
                expm_frechet_batch(broken, good)
            with pytest.raises(ValueError):
                expm_frechet_batch(good, broken)


@pytest.fixture
def split_run(monkeypatch):
    """``split_run(a, e, rows=r)`` returns ``expm_frechet_batch(a, e)`` run in
    row blocks of r matrices on the call's pool, and run in one block inline."""
    threads = []

    def spy(*args, kernel=linalg._expm_frechet_block):
        threads.append(threading.current_thread().name)
        return kernel(*args)

    monkeypatch.setattr(linalg, "_expm_frechet_block", spy)

    def run(a, e, rows):
        n, p = np.prod(a.shape[:-2]), a.shape[-1]
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 10 ** 12)
        threads.clear()
        whole = expm_frechet_batch(a, e)
        assert threads == [threading.current_thread().name]
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", rows * p * p)
        threads.clear()
        split = expm_frechet_batch(a, e)
        assert len(threads) == -(-n // rows) > 1
        assert all(name.startswith("miph-linalg") for name in threads)
        return split, whole

    return run


def assert_blocks_change_no_bit(split_run, a, e, rows):
    split, whole = split_run(a, e, rows=rows)
    np.testing.assert_array_equal(split, whole)
    return split


class TestRowBlocks:
    """The Fréchet kernel is row-wise, so cutting a stack into row blocks
    that run on the call's pool changes no bit: the split result is
    array_equal to the result of one block."""

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_random_stacks(self, split_run, rows):
        rng = np.random.default_rng(79)
        a = rng.uniform(-1.0, 1.0, size=(40, 4, 4)) * 2.0 ** rng.uniform(
            -4.0, 6.0, size=(40, 1, 1))
        e = rng.uniform(-1.0, 1.0, size=a.shape)
        assert_blocks_change_no_bit(split_run, a, e, rows)

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 10])
    def test_coxian_stacks(self, split_run, p):
        # E-step inputs: A = T x and E = v c' x with weights c up to 1e40
        rng = np.random.default_rng(83 + p)
        n = 24
        t = np.stack([random_sub_intensity(transition_mask("coxian", p), rng).matrix
                      for _ in range(n)])
        x = 10.0 ** rng.uniform(-3.0, 4.0, size=n)
        v = rng.uniform(0.0, 2.0, size=(n, p))
        c = rng.uniform(0.1, 1.0, size=(n, p)) * 10.0 ** np.linspace(0, 40, n)[:, None]
        a = t * x[:, None, None]
        e = v[:, :, None] * c[:, None, :] * x[:, None, None]
        assert_blocks_change_no_bit(split_run, a, e, rows=5)

    @pytest.mark.parametrize("diag, superdiag", [(DIAG_1, SUPER_1),
                                                 (DIAG_2, SUPER_2)])
    def test_stiff_reference_chains(self, split_run, diag, superdiag):
        t = chain_matrix(diag, superdiag)
        xs = np.geomspace(1e-5, 2e8, 30)
        a = t[None, :, :] * xs[:, None, None]
        e = np.ones((len(xs), t.shape[0], t.shape[0])) * xs[:, None, None]
        assert_blocks_change_no_bit(split_run, a, e, rows=4)

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 10])
    def test_every_scaling_power(self, split_run, p):
        rng = np.random.default_rng(89 + p)
        a = scaling_power_stack(p, rng)
        e = rng.uniform(0.0, 1.0, size=a.shape)
        assert_blocks_change_no_bit(split_run, a, e, rows=3)

    def test_leading_batch_dimensions(self, split_run):
        rng = np.random.default_rng(97)
        a = scaling_power_stack(5, rng).reshape(4, 8, 5, 5)
        e = rng.uniform(0.0, 1.0, size=a.shape)
        split = assert_blocks_change_no_bit(split_run, a, e, rows=3)
        assert split.shape == a.shape


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
    """The pool that one Fréchet call's row blocks share: opened for a stack
    of more than one block and joined before the call returns, so no thread
    of it outlives the call."""

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        rng = np.random.default_rng(101)
        a = random_sub_intensities(rng, 40, 3)
        a[13, 0, 0] = -99.0  # marks the fourth block of four rows
        raised_in = []

        def failing(*args, kernel=linalg._expm_frechet_block):
            if np.any(args[0] == -99.0):
                raised_in.append(threading.current_thread().name)
                raise RuntimeError("block kernel failed")
            return kernel(*args)

        monkeypatch.setattr(linalg, "_expm_frechet_block", failing)
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 4 * 3 * 3)
        with pytest.raises(RuntimeError, match="block kernel failed"):
            expm_frechet_batch(a, np.ones_like(a))
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
        a = random_sub_intensities(np.random.default_rng(103), 200, 3)
        expm_frechet_batch(a, np.ones_like(a))
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
        pairs = [(random_sub_intensities(rng, 30, 3) * rng.uniform(0.1, 50.0),
                  rng.uniform(0.0, 1.0, size=(30, 3, 3))) for _ in range(6)]
        expected = [expm_frechet_batch(a, e) for a, e in pairs]  # one block each
        assert built_pools == []
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 2 * 3 * 3)
        ran_on = set()

        def spy(*args, kernel=linalg._expm_frechet_block):
            ran_on.add(threading.current_thread())
            return kernel(*args)

        monkeypatch.setattr(linalg, "_expm_frechet_block", spy)
        results = [None] * len(pairs)
        start = threading.Barrier(len(pairs))

        def call(k):
            start.wait()
            results[k] = expm_frechet_batch(*pairs[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(k,)) for k in range(len(pairs))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert len(built_pools) == len(pairs)
        assert ran_on and ran_on <= {t for pool in built_pools for t in pool._threads}
        assert linalg_threads() == []
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork on this platform")
    def test_a_forked_child_builds_its_own_pool(self, monkeypatch):
        # a split call leaves no pool thread behind, so a forked child
        # inherits none and opens its own pool for its split stacks
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 3 * 3)
        a = random_sub_intensities(np.random.default_rng(113), 40, 3)
        expected = expm_frechet_batch(a, np.ones_like(a))
        assert linalg_threads() == []
        with multiprocessing.get_context("fork").Pool(1) as children:
            got = children.apply_async(expm_frechet_batch, (a, np.ones_like(a))).get(timeout=60)
        np.testing.assert_array_equal(got, expected)

    def test_stacks_of_one_block_never_build_the_pool(self, monkeypatch):
        # a stack of one block runs inline and opens no pool; the exponential,
        # one GEMM, opens none at any size
        class RefusingPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a pool was built")

        monkeypatch.setattr(linalg, "ThreadPoolExecutor", RefusingPool)
        rng = np.random.default_rng(107)
        rows = linalg._BLOCK_ENTRIES // 100
        # empty stacks, one full block at p = 10, and the desk-scale fit's
        # 2000 rows at p = 3
        for shape in ((0, 3, 3), (2, 0, 0), (rows, 10, 10), (2, rows // 2, 10, 10),
                      (2000, 3, 3)):
            a = rng.uniform(-1.0, 1.0, size=shape)
            assert expm_frechet_batch(a, a).shape == shape
        t = random_chain(rng, 10).matrix
        assert expm_batch(t, rng.uniform(0.0, 50.0, size=4 * rows)).shape == (4 * rows, 10, 10)
