"""Matrix-kernel tests.

Expected values come from oracles that avoid the implementation paths under
test: extended-precision truncated series (mpmath) for the exponential,
composite-Simpson / adaptive quadrature of the integrand (built from scipy's
scalar expm, not the block construction) for the Van Loan integral, and
scipy's ``expm_frechet`` and the 2p x 2p Van Loan block for the batched
Fréchet derivative that the E-step reads that integral from. A frozen copy
of the earlier ``expm_batch`` pins that its results have not moved, and
both kernels split into row blocks on a call's own threads are
bit-identical to the same kernels run in one block.
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

from miph import SingularMatrixError, SubIntensity, e_step, linalg, transition_mask
from miph.linalg import expm_batch, expm_frechet_batch, solve
from miph.phasetype import random_sub_intensity

from conftest import DIAG_1, DIAG_2, SUPER_1, SUPER_2, chain_matrix, random_chain

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


class TestExpm:
    """The exponential itself, through the batched kernel."""

    def test_fixed_value_against_frozen_series(self):
        got = expm_batch(FIXED_T * 0.5)
        np.testing.assert_allclose(got, FIXED_EXPM_HALF, rtol=1e-13, atol=1e-15)

    def test_oracle_agrees_with_itself(self):
        # guards the frozen literals against transcription drift
        np.testing.assert_allclose(
            series_expm(FIXED_T * 0.5), FIXED_EXPM_HALF, rtol=1e-14, atol=1e-16
        )

    def test_random_matrices_against_series(self):
        rng = np.random.default_rng(7)
        stack = rng.uniform(-1.0, 1.0, size=(5, 3, 3))
        got = expm_batch(stack)
        for k in range(stack.shape[0]):
            np.testing.assert_allclose(
                got[k], series_expm(stack[k]), rtol=1e-12, atol=1e-14
            )

    def test_semigroup_property(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = int(rng.integers(1, 7))
            t = random_chain(rng, p).matrix
            x, y = rng.uniform(0.0, 5.0, size=2)
            e_x, e_y, e_xy = expm_batch(t[None] * np.array([x, y, x + y])[:, None, None])
            np.testing.assert_allclose(e_x @ e_y, e_xy, atol=1e-12)

    def test_substochastic_for_sub_intensities(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            p = int(rng.integers(1, 7))
            t = random_chain(rng, p).matrix
            e = expm_batch(t * rng.uniform(0.0, 50.0))
            assert e.min() >= -1e-14
            assert e.sum(axis=1).max() <= 1.0 + 1e-12

    def test_scale_zero_is_identity(self):
        np.testing.assert_array_equal(expm_batch(FIXED_T * 0.0), np.eye(2))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            expm_batch(np.ones((2, 3)))
        with pytest.raises(ValueError):
            expm_batch(np.ones(4))
        with pytest.raises(ValueError):
            expm_batch(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            expm_batch(np.array([[np.inf, 0.0], [0.0, -1.0]]))


class TestExpmBatch:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(17)
        stack = rng.uniform(-2.0, 2.0, size=(40, 4, 4))
        got = expm_batch(stack)
        for k in range(stack.shape[0]):
            np.testing.assert_allclose(
                got[k], scipy.linalg.expm(stack[k]), rtol=1e-9, atol=1e-12
            )

    def test_huge_scales_stay_substochastic(self):
        rng = np.random.default_rng(19)
        t = random_chain(rng, 4).matrix
        scales = np.array([0.0, 1.0, 1e3, 1e6, 3e4])
        got = expm_batch(t[None, :, :] * scales[:, None, None])
        np.testing.assert_allclose(got[0], np.eye(4), atol=1e-15)
        assert got.min() >= -1e-14
        assert got.sum(axis=2).max() <= 1.0 + 1e-12

    def test_zero_matrix_is_exact_identity(self):
        rng = np.random.default_rng(29)
        stack = np.zeros((3, 10, 10))
        stack[1] = random_chain(rng, 10).matrix
        got = expm_batch(stack)
        for k in (0, 2):
            np.testing.assert_array_equal(got[k], np.eye(10))
        np.testing.assert_array_equal(got[1], expm_batch(stack[1]))

    def test_batch_shapes_roundtrip(self):
        rng = np.random.default_rng(23)
        stack = rng.uniform(-1.0, 1.0, size=(3, 2, 5, 5))
        got = expm_batch(stack)
        assert got.shape == stack.shape
        np.testing.assert_allclose(
            got[1, 0], scipy.linalg.expm(stack[1, 0]), rtol=1e-12, atol=1e-13
        )

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            expm_batch(np.ones((4, 2, 3)))
        with pytest.raises(ValueError):
            expm_batch(np.full((2, 2, 2), np.inf))


class TestExpmBatchStiffRegime:
    """Row sums of exp(T x) for the published sub-intensities (rates from
    1e-10 to 10) against mpmath at 40 digits, out to the operational times
    that the conditional-expectation nodes reach (about 2e8 and beyond).

    Relative error where mpmath's value is a normal float64, absolute error
    where it underflows. The bounds hold the measured errors with some room:
    at most 5e-14 up to x = 1e2, 5e-12 at 1e4, 4e-10 at 1e6 and 3e-8 at 2e8,
    the last from the growth of rounding error over about 29 squarings.
    """

    BOUNDS = {1e-5: 1e-13, 1e-2: 1e-13, 1.0: 1e-13, 1e2: 1e-13,
              1e4: 2e-11, 1e6: 2e-9, 2e8: 1e-7}

    @pytest.mark.parametrize("diag, superdiag", [(DIAG_1, SUPER_1),
                                                 (DIAG_2, SUPER_2)])
    def test_row_sums_against_mpmath(self, diag, superdiag):
        t = chain_matrix(diag, superdiag)
        xs = np.array(sorted(self.BOUNDS))
        got = expm_batch(t[None, :, :] * xs[:, None, None]).sum(axis=-1)
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
    exponential of the block [[t, c], [0, t]] x, as the E-step builds it."""
    p = t.shape[0]
    block = np.zeros((2 * p, 2 * p))
    block[:p, :p] = t
    block[:p, p:] = c
    block[p:, p:] = t
    full = expm_batch(block * x)
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


def frozen_expm_batch(a):
    """``expm_batch`` as it was before it shared its Padé-13 core with
    ``expm_frechet_batch``, kept verbatim as the bit-for-bit reference."""
    b = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0)
    theta13 = 5.371920351148152
    a = np.asarray(a, dtype=float)
    batch_shape = a.shape[:-2]
    p = a.shape[-1]
    a = a.reshape(-1, p, p)
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    with np.errstate(divide="ignore"):
        s = np.ceil(np.log2(norms / theta13))
    s = np.where(norms > theta13, s, 0.0).astype(np.int64)
    scaled = a / (2.0 ** s)[:, None, None]
    eye = np.broadcast_to(np.eye(p), scaled.shape)
    a2 = scaled @ scaled
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = scaled @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6
        + b[5] * a4
        + b[3] * a2
        + b[1] * eye
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6
        + b[4] * a4
        + b[2] * a2
        + b[0] * eye
    )
    r = np.linalg.solve(v - u, v + u)
    r[norms == 0.0] = np.eye(p)
    for k in range(int(s.max()) if s.size else 0):
        todo = s > k
        r[todo] = r[todo] @ r[todo]
    return r.reshape(*batch_shape, p, p)


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


class TestExpmBatchUnchanged:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 10])
    def test_bit_identical_to_the_frozen_copy(self, p):
        stack = scaling_power_stack(p, np.random.default_rng(59 + p))
        np.testing.assert_array_equal(expm_batch(stack), frozen_expm_batch(stack))
        np.testing.assert_array_equal(expm_batch(stack.reshape(4, 8, p, p)),
                                      frozen_expm_batch(stack.reshape(4, 8, p, p)))

    def test_bit_identical_on_general_matrices(self):
        rng = np.random.default_rng(61)
        stack = rng.uniform(-1.0, 1.0, size=(40, 4, 4)) * 2.0 ** rng.uniform(
            -4.0, 6.0, size=(40, 1, 1))
        np.testing.assert_array_equal(expm_batch(stack), frozen_expm_batch(stack))


def random_sub_intensities(rng, n, p):
    """n sub-intensities of dimension p, alternately feed-forward and general."""
    return np.stack([(random_chain(rng, p) if k % 2 else
                      random_sub_intensity(transition_mask("general", p), rng)).matrix
                     for k in range(n)])


def norm_rel_err(got, ref):
    """Largest entry of |got - ref| per matrix over the largest of |ref|
    (0 where both are exactly 0)."""
    return (np.abs(got - ref).max(axis=(-2, -1))
            / np.maximum(np.abs(ref).max(axis=(-2, -1)), np.finfo(float).tiny))


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
    """``split_run(f, *stacks, rows=r)`` returns ``f(*stacks)`` run in row
    blocks of r matrices on the call's pool, and run in one block inline."""
    threads = []
    for name in ("_expm_block", "_expm_frechet_block"):
        def spy(*args, kernel=getattr(linalg, name)):
            threads.append(threading.current_thread().name)
            return kernel(*args)
        monkeypatch.setattr(linalg, name, spy)

    def run(f, *stacks, rows):
        n, p = np.prod(stacks[0].shape[:-2]), stacks[0].shape[-1]
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 10 ** 12)
        threads.clear()
        whole = f(*stacks)
        assert threads == [threading.current_thread().name]
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", rows * p * p)
        threads.clear()
        split = f(*stacks)
        assert len(threads) == -(-n // rows) > 1
        assert all(name.startswith("miph-linalg") for name in threads)
        return split, whole

    return run


def assert_blocks_change_no_bit(split_run, a, e, rows):
    split, whole = split_run(expm_batch, a, rows=rows)
    np.testing.assert_array_equal(split, whole)
    split_frechet, frechet = split_run(expm_frechet_batch, a, e, rows=rows)
    np.testing.assert_array_equal(split_frechet, frechet)
    return split


class TestRowBlocks:
    """Both kernels are row-wise, so cutting a stack into row blocks that run
    on the call's pool changes no bit: the split result is array_equal to
    the result of one block."""

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
        split = assert_blocks_change_no_bit(split_run, a, e, rows=3)
        np.testing.assert_array_equal(split, frozen_expm_batch(a))

    def test_leading_batch_dimensions(self, split_run):
        rng = np.random.default_rng(97)
        a = scaling_power_stack(5, rng).reshape(4, 8, 5, 5)
        e = rng.uniform(0.0, 1.0, size=a.shape)
        split = assert_blocks_change_no_bit(split_run, a, e, rows=3)
        assert split.shape == a.shape
        np.testing.assert_array_equal(split, frozen_expm_batch(a))


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
    """The pool that one call's row blocks share: opened for a stack of more
    than one block and joined before the call returns, so no thread of it
    outlives the call."""

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        rng = np.random.default_rng(101)
        a = random_sub_intensities(rng, 40, 3)
        a[13, 0, 0] = -99.0  # marks the fourth block of four rows
        raised_in = []
        for name in ("_expm_block", "_expm_frechet_block"):
            def failing(*args, kernel=getattr(linalg, name)):
                if np.any(args[0] == -99.0):
                    raised_in.append(threading.current_thread().name)
                    raise RuntimeError("block kernel failed")
                return kernel(*args)
            monkeypatch.setattr(linalg, name, failing)
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 4 * 3 * 3)
        with pytest.raises(RuntimeError, match="block kernel failed"):
            expm_batch(a)
        with pytest.raises(RuntimeError, match="block kernel failed"):
            expm_frechet_batch(a, np.ones_like(a))
        assert len(raised_in) == 2
        assert all(name.startswith("miph-linalg") for name in raised_in)
        assert linalg_threads() == []

    def test_never_more_workers_than_the_cap(self, monkeypatch, built_pools):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)),
                            raising=False)
        assert linalg._worker_count() == linalg._MAX_WORKERS
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 3 * 3)  # one row a block
        threads = set()

        def spy(*args, kernel=linalg._expm_block):
            threads.add(threading.current_thread().name)
            return kernel(*args)

        monkeypatch.setattr(linalg, "_expm_block", spy)
        expm_batch(random_sub_intensities(np.random.default_rng(103), 200, 3))
        assert [pool._max_workers for pool in built_pools] == [linalg._MAX_WORKERS]
        assert 1 <= len(threads) <= linalg._MAX_WORKERS
        assert linalg_threads() == []
        # without an affinity call, the CPU count stands in, under the same cap
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for cpus, workers in ((64, linalg._MAX_WORKERS), (2, 2), (None, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            assert linalg._worker_count() == workers

    def test_concurrent_callers_match_the_frozen_copy(self, monkeypatch, built_pools):
        # more callers than cores, each opening a pool of its own and writing
        # blocks of its own output, with thread switches forced often
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 2 * 3 * 3)
        ran_on = set()

        def spy(*args, kernel=linalg._expm_block):
            ran_on.add(threading.current_thread())
            return kernel(*args)

        monkeypatch.setattr(linalg, "_expm_block", spy)
        rng = np.random.default_rng(109)
        stacks = [random_sub_intensities(rng, 30, 3) * rng.uniform(0.1, 50.0)
                  for _ in range(6)]
        expected = [frozen_expm_batch(a) for a in stacks]
        results = [None] * len(stacks)
        start = threading.Barrier(len(stacks))

        def call(k):
            start.wait()
            results[k] = expm_batch(stacks[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(k,)) for k in range(len(stacks))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert len(built_pools) == len(stacks)
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
        expected = expm_batch(a)
        assert linalg_threads() == []
        with multiprocessing.get_context("fork").Pool(1) as children:
            got = children.apply_async(expm_batch, (a,)).get(timeout=60)
        np.testing.assert_array_equal(got, expected)

    def test_stacks_of_one_block_never_build_the_pool(self, monkeypatch):
        # a stack of one block runs inline and opens no pool
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
            assert expm_batch(a).shape == shape
            assert expm_frechet_batch(a, a).shape == shape


class TestSolve:
    def test_residual_contract(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            p = int(rng.integers(1, 9))
            a = rng.normal(size=(p, p)) + p * np.eye(p)
            b = rng.normal(size=p)
            x = solve(a, b)
            assert np.max(np.abs(a @ x - b)) <= 1e-10 * np.max(np.abs(b))

    def test_matrix_rhs(self):
        rng = np.random.default_rng(47)
        a = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        b = rng.normal(size=(4, 3))
        x = solve(a, b)
        assert x.shape == (4, 3)
        assert np.max(np.abs(a @ x - b)) <= 1e-10 * np.max(np.abs(b))

    def test_singular_raises_dedicated_error(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError):
            solve(a, np.ones(2))

    def test_shape_mismatch_raises_value_error(self):
        with pytest.raises(ValueError):
            solve(np.eye(3), np.ones(2))
        with pytest.raises(ValueError):
            solve(np.ones((2, 3)), np.ones(2))

    def test_sub_intensity_system(self):
        # the solve used by the dependence measures: -(T (+) T) is stable
        rng = np.random.default_rng(53)
        t = random_chain(rng, 5).matrix
        a = -(np.kron(t, np.eye(5)) + np.kron(np.eye(5), t))
        b = np.kron(np.ones(5), -t.sum(axis=1))
        x = solve(a, b)
        assert np.all(x >= -1e-12) and np.all(x <= 1.0 + 1e-12)
