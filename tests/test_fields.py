"""White noise, Gaussian priors, Sobolev norms, trace diagnostics."""

import tracemalloc

import numpy as np
import pytest

from torusbayes import lattice as lattice_module
from torusbayes.fields import (
    _hermitian_power,
    gaussian_prior,
    operator_sqrt,
    prior_trace_check,
    sample_prior,
    sample_white_noise,
    sobolev_norm,
)
from torusbayes.lattice import (
    SpectralField,
    _from_cosine_sine,
    _white_coeffs,
    build_lattice,
    hermitian_defect,
)
from torusbayes.operators import DenseOp, MultiplierOp, bessel_op, compose, densify, symbol_values


class TestWhiteNoise:
    def test_draws_are_hermitian(self):
        lat = build_lattice(2, 8)
        e = sample_white_noise(lat, 0)
        assert hermitian_defect(e) < 1e-13

    def test_unit_variance_per_mode(self):
        """E|e_l|^2 = 1 for every mode: self-conjugate modes are real N(0,1),
        paired modes are complex with independent N(0, 1/2) parts."""
        lat = build_lattice(1, 8)
        draws = np.stack([sample_white_noise(lat, (1, i)).coeffs for i in range(4000)])
        second = np.mean(np.abs(draws) ** 2, axis=0)
        assert np.abs(second - 1.0).max() < 0.15
        self_conj = lat.conj_index == np.arange(lat.size)
        # self-conjugate modes have no imaginary part at all
        assert np.abs(draws[:, self_conj].imag).max() < 1e-13
        paired = ~self_conj
        re_var = draws[:, paired].real.var(axis=0)
        im_var = draws[:, paired].imag.var(axis=0)
        assert np.abs(re_var - 0.5).max() < 0.1
        assert np.abs(im_var - 0.5).max() < 0.1

    def test_negative_sobolev_moment_matches_lattice_sum(self):
        lat = build_lattice(2, 16)
        s = 1.01
        target = float(np.sum((1.0 + lat.weights) ** (-s)))
        draws = np.array([
            sobolev_norm(sample_white_noise(lat, (2, i)), -s) ** 2 for i in range(400)
        ])
        z = abs(draws.mean() - target) / (draws.std(ddof=1) / np.sqrt(draws.size))
        assert z < 5.0

    def test_seed_determinism(self):
        lat = build_lattice(2, 8)
        a = sample_white_noise(lat, 123)
        b = sample_white_noise(lat, 123)
        assert np.array_equal(a.coeffs, b.coeffs)
        c = sample_white_noise(lat, 124)
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_accepts_generator(self):
        lat = build_lattice(1, 8)
        rng = np.random.default_rng(5)
        a = sample_white_noise(lat, rng)
        b = sample_white_noise(lat, np.random.default_rng(5))
        assert np.array_equal(a.coeffs, b.coeffs)


    @pytest.mark.parametrize("dim, n", [(1, 16), (2, 8), (3, 4)])
    def test_batched_kernel_matches_consecutive_draws(self, dim, n):
        lat = build_lattice(dim, n)
        batch = _white_coeffs(lat, np.random.default_rng(7), 5)
        assert batch.shape == (5, lat.size)
        rng = np.random.default_rng(7)
        for row in batch:
            assert row.tobytes() == sample_white_noise(lat, rng).coeffs.tobytes()


class TestOperatorSqrt:
    def test_multiplier_sqrt_squares_back(self):
        lat = build_lattice(2, 8)
        cov = bessel_op(-1.0)
        root = operator_sqrt(cov)
        assert np.allclose(
            symbol_values(root, lat) ** 2, symbol_values(cov, lat)
        )
        assert root.order_t == 1.0

    def test_multiplier_sqrt_rejects_nonpositive(self):
        from torusbayes.operators import MultiplierOp

        lat = build_lattice(1, 8)
        neg = MultiplierOp(lambda lat: -np.ones(lat.size, dtype=complex), 0.0, 0.0)
        with pytest.raises(ValueError):
            symbol_values(operator_sqrt(neg), lat)

    def test_dense_sqrt(self):
        lat = build_lattice(1, 8)
        rng = np.random.default_rng(6)
        b = rng.standard_normal((lat.size, lat.size))
        mat = b @ b.T + lat.size * np.eye(lat.size)
        cov = DenseOp(lat, mat.astype(complex), 0.0, 0.0)
        root = operator_sqrt(cov)
        assert np.abs(root.matrix @ root.matrix.conj().T - mat).max() < 1e-10

    def test_dense_sqrt_of_densified_multiplier_matches_symbol_root(self):
        lat = build_lattice(2, 8)
        cov = compose(bessel_op(-1.0), bessel_op(-1.0))
        root = operator_sqrt(densify(cov, lat)).matrix
        expected = np.diag(symbol_values(operator_sqrt(cov), lat))
        assert np.abs(root - expected).max() < 1e-14

    def test_hermitian_power_square_in_place(self, monkeypatch):
        # K = 256; small transform blocks, so the peak counts full-size arrays only
        monkeypatch.setattr(lattice_module, "_CS_BLOCK", 8)
        lat = build_lattice(2, 16)
        b = np.random.default_rng(8).standard_normal((lat.size, lat.size))
        mat = b @ b.T + lat.size * np.eye(lat.size)
        full = 16 * lat.size**2  # bytes of one complex K x K array
        tracemalloc.start()
        try:
            root, sq = _hermitian_power(lat, mat, -0.5, 0.1, square=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the two results, one real product in the basis and the transform's blocks;
        # a conjugate copy of the square or a full-size transform temporary exceeds it
        assert peak < 2.8 * full
        evals, evecs = np.linalg.eigh(mat)
        half = np.sqrt(0.1 * evals**-0.5)
        f, w = evecs * half, evecs * half * half  # the root is F F^T, the square W W^T
        assert root.tobytes() == _from_cosine_sine(lat, f @ f.T).tobytes()
        expected = _from_cosine_sine(lat, w @ w.T)
        expected = 0.5 * (expected + expected.conj().T)
        assert sq.tobytes() == expected.tobytes()

    def test_dense_sqrt_rejects_non_hermitian(self):
        lat = build_lattice(1, 8)
        mat = np.triu(np.ones((lat.size, lat.size))).astype(complex)
        with pytest.raises(ValueError):
            operator_sqrt(DenseOp(lat, mat, 0.0, 0.0))

    def test_dense_sqrt_rejects_indefinite(self):
        lat = build_lattice(1, 8)
        mat = -np.eye(lat.size, dtype=complex)
        with pytest.raises(ValueError):
            operator_sqrt(DenseOp(lat, mat, 0.0, 0.0))


class TestGaussianPrior:
    def test_default_decay_order_from_symbol(self):
        assert gaussian_prior(bessel_op(-1.0)).r == 1.0
        assert gaussian_prior(compose(bessel_op(-1.0), bessel_op(-1.0))).r == 2.0

    def test_explicit_r_override(self):
        assert gaussian_prior(bessel_op(-1.0), r=1.5).r == 1.5

    def test_sample_covariance_per_mode(self):
        lat = build_lattice(1, 8)
        prior = gaussian_prior(bessel_op(-1.0))
        c = symbol_values(prior.cov, lat).real
        draws = np.stack([sample_prior(prior, lat, (3, i)).coeffs for i in range(4000)])
        emp = np.mean(np.abs(draws) ** 2, axis=0)
        assert np.abs(emp / c - 1.0).max() < 0.2

    def test_samples_are_hermitian(self):
        lat = build_lattice(2, 8)
        prior = gaussian_prior(bessel_op(-1.0))
        assert hermitian_defect(sample_prior(prior, lat, 7)) < 1e-12

    def test_dense_covariance_prior(self):
        lat = build_lattice(1, 8)
        cov = densify(bessel_op(-1.0), lat)
        prior = gaussian_prior(cov)
        assert prior.r == 1.0
        draw = sample_prior(prior, lat, 8)
        assert draw.coeffs.shape == (lat.size,)


class TestSobolevNorm:
    def test_single_mode_value(self):
        lat = build_lattice(1, 8)
        coeffs = np.zeros(lat.size, dtype=complex)
        idx = int(np.where(lat.freqs[:, 0] == 2)[0][0])
        coeffs[idx] = 3.0
        u = SpectralField(lat, coeffs)
        assert abs(sobolev_norm(u, 1.0) - 3.0 * np.sqrt(5.0)) < 1e-13

    def test_zero_index_is_coefficient_l2(self):
        lat = build_lattice(2, 8)
        u = sample_white_noise(lat, 9)
        assert abs(sobolev_norm(u, 0.0) - np.linalg.norm(u.coeffs)) < 1e-12

    def test_monotone_in_index_for_nonconstant(self):
        lat = build_lattice(1, 16)
        u = sample_white_noise(lat, 10)
        assert sobolev_norm(u, -1.0) < sobolev_norm(u, 0.0) < sobolev_norm(u, 1.0)


class TestPriorTraceCheck:
    def test_trace_class_case_detected(self):
        # r=1, d=1, tau=0: weighted symbol ~ (1+l^2)^{-1}, summable
        prior = gaussian_prior(bessel_op(-1.0))
        chk = prior_trace_check(prior, tau=0.0, dim=1)
        assert chk.converged and chk.theory_convergent

    def test_divergent_case_detected(self):
        # tau = r: weighted symbol ~ 1 per mode, partial sums grow like n
        prior = gaussian_prior(bessel_op(-1.0))
        chk = prior_trace_check(prior, tau=1.0, dim=1)
        assert not chk.converged and not chk.theory_convergent

    def test_boundary_tau_matches_theory_flag(self):
        # d=2, r=1: theory threshold is tau < r - d/2 = 0
        prior = gaussian_prior(bessel_op(-1.0))
        chk = prior_trace_check(prior, tau=-0.5, dim=2)
        assert chk.theory_convergent
        chk2 = prior_trace_check(prior, tau=0.25, dim=2)
        assert not chk2.theory_convergent

    def test_eigenvalue_decay_matches_counting_prediction(self):
        # k-th largest weighted symbol value ~ k^{-2(r-tau)/d}
        prior = gaussian_prior(compose(bessel_op(-1.0), bessel_op(-1.0)))
        chk = prior_trace_check(prior, tau=0.0, dim=2, sizes=(8, 16, 32, 64))
        assert chk.eig_decay_predicted == -4.0 / 2.0
        assert abs(chk.eig_decay_slope - chk.eig_decay_predicted) < 0.4

    def test_symbol_evaluated_once_per_size(self):
        base = compose(bessel_op(-1.0), bessel_op(-1.0))
        sizes = []

        def counting(lat):
            sizes.append(lat.n_per_dim)
            return base.symbol(lat)

        prior = gaussian_prior(MultiplierOp(counting, 4.0, 4.0))
        chk = prior_trace_check(prior, tau=0.0, dim=2)
        assert sizes == list(chk.sizes)
        ref = prior_trace_check(gaussian_prior(base), tau=0.0, dim=2)
        assert chk == ref
