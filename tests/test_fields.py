"""White noise, Gaussian priors, Sobolev norms, trace diagnostics."""

import threading

import numpy as np
import pytest

import torusbayes.lattice as lattice_module

from torusbayes.fields import (
    _hermitian_gram,
    gaussian_prior,
    operator_sqrt,
    prior_trace_check,
    sample_prior,
    sample_white_noise,
    sobolev_norm,
)
from torusbayes.lattice import (
    SpectralField,
    _white_coeffs,
    build_lattice,
    hermitian_defect,
)
from torusbayes.operators import (
    DenseOp,
    MultiplierOp,
    bessel_op,
    compose,
    densify,
    heat_op,
    symbol_values,
)


def _conjugate_bits_match(c: np.ndarray, lat) -> bool:
    """coeff(-l) equals conj(coeff(l)) bit for bit on every mode that is not its own mate."""
    pair = lat.conj_index != np.arange(lat.size)
    mirror = np.ascontiguousarray(np.conj(c[..., lat.conj_index]))
    return (np.ascontiguousarray(c[..., pair]).tobytes()
            == np.ascontiguousarray(mirror[..., pair]).tobytes())


class TestWhiteNoise:
    def test_draws_are_hermitian(self):
        lat = build_lattice(2, 8)
        e = sample_white_noise(lat, 0)
        assert hermitian_defect(e) < 1e-13

    # n = 6 with d >= 2: rfftn leaves rounding in the imaginary part of self-conjugate modes
    @pytest.mark.parametrize("dim, n", [(1, 6), (2, 6), (2, 8), (3, 6), (2, 64)])
    def test_draws_are_exactly_hermitian(self, dim, n):
        lat = build_lattice(dim, n)
        prior = gaussian_prior(bessel_op(-1.0))
        for seed in range(3):
            e, u = sample_white_noise(lat, seed), sample_prior(prior, lat, seed)
            assert hermitian_defect(e) == 0.0 and hermitian_defect(u) == 0.0
            assert _conjugate_bits_match(e.coeffs, lat) and _conjugate_bits_match(u.coeffs, lat)
            real = lat.conj_index == np.arange(lat.size)
            assert np.all(e.coeffs.imag[real] == 0.0)
        batch = _white_coeffs(lat, np.random.default_rng(3), 4)
        assert _conjugate_bits_match(batch, lat)

    @pytest.mark.parametrize("dim, n", [(1, 16), (2, 6), (2, 32), (3, 8)])
    def test_draws_equal_fftn_to_rounding(self, dim, n):
        lat = build_lattice(dim, n)
        draw = _white_coeffs(lat, np.random.default_rng(11), 3)
        z = np.random.default_rng(11).standard_normal((3, *lat.shape))
        ref = np.fft.fftn(z, axes=tuple(range(1, dim + 1))).reshape(3, -1) / np.sqrt(lat.size)
        assert np.abs(draw - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_pair_index_built_once_across_threads(self, monkeypatch):
        # the lattice lists its modes when it is built; draws on any thread read that list
        builds = []
        arange = np.arange

        def counting(*args, **kwargs):
            if args == (16**2,):  # the index of every mode, read only by the build
                builds.append(1)
            return arange(*args, **kwargs)

        monkeypatch.setattr(lattice_module.np, "arange", counting)
        lat = build_lattice(2, 16)
        results = [None] * 8

        def work(i):
            results[i] = _white_coeffs(lat, np.random.default_rng(i))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
        finally:
            monkeypatch.undo()
        assert not any(th.is_alive() for th in threads)
        assert len(builds) == 1
        for i, row in enumerate(results):
            assert row.tobytes() == _white_coeffs(lat, np.random.default_rng(i)).tobytes()

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
        assert np.array_equal(root.matrix, root.matrix.conj().T)

    def test_dense_sqrt_of_complex_form_exactly_hermitian(self):
        # a Hermitian matrix that does not map real fields to real fields: complex in the
        # cosine/sine basis, so the root takes the complex eigh and products
        lat = build_lattice(2, 4)
        rng = np.random.default_rng(7)
        b = rng.standard_normal((lat.size, lat.size)) + 1j * rng.standard_normal((lat.size,) * 2)
        mat = b @ b.conj().T + lat.size * np.eye(lat.size)
        mat = 0.5 * (mat + mat.conj().T)
        root = operator_sqrt(DenseOp(lat, mat, 0.0, 0.0)).matrix
        assert np.abs(root @ root.conj().T - mat).max() < 1e-10 * np.abs(mat).max()
        assert np.array_equal(root, root.conj().T)

    @pytest.mark.parametrize("kind", ["real", "complex", "complex-transposed"])
    def test_hermitian_gram_exact(self, kind):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((40, 40))
        if kind != "real":
            x = x + 1j * rng.standard_normal(x.shape)
        if kind == "complex-transposed":
            x = x.T  # not C-contiguous
        g = _hermitian_gram(x)
        assert g.dtype == (np.float64 if kind == "real" else np.complex128)
        assert np.array_equal(g, g.conj().T)
        assert np.abs(g - x @ x.conj().T).max() < 1e-13 * np.abs(g).max()

    def test_dense_sqrt_of_densified_multiplier_matches_symbol_root(self):
        lat = build_lattice(2, 8)
        cov = compose(bessel_op(-1.0), bessel_op(-1.0))
        root = operator_sqrt(densify(cov, lat)).matrix
        expected = np.diag(symbol_values(operator_sqrt(cov), lat))
        assert np.abs(root - expected).max() < 1e-14

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

    def test_symbol_not_real_rejected(self):
        # heat(1) has a complex symbol: its real part is no trace to check
        with pytest.raises(ValueError, match="covariance symbol must be strictly positive real"):
            prior_trace_check(gaussian_prior(heat_op(1)), tau=0.0, dim=2)

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
