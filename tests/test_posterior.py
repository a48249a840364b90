"""MAP estimation, posterior covariance forms, sampling, ball probabilities."""

import dataclasses
import math
import sys
import threading
import time
import tracemalloc
import types
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from torusbayes.fields import (
    GaussianPrior,
    gaussian_prior,
    sample_prior,
    sample_white_noise,
    sobolev_norm,
)
from torusbayes import lattice as lattice_module
from torusbayes import _ball as ball_module
from torusbayes._ball import MultiplierBall
from torusbayes.experiments import default_config
from torusbayes.lattice import (
    SpectralField,
    _cosine_sine_modes,
    _rows_from_cosine_sine,
    _rows_to_cosine_sine,
    _to_cosine_sine,
    build_lattice,
    sobolev_weight,
)
from torusbayes.operators import (
    DenseOp,
    MultiplierOp,
    apply,
    bessel_op,
    compose,
    densify,
    heat_op,
    symbol_values,
    variable_coeff_op,
)
from torusbayes.posterior import (
    CG_TOL,
    GaussianModel,
    PosteriorGaussian,
    SolverError,
    _COUPLING_TOL,
    _biases,
    _classes,
    _cov_factor,
    _cov_cs,
    _dense_cov,
    _map_means,
    _noise_trace,
    _pcg,
    _pencil,
    _pencil_solve,
    _prior_form,
    _trace_ball,
    _trace_root,
    map_estimate,
    posterior,
    posterior_covariance,
    posterior_covariance_update,
    posterior_trace,
    sample_posterior,
)
from conftest import class_shapes, diagonal_ball, full_pencil


# the package re-exports the function posterior under the module's name
posterior_module = sys.modules["torusbayes.posterior"]


def quiet_model(fwd, prior, s, d, delta):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return GaussianModel(fwd, prior, s, d, delta)


def identity_model(delta, n=8):
    lat = build_lattice(1, n)
    model = quiet_model(bessel_op(0.0), gaussian_prior(bessel_op(0.0), r=1.0), 0.51, 1, delta)
    return lat, model


@pytest.fixture
def dense_model():
    lat = build_lattice(1, 16)
    rng = np.random.default_rng(21)
    fwd = variable_coeff_op(1.0 + 0.5 * rng.random(lat.shape), bessel_op(-1.0), lat)
    prior = gaussian_prior(bessel_op(-1.0))
    return lat, quiet_model(fwd, prior, 0.51, 1, 0.05)


class TestGaussianModel:
    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            GaussianModel(bessel_op(-1.0), gaussian_prior(bessel_op(-1.0)), 1.01, 2, 0.0)

    @pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_delta(self, delta):
        # a NaN delta fails no comparison: covariance and trace would come out NaN silently
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            GaussianModel(bessel_op(-1.0), gaussian_prior(bessel_op(-1.0)), 1.01, 2, delta)

    def test_hypothesis_messages_recorded(self):
        with pytest.warns(UserWarning) as rec:
            model = GaussianModel(
                MultiplierOp(lambda lat: (1.0 + np.sum(lat.freqs**2, 1)) ** (-0.5), 1.0, 5.0),
                gaussian_prior(bessel_op(-1.0)), 1.01, 2, 0.1,
            )
        assert any("t0 < 2t" in str(w.message) for w in rec)
        assert any("t0 < 2t + r" in m for m in model.hypothesis_messages)

    def test_clean_model_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = GaussianModel(
                bessel_op(-1.0),
                gaussian_prior(compose(bessel_op(-1.0), bessel_op(-1.0))),
                1.01, 2, 0.1,
            )
        assert model.hypothesis_messages == ()

    def test_params_carries_orders(self):
        _, model = identity_model(1.0)
        p = model.params(zeta=-1.0)
        assert p.t == 0.0 and p.t0 == 0.0 and p.r == 1.0 and p.zeta == -1.0


class TestMapEstimate:
    def test_diagonal_weights_kept_frozen_per_lattice(self, dense_model):
        lat = build_lattice(1, 16)
        model = quiet_model(bessel_op(-1.0), gaussian_prior(bessel_op(-1.0)), 0.51, 1, 0.05)
        m = SpectralField(lat, sample_white_noise(lat, 5).coeffs)
        first = map_estimate(model, m)
        # a model keeps nothing of its own: a diagonal one reads the symbols its operators
        # keep, read-only, which a model of another noise level reads too
        keeps_nothing = lambda mdl: set(vars(mdl)) == {f.name for f in dataclasses.fields(mdl)}
        a, c_u = model.fwd._cs["symbol", lat], model.prior.cov._cs["prior symbol", lat]
        assert keeps_nothing(model) and not a.flags.writeable and not c_u.flags.writeable
        assert np.array_equal(a, symbol_values(model.fwd, lat))
        assert map_estimate(model, m).coeffs.tobytes() == first.coeffs.tobytes()
        other = quiet_model(model.fwd, model.prior, 0.51, 1, 0.1)
        map_estimate(other, m)
        assert model.fwd._cs["symbol", lat] is a
        assert model.prior.cov._cs["prior symbol", lat] is c_u
        # a dense model's forward map keeps the pencil, one (idx, [lam; F]) per class,
        # read-only, with the prior form it was built for, K values: the even c_U in
        # cosine/sine order; F^T C_U^{-1} F = I and F^T A_cs^T A_cs F = diag(lam).  A phi
        # with full Fourier support couples every coordinate: one class, the whole pencil
        dense_lat, dense = dense_model
        k = dense_lat.size
        dense_m = SpectralField(dense_lat, sample_white_noise(dense_lat, 5).coeffs)
        first = map_estimate(dense, dense_m)
        assert keeps_nothing(dense)
        c_form, pencil = stored = dense.fwd._cs["pencil", dense_lat]
        ((idx, block),) = pencil
        assert np.array_equal(idx, np.arange(k))
        assert block.shape == (k + 1, k) and block.dtype == np.float64
        assert not any(a.flags.writeable for a in (c_form, idx, block))
        c_u = symbol_values(dense.prior.cov, dense_lat).real
        assert np.array_equal(np.sort(c_form), np.sort(c_u))
        lam, f = block[0], block[1:]
        a_cs = _to_cosine_sine(dense_lat, dense.fwd.matrix)
        assert np.abs(f.T @ (f / c_form[:, None]) - np.eye(k)).max() <= 1e-12
        assert np.abs((a_cs @ f).T @ (a_cs @ f) - np.diag(lam)).max() <= 1e-12 * lam.max()
        assert map_estimate(dense, dense_m).coeffs.tobytes() == first.coeffs.tobytes()
        assert dense.fwd._cs["pencil", dense_lat] is stored

    def test_diagonal_weights_evaluated_once_across_threads(self):
        calls = []
        base = bessel_op(-1.0)

        def counting(lat):
            calls.append(lat.size)
            return base.symbol(lat)

        lat = build_lattice(2, 32)
        model = quiet_model(MultiplierOp(counting, 2.0, 2.0), gaussian_prior(base), 1.01, 2, 0.05)
        m = SpectralField(lat, sample_white_noise(lat, 5).coeffs)
        results = [None] * 8

        def work(i):
            results[i] = map_estimate(model, m).coeffs

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert len(calls) == 1
        assert all(r.tobytes() == results[0].tobytes() for r in results)

    def test_identity_single_mode_halves(self):
        lat, model = identity_model(1.0)
        coeffs = np.zeros(lat.size, dtype=complex)
        coeffs[0] = 1.0
        est = map_estimate(model, SpectralField(lat, coeffs))
        assert abs(est.coeffs[0] - 0.5) < 1e-14

    def test_noise_free_errors_vanish_monotonically(self):
        lat = build_lattice(1, 16)
        prior = gaussian_prior(bessel_op(-1.0))
        u = sample_prior(prior, lat, 1)
        m = apply(bessel_op(-1.0), u)
        errs = []
        for delta in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            model = quiet_model(bessel_op(-1.0), prior, 0.51, 1, delta)
            est = map_estimate(model, m)
            errs.append(sobolev_norm(SpectralField(lat, est.coeffs - u.coeffs), 0.0))
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-6 * errs[0]

    def test_dense_path_matches_diagonal_on_commuting_problem(self):
        lat = build_lattice(1, 16)
        prior = gaussian_prior(bessel_op(-1.0))
        fwd_dense = variable_coeff_op(np.ones(lat.shape), bessel_op(-1.0), lat)
        m = SpectralField(lat, sample_white_noise(lat, 2).coeffs)
        est_dense = map_estimate(quiet_model(fwd_dense, prior, 0.51, 1, 0.01), m)
        est_diag = map_estimate(quiet_model(bessel_op(-1.0), prior, 0.51, 1, 0.01), m)
        assert np.abs(est_dense.coeffs - est_diag.coeffs).max() < 1e-8

    def test_normal_equation_residual_small(self, dense_model):
        lat, model = dense_model
        m = SpectralField(lat, sample_white_noise(lat, 3).coeffs)
        est = map_estimate(model, m)
        a = densify(model.fwd, lat).matrix
        c_inv = np.diag(model.delta**2 / symbol_values(model.prior.cov, lat).real)
        normal = a.conj().T @ a + c_inv
        b = a.conj().T @ m.coeffs
        resid = np.linalg.norm(normal @ est.coeffs - b)
        assert resid <= 1e-8 * np.linalg.norm(b)

    def test_shrinkage_in_prior_weighted_norm(self):
        """The prior-whitened norm of the estimate never grows as delta grows."""
        lat = build_lattice(1, 16)
        prior = gaussian_prior(bessel_op(-1.0))
        m = SpectralField(lat, sample_white_noise(lat, 4).coeffs)
        inv_c = 1.0 / symbol_values(prior.cov, lat).real
        norms = []
        for delta in np.geomspace(1e-3, 1e1, 9):
            model = quiet_model(bessel_op(-1.0), prior, 0.51, 1, delta)
            est = map_estimate(model, m)
            norms.append(np.sqrt(np.sum(inv_c * np.abs(est.coeffs) ** 2)))
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_dense_prior_matches_direct_solve(self, dense_model, map_estimate_discrete):
        lat, model = dense_model
        # C = B B^H with B another variable-coefficient map: dense, not diagonal
        phi = 1.0 + 0.3 * np.cos(lat.grid_axes()[0])
        b = variable_coeff_op(phi, bessel_op(-1.0), lat).matrix
        cmat = b @ b.conj().T
        prior = gaussian_prior(DenseOp(lat, 0.5 * (cmat + cmat.conj().T), 4.0, 4.0))
        model = quiet_model(model.fwd, prior, 0.51, 1, model.delta)
        m = SpectralField(lat, sample_white_noise(lat, 3).coeffs)
        est = map_estimate(model, m).coeffs
        ref = map_estimate_discrete(densify(model.fwd, lat).matrix,
                                    densify(model.prior.cov, lat).matrix, model.delta, m.coeffs)
        assert np.linalg.norm(est - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_dense_prior_factored_once_per_model(self, dense_model, monkeypatch):
        lat, model = dense_model
        prior = gaussian_prior(densify(bessel_op(-1.0), lat))
        model = quiet_model(model.fwd, prior, 0.51, 1, model.delta)
        m = SpectralField(lat, sample_white_noise(lat, 3).coeffs)
        calls = []
        for name in ("inv", "cholesky"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, name=name, real=real:
                                calls.append((name, a.shape)) or real(a))
        first = map_estimate(model, m)
        second = map_estimate(model, m)
        assert calls == [("cholesky", (lat.size, lat.size))]  # a factor R R^T = C_U, no inverse
        assert first.coeffs.tobytes() == second.coeffs.tobytes()
        assert prior.cov._cs["prior form", lat].shape == (lat.size, lat.size)

    def test_nonpositive_prior_symbol_rejected_on_dense_path(self, dense_model):
        lat, model = dense_model
        # c_U(0) = 0: a bad config, not a solver failure after 10 K iterations
        flat = MultiplierOp(lambda lat: np.where(np.any(lat.freqs != 0, axis=1), 1.0, 0.0),
                            0.0, 0.0)
        model = quiet_model(model.fwd, gaussian_prior(flat, r=1.0), 0.51, 1, model.delta)
        m = SpectralField(lat, sample_white_noise(lat, 3).coeffs)
        for estimate in (map_estimate, posterior):
            with pytest.raises(ValueError, match="strictly positive"):
                estimate(model, m)

    def test_pcg_nonconvergence_raises_with_history(self):
        mat = np.diag(np.array([1.0, 1e8], dtype=complex))
        b = np.array([[1.0, 1.0]], dtype=complex)
        with pytest.raises(SolverError) as err:
            _pcg(lambda p, rows: p @ mat.T, b, np.array([[1.0, 1.0]]), tol=1e-30, maxiter=2)
        assert len(err.value.residuals) >= 1


class TestMapEstimateDiscrete:
    def test_identity_two_dim(self, map_estimate_discrete):
        out = map_estimate_discrete(np.eye(2), np.eye(2), 1.0, np.array([2.0, 0.0]))
        assert np.abs(out - np.array([1.0, 0.0])).max() < 1e-14

    def test_matches_spectral_path(self, map_estimate_discrete):
        lat = build_lattice(1, 16)
        prior = gaussian_prior(bessel_op(-1.0))
        model = quiet_model(bessel_op(-1.0), prior, 0.51, 1, 0.05)
        m = SpectralField(lat, sample_white_noise(lat, 5).coeffs)
        est = map_estimate(model, m)
        amat = densify(bessel_op(-1.0), lat).matrix
        cmat = densify(prior.cov, lat).matrix
        out = map_estimate_discrete(amat, cmat, 0.05, m.coeffs)
        assert np.abs(out - est.coeffs).max() < 1e-10

    def test_rectangular_forward(self, map_estimate_discrete):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 5))
        m = rng.standard_normal(3)
        out = map_estimate_discrete(a, np.eye(5), 0.5, m)
        expected = np.linalg.solve(a.T @ a + 0.25 * np.eye(5), a.T @ m)
        assert np.abs(out - expected).max() < 1e-12

    def test_huge_delta_shrinks_to_zero(self, map_estimate_discrete):
        out = map_estimate_discrete(np.eye(3), np.eye(3), 1e8, np.ones(3))
        assert np.abs(out).max() < 1e-10

    def test_singular_covariance_raises(self, map_estimate_discrete):
        with pytest.raises(ValueError, match="singular"):
            map_estimate_discrete(np.eye(2), np.zeros((2, 2)), 1.0, np.ones(2))

    def test_shape_mismatch_raises(self, map_estimate_discrete):
        with pytest.raises(ValueError):
            map_estimate_discrete(np.eye(2), np.eye(3), 1.0, np.ones(2))


class TestPosteriorCovariance:
    def test_identity_model_symbol(self):
        lat, model = identity_model(0.5)
        cov = posterior_covariance(model)
        vals = symbol_values(cov, lat)
        assert np.allclose(vals, 0.25 / 1.25)

    def test_two_forms_agree_on_dense_problems(self):
        rng = np.random.default_rng(7)
        lat = build_lattice(1, 16)
        for _ in range(10):
            phi = 1.0 + 0.5 * rng.random(lat.shape)
            fwd = variable_coeff_op(phi, bessel_op(-1.0), lat)
            prior = gaussian_prior(bessel_op(-1.0))
            model = quiet_model(fwd, prior, 0.51, 1, 10 ** rng.uniform(-2, 0))
            c1 = posterior_covariance(model, lat).matrix
            c2 = posterior_covariance_update(model, lat).matrix
            assert np.abs(c1 - c2).max() < 1e-9

    def test_update_form_covers_singular_forward(self):
        lat = build_lattice(1, 8)
        # projection onto half the modes: singular, no precision form exists
        proj = np.diag((np.arange(lat.size) % 2).astype(complex))
        fwd = DenseOp(lat, proj, 0.0, 0.0)
        prior = gaussian_prior(bessel_op(-1.0))
        model = quiet_model(fwd, prior, 0.51, 1, 0.1)
        cov = posterior_covariance_update(model, lat)
        evals = np.linalg.eigvalsh(cov.matrix)
        assert evals.min() > 0  # still a proper covariance

    def test_dense_form_positive_and_hermitian(self, dense_model):
        lat, model = dense_model
        cov = posterior_covariance(model, lat)
        assert np.abs(cov.matrix - cov.matrix.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(cov.matrix).min() > 0

    def test_diagonal_form_reads_stored_weights(self):
        # once the MAP has evaluated a and c_U, the covariance and a draw evaluate neither again
        calls = {"forward": 0, "prior": 0}

        def counting(name, op):
            def symbol(lat):
                calls[name] += 1
                return op.symbol(lat)
            return MultiplierOp(symbol, op.order_t, op.order_t0, name)

        lat = build_lattice(2, 16)
        prior_cov = compose(bessel_op(-1.0), bessel_op(-1.0))
        model = quiet_model(counting("forward", bessel_op(-1.0)),
                            gaussian_prior(counting("prior", prior_cov), 2.0), 1.01, 2, 0.05)
        m = SpectralField(lat, sample_white_noise(lat, 3).coeffs)
        map_estimate(model, m)
        assert calls == {"forward": 1, "prior": 1}
        cov = symbol_values(posterior_covariance(model), lat)
        sample_posterior(posterior(model, m), 4)
        assert calls == {"forward": 1, "prior": 1}
        a, c_u = symbol_values(bessel_op(-1.0), lat), symbol_values(prior_cov, lat).real
        assert np.array_equal(cov, 0.05**2 / (np.abs(a) ** 2 + 0.05**2 / c_u))

    def test_posterior_covariance_as_prior_of_another_model(self):
        # the prior symbol of m2 reads m1's stored weights from inside m2's: no deadlock
        lat = build_lattice(2, 16)
        base = gaussian_prior(compose(bessel_op(-1.0), bessel_op(-1.0)))
        m1 = quiet_model(bessel_op(-1.0), base, 1.01, 2, 0.1)
        m2 = quiet_model(bessel_op(-0.5), gaussian_prior(posterior_covariance(m1), 2.0),
                         1.01, 2, 0.05)
        a1, a2 = symbol_values(m1.fwd, lat), symbol_values(m2.fwd, lat)
        c1 = 0.1**2 / (np.abs(a1) ** 2 + 0.1**2 / symbol_values(base.cov, lat).real)
        c2 = 0.05**2 / (np.abs(a2) ** 2 + 0.05**2 / c1)
        data = [SpectralField(lat, sample_white_noise(lat, seed).coeffs) for seed in range(6)]
        out = {}

        def work():
            with ThreadPoolExecutor(max_workers=2) as pool:
                out["means"] = list(pool.map(lambda m: map_estimate(m2, m).coeffs, data))
            out["cov"] = symbol_values(posterior_covariance(m2), lat)

        worker = threading.Thread(target=work, daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive(), "nested stored-weight evaluation deadlocked"
        for m, mean in zip(data, out["means"]):
            assert np.allclose(mean, np.conj(a2) * m.coeffs * c2 / 0.05**2, rtol=1e-13, atol=0)
        assert np.allclose(out["cov"], c2, rtol=1e-13, atol=0)

    def test_multiplier_needs_lattice_for_dense_form(self):
        _, model = identity_model(0.5)
        from torusbayes.posterior import posterior_covariance_update

        with pytest.raises(ValueError):
            posterior_covariance_update(model, None)


class TestDensePosterior:
    def test_cov_root_and_mean(self, dense_model):
        lat, model = dense_model
        m = SpectralField(lat, sample_white_noise(lat, 16).coeffs)
        post = posterior(model, m)
        cov, root = post.cov.matrix, post.sqrt_cov.matrix
        assert np.abs(cov - posterior_covariance_update(model, lat).matrix).max() < 1e-9
        assert np.abs(root @ root.conj().T - cov).max() < 1e-12
        assert np.array_equal(root, root.conj().T)
        assert np.array_equal(cov, cov.conj().T)
        assert np.array_equal(post.mean.coeffs, map_estimate(model, m).coeffs)

    def test_map_not_keeping_real_fields_rejected(self):
        # the phi-perturbed map whose symbol's modulus is not even in l: no estimate, and no
        # pencil kept; the update form, an oracle for any map, still gives its covariance
        lat, model = pencil_case("complex-map", n=8)
        m = sample_white_noise(lat, 17)
        for call in (lambda: map_estimate(model, m), lambda: posterior(model, m),
                     lambda: posterior_covariance(model, lat)):
            with pytest.raises(ValueError, match="does not map real fields to real fields"):
                call()
        assert ("pencil", lat) not in model.fwd._cs
        assert np.linalg.eigvalsh(posterior_covariance_update(model, lat).matrix).min() > 0

    def test_covariance_built_in_one_pass(self, monkeypatch, unblocked_from_cosine_sine):
        # K = 256; small transform blocks, so the peak counts full-size arrays only
        monkeypatch.setattr(lattice_module, "_CS_BLOCK", 8)
        lat = build_lattice(2, 16)
        model = quiet_model(TestCosineSineMap.vc_fwd(lat), gaussian_prior(bessel_op(-1.0)),
                            1.01, 2, 0.1)
        _pencil(model, lat)  # kept before the measurement
        full = 16 * lat.size**2  # bytes of one complex K x K array
        tracemalloc.start()
        try:
            c_cs = _cov_cs(model, lat)
            cov = _dense_cov(model, lat, c_cs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result, the real C_cs and the transform's blocks; a conjugate copy of C, a
        # second real K x K buffer or a full-size transform temporary exceeds it
        assert peak < 1.7 * full
        # each class's block is X X^T of its factor, and the classes couple nothing
        parts = _cov_factor(model, lat)
        assert len(parts) == 4
        off = np.ones(c_cs.shape, bool)
        for idx, x in parts:
            assert c_cs[np.ix_(idx, idx)].tobytes() == (x @ x.T).tobytes()
            off[np.ix_(idx, idx)] = False
        assert not c_cs[off].any()
        assert cov.matrix.tobytes() == unblocked_from_cosine_sine(lat, c_cs).tobytes()

    def test_indefinite_normal_matrix_raises(self):
        lat = build_lattice(1, 8)
        eye = np.eye(lat.size, dtype=complex)
        # a negative prior covariance makes A^H A + delta^2 C_U^{-1} = 0.01 I - I indefinite
        prior = GaussianPrior(DenseOp(lat, -eye), 1.0, DenseOp(lat, eye))
        model = quiet_model(DenseOp(lat, 0.1 * eye), prior, 0.51, 1, 1.0)
        with pytest.raises(ValueError, match="not positive definite"):
            posterior(model, SpectralField(lat, np.zeros(lat.size, dtype=complex)))


class TestCosineSineNormal:
    """The dense normal matrix in the cosine/sine basis through the pencil."""

    def normal(self, model, lat, delta):
        a = densify(model.fwd, lat).matrix
        return a.conj().T @ a + delta**2 * np.linalg.inv(densify(model.prior.cov, lat).matrix)

    def assert_pencil(self, model, lat):
        """The kept pencil is real blocks on a partition of the coordinates, and
        F^T N F = diag(lam + delta^2) for its block-diagonal F and the reference normal
        matrix N at two noise levels."""
        lam, f = full_pencil(_pencil(model, lat), lat.size)
        for delta in (model.delta, 10.0 * model.delta):
            ref = _to_cosine_sine(lat, self.normal(model, lat, delta))
            want = lam + delta**2
            assert np.abs(f.T @ ref @ f - np.diag(want)).max() <= 1e-12 * want.max()

    def test_real_for_variable_coeff_and_heat_models(self):
        lat = build_lattice(2, 8)
        x = lat.grid_axes()[0]
        phi = 1.0 + 0.5 * np.outer(np.sin(x), np.cos(x))
        prior = gaussian_prior(bessel_op(-1.0))
        for fwd in (variable_coeff_op(phi, bessel_op(-1.0), lat), densify(heat_op(1), lat)):
            self.assert_pencil(quiet_model(fwd, prior, 1.01, 2, 0.05), lat)

    @pytest.mark.parametrize("symbol", [
        lambda lat: np.full(lat.size, 1.0 + 0.5j),  # complex A, real A^H A
        lambda lat: 1.0 + 0.25 * np.sign(lat.freqs[:, 0]),  # |a(l)| != |a(-l)|: complex A^H A too
    ], ids=["constant-complex", "odd-modulus"])
    def test_maps_not_preserving_real_fields_rejected(self, symbol):
        # complex in the cosine/sine basis: refused where the basis is entered, before any
        # decomposition; the update form, an oracle for any map, still gives a covariance
        lat = build_lattice(2, 8)
        fwd = densify(MultiplierOp(symbol, 0.0, 0.0), lat)
        model = quiet_model(fwd, gaussian_prior(bessel_op(-1.0)), 1.01, 2, 0.1)
        m = SpectralField(lat, sample_white_noise(lat, 4).coeffs)
        for call in (lambda: _to_cosine_sine(lat, fwd.matrix), lambda: _pencil(model, lat),
                     lambda: posterior(model, m)):
            with pytest.raises(ValueError, match="does not map real fields to real fields"):
                call()
        assert np.linalg.eigvalsh(posterior_covariance_update(model, lat).matrix).min() > 0

    def test_dense_prior_precision_form(self):
        lat = build_lattice(2, 8)
        x = lat.grid_axes()[0]
        fwd = variable_coeff_op(1.0 + 0.5 * np.outer(np.sin(x), np.cos(x)), bessel_op(-1.0), lat)
        model = quiet_model(fwd, gaussian_prior(densify(bessel_op(-1.0), lat), 1.0), 1.01, 2, 0.05)
        self.assert_pencil(model, lat)
        post = posterior(model, SpectralField(lat, sample_white_noise(lat, 6).coeffs))
        assert np.abs(post.cov.matrix - posterior_covariance_update(model, lat).matrix).max() < 1e-9


class TestCosineSineMap:
    """The dense MAP solve in the cosine/sine basis against the direct dense solve."""

    @staticmethod
    def vc_fwd(lat):
        x = lat.grid_axes()[0]
        return variable_coeff_op(1.0 + 0.5 * np.outer(np.sin(x), np.cos(x)), bessel_op(-1.0), lat)

    @pytest.fixture
    def solve_dtypes(self, monkeypatch, map_estimate_discrete):
        """``check(model, m)``: map_estimate against the direct solve; returns the dtypes of
        the right-hand sides its pencil solves."""

        def check(model, m):
            dtypes = []

            def recording(pencil, b, delta2):
                assert all(block.dtype == np.float64 for _, block in pencil)
                dtypes.extend([b.dtype] * len(b))  # one per row of the stack
                return _pencil_solve(pencil, b, delta2)

            monkeypatch.setattr(posterior_module, "_pencil_solve", recording)
            lat = m.lattice
            est = map_estimate(model, m).coeffs
            ref = map_estimate_discrete(densify(model.fwd, lat).matrix,
                                        densify(model.prior.cov, lat).matrix, model.delta,
                                        m.coeffs)
            assert np.linalg.norm(est - ref) <= 1e-9 * np.linalg.norm(ref)
            return dtypes

        return check

    @staticmethod
    def data(model, lat, seed):
        """A u + delta e for real fields u and e: a real field when A maps real fields to real ones."""
        u = sample_prior(gaussian_prior(bessel_op(-1.0)), lat, seed)
        return apply(model.fwd, u) + model.delta * sample_white_noise(lat, seed + 1)

    @pytest.mark.parametrize("n", [8, 16])
    def test_variable_coeff_is_one_real_solve(self, n, solve_dtypes):
        lat = build_lattice(2, n)
        model = quiet_model(self.vc_fwd(lat), gaussian_prior(bessel_op(-1.0)), 1.01, 2, 0.05)
        assert solve_dtypes(model, self.data(model, lat, n)) == [np.float64]

    def test_complex_data_is_two_real_solves(self, solve_dtypes):
        lat = build_lattice(2, 8)
        model = quiet_model(self.vc_fwd(lat), gaussian_prior(bessel_op(-1.0)), 1.01, 2, 0.05)
        rng = np.random.default_rng(9)
        m = SpectralField(lat, rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size))
        assert solve_dtypes(model, m) == [np.float64, np.float64]

    def test_dense_prior_is_one_real_solve(self, solve_dtypes):
        lat = build_lattice(2, 8)
        b = self.vc_fwd(lat).matrix
        cmat = b @ b.conj().T
        prior = gaussian_prior(DenseOp(lat, 0.5 * (cmat + cmat.conj().T), 4.0, 4.0))
        model = quiet_model(self.vc_fwd(lat), prior, 1.01, 2, 0.05)
        assert solve_dtypes(model, self.data(model, lat, 3)) == [np.float64]
        assert model.fwd._cs["pencil", lat][0] is prior.cov._cs["prior form", lat]

    def test_uneven_prior_rejected(self):
        # c_U(l) != c_U(-l): a real symbol that does not map real fields to real fields, so
        # no prior of a real field; refused with no K x K form built or kept
        lat = build_lattice(2, 8)
        bessel = bessel_op(-1.0)
        cov = MultiplierOp(lambda lat: bessel.symbol(lat) * (1.0 + 0.25 * np.sign(lat.freqs[:, 0])),
                           2.0, 2.0)
        model = quiet_model(self.vc_fwd(lat), gaussian_prior(cov, 1.0), 1.01, 2, 0.05)
        m = self.data(model, lat, 5)
        for estimate in (map_estimate, posterior):
            with pytest.raises(ValueError, match="does not map real fields to real fields"):
                estimate(model, m)
        assert ("prior form", lat) not in cov._cs and ("pencil", lat) not in model.fwd._cs

    def test_forward_matrix_changed_to_basis_once_across_threads(self, monkeypatch):
        lat = build_lattice(2, 8)
        fwd = self.vc_fwd(lat)
        prior = gaussian_prior(bessel_op(-1.0))
        models = [quiet_model(fwd, prior, 1.01, 2, delta) for delta in (0.1, 0.05, 0.02, 0.01)]
        m = self.data(models[0], lat, 7)
        calls = []
        to_cs = posterior_module._to_cosine_sine

        def counting(lat, x):
            if np.ndim(x) == 2:
                calls.append(lat)
                time.sleep(0.01)  # widen the window in which another thread could build it too
            return to_cs(lat, x)

        monkeypatch.setattr(posterior_module, "_to_cosine_sine", counting)
        results = [None] * 8

        def work(i):
            results[i] = map_estimate(models[i % len(models)], m).coeffs

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert len(calls) == 1
        pencil = fwd._cs["pencil", lat][1]
        assert not any(a.flags.writeable for part in pencil for a in part)
        assert all(_pencil(model, lat) is pencil for model in models)
        assert all(results[i].tobytes() == results[i + 4].tobytes() for i in range(4))
        posterior(models[0], m)  # the covariance reads the same pencil
        assert len(calls) == 1

    @pytest.mark.parametrize("symbol", [
        lambda lat: bessel_op(-1.0).symbol(lat),
        lambda lat: 1.0 + 0.25 * np.sign(lat.freqs[:, 0]),  # |a(l)|^2 != |a(-l)|^2
    ], ids=["even", "odd-modulus"])
    @pytest.mark.parametrize("prior_kind", ["dense", "uneven"])
    def test_multiplier_forward_is_never_densified(self, symbol, prior_kind, monkeypatch,
                                                   map_estimate_discrete):
        lat = build_lattice(2, 8)
        fwd = MultiplierOp(symbol, 0.0, 0.0)
        bessel = bessel_op(-1.0)
        cov = bessel if prior_kind == "dense" else MultiplierOp(
            lambda lat: bessel.symbol(lat) * (1.0 + 0.25 * np.sign(lat.freqs[:, 1])), 2.0, 2.0)
        m = SpectralField(lat, sample_white_noise(lat, 12).coeffs)
        densified, to_dense = [], posterior_module.densify
        monkeypatch.setattr(posterior_module, "densify",
                            lambda op, lat: densified.append(op) or to_dense(op, lat))
        a = symbol(lat)
        if prior_kind == "uneven" or not np.array_equal(a, a[lat.conj_index]):
            # an uneven prior or an odd-modulus map keeps no real field real: refused from
            # the prior's form or the map's symbol, still with no densified copy of the map
            with pytest.raises(ValueError, match="does not map real fields to real fields"):
                map_estimate(quiet_model(fwd, gaussian_prior(densify(cov, lat), 1.0),
                                         1.01, 2, 0.05), m)
            assert not any(op is fwd for op in densified)
            return
        model = quiet_model(fwd, gaussian_prior(densify(cov, lat), 1.0), 1.01, 2, 0.05)
        est = map_estimate(model, m).coeffs
        post = posterior(model, m)
        assert densified and not any(op is fwd for op in densified)
        ref = map_estimate_discrete(np.diag(symbol_values(fwd, lat)),
                                    model.prior.cov.matrix, model.delta, m.coeffs)
        assert np.linalg.norm(est - ref) <= 1e-9 * np.linalg.norm(ref)
        assert np.array_equal(post.mean.coeffs, est)
        update = posterior_covariance_update(model, lat).matrix
        assert np.abs(post.cov.matrix - update).max() < 1e-9

    def test_normal_matrix_sums_one_gram_across_deltas(self, monkeypatch):
        # N = G + delta^2 C_U^{-1} at every delta from one pencil: F^T N F = diag(lam + delta^2)
        lat = build_lattice(2, 8)
        fwd = self.vc_fwd(lat)
        prior = gaussian_prior(bessel_op(-1.0))
        calls, to_cs = [], posterior_module._to_cosine_sine
        monkeypatch.setattr(posterior_module, "_to_cosine_sine",
                            lambda lat, x: calls.append(np.ndim(x)) or to_cs(lat, x))
        a_mat = fwd.matrix
        for delta in (0.1, 0.01, 0.001):
            model = quiet_model(fwd, prior, 1.01, 2, delta)
            pencil = _pencil(model, lat)
            c_inv = np.diag(1.0 / symbol_values(prior.cov, lat))
            ref = to_cs(lat, a_mat.conj().T @ a_mat + delta**2 * c_inv)
            lam, f = full_pencil(pencil, lat.size)
            assert np.abs(f.T @ ref @ f - np.diag(lam + delta**2)).max() <= 1e-12 * (lam.max() + delta**2)
            assert fwd._cs["pencil", lat][1] is pencil
        assert calls.count(2) == 1

    def test_dense_prior_factored_once_per_pencil(self, monkeypatch):
        lat = build_lattice(2, 8)
        prior = gaussian_prior(densify(compose(bessel_op(-1.0), bessel_op(-1.0)), lat))
        fwd = self.vc_fwd(lat)
        models = [quiet_model(fwd, prior, 1.01, 2, d) for d in (0.1, 0.01, 0.001)]
        m = self.data(models[0], lat, 11)
        calls = []
        for name in ("inv", "cholesky"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, name=name, real=real:
                                calls.append((name, a.shape)) or real(a))
        for model in models:
            map_estimate(model, m)
            posterior(model, m)
        assert calls == [("cholesky", (lat.size, lat.size))]
        c_form = prior.cov._cs["prior form", lat]
        assert c_form.dtype == np.float64 and not c_form.flags.writeable
        assert fwd._cs["pencil", lat][0] is c_form


class TestLockstepSolves:
    """_map_means: one data set at every noise level, one pencil solve for the whole stack."""

    DELTAS = tuple(np.geomspace(1e-1, 1e-3, 5))

    @classmethod
    def problem(cls, n):
        """The phi-perturbed map on n^2 and one real data set A u + delta e per delta."""
        lat = build_lattice(2, n)
        fwd = TestCosineSineMap.vc_fwd(lat)
        prior = gaussian_prior(compose(bessel_op(-1.0), bessel_op(-1.0)))
        models = [quiet_model(fwd, prior, 1.01, 2, delta) for delta in cls.DELTAS]
        au = apply(fwd, sample_prior(prior, lat, n)).coeffs
        e = sample_white_noise(lat, n + 1).coeffs
        return lat, models, np.stack([[au + model.delta * e] for model in models])

    @staticmethod
    def recording(monkeypatch):
        """Record the shape of the right-hand-side stack of every _pencil_solve call."""
        shapes = []

        def recording(block, b, delta2):
            shapes.append(b.shape)
            return _pencil_solve(block, b, delta2)

        monkeypatch.setattr(posterior_module, "_pencil_solve", recording)
        return shapes

    @staticmethod
    def assert_close(mean, ref):
        assert np.linalg.norm(mean - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [8, 16])
    def test_rows_equal_one_row_solves(self, n, monkeypatch):
        lat, models, data = self.problem(n)
        shapes = self.recording(monkeypatch)
        means = _map_means(models, lat, data)
        assert means.shape == data.shape
        assert shapes == [(len(models), lat.size)]  # one real row per noise level, one call
        for model, m, mean in zip(models, data, means):
            self.assert_close(mean[0], map_estimate(model, SpectralField(lat, m[0])).coeffs)
        assert shapes[1:] == [(1, lat.size)] * len(models)

    @pytest.mark.parametrize("kind", ["diagonal", "dense"])
    def test_rows_of_one_model_equal_one_row_per_model(self, kind):
        # the (rows, K) stack of one model, as the diagonal per-delta and the c0 calls pass
        # it, solves each row as a model per row does
        lat, models, data = self.problem(8)
        if kind == "diagonal":
            models = [quiet_model(bessel_op(-1.0), m.prior, 1.01, 2, m.delta) for m in models]
        stack = data[:, 0]
        means = _map_means(models[:1], lat, stack[None])
        assert means.shape == (1, len(stack), lat.size)
        assert means[0].tobytes() == _map_means(models[:1] * len(stack), lat,
                                                stack[:, None])[:, 0].tobytes()

    @pytest.mark.parametrize("n", [8, 16])
    def test_row_that_cannot_converge_is_the_only_one_dropped(self, n):
        lat, models, data = self.problem(n)
        bad = 2
        data[bad] = np.nan
        means = _map_means(models, lat, data)
        assert not np.isfinite(means[bad]).any()
        for j, (model, m) in enumerate(zip(models, data)):
            if j != bad:
                self.assert_close(means[j, 0], map_estimate(model, SpectralField(lat, m[0])).coeffs)
        with pytest.raises(SolverError, match="not finite"):
            map_estimate(models[bad], SpectralField(lat, data[bad, 0]))

    def test_non_finite_diagonal_row_is_the_only_one_dropped(self):
        # one NaN coefficient leaves the other K - 1 entries of its mean finite
        lat = build_lattice(2, 8)
        fwd, prior = bessel_op(-1.0), gaussian_prior(compose(bessel_op(-1.0), bessel_op(-1.0)))
        models = [quiet_model(fwd, prior, 1.01, 2, delta) for delta in self.DELTAS]
        m = sample_white_noise(lat, 3)
        data = np.tile(m.coeffs, (len(models), 1, 1))
        bad = 2
        data[bad, 0, 5] = np.nan
        means = _map_means(models, lat, data)
        assert np.flatnonzero(~np.isfinite(means[bad, 0])).tolist() == [5]
        for j, model in enumerate(models):
            if j != bad:
                assert means[j, 0].tobytes() == map_estimate(model, m).coeffs.tobytes()
        with pytest.raises(SolverError, match="not finite"):
            map_estimate(models[bad], SpectralField(lat, data[bad, 0]))

    @pytest.mark.parametrize("kind", ["diagonal", "dense-prior", "dense-forward"])
    def test_infinite_datum_raises_solver_error_not_warning(self, kind):
        # 0 * inf in the solve is NaN: its row fails the finite check, with no numpy warning
        lat = build_lattice(2, 8)
        fwd, prior = bessel_op(-1.0), gaussian_prior(compose(bessel_op(-1.0), bessel_op(-1.0)))
        if kind == "dense-prior":
            prior = gaussian_prior(densify(prior.cov, lat), prior.r)
        elif kind == "dense-forward":
            fwd = densify(fwd, lat)
        model = quiet_model(fwd, prior, 1.01, 2, 1e-2)
        coeffs = sample_white_noise(lat, 3).coeffs.copy()
        coeffs[5] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="not finite"):
                map_estimate(model, SpectralField(lat, coeffs))

    def test_zero_row_converges_at_once(self):
        lat, models, data = self.problem(8)
        data[1] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            means = _map_means(models, lat, data)
        assert not np.any(means[1])
        ref = map_estimate(models[0], SpectralField(lat, data[0, 0])).coeffs
        self.assert_close(means[0, 0], ref)

    def test_pcg_failed_row_keeps_others(self):
        # diagonal systems: a row with one eigenvalue converges in one step, one with
        # three cannot in two; the error carries every row's solution
        mats = np.array([[2.0, 2.0, 2.0], [1.0, 10.0, 100.0], [5.0, 5.0, 5.0]])
        b = np.ones((3, 3))
        with pytest.raises(SolverError) as err:
            _pcg(lambda p, rows: mats[rows] * p, b, np.ones((3, 3)), tol=1e-12, maxiter=2)
        x = err.value.solution
        assert np.allclose(x[0], 0.5, rtol=1e-15) and np.allclose(x[2], 0.2, rtol=1e-15)
        assert err.value.residuals[-1][1] > 1e-12 and len(err.value.residuals) == 3

    def test_models_must_share_operators(self):
        lat, models, data = self.problem(8)
        other = quiet_model(models[0].fwd, gaussian_prior(bessel_op(-1.0)), 1.01, 2, 0.1)
        with pytest.raises(ValueError, match="share"):
            _map_means([models[0], other], lat, data[:2])


def diagonal_model(lat, delta=0.05):
    """The diagonal model with the forward map and prior of :func:`pencil_case`'s
    "even-prior" case without its coefficient: bessel(-1) and the prior bessel(-2)."""
    bessel = bessel_op(-1.0)
    return quiet_model(bessel, gaussian_prior(compose(bessel, bessel)), 1.01, 2, delta)


def pencil_case(case, n=16, delta=0.05):
    """A phi-perturbed model on n^2: an even multiplier prior, a dense prior, or a map
    that does not keep real fields real (the symbol's modulus is not even in l), which
    every entry point refuses."""
    lat = build_lattice(2, n)
    bessel = bessel_op(-1.0)
    prior = gaussian_prior(compose(bessel, bessel))
    fwd = TestCosineSineMap.vc_fwd(lat)
    if case == "dense-prior":
        cmat = fwd.matrix @ fwd.matrix.conj().T  # C = B B^H: dense, not diagonal
        prior = gaussian_prior(DenseOp(lat, 0.5 * (cmat + cmat.conj().T), 4.0, 4.0))
    elif case == "complex-map":
        odd = MultiplierOp(lambda lat: bessel.symbol(lat) * (1.0 + 0.25 * np.sign(lat.freqs[:, 0])),
                           2.0, 2.0)
        x = lat.grid_axes()[0]
        fwd = variable_coeff_op(1.0 + 0.5 * np.outer(np.sin(x), np.cos(x)), odd, lat)
    return lat, quiet_model(fwd, prior, 1.01, 2, delta)


PENCIL_CASES = ["even-prior", "dense-prior", "complex-map"]


def refused(case, call):
    """For the case "complex-map", check that ``call()`` refuses its map and return True;
    for the other cases return False without calling it."""
    if case != "complex-map":
        return False
    with pytest.raises(ValueError, match="does not map real fields to real fields"):
        call()
    return True


def counting_eigen(monkeypatch):
    """Patch numpy's eigh and eigvalsh to record (name, shape) of each call."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, real=real, name=name:
                            calls.append((name, a.shape)) or real(a))
    return calls


class TestPencil:
    """One pencil decomposition per forward map, lattice and prior serves every noise level."""

    @pytest.mark.parametrize("case", PENCIL_CASES)
    def test_means_match_direct_solve(self, case, map_estimate_discrete):
        lat, model = pencil_case(case)
        deltas = default_config("bayes").deltas
        models = [quiet_model(model.fwd, model.prior, 1.01, 2, delta) for delta in deltas]
        au = apply(model.fwd, sample_prior(gaussian_prior(bessel_op(-1.0)), lat, 3))
        e = sample_white_noise(lat, 4)
        data = np.stack([[(au + delta * e).coeffs] for delta in deltas])
        if refused(case, lambda: _map_means(models, lat, data)):
            return
        means = _map_means(models, lat, data)
        a_mat, c_mat = model.fwd.matrix, densify(model.prior.cov, lat).matrix
        assert all(block.dtype == np.float64 for _, block in _pencil(model, lat))
        for delta, m, mean in zip(deltas, data, means):
            ref = map_estimate_discrete(a_mat, c_mat, delta, m[0])
            assert np.linalg.norm(mean[0] - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_means_match_iterative_oracle(self):
        # lockstep conjugate gradients on the normal equations G + delta^2 C_U^{-1} in the
        # cosine/sine basis, the solver the pencil replaced
        lat, model = pencil_case("even-prior")
        deltas = np.array(default_config("bayes").deltas)
        models = [quiet_model(model.fwd, model.prior, 1.01, 2, delta) for delta in deltas]
        m = sample_white_noise(lat, 5)
        a_cs = _to_cosine_sine(lat, model.fwd.matrix)
        gram = a_cs.T @ a_cs
        _pencil(model, lat)
        c_form = model.fwd._cs["pencil", lat][0]  # the even c_U in cosine/sine order
        b = np.tile(a_cs.T @ _rows_to_cosine_sine(lat, m.coeffs), (len(deltas), 1))
        diag = np.diag(gram) + deltas[:, None] ** 2 / c_form
        x, _ = _pcg(lambda p, rows: p @ gram + deltas[rows, None] ** 2 * p / c_form,
                    b, diag, CG_TOL, 10 * lat.size)
        means = _map_means(models, lat, np.tile(m.coeffs, (len(deltas), 1, 1)))
        for mean, ref in zip(means[:, 0], _rows_from_cosine_sine(lat, x)):
            assert np.linalg.norm(mean - ref) <= 1e-7 * np.linalg.norm(ref)

    def test_one_eigh_per_operator_lattice_and_prior_value(self, monkeypatch):
        lat, model = pencil_case("even-prior", n=8)
        m = sample_white_noise(lat, 6)
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))

        def solve(prior, deltas=(0.1, 0.01, 0.001)):
            models = [quiet_model(model.fwd, prior, 1.01, 2, delta) for delta in deltas]
            _map_means(models, lat, np.tile(m.coeffs, (len(models), 1, 1)))
            map_estimate(models[-1], m)
            assert [key[0] for key in model.fwd._cs] == ["pencil"]  # at most one kept
            return model.fwd._cs["pencil", lat][1]

        first = solve(model.prior)
        assert len(first) == 4 and calls == class_shapes(first)  # one eigh per class
        # an equal prior built anew reads the kept pencil
        assert solve(gaussian_prior(compose(bessel_op(-1.0), bessel_op(-1.0)))) is first
        assert len(calls) == 4
        # a different prior replaces it, and the first prior then replaces that one
        other = solve(gaussian_prior(bessel_op(-1.0)))
        assert calls[4:] == class_shapes(other) and other is not first
        again = solve(model.prior)
        assert len(calls) == 4 + len(other) + 4
        assert all(np.array_equal(a, b) for part, ref in zip(again, first)
                   for a, b in zip(part, ref))

    def test_alternating_priors_across_threads(self, map_estimate_discrete):
        # threads that alternate between two priors keep replacing the one kept pencil;
        # each solve still reads a whole pencil of its own prior
        lat, model = pencil_case("even-prior", n=8)
        priors = (model.prior, gaussian_prior(bessel_op(-1.0)))
        models = [quiet_model(model.fwd, prior, 1.01, 2, 0.05) for prior in priors]
        m = sample_white_noise(lat, 8)
        expected = [map_estimate_discrete(model.fwd.matrix, densify(mdl.prior.cov, lat).matrix,
                                          mdl.delta, m.coeffs) for mdl in models]
        results = {}

        def work(i):
            for j in range(6):
                k = (i + j) % 2
                results[i, j] = k, map_estimate(models[k], m).coeffs

        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads) and len(results) == 36
        for k, mean in results.values():
            assert np.linalg.norm(mean - expected[k]) <= 1e-10 * np.linalg.norm(expected[k])
        assert [key[0] for key in model.fwd._cs] == ["pencil"]

    @pytest.mark.parametrize("case", ["even-prior", "complex-map"])
    def test_runner_root_and_trace(self, case, monkeypatch):
        # the runners' trace and ball law from the kept pencil: per call and class, one
        # eigh of M = Y^T Y for a law that reads offsets, or one eigvalsh of it for one
        # that reads central tails only, whose trace is the same number; the pencil's real
        # block-diagonal factor X stands in for the Hermitian root H.  A map that keeps no
        # real field real is refused before any decomposition.
        lat, model = pencil_case(case, n=8)
        calls = counting_eigen(monkeypatch)
        if refused(case, lambda: _trace_ball(model, lat, 0.0, offsets=False)):
            assert calls == []
            return
        herm = _to_cosine_sine(lat, posterior(model, sample_white_noise(lat, 7)).sqrt_cov.matrix)
        for zeta in (0.0, -1.5):
            ref = posterior_trace(posterior_covariance(model, lat), zeta)
            w = sobolev_weight(lat, zeta)[_cosine_sine_modes(lat)[0]]
            y = np.sqrt(w)[:, None] * herm
            mu = np.linalg.eigvalsh(y.T @ y)
            traces = []
            for offsets, law_call in ((True, "eigh"), (False, "eigvalsh")):
                calls.clear()
                trace, ball = _trace_ball(model, lat, zeta, offsets)
                assert calls == [(law_call, shape) for shape in class_shapes(_pencil(model, lat))]
                traces.append(trace)
                assert abs(trace - ref) <= 1e-12 * ref
                # the law's eigenvalues, each with one degree of freedom, are those of
                # Y^T Y for Y = sqrt(w) H, and sum to the trace
                lam = np.repeat(ball.lam, ball.dof.astype(int))
                assert lam.shape == mu.shape and np.abs(lam - mu).max() <= 1e-12 * mu.max()
                assert abs(ball.lam @ ball.dof - trace) <= 1e-12 * trace
                assert (ball._proj is not None) == offsets
            assert traces[0] == traces[1]


class TestPencilClasses:
    """The pencil splits into the classes of coordinates that S and the prior form couple,
    and a split pencil gives the numbers of the whole one to rounding."""

    @staticmethod
    def forms(model, lat):
        """S = (A_cs R)^T (A_cs R) and the prior form of a model with a multiplier prior."""
        c_form = _prior_form(model.prior.cov, lat)
        b = _to_cosine_sine(lat, model.fwd.matrix) * np.sqrt(c_form)
        return b.T @ b, c_form

    @staticmethod
    def phi_model(lat, phi):
        return quiet_model(variable_coeff_op(phi, bessel_op(-1.0), lat),
                           gaussian_prior(compose(bessel_op(-1.0), bessel_op(-1.0))), 1.01, 2, 0.05)

    def test_benchmark_phi_splits_into_closed_classes(self):
        # phi = 1 + sin x cos y / 2 couples l only with l + (+-1, +-1), and flips cosine and
        # sine with each step: four classes, none joined to another by an entry of S past
        # the threshold, each connected
        lat, model = pencil_case("even-prior")
        s, c_form = self.forms(model, lat)
        classes = _classes(s, c_form)
        assert len(classes) == 4 and sorted(c.size for c in classes) == [62, 64, 64, 66]
        assert np.array_equal(np.sort(np.concatenate(classes)), np.arange(lat.size))
        assert [c[0] for c in classes] == sorted(c[0] for c in classes)
        tol = _COUPLING_TOL * np.abs(s).max()
        for c in classes:
            inside = np.zeros(lat.size, bool)
            inside[c] = True
            assert np.abs(s[np.ix_(inside, ~inside)]).max() <= tol
            # connected: a walk along the coupled entries from its first coordinate covers it
            reached = np.zeros(lat.size, bool)
            reached[c[0]] = True
            for _ in range(c.size):
                reached |= (np.abs(s[reached]) > tol).any(axis=0)
            assert np.array_equal(reached, inside)
        assert [idx.tolist() for idx, _ in _pencil(model, lat)] == [c.tolist() for c in classes]

    def test_x_only_phi_gives_one_class_per_ly_coset(self):
        # phi(x) couples l only with l + (+-1, 0), cosines and sines alike: the coordinates
        # of the modes with one |l_y| form one class, n / 2 + 1 classes in all
        lat = build_lattice(2, 16)
        x = lat.grid_axes()[0]
        phi = np.repeat((1.0 + 0.5 * np.sin(x) + 0.25 * np.cos(x))[:, None], lat.n_per_dim, 1)
        classes = _classes(*self.forms(self.phi_model(lat, phi), lat))
        ly = np.abs(lat.freqs[lat._mode_order, 1])  # |l_y| of each cosine/sine coordinate
        assert len(classes) == lat.n_per_dim // 2 + 1
        assert sorted(int(ly[c[0]]) for c in classes) == list(range(lat.n_per_dim // 2 + 1))
        assert all(np.all(ly[c] == ly[c[0]]) for c in classes)

    def test_connected_graph_gives_one_class(self):
        # a phi with full Fourier support, or a dense prior whose form couples every
        # coordinate (its Cholesky factor has no structure), gives one class
        lat = build_lattice(2, 8)
        rng = np.random.default_rng(4)
        model = self.phi_model(lat, 1.0 + 0.5 * rng.random(lat.shape))
        ((idx, block),) = _pencil(model, lat)
        assert np.array_equal(idx, np.arange(lat.size)) and block.shape == (lat.size + 1, lat.size)
        b = rng.standard_normal((lat.size, lat.size))
        c_cs = b @ b.T / lat.size + np.eye(lat.size)
        prior = gaussian_prior(DenseOp(lat, lattice_module._from_cosine_sine(lat, c_cs), 4.0, 4.0))
        dense = quiet_model(pencil_case("even-prior", n=8)[1].fwd, prior, 1.01, 2, 0.05)
        assert len(_pencil(dense, lat)) == 1
        # a map that annihilates the modes of even l_x, among them the last coordinates in
        # cosine/sine order: S = R^T G R couples none of those past the last one G keeps,
        # and only the prior form joins them to the rest
        odd = MultiplierOp(lambda lat: bessel_op(-1.0).symbol(lat) * (lat.freqs[:, 0] % 2 == 1),
                           1.0, 1.0)
        low = densify(odd, lat)
        singular = quiet_model(low, prior, 1.01, 2, 0.05)
        s = _to_cosine_sine(lat, low.matrix) @ np.linalg.cholesky(c_cs)
        assert len(_classes(s.T @ s, np.diag(c_cs))) > 1
        assert len(_pencil(singular, lat)) == 1
        update = posterior_covariance_update(singular, lat).matrix
        assert np.abs(posterior_covariance(singular, lat).matrix - update).max() < 1e-9

    @pytest.mark.parametrize("case", ["even-prior", "dense-prior"])
    def test_split_pencil_matches_one_class(self, case, monkeypatch):
        # the same numbers from the whole pencil, one class, to rounding and to the cross
        # entries of S (below _COUPLING_TOL of its largest) that the split drops
        lat, model = pencil_case(case, n=8)
        deltas = (0.1, 0.01, 0.001)

        def numbers():
            models = [quiet_model(model.fwd, model.prior, 1.01, 2, delta) for delta in deltas]
            au = apply(model.fwd, sample_prior(gaussian_prior(bessel_op(-1.0)), lat, 3))
            e = sample_white_noise(lat, 4)
            data = np.stack([[(au + delta * e).coeffs, e.coeffs] for delta in deltas])
            u = sample_prior(gaussian_prior(bessel_op(-1.0)), lat, 5).coeffs
            out = {"means": _map_means(models, lat, data),
                   "cov": np.stack([_cov_cs(m, lat) for m in models]),
                   "noise": np.array([_noise_trace(m, lat) for m in models]),
                   "biases": _biases(models, lat, u)}
            rng = np.random.default_rng(6)
            for m in models:
                trace, ball = _trace_ball(m, lat, -0.5, noise=True)
                offsets = np.sqrt(trace / lat.size) * (rng.standard_normal((2, lat.size))
                                                       + 1j * rng.standard_normal((2, lat.size)))
                for scale in (0.8, 1.2):
                    radius = scale * np.sqrt(trace)
                    out.setdefault("tails", []).append(ball._escape_probs(radius))
                    out["tails"].append(ball._escape_probs(radius, offsets))
            out["classes"] = len(_pencil(model, lat))
            model.fwd._cs.clear()  # the next call builds its own pencil
            return out

        split = numbers()
        monkeypatch.setattr(posterior_module, "_classes", lambda *forms: [np.arange(len(forms[0]))])
        whole = numbers()
        assert split["classes"] == 4 and whole["classes"] == 1
        # each side's eigh rounds F by about eps |S| / gap; with eigenvalues of S down to
        # 1e-6 of its largest the two differ by up to 3e-11 relative at delta = 1e-3 here
        for key, axes in (("means", -1), ("biases", -1), ("cov", (1, 2))):
            scale = np.abs(whole[key]).max(axis=axes, keepdims=True)
            assert np.all(np.abs(split[key] - whole[key]) <= 1e-9 * scale), key
        np.testing.assert_allclose(split["noise"], whole["noise"], rtol=1e-12, atol=0)
        rows = 0
        for (p, bound), (p_whole, bound_whole) in zip(split["tails"], whole["tails"]):
            assert np.all(np.abs(p - p_whole) <= bound + bound_whole + 1e-14)
            rows += np.count_nonzero((p > 1e-6) & (p < 1.0 - 1e-6))
        assert rows >= 12  # central and noncentral rows read through the integral


class TestDeferredRoot:
    """posterior() on a dense model makes no eigh; sqrt_cov builds the Hermitian root on
    its first read and keeps it."""

    def test_eigh_only_on_first_read(self, monkeypatch):
        lat, model = pencil_case("even-prior", n=8)
        m = sample_white_noise(lat, 9)
        _pencil(model, lat)  # kept before the count
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        post = posterior(model, m)
        assert calls == []
        root = post.sqrt_cov
        assert calls == [(lat.size, lat.size)]
        assert post.sqrt_cov is root and len(calls) == 1

    @pytest.mark.parametrize("case", ["even-prior", "complex-map"])
    def test_root_bytes_match_cov_root(self, case):
        lat, model = pencil_case(case, n=8)
        if refused(case, lambda: posterior(model, sample_white_noise(lat, 10))):
            return
        post = posterior(model, sample_white_noise(lat, 10))
        cov = _dense_cov(model, lat, _cov_cs(model, lat))
        assert post.cov.matrix.tobytes() == cov.matrix.tobytes()
        root = post.sqrt_cov.matrix
        assert np.array_equal(root, root.conj().T)  # exactly Hermitian
        assert np.abs(root @ root - cov.matrix).max() <= 1e-12 * np.abs(cov.matrix).max()
        assert (post.sqrt_cov.label, post.sqrt_cov.order_t, post.sqrt_cov.order_t0) == \
            (f"sqrt(postcov({model.fwd.label}))", cov.order_t / 2.0, cov.order_t0 / 2.0)

    def test_takes_mean_and_cov_only(self, dense_model):
        # the root is never given: it is built from the covariance on first read
        lat, model = dense_model
        post = posterior(model, sample_white_noise(lat, 11))
        assert [f.name for f in dataclasses.fields(PosteriorGaussian)] == ["mean", "cov"]
        with pytest.raises(TypeError):
            PosteriorGaussian(post.mean, post.cov, DenseOp(lat, np.eye(lat.size)))
        again = PosteriorGaussian(post.mean, post.cov)
        assert again.sqrt_cov.matrix.tobytes() == post.sqrt_cov.matrix.tobytes()

    def test_concurrent_first_reads_agree(self):
        lat, model = pencil_case("even-prior", n=8)
        post = posterior(model, sample_white_noise(lat, 12))
        start = threading.Barrier(2)

        def read(_):
            start.wait(timeout=60)
            return post.sqrt_cov.matrix.tobytes()

        with ThreadPoolExecutor(2) as pool:
            first, second = pool.map(read, range(2))
        assert first == second == post.sqrt_cov.matrix.tobytes()

    def test_not_positive_definite_raises_at_read(self):
        lat, model = pencil_case("even-prior", n=8)
        post = posterior(model, sample_white_noise(lat, 13))
        bad = PosteriorGaussian(post.mean, DenseOp(lat, -np.eye(lat.size)))
        with pytest.raises(ValueError, match="not positive definite"):
            bad.sqrt_cov


class TestPosteriorTrace:
    def test_identity_model_value(self):
        lat, model = identity_model(0.5, n=8)
        cov = posterior_covariance(model)
        expected = lat.size * 0.25 / 1.25
        assert abs(posterior_trace(cov, 0.0, lat) - expected) < 1e-12

    def test_monotone_in_delta(self):
        lat = build_lattice(2, 16)
        prior = gaussian_prior(bessel_op(-1.0))
        traces = []
        for delta in np.geomspace(1e-3, 1e0, 7):
            model = quiet_model(bessel_op(-1.0), prior, 1.01, 2, delta)
            traces.append(posterior_trace(posterior_covariance(model), 0.0, lat))
        assert all(a < b for a, b in zip(traces, traces[1:]))

    def test_dense_rejects_other_lattice(self, dense_model):
        lat, model = dense_model
        cov = posterior_covariance(model, lat)
        assert posterior_trace(cov, 0.0, build_lattice(1, 16)) == posterior_trace(cov, 0.0)
        with pytest.raises(ValueError, match="lattice does not match dense operator lattice"):
            posterior_trace(cov, 0.0, build_lattice(1, 8))

    def test_dense_matches_multiplier(self):
        lat = build_lattice(1, 8)
        prior = gaussian_prior(bessel_op(-1.0))
        model = quiet_model(bessel_op(-1.0), prior, 0.51, 1, 0.3)
        diag = posterior_trace(posterior_covariance(model), 1.0, lat)
        dense = posterior_trace(posterior_covariance_update(model, lat), 1.0)
        assert abs(diag - dense) < 1e-10

    def test_symbol_not_real_rejected(self):
        cov = gaussian_prior(heat_op(1)).cov
        with pytest.raises(ValueError, match="strictly positive real"):
            posterior_trace(cov, 0.0, build_lattice(2, 8))


class TestSampling:
    def test_samples_collapse_with_delta(self):
        lat = build_lattice(1, 16)
        prior = gaussian_prior(bessel_op(-1.0))
        m = SpectralField(lat, sample_white_noise(lat, 8).coeffs)
        spreads = []
        for delta in (1e0, 1e-2, 1e-4):
            post = posterior(quiet_model(bessel_op(-1.0), prior, 0.51, 1, delta), m)
            draws = [sample_posterior(post, (9, i)).coeffs - post.mean.coeffs
                     for i in range(50)]
            spreads.append(np.mean([np.linalg.norm(d) for d in draws]))
        assert spreads[0] > spreads[1] > spreads[2]

    def test_per_mode_variance_within_five_sigma(self):
        lat = build_lattice(1, 16)
        prior = gaussian_prior(bessel_op(-1.0))
        post = posterior(
            quiet_model(bessel_op(-1.0), prior, 0.51, 1, 0.1),
            SpectralField(lat, sample_white_noise(lat, 10).coeffs),
        )
        c = symbol_values(post.cov, lat).real
        draws = np.stack([
            sample_posterior(post, (11, i)).coeffs - post.mean.coeffs
            for i in range(2000)
        ])
        emp = np.mean(np.abs(draws) ** 2, axis=0)
        self_conj = lat.conj_index == np.arange(lat.size)
        var = np.where(self_conj, 2 * c**2, c**2)
        z = np.abs(emp - c) / np.sqrt(var / draws.shape[0])
        assert z.max() < 5.0

    def test_expected_squared_spread_matches_trace(self):
        lat = build_lattice(1, 16)
        prior = gaussian_prior(bessel_op(-1.0))
        post = posterior(
            quiet_model(bessel_op(-1.0), prior, 0.51, 1, 0.2),
            SpectralField(lat, sample_white_noise(lat, 12).coeffs),
        )
        sq = np.array([
            np.sum(np.abs(sample_posterior(post, (13, i)).coeffs - post.mean.coeffs) ** 2)
            for i in range(2000)
        ])
        tr = posterior_trace(post.cov, 0.0, lat)
        z = abs(sq.mean() - tr) / (sq.std(ddof=1) / np.sqrt(sq.size))
        assert z < 5.0


class TestCredibleBallProb:
    def build_post(self, delta=0.5):
        lat = build_lattice(1, 8)
        prior = gaussian_prior(bessel_op(-1.0))
        model = quiet_model(bessel_op(-1.0), prior, 0.51, 1, delta)
        return posterior(model, SpectralField(lat, sample_white_noise(lat, 14).coeffs))

    def test_zero_radius_gives_zero(self, credible_ball_prob):
        post = self.build_post()
        p, _ = credible_ball_prob(post, 0.0, 0.0, 200, 0)
        assert p == 0.0

    def test_huge_radius_gives_one(self, credible_ball_prob):
        post = self.build_post()
        p, _ = credible_ball_prob(post, 0.0, 1e6, 200, 0)
        assert p == 1.0

    def test_single_mode_matches_gaussian_orthant(self, credible_ball_prob):
        """Covariance has mass 1 on the constant mode and negligible elsewhere,
        so the ball probability at radius 1 is P(|N(0,1)| <= 1) = 0.68269."""
        lat = build_lattice(1, 8)
        symbol = lambda lat: np.where(np.sum(lat.freqs**2, 1) == 0, 1.0, 1e-30).astype(complex)
        cov = MultiplierOp(symbol, 0.0, 0.0)
        prior = gaussian_prior(bessel_op(0.0), r=1.0)
        model = quiet_model(bessel_op(0.0), prior, 0.51, 1, 1.0)
        post = posterior(model, SpectralField(lat, np.zeros(lat.size, dtype=complex)))
        post = PosteriorGaussian(post.mean, cov)  # its root: operator_sqrt(cov), on first read
        p, se = credible_ball_prob(post, 0.0, 1.0, 20000, 15)
        assert abs(p - 0.6826894921370859) < 5 * max(se, 1e-3)

    def test_independent_of_measurement(self, credible_ball_prob):
        lat = build_lattice(1, 8)
        prior = gaussian_prior(bessel_op(-1.0))
        model = quiet_model(bessel_op(-1.0), prior, 0.51, 1, 0.5)
        m1 = SpectralField(lat, sample_white_noise(lat, 16).coeffs)
        m2 = SpectralField(lat, 5.0 * sample_white_noise(lat, 17).coeffs)
        p1 = credible_ball_prob(posterior(model, m1), 0.0, 0.4, 500, 18)
        p2 = credible_ball_prob(posterior(model, m2), 0.0, 0.4, 500, 18)
        assert p1 == p2

    def test_rejects_small_mc_count(self, credible_ball_prob):
        post = self.build_post()
        with pytest.raises(ValueError):
            credible_ball_prob(post, 0.0, 1.0, 99, 0)

    def test_stderr_is_binomial(self, credible_ball_prob):
        post = self.build_post()
        p, se = credible_ball_prob(post, 0.0, 0.5, 400, 19)
        assert abs(se - np.sqrt(p * (1 - p) / 400)) < 1e-15


def escape_row(ball, radius, offset=None):
    """P(S >= radius^2) and its stated bound for one offset, or for the central law if
    ``offset`` is None: row 0 of one call of the law's tail, ``_escape_probs``."""
    rows = None if offset is None else np.asarray(offset, dtype=np.complex128)[None]
    p, bound = ball._escape_probs(radius, rows)
    return float(p[0]), float(bound[0])


def noncentrality_row(ball, offset):
    """Per-group noncentralities nc_g and the shift R of one offset."""
    nc, shift = ball._noncentralities(np.asarray(offset, dtype=np.complex128)[None])
    return nc[0], float(shift[0])


# the even root of one conjugate pair with lambda = 1/2 (to rounding), two degrees of freedom
PAIR_ROOT = math.sqrt(0.5)


def lone_modes_ball(values: dict, n=8, zeta=0.0):
    """Diagonal law on T^1 whose real, even root is nonzero only at the given indices and
    their mates."""
    lat = build_lattice(1, n)
    root = np.zeros(lat.size)
    for index, value in values.items():
        root[index] = root[lat.conj_index[index]] = value
    return diagonal_ball(root, lat, zeta), lat


def mc_vs_exact_case(name):
    """(mean and multiplier root of a posterior, zeta, offset) for the cross-check: the pair
    is what the Monte Carlo oracle reads of a posterior, ``mean`` and ``sqrt_cov``.  The
    root of the case "non_even" is complex and not even, so no real field has it as its
    covariance's root."""
    lat = build_lattice(2, 16)
    rng = np.random.default_rng(31)
    zeta, offset = 0.0, None
    if name == "noncentral":
        symbol = lambda lat: (1.0 + np.sum(lat.freqs.astype(float) ** 2, 1)) ** -1.0 + 0j
        field = apply(bessel_op(-1.5), sample_white_noise(lat, rng))
        offset = 0.6 * field.coeffs
    elif name == "zeta1":
        symbol = lambda lat: (1.0 + np.sum(lat.freqs.astype(float) ** 2, 1)) ** -0.5 + 0j
        zeta = -1.5
    else:  # complex, non-even root and a non-Hermitian offset
        def symbol(lat):
            f = lat.freqs
            w = np.sum(f.astype(float) ** 2, 1)
            return (1.0 + w) ** -0.75 * (1.0 + 0.5 * np.tanh(f[:, 0] + 0.5 * f[:, 1])) \
                * np.exp(0.3j * f[:, 0])
        field = apply(bessel_op(-1.5), sample_white_noise(lat, rng))
        offset = 0.6 * field.coeffs + 0.05 * (rng.standard_normal(lat.size)
                                              + 1j * rng.standard_normal(lat.size))
    root = MultiplierOp(symbol, 0.0, 0.0)
    zero = SpectralField(lat, np.zeros(lat.size, dtype=complex))
    return types.SimpleNamespace(mean=zero, sqrt_cov=root), zeta, offset


def batch_cases():
    """(ball, radius, (n, K) offsets) stacks for the batched law: rows on different grid
    periods, far tails that Chernoff settles as 0 and as 1, and rows with c <= 0."""
    pair, lat = lone_modes_ball({1: PAIR_ROOT})
    assert pair.dof.tolist() == [2.0]
    rows = np.zeros((6, lat.size), dtype=complex)
    for row, x in zip(rows, [0.0, 3.0, 6.0, 8.0, 15.0]):
        row[1] = row[7] = PAIR_ROOT * x  # a real field, x sqrt(2) rho on the cosine: nc = 2 x^2
    rows[5, 3] = 7.0  # no root there: all of it in R
    yield pair, 6.0, rows
    lone, lat = lone_modes_ball({0: 1.0})
    rows = np.zeros((4, lat.size), dtype=complex)
    rows[1, 0], rows[2, 0], rows[3, 2] = 0.5 + 0.3j, 2.0, 3.0
    yield lone, 1.0, rows
    lat = build_lattice(2, 16)
    bessel = diagonal_ball(symbol_values(bessel_op(-1.0), lat).real, lat)
    field = sample_white_noise(lat, np.random.default_rng(5)).coeffs
    field = field / np.linalg.norm(field)  # a real field: R = 0 for an even real root
    yield bessel, np.sqrt(70.0), np.array([x * field for x in (0.0, 6.0, 8.0, 8.5, 12.0)]
                                          + [30j * field])


class TestMultiplierBall:
    @pytest.mark.parametrize("case", range(3), ids=["lone-pair", "lone-real", "bessel-16"])
    def test_batch_rows_equal_one_row_calls(self, case, monkeypatch):
        ball, radius, offsets = list(batch_cases())[case]
        periods, real = [], ball_module._Grid

        def grid(law, span, cutoff):
            periods.append(span)
            return real(law, span, cutoff)

        monkeypatch.setattr(ball_module, "_Grid", grid)
        p, bound = ball._escape_probs(radius, offsets)
        c = radius**2 - ball._noncentralities(offsets)[1]
        assert np.any((c <= 0) & (p == 1.0) & (bound == 0.0))
        if ball.lam.size > 1:
            assert len(set(periods)) >= 2 and len(periods) == len(set(periods))
        else:  # a lone mode or pair takes its closed form
            assert not periods
        if ball.dof.sum() > 1:
            assert np.any((c > 0) & (p == 0.0)) and np.any((c > 0) & (p == 1.0))
        # not bit for bit: at small sizes OpenBLAS rounds a product by its row count
        for row, p_i, bound_i in zip(offsets, p, bound):
            one, one_bound = escape_row(ball, radius, row)
            assert abs(one - p_i) <= 1e-14 and abs(one_bound - bound_i) <= 1e-14

    @pytest.mark.parametrize("radius", [float("nan"), -1.0])
    def test_rejects_bad_radius(self, radius):
        ball, _ = lone_modes_ball({1: PAIR_ROOT})
        with pytest.raises(ValueError, match="radius must be nonnegative"):
            escape_row(ball, radius)

    @pytest.mark.parametrize("radius", [1e150, 1e155, np.float64(1e155), float("inf")])
    def test_radius_past_float_range_escapes_with_zero_bound(self, radius):
        # 1e150 squared is finite but t radius^2 is not; 1e155 squared is not either
        lat = build_lattice(2, 8)
        ball = diagonal_ball(symbol_values(bessel_op(-1.0), lat).real, lat)
        offsets = np.zeros((2, lat.size), dtype=complex)
        offsets[1, 1] = offsets[1, lat.conj_index[1]] = 3.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert escape_row(ball, radius) == (0.0, 0.0)
            assert escape_row(ball, radius, offsets[1]) == (0.0, 0.0)
            p, bound = ball._escape_probs(radius, offsets)
        assert p.tolist() == [0.0, 0.0] and bound.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), complex(0.0, -np.inf)])
    def test_rejects_non_finite_offset(self, value):
        ball, lat = lone_modes_ball({1: PAIR_ROOT})
        offset = np.zeros(lat.size, dtype=complex)
        offset[2] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="offset must be finite"):
                escape_row(ball, 1.0, offset)
            with pytest.raises(ValueError, match="offset must be finite"):
                ball._escape_probs(1.0, np.stack([np.zeros(lat.size), offset]))

    def test_rejects_offset_of_wrong_shape(self):
        ball, lat = lone_modes_ball({1: PAIR_ROOT})
        for shape in ((1, lat.size + 1), (lat.size,), (1, 1, lat.size)):  # one row: (1, K)
            with pytest.raises(ValueError, match="offsets have shape"):
                ball._escape_probs(1.0, np.zeros(shape))

    @pytest.mark.parametrize("kind", ["diagonal", "dense"])
    def test_real_offset_stack_reads_as_its_complex_cast(self, kind):
        # a float64 stack, not Hermitian: the same rows, bit for bit, as its complex128 cast
        lat, model = pencil_case("even-prior", n=8)
        if kind == "diagonal":
            model = diagonal_model(lat)
        trace, ball = _trace_ball(model, lat, -0.5)
        offsets = np.sqrt(trace / lat.size) * np.random.default_rng(3).standard_normal((4, lat.size))
        as_complex = offsets.astype(np.complex128)
        for got, cast in zip(ball._noncentralities(offsets), ball._noncentralities(as_complex)):
            assert np.array_equal(got, cast)
        for radius in (0.8 * np.sqrt(trace), 1.2 * np.sqrt(trace)):
            for got, cast in zip(ball._escape_probs(radius, offsets),
                                 ball._escape_probs(radius, as_complex)):
                assert np.array_equal(got, cast)

    def test_lone_real_mode_is_a_folded_normal(self):
        ball, _ = lone_modes_ball({0: 1.0})
        p, bound = escape_row(ball, 1.0)
        assert abs((1.0 - p) - 0.6826894921370859) <= 1e-10 and bound <= 1e-10

    def test_real_mode_offset_splits_into_noncentrality_and_shift(self):
        """|xi + 0.5 + 0.3i|^2 <= 1 iff |xi + 0.5| <= sqrt(0.91), xi ~ N(0, 1) real."""
        ball, lat = lone_modes_ball({0: 1.0})
        offset = np.zeros(lat.size, dtype=complex)
        offset[0] = 0.5 + 0.3j
        p, _ = escape_row(ball, 1.0, offset)
        a = np.sqrt(0.91)
        inside = 0.5 * (math.erf((a - 0.5) / np.sqrt(2)) + math.erf((a + 0.5) / np.sqrt(2)))
        assert abs((1.0 - p) - inside) <= 1e-10

    @pytest.mark.parametrize("x", [0.1, 1.0, 3.0])
    def test_central_pair_is_exponential(self, x):
        # the cosine and the sine of the pair: lambda = rho^2, 0.5 to rounding, two degrees of
        # freedom
        ball, _ = lone_modes_ball({1: PAIR_ROOT})
        assert ball.lam.tolist() == [PAIR_ROOT**2] and ball.dof.tolist() == [2.0]
        p, bound = escape_row(ball, np.sqrt(x))
        assert abs(p - np.exp(-x / (2 * ball.lam[0]))) <= 1e-15 and bound <= 1e-14

    def test_log_mgf_evaluated_once(self, monkeypatch):
        # the log MGF of the tail bounds is the one the grid needs; a lone pair builds no grid
        calls, grids = [], []
        real_mgf, real_grid = MultiplierBall._log_mgf, ball_module._Grid

        def counting(self, *args):
            calls.append(self)
            return real_mgf(self, *args)

        def grid(law, span, cutoff):
            grids.append(law)
            return real_grid(law, span, cutoff)

        monkeypatch.setattr(MultiplierBall, "_log_mgf", counting)
        monkeypatch.setattr(ball_module, "_Grid", grid)
        plain, _ = lone_modes_ball({1: 1.0, 2: 0.1})
        pair, _ = lone_modes_ball({1: PAIR_ROOT})
        assert plain.dof.tolist() == [2.0, 2.0] and pair.dof.tolist() == [2.0]
        escape_row(plain, 1.0)
        assert calls == [plain] and grids == [plain]
        p, bound = escape_row(pair, 1.0)
        assert calls == [plain, pair] and grids == [plain]
        assert abs(p - np.exp(-1.0 / (2 * pair.lam[0]))) <= 1e-15 and bound <= 1e-14

    def test_cutoff_found_once_per_call_that_sums(self, monkeypatch):
        # the truncation-bound bisection sets the grid's last node: a lone mode or pair, which
        # takes its closed form, never runs it, and a law of several groups runs it once in
        # each call that sums the integral, none in one whose rows Chernoff settles
        calls, real = [], MultiplierBall._cutoff_for
        monkeypatch.setattr(MultiplierBall, "_cutoff_for",
                            lambda law: calls.append(law) or real(law))
        lone, _ = lone_modes_ball({0: 1.0})
        pair, _ = lone_modes_ball({1: PAIR_ROOT})
        plain, lat = lone_modes_ball({1: 1.0, 2: 0.1})
        assert lone.dof.tolist() == [1.0] and pair.dof.tolist() == [2.0] and plain.lam.size == 2
        for law in (lone, pair):
            escape_row(law, 1.0)
            escape_row(law, 1.0, np.full(lat.size, 0.3))
        assert calls == []
        escape_row(plain, 1.0)
        plain._escape_probs(1.0, np.full((2, lat.size), 0.3, dtype=complex))
        assert calls == [plain, plain]
        p, bound = escape_row(plain, 100.0)  # settled as 0 by the Chernoff bound
        assert p == 0.0 and bound <= 1e-11 and calls == [plain, plain]

    def test_groups_merge_equal_lambdas(self):
        """64^2 radial root: 4096 modes collapse to one group per distinct |l|^2."""
        lat = build_lattice(2, 64)
        ball = diagonal_ball(symbol_values(bessel_op(-1.0), lat).real, lat)
        assert ball.dof.sum() == lat.size
        assert ball.lam.size == np.unique(lat.weights).size

    def test_cumulants_match_grid_quadratic_form(self):
        """S as a real quadratic form z^T A z + b^T z + c in the grid noise z.

        Its first three cumulants, tr A + c, 2 tr A^2 + |b|^2 and
        8 tr A^3 + 6 b^T A b, must equal those of R + sum_g lambda_g
        chi^2(h_g, nc_g), 2^(k-1) (k-1)! sum_g lambda_g^k (h_g + k nc_g).
        A real diagonal root whose cosine and sine values differ, the draw
        Q^H diag(root) Q xi; a non-Hermitian offset, zeta != 0.
        """
        lat = build_lattice(2, 6)
        rng = np.random.default_rng(5)
        k = lat.size
        root = rng.standard_normal(k)
        offset = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        zeta = -0.7
        w = (1.0 + lat.weights) ** zeta
        # xi = fftn(z) / sqrt(K) as a matrix on the flattened grid
        fourier = np.fft.fftn(np.eye(k).reshape(k, *lat.shape), axes=(1, 2)).reshape(k, k).T
        q = _rows_to_cosine_sine(lat, np.eye(k)).T
        m = q.conj().T @ (root[:, None] * (q @ fourier)) / np.sqrt(k)
        a = (m.conj().T @ (w[:, None] * m)).real
        b = 2.0 * (m.conj().T @ (w * offset)).real
        c = float(np.sum(w * np.abs(offset) ** 2))
        expected = [np.trace(a) + c, 2.0 * np.trace(a @ a) + b @ b,
                    8.0 * np.trace(a @ a @ a) + 6.0 * b @ a @ b]
        ball = MultiplierBall(root, w[lat._mode_order], lat)
        nc, shift = noncentrality_row(ball, offset)
        lam, dof = ball.lam, ball.dof
        got = [np.sum(lam * (dof + nc)) + shift, 2.0 * np.sum(lam**2 * (dof + 2 * nc)),
               8.0 * np.sum(lam**3 * (dof + 3 * nc))]
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    @pytest.mark.parametrize("case", ["noncentral", "zeta1", "non_even"])
    def test_exact_matches_monte_carlo(self, case, credible_ball_prob):
        post, zeta, offset = mc_vs_exact_case(case)
        lat = post.mean.lattice
        root = symbol_values(post.sqrt_cov, lat)
        if case == "non_even":  # a complex root has no law: the constructor refuses it
            order = lat._mode_order
            with pytest.raises(ValueError, match="real root"):
                MultiplierBall(root[order], sobolev_weight(lat, zeta)[order], lat)
            return
        ball = diagonal_ball(root.real, lat, zeta)
        # radius at the mean of S, where the escape probability is far from 0 and 1
        w = (1.0 + lat.weights) ** zeta
        mean_s = np.sum(w * root.real**2)
        if offset is not None:
            mean_s += np.sum(w * np.abs(offset) ** 2)
        radius = float(np.sqrt(mean_s))
        p, bound = escape_row(ball, radius, offset)
        p_in, se = credible_ball_prob(post, zeta, radius, 20000, 41, offset=offset)
        assert 0.05 < p < 0.95 and bound <= 1e-10
        assert abs(p - (1.0 - p_in)) <= 4.0 * se

    def test_far_tails_are_exact_zero_and_one(self):
        post, zeta, offset = mc_vs_exact_case("noncentral")
        lat = post.mean.lattice
        ball = diagonal_ball(symbol_values(post.sqrt_cov, lat).real, lat, zeta)
        assert escape_row(ball, 100.0, offset)[0] == 0.0
        assert escape_row(ball, 1e-3)[0] == 1.0
        assert escape_row(ball, 0.0, offset) == (1.0, 0.0)


PAIR_RADII_SQ = np.geomspace(0.5, 300.0, 7)


def pair_laws(n_laws=24, groups=8, seed=101):
    """(law, lattice) for central multiplier laws of ``groups`` conjugate pairs with distinct
    lambda drawn from [0.05, 3]: a real, even root on a 6 x 6 lattice that is zero on the
    self-conjugate modes and on the pairs left out, under random H^zeta weights, with
    w_l rho_l^2 = lambda on both members of each pair, its cosine and its sine."""
    lat = build_lattice(2, 6)
    idx = np.arange(lat.size)
    pairs = idx[idx < lat.conj_index]
    rng = np.random.default_rng(seed)
    for _ in range(n_laws):
        zeta = rng.uniform(-1.0, 1.0)
        w = sobolev_weight(lat, zeta)
        root = np.zeros(lat.size)
        for l, lam in zip(rng.choice(pairs, groups, replace=False),
                          rng.uniform(0.05, 3.0, groups)):
            root[l] = root[lat.conj_index[l]] = np.sqrt(lam / w[l])
        yield diagonal_ball(root, lat, zeta), lat


class TestCentralPairOracle:
    """Central laws whose groups are all conjugate pairs, against the exact hypoexponential
    tail in decimal: every row within the law's own stated bound."""

    def test_one_row_calls_within_stated_bound(self, hypoexponential_tail):
        settled = 0
        for ball, _ in pair_laws():
            assert ball.dof.tolist() == [2.0] * 8 and np.unique(ball.lam).size == 8
            for c in PAIR_RADII_SQ:
                radius = math.sqrt(c)
                p, bound = ball._escape_probs(radius)
                exact = hypoexponential_tail(ball.lam, radius * radius)
                assert abs(p[0] - exact) <= bound[0] + 1e-15, (ball.lam, c, p[0], exact)
                settled += p[0] in (0.0, 1.0)
        assert settled < 24 * len(PAIR_RADII_SQ) // 2  # most rows come from the integral

    def test_batched_rows_within_stated_bound(self, hypoexponential_tail):
        # at one radius an offset on the root-free mode l = 0 only adds to the shift R, so
        # each row is the central law at its own c = radius^2 - R
        for ball, lat in pair_laws():
            assert lat.weights[0] == 0.0  # w_0 = 1 for every zeta
            offsets = np.zeros((PAIR_RADII_SQ.size, lat.size), dtype=complex)
            offsets[:, 0] = np.sqrt(400.0 - PAIR_RADII_SQ)
            radius = 20.0
            p, bound = ball._escape_probs(radius, offsets)
            nc, shift = ball._noncentralities(offsets)
            assert not nc.any()
            for p_i, bound_i, c in zip(p, bound, radius * radius - shift):
                exact = hypoexponential_tail(ball.lam, c)
                assert abs(p_i - exact) <= bound_i + 1e-15, (ball.lam, c, p_i, exact)

    def test_alias_share_covers_exact_aliased_mass(self, hypoexponential_tail, monkeypatch):
        # with the aliasing share raised to 1e-4 the periods shrink until aliasing dominates
        # the error: each row's bound must still hold the exact aliased mass
        # P(S >= c + span) + P(S < c - span) of the period it was summed with, and its error
        monkeypatch.setattr(ball_module, "_ALIAS_TOL", 1e-4)
        spans, real = [], ball_module._Grid

        def grid(law, span, cutoff):
            spans.append(span)
            return real(law, span, cutoff)

        monkeypatch.setattr(ball_module, "_Grid", grid)
        summed = 0
        for ball, _ in pair_laws():
            for c in PAIR_RADII_SQ:
                radius = math.sqrt(c)
                spans.clear()
                p, bound = ball._escape_probs(radius)
                if not spans:  # settled by its Chernoff bounds
                    continue
                (span,) = spans
                c = radius * radius
                aliased = hypoexponential_tail(ball.lam, c + span)
                if c > span:
                    aliased += 1.0 - hypoexponential_tail(ball.lam, c - span)
                exact = hypoexponential_tail(ball.lam, c)
                assert aliased <= bound[0], (ball.lam, c, span, aliased, bound[0])
                assert abs(p[0] - exact) <= bound[0] + 1e-15, (ball.lam, c, p[0], exact)
                summed += 1
        assert summed > 24 * len(PAIR_RADII_SQ) // 2


def pair_cases():
    """(x, nc) for the lone-pair tail: nc/2 from 0.005 to 200 and x from the lower tail to
    three standard deviations above the mean 2 + nc, within the range of np.i0."""
    for nc in (0.01, 0.3, 1.0, 4.0, 12.0, 40.0, 120.0, 400.0):
        for z in (-1.5, 0.0, 1.0, 3.0):
            x = 2.0 + nc + z * math.sqrt(4.0 + 4.0 * nc)
            if x > 0:
                yield x, nc


class TestLonePairTail:
    """A law of one group of two degrees of freedom, lambda chi^2(2, nc), against the
    quadrature of its density: every row within the law's own stated bound."""

    def test_conjugate_pair_within_stated_bound(self, noncentral_pair_tail):
        # rho(1) = rho(-1) = sqrt(1/2): lambda = 1/2, and o_1 = o_-1 = rho t, a real field,
        # gives R = 0 and nc = 2 t^2 on the cosine
        ball, lat = lone_modes_ball({1: PAIR_ROOT})
        cases = list(pair_cases())
        offsets = np.zeros((len(cases), lat.size), dtype=complex)
        for row, (_, nc) in zip(offsets, cases):
            row[1] = row[7] = PAIR_ROOT * math.sqrt(nc / 2)
        nc_law, shift = ball._noncentralities(offsets)
        np.testing.assert_allclose(nc_law[:, 0], [nc for _, nc in cases], rtol=1e-12)
        integral = 0
        for (x, _), row, nc, r in zip(cases, offsets, nc_law[:, 0], shift):
            radius = math.sqrt(x * ball.lam[0])
            p, bound = escape_row(ball, radius, row)
            exact = noncentral_pair_tail((radius * radius - r) / ball.lam[0], nc)
            assert abs(p - exact) <= bound + 1e-15, (x, nc, p, exact, bound)
            integral += 0.0 < p < 1.0
        assert len(cases) >= 20 and integral >= 20

    def test_merged_self_conjugate_modes_within_stated_bound(self, noncentral_pair_tail):
        # modes 0 and 4 of T^1_8 are self-conjugate: with rho = 0.7 on both, one group
        # lambda = 0.49 of two degrees of freedom, nc = sum (Re o / 0.7)^2, R = sum (Im o)^2
        ball, lat = lone_modes_ball({0: 0.7, 4: 0.7})
        assert ball.lam.tolist() == [0.7 * 0.7] and ball.dof.tolist() == [2.0]
        rng = np.random.default_rng(29)
        for radius in (0.3, 1.0, 2.5, 6.0):
            offsets = np.zeros((5, lat.size), dtype=complex)
            offsets[:, [0, 4]] = rng.uniform(-3, 3, (5, 2)) + 0.2j * rng.uniform(-1, 1, (5, 2))
            p, bound = ball._escape_probs(radius, offsets)
            nc, shift = ball._noncentralities(offsets)
            both = offsets[:, [0, 4]]
            np.testing.assert_allclose(nc[:, 0], np.sum((both.real / 0.7) ** 2, axis=1),
                                       rtol=1e-12)
            np.testing.assert_allclose(shift, np.sum(both.imag**2, axis=1), rtol=1e-12)
            for p_i, bound_i, nc_i, r in zip(p, bound, nc[:, 0], shift):
                if radius * radius > r:
                    exact = noncentral_pair_tail((radius * radius - r) / ball.lam[0], nc_i)
                    assert abs(p_i - exact) <= bound_i + 1e-15, (radius, nc_i, p_i, exact)

    def test_window_cap_states_the_larger_bound(self, noncentral_pair_tail, monkeypatch):
        # with windows of 61 counts about nc/2 = 200, the mass they leave out is a few
        # percent: the stated bound grows to cover it
        monkeypatch.setattr(ball_module, "_MAX_TERMS", 61)
        for x in (360.0, 402.0, 450.0):
            p, bound = ball_module._pair_tail(x, 400.0)
            exact = noncentral_pair_tail(x, 400.0)
            assert 1e-3 < bound < 1.0 and abs(p - exact) <= bound


class TestDenseBall:
    """The exact law of a dense posterior's ball statistic, built from the kept pencil,
    against draws of the Hermitian root of the update-form covariance, which shares no
    code with the pencil."""

    @staticmethod
    def hermitian_root(model, lat):
        ev, vec = np.linalg.eigh(posterior_covariance_update(model, lat).matrix)
        return (vec * np.sqrt(ev)) @ vec.conj().T

    @pytest.mark.parametrize("case", PENCIL_CASES)
    @pytest.mark.parametrize("zeta, scale, noncentral", [
        (-1.0, 1.2, False), (0.0, 0.8, True), (0.0, 1.2, True),
    ], ids=["central", "inner-offset", "outer-offset"])
    def test_law_agrees_with_sampling(self, case, zeta, scale, noncentral, mc_ball_hits):
        lat, model = pencil_case(case, n=8)
        if refused(case, lambda: _trace_ball(model, lat, zeta)):
            return
        trace, ball = _trace_ball(model, lat, zeta)
        offset, mean_s = None, trace
        if noncentral:
            offset = 0.5 * np.sqrt(trace) * apply(bessel_op(-1.0), sample_white_noise(lat, 3)).coeffs
            mean_s += np.sum(sobolev_weight(lat, zeta) * np.abs(offset) ** 2)
        radius = scale * np.sqrt(mean_s)
        p, bound = escape_row(ball, radius, offset)
        n = 20000
        p_in, _ = mc_ball_hits(self.hermitian_root(model, lat), lat, zeta, radius, n,
                               np.random.default_rng(21), offset)
        assert 0.01 < p < 0.99 and bound <= 1e-10
        assert abs(1.0 - p_in - p) <= 4.0 * np.sqrt(p * (1.0 - p) / n)

    @pytest.mark.parametrize("case", PENCIL_CASES)
    def test_cumulants_match_closed_form(self, case):
        # S = |sqrt(w) (H Q^H z + o)|^2 for real standard normal z is z^T a z + b^T z + c:
        # its first three cumulants against the law's, for an offset that is not a real field
        lat, model = pencil_case(case, n=8)
        zeta, k = -0.7, lat.size
        if refused(case, lambda: _trace_ball(model, lat, zeta)):
            return
        trace, ball = _trace_ball(model, lat, zeta)
        rng = np.random.default_rng(5)
        offset = np.sqrt(trace / k) * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
        w = sobolev_weight(lat, zeta)
        q_h = _rows_from_cosine_sine(lat, np.eye(k)).T  # Q^H, column by column
        m = np.sqrt(w)[:, None] * (self.hermitian_root(model, lat) @ q_h)
        a = (m.conj().T @ m).real
        b = 2.0 * (m.conj().T @ (np.sqrt(w) * offset)).real
        c = float(np.sum(w * np.abs(offset) ** 2))
        expected = [np.trace(a) + c, 2.0 * np.trace(a @ a) + b @ b,
                    8.0 * np.trace(a @ a @ a) + 6.0 * b @ a @ b]
        nc, shift = noncentrality_row(ball, offset)
        lam, dof = ball.lam, ball.dof
        got = [np.sum(lam * (dof + nc)) + shift, 2.0 * np.sum(lam**2 * (dof + 2 * nc)),
               8.0 * np.sum(lam**3 * (dof + 3 * nc))]
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_batched_rows_match_single_rows(self):
        # to rounding only: the projection is one matrix product, which BLAS may round
        # differently for a stack than for one row; the offsets are not real fields, so the
        # projection reads the real part of their cosine/sine coordinates
        lat, model = pencil_case("even-prior", n=8)
        trace, ball = _trace_ball(model, lat, 0.0)
        rng = np.random.default_rng(22)
        offsets = np.sqrt(trace / lat.size) / 2.0 * (rng.standard_normal((3, lat.size))
                                                    + 1j * rng.standard_normal((3, lat.size)))
        radius = np.sqrt(1.5 * trace)  # E S = 1.5 trace
        p, bound = ball._escape_probs(radius, offsets)
        single = np.array([escape_row(ball, radius, row) for row in offsets])
        np.testing.assert_allclose(single, np.stack([p, bound], axis=1), rtol=1e-12, atol=0)
        assert 0.05 < p.min() and p.max() < 0.95

    @pytest.mark.parametrize("case", PENCIL_CASES)
    def test_central_law_is_eigenvalues_only(self, case):
        # the law for central tails keeps no projection, reads no offset, and gives the
        # central tails of the law that reads offsets to rounding
        lat, model = pencil_case(case, n=8)
        if refused(case, lambda: _trace_ball(model, lat, -1.0, offsets=False)):
            return
        trace, full = _trace_ball(model, lat, -1.0)
        central_trace, central = _trace_ball(model, lat, -1.0, offsets=False)
        assert central_trace == trace and central._proj is None
        assert not any(isinstance(a, np.ndarray) and a.ndim > 1 for a in vars(central).values())
        for scale in (0.8, 1.0, 1.2):
            p, bound = escape_row(central, scale * np.sqrt(trace))
            p_full, bound_full = escape_row(full, scale * np.sqrt(trace))
            assert abs(p - p_full) <= 1e-14 and abs(bound - bound_full) <= 1e-14
        with pytest.raises(ValueError, match="central tails only"):
            escape_row(central, np.sqrt(trace), np.ones(lat.size))

    def test_diagonal_root_matches_its_dense_matrix(self):
        # one constructor, two branches: the K values of a multiplier root against the
        # same root as a K x K matrix, whose eigh and projection the dense branch reads
        lat = build_lattice(2, 8)
        trace, root, w = _trace_root(diagonal_model(lat), lat, -0.5)
        one_class = [(np.arange(lat.size), np.diag(root))]
        diagonal, dense = MultiplierBall(root, w, lat), MultiplierBall(one_class, w, lat)
        ((idx, places, proj),) = dense._proj
        assert np.array_equal(idx, np.arange(lat.size)) and proj.shape == (lat.size, lat.size)
        assert np.array_equal(places, np.arange(lat.size))
        rng = np.random.default_rng(8)
        field = apply(bessel_op(-1.0), sample_white_noise(lat, rng)).coeffs
        scale = np.sqrt(trace) / np.linalg.norm(field)
        offsets = np.stack([x * scale * field for x in (0.0, 0.5, 1.0)]  # real fields
                           + [0.3 * scale * (field + 1j * rng.standard_normal(lat.size))])
        rows = 0
        for radius in np.sqrt(trace) * np.array([0.6, 0.9, 1.2, 1.6]):
            for stack in (None, offsets):
                (p, bound), (p_dense, bound_dense) = (law._escape_probs(radius, stack)
                                                      for law in (diagonal, dense))
                assert np.all(np.abs(p - p_dense) <= bound + bound_dense + 1e-15)
                rows += np.count_nonzero((p > 1e-6) & (p < 1.0 - 1e-6))
        assert rows >= 12  # most rows come from the integral, not a settled tail

    def test_rejects_root_of_wrong_shape(self):
        # blocks on K + 1 coordinates, a block of the wrong size, a class out of order, a K x K
        # array that is not a list of blocks, weights of the wrong size, or a complex root
        lat = build_lattice(2, 8)
        k, w = lat.size, np.ones(lat.size)
        one = np.arange(k)
        for root, weights in (([(np.arange(k + 1), np.eye(k + 1))], w),
                              ([(one[:8], np.eye(8)), (one[8:], np.eye(k - 7))], w),
                              ([(one[::-1], np.eye(k))], w),
                              (np.eye(k), w), ([(one, np.eye(k))], w[1:]), (np.ones(k), w[1:]),
                              ([(one, np.eye(k, dtype=complex))], w),
                              (np.ones(k, dtype=complex), w)):
            with pytest.raises(ValueError, match="real root of shape .64,., or a list of its real"):
                MultiplierBall(root, weights, lat)
