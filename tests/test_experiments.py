"""Experiment runners: fits, hat truth, reproducibility, table plumbing."""

import csv
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from torusbayes.experiments import (
    ExperimentConfig,
    TruthField,
    default_config,
    fit_loglog_slope,
    make_hat_truth,
    run_appendix_b,
    run_bayes_convergence,
    run_contraction,
    run_credible,
    run_experiment,
    run_frequentist_convergence,
    write_rate_csv,
)
from torusbayes.fields import gaussian_prior, sample_white_noise, sobolev_norm
from torusbayes.lattice import SpectralField, build_lattice, inverse_transform, sobolev_weight
from torusbayes.operators import (
    MultiplierOp,
    apply,
    bessel_op,
    compose,
    densify,
    heat_op,
    symbol_values,
    variable_coeff_op,
)
from torusbayes import experiments
from torusbayes._ball import MultiplierBall, _Grid
from torusbayes.fields import operator_sqrt
from torusbayes.posterior import (
    _map_means,
    _pencil,
    _trace_ball,
    map_estimate,
    posterior,
    posterior_covariance,
    posterior_trace,
)
from test_posterior import PENCIL_CASES, counting_eigen, escape_row, pencil_case, refused
from conftest import class_shapes


def small_cfg(mode="bayes", **overrides):
    base = dict(n_per_dim=16, n_replicates=8, deltas=tuple(np.geomspace(1e-1, 1e-3, 5)))
    base.update(overrides)
    return default_config(mode, **base)


def dense_fwd(lat):
    """bessel(-1) with a smooth positive coefficient: a dense, non-commuting forward map."""
    x = lat.grid_axes()[0]
    return variable_coeff_op(1.0 + 0.5 * np.outer(np.sin(x), np.cos(x)), bessel_op(-1.0), lat)


def connected_fwd(lat):
    """bessel(-1) with a random positive coefficient, whose full Fourier support couples
    every cosine/sine coordinate: a forward map whose pencil is one class."""
    phi = 1.0 + 0.5 * np.random.default_rng(3).random(lat.shape)
    return variable_coeff_op(phi, bessel_op(-1.0), lat)


def assert_within_oracle(table, ref):
    """Each exact row of ``table`` within 4 SE of its replicate mean in ``ref``, rows of
    (mean, SE) from the ``replicate_rows`` oracle, plus 1e-10 for the stated errors of the
    exact ball laws on both sides."""
    assert len(table.rows) == len(ref)
    for row, (mean, se) in zip(table.rows, ref):
        assert abs(row.mean_error - mean) <= 4.0 * se + 1e-10, (row.delta, row.mean_error, mean, se)


@pytest.mark.parametrize("mode, run", [
    ("frequentist", run_frequentist_convergence),
    ("contraction", run_contraction),
    ("appendix_b", run_appendix_b),
], ids=["frequentist", "contraction", "appendix_b"])
def test_truth_on_other_lattice_rejected(mode, run):
    # same number of modes (16), different torus
    lat = build_lattice(1, 16)
    truth = TruthField(SpectralField(lat, np.zeros(lat.size, dtype=complex)), "zero on T^1")
    cfg = small_cfg(mode, n_per_dim=4)
    assert cfg.lattice().size == lat.size
    with pytest.raises(ValueError, match="different lattice"):
        run(cfg, truth)


@pytest.mark.parametrize("mode", ["bayes", "frequentist", "contraction", "credible"])
def test_used_deltas_are_python_floats(mode):
    table = run_experiment(default_config(mode, n_per_dim=16, n_replicates=8))
    used = [d for fit in table.fits for d in fit.used_deltas]
    assert used and all(type(d) is float for d in used)


@pytest.mark.filterwarnings("ignore::torusbayes.rates.HypothesisWarning")  # heat: r = 1/2
@pytest.mark.parametrize("mode", ["bayes", "frequentist", "contraction", "credible"])
def test_prior_symbol_not_real_rejected(mode):
    # heat(1) has a complex symbol, so it is no covariance: no run may use its real part
    # (bayes, which draws from the prior root, is the control)
    cfg = small_cfg(mode, prior=gaussian_prior(heat_op(1)), n_per_dim=8, n_mc=200)
    with pytest.raises(ValueError, match="covariance symbol must be strictly positive real"):
        run_experiment(cfg)


class TestFitLoglogSlope:
    def test_exact_power_law(self):
        deltas = np.geomspace(1e-1, 1e-4, 6)
        fit = fit_loglog_slope(deltas, deltas)
        assert abs(fit.slope - 1.0) < 1e-12 and abs(fit.r2 - 1.0) < 1e-12

    def test_scaled_square_root(self):
        deltas = np.geomspace(1e-1, 1e-4, 6)
        fit = fit_loglog_slope(deltas, 3.0 * deltas**0.5)
        assert abs(fit.slope - 0.5) < 1e-12
        assert abs(fit.intercept - np.log(3.0)) < 1e-12

    def test_floor_rows_filtered(self):
        deltas = np.geomspace(1e-1, 1e-6, 11)
        values = np.maximum(deltas, 1e-4)
        fit = fit_loglog_slope(deltas, values)
        assert abs(fit.slope - 1.0) < 1e-12
        assert len(fit.used_rows) < len(deltas)

    def test_too_few_usable_rows(self):
        deltas = np.geomspace(1e-1, 1e-4, 4)
        with pytest.raises(ValueError, match="usable rows"):
            fit_loglog_slope(deltas, np.full(4, 2.0))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1e-1, 1e-2, 1e-3], [1.0, -1.0, 1.0])

    def test_order_independent(self):
        deltas = np.geomspace(1e-1, 1e-4, 6)
        values = 2.0 * deltas**0.7
        a = fit_loglog_slope(deltas, values)
        b = fit_loglog_slope(deltas[::-1], values[::-1])
        assert abs(a.slope - b.slope) < 1e-14


class TestHatTruth:
    def test_center_one_outside_zero(self):
        lat = build_lattice(2, 64)
        truth = make_hat_truth(lat)
        values = inverse_transform(truth.u_dagger)
        center = np.unravel_index(np.argmax(values), lat.shape)
        assert abs(values[center] - 1.0) < 1e-12
        assert abs(values[0, 0]) < 1e-12  # corner is outside the support

    def test_h1_norm_stable_under_refinement(self):
        norms = [sobolev_norm(make_hat_truth(build_lattice(2, n)).u_dagger, 1.0)
                 for n in (64, 128, 256)]
        assert abs(norms[1] / norms[0] - 1.0) < 0.02
        assert abs(norms[2] / norms[1] - 1.0) < 0.02

    def test_h2_norm_grows_under_refinement(self):
        norms = [sobolev_norm(make_hat_truth(build_lattice(2, n)).u_dagger, 2.0)
                 for n in (64, 128, 256)]
        assert norms[2] > 1.3 * norms[1] > 1.3**2 * norms[0]

    def test_requires_two_dimensions(self):
        with pytest.raises(ValueError):
            make_hat_truth(build_lattice(1, 16))


class TestExperimentConfig:
    def test_rejects_short_grid(self):
        with pytest.raises(ValueError, match="4 points"):
            small_cfg(deltas=(1e-1, 1e-2, 1e-3))

    def test_rejects_increasing_grid(self):
        with pytest.raises(ValueError, match="decreasing"):
            small_cfg(deltas=(1e-3, 1e-2, 1e-1, 1.0))

    def test_rejects_narrow_span(self):
        with pytest.raises(ValueError, match="1.5 decades"):
            small_cfg(deltas=tuple(np.geomspace(1e-1, 1e-2, 5)))

    @pytest.mark.parametrize("deltas", [(0.1, float("nan"), 1e-3, 1e-4),
                                        (float("inf"), 1e-2, 1e-3, 1e-4),
                                        (1e-1, 1e-2, 1e-3, float("nan"))],
                             ids=["nan-inside", "inf-first", "nan-last"])
    def test_rejects_non_finite_grid(self, deltas):
        with pytest.raises(ValueError, match="^delta grid must be finite"):
            small_cfg(deltas=deltas)

    def test_rejects_few_replicates(self):
        with pytest.raises(ValueError, match="replicates"):
            small_cfg(n_replicates=4)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            default_config("bogus")

    @pytest.mark.parametrize("mode, overrides, match", [
        ("contraction", dict(c0=0.0), "c0 must be positive"),
        ("contraction", dict(c0=-1.0), "c0 must be positive"),
        ("credible", dict(c1=-0.5), "c1 must be positive"),
        ("credible", dict(c1=float("nan")), "c1 must be positive"),
        ("bayes", dict(zetas=()), "zetas"),
    ], ids=["c0-zero", "c0-negative", "c1-negative", "c1-nan", "no-zetas"])
    def test_rejects_bad_ball_constants(self, mode, overrides, match):
        with pytest.raises(ValueError, match=match):
            small_cfg(mode, **overrides)

    @pytest.mark.parametrize("mode, name, value", [
        ("contraction", "kappa", float("nan")),
        ("contraction", "kappa", float("inf")),
        ("contraction", "c0", float("inf")),
        ("credible", "alpha", float("nan")),
        ("credible", "zeta1", float("nan")),
        ("credible", "c1", float("inf")),
    ], ids=["kappa-nan", "kappa-inf", "c0-inf", "alpha-nan", "zeta1-nan", "c1-inf"])
    def test_rejects_non_finite_ball_parameters(self, mode, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            small_cfg(mode, **{name: value})

    def test_overrides_applied(self):
        cfg = small_cfg(master_seed=7, threads=3)
        assert cfg.master_seed == 7 and cfg.threads == 3


class TestBayesExperiment:
    def test_row_count_and_stderr_definition(self):
        cfg = small_cfg()
        table = run_bayes_convergence(cfg)
        assert len(table.rows) == len(cfg.deltas) * len(cfg.zetas)
        for row in table.rows:
            assert row.n == cfg.n_replicates
            assert row.stderr >= 0.0
        assert table.dropped == 0

    def test_reproducible_across_runs_and_threads(self):
        dense = dict(fwd=dense_fwd(build_lattice(2, 8)), n_per_dim=8)
        for overrides in ({}, dense):
            t1 = run_bayes_convergence(small_cfg(**overrides))
            t2 = run_bayes_convergence(small_cfg(**overrides))
            t3 = run_bayes_convergence(small_cfg(threads=3, **overrides))
            assert t1.rows == t2.rows == t3.rows
            assert t1.fits[0].slope == t3.fits[0].slope

    @pytest.mark.parametrize("threads", [1, 2])
    def test_map_not_keeping_real_fields_rejected(self, threads):
        # a bad model, refused from every worker, not replicates dropped as failed solves
        lat, model = pencil_case("complex-map", n=8)
        cfg = small_cfg(fwd=model.fwd, prior=model.prior, n_per_dim=8, threads=threads)
        with pytest.raises(ValueError, match="does not map real fields to real fields"):
            run_bayes_convergence(cfg)

    def test_pencil_built_under_threads_gives_identical_rows(self):
        # a fresh forward map per run: the pencil is built inside the replicate loop,
        # by whichever of the four workers asks first
        lat = build_lattice(2, 8)
        runs = [run_bayes_convergence(small_cfg(fwd=dense_fwd(lat), n_per_dim=8, threads=threads))
                for threads in (1, 4)]
        assert runs[0].rows == runs[1].rows and runs[0].fits == runs[1].fits

    def test_error_bounded_by_bias_plus_noise(self):
        cfg = small_cfg()
        table = run_bayes_convergence(cfg)
        bias = np.asarray(table.extras["bias_mean"])
        noise = np.asarray(table.extras["noise_mean"])
        for k, zeta in enumerate(cfg.zetas):
            means = np.array([r.mean_error for r in table.rows if r.zeta == zeta])
            assert np.all(means <= bias[:, k] + noise[:, k] + 1e-12)

    def test_dense_model_warns_nothing(self):
        """No bias/noise split exists off the diagonal path, so none is averaged."""
        cfg = small_cfg(fwd=dense_fwd(build_lattice(2, 8)), n_per_dim=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            table = run_bayes_convergence(cfg)
        assert table.dropped == 0
        assert "bias_mean" not in table.extras and "noise_mean" not in table.extras

    def test_dense_run_evaluates_prior_symbol_once_per_delta(self):
        calls = []
        base = compose(bessel_op(-1.0), bessel_op(-1.0))

        def counting(lat):
            calls.append(lat.size)
            return base.symbol(lat)

        prior = gaussian_prior(MultiplierOp(counting, 4.0, 4.0))
        deltas = tuple(np.geomspace(1e-1, 1e-3, 4))
        cfg = small_cfg(fwd=dense_fwd(build_lattice(2, 8)), n_per_dim=8, prior=prior,
                        deltas=deltas, n_replicates=8, threads=2)
        table = run_bayes_convergence(cfg)
        assert table.dropped == 0
        # one precision per delta, shared by every replicate, plus the prior root
        assert 0 < len(calls) <= len(deltas) + 1

    def test_dense_prior_root_applied_as_matrix(self):
        # the densified prior draws the same fields, so rows agree to solver precision
        cfg = small_cfg(n_per_dim=8)
        dense = small_cfg(n_per_dim=8, prior=gaussian_prior(densify(cfg.prior.cov, cfg.lattice()),
                                                            cfg.prior.r))
        for a, b in zip(run_bayes_convergence(cfg).rows, run_bayes_convergence(dense).rows):
            assert abs(a.mean_error - b.mean_error) <= 1e-8 * a.mean_error

    def test_out_of_regime_zeta_does_not_converge(self):
        cfg = small_cfg(zetas=(2.0,), n_per_dim=32)
        table = run_bayes_convergence(cfg)
        means = [r.mean_error for r in table.rows]
        assert table.rows[0].regime == "none"
        # two decades of delta shrink the error by at most a few percent
        assert means[-1] > 0.8 * means[0]

    def test_slopes_steady_under_refinement(self):
        fine = default_config("bayes", n_per_dim=256)
        coarse = default_config("bayes", n_per_dim=128)
        tf = run_bayes_convergence(fine)
        tc = run_bayes_convergence(coarse)
        for ff, fc in zip(tf.fits, tc.fits):
            assert abs(ff.slope - fc.slope) < 0.05


class TestFrequentistExperiment:
    def test_zero_truth_leaves_pure_noise(self):
        cfg = small_cfg("frequentist")
        lat = cfg.lattice()
        zero = SpectralField(lat, np.zeros(lat.size, dtype=complex))
        from torusbayes.experiments import TruthField

        t_zero = run_frequentist_convergence(cfg, TruthField(zero, "zero"))
        t_hat = run_frequentist_convergence(cfg)
        # zero truth has no approximation bias and the same noise term, so the
        # mean squared error is smaller at every noise level
        for rz, rh in zip(t_zero.rows, t_hat.rows):
            assert rz.mean_error < rh.mean_error

    def test_truth_norm_recorded(self):
        table = run_frequentist_convergence(small_cfg("frequentist"))
        assert table.extras["truth_h_tau_norm"] > 0

    def test_reproducible_across_threads(self):
        dense = dict(fwd=dense_fwd(build_lattice(2, 8)), n_per_dim=8)
        for overrides in ({}, dense):
            t1 = run_frequentist_convergence(small_cfg("frequentist", **overrides))
            t4 = run_frequentist_convergence(small_cfg("frequentist", threads=4, **overrides))
            assert t1.rows == t4.rows and t1.extras == t4.extras
            assert t1.fits[0].slope == t4.fits[0].slope

    @pytest.mark.parametrize("mode", ["frequentist", "bayes", "contraction", "credible"])
    def test_forward_symbol_evaluated_once_per_delta(self, mode):
        # once per operator, kept on it for every noise level and replicate, plus
        # once per run for A u (forward, except in bayes, which reads the kept symbol) or
        # the prior root (prior covariance)
        calls = {"forward": 0, "prior": 0}

        def counting(name, op):
            def symbol(lat):
                calls[name] += 1
                return op.symbol(lat)
            return MultiplierOp(symbol, op.order_t, op.order_t0, name)

        prior = default_config(mode).prior
        cfg = small_cfg(mode, fwd=counting("forward", bessel_op(-1.0)),
                        prior=gaussian_prior(counting("prior", prior.cov), prior.r),
                        n_replicates=8, threads=2, n_mc=200,
                        deltas=tuple(np.geomspace(1e-1, 1e-3, 4)))
        run_experiment(cfg)
        for name, count in calls.items():
            assert 0 < count <= 2, (name, count)
        if mode == "bayes":
            assert calls["forward"] == 1


class TestContractionExperiment:
    def test_requires_kappa(self):
        cfg = small_cfg("contraction", kappa=None)
        with pytest.raises(ValueError, match="kappa"):
            run_contraction(cfg)

    def test_markov_dominates_direct(self):
        cfg = small_cfg("contraction", n_mc=200)
        table = run_contraction(cfg)
        markov = table.extras["markov_mean"]
        for row, bound in zip(table.rows, markov):
            assert row.mean_error <= bound + 1e-12

    def test_large_radius_constant_empties_fast(self):
        cfg = small_cfg("contraction", n_mc=200, c0=100.0, kappa=0.0)
        table = run_contraction(cfg)
        assert all(r.mean_error == 0.0 for r in table.rows)

    def test_rows_independent_of_thread_count(self):
        t1 = run_contraction(small_cfg("contraction"))
        t2 = run_contraction(small_cfg("contraction", threads=2))
        assert t1.rows == t2.rows and t1.extras == t2.extras

    def test_exact_for_multiplier_posterior(self):
        cfg = small_cfg("contraction")
        table = run_contraction(cfg)
        assert table.extras["ball_prob_method"] == "exact"
        errors = table.extras["ball_prob_error"]
        assert len(errors) == len(cfg.deltas) and max(errors) <= 1e-10

    def test_dense_rows_independent_of_thread_count(self):
        dense = dict(fwd=dense_fwd(build_lattice(2, 8)), n_per_dim=8, n_mc=200)
        t1 = run_contraction(small_cfg("contraction", **dense))
        t3 = run_contraction(small_cfg("contraction", threads=3, **dense))
        assert t1.rows == t3.rows and t1.extras == t3.extras

    @pytest.mark.filterwarnings("ignore::torusbayes.rates.HypothesisWarning")
    def test_forward_map_not_keeping_real_fields_real_refused(self):
        # i bessel(-1): |a|^2 and the posterior are even, but the mean's data noise is not
        # a real field, so the error law of a real Gaussian does not hold
        bessel = bessel_op(-1.0)
        fwd = MultiplierOp(lambda lat: 1j * bessel.symbol(lat), 2.0, 2.0)
        with pytest.raises(ValueError, match="does not map real fields to real fields"):
            run_contraction(small_cfg("contraction", fwd=fwd, n_per_dim=8))

    @pytest.mark.parametrize("case", PENCIL_CASES)
    def test_dense_rows_are_exact(self, case, replicate_rows):
        # exact rows with the law's bound in stderr and n = 0, each within 4 SE of the mean
        # of 64 replicates' exact escape probabilities at their own offsets mean - u
        lat, model = pencil_case(case, n=8)
        cfg = small_cfg("contraction", fwd=model.fwd, prior=model.prior, n_per_dim=8)
        if refused(case, lambda: run_contraction(cfg)):
            return
        table = run_contraction(cfg)
        assert table.extras["ball_prob_method"] == "exact" and table.dropped == 0
        assert [r.stderr for r in table.rows] == table.extras["ball_prob_error"]
        assert all(r.stderr <= 1e-10 and r.n == 0 for r in table.rows)
        markov = table.extras["markov_mean"]
        assert all(row.mean_error <= bound + 1e-12 for row, bound in zip(table.rows, markov))
        assert_within_oracle(table, replicate_rows(cfg, 64, table.extras["c0"])["escape"])
        assert sum(0.05 < r.mean_error < 0.95 for r in table.rows) >= 2


def uneven_prior():
    """A strictly positive multiplier prior with c_U(l) != c_U(-l)."""
    base = compose(bessel_op(-1.0), bessel_op(-1.0))
    return gaussian_prior(MultiplierOp(
        lambda lat: base.symbol(lat) * (1.0 + 0.25 * np.sign(lat.freqs[:, 0])), 4.0, 4.0))


ERROR_FORM_MODELS = {
    "bessel": {},
    "heat": {"fwd": heat_op(1)},  # a complex symbol: Re(conj(A u) e) reads imaginary parts
    "uneven-prior": {"prior": uneven_prior()},
}


def replicate_stats(monkeypatch):
    """Patch the replicate loop to keep each call's (replicate, delta, width) array."""
    real, stats = experiments._replicate_solves, []

    def loop(*args, **kwargs):
        out, dropped = real(*args, **kwargs)
        stats.append(out)
        return out, dropped

    monkeypatch.setattr(experiments, "_replicate_solves", loop)
    return stats


class TestErrorForms:
    """The diagonal runners' errors from weighted quadratic forms, and the exact MISE,
    against explicit means."""

    @pytest.mark.filterwarnings("ignore::torusbayes.rates.HypothesisWarning")  # heat: t < t0
    @pytest.mark.parametrize("mode", ["bayes", "frequentist", "appendix_b"])
    @pytest.mark.parametrize("name", list(ERROR_FORM_MODELS))
    def test_norms_match_explicit_means(self, mode, name, monkeypatch):
        cfg = small_cfg(mode, **ERROR_FORM_MODELS[name])
        lat = cfg.lattice()
        stats = replicate_stats(monkeypatch)
        result = run_experiment(cfg)
        rel = []

        def check(value, ref):
            rel.append(abs(value - ref) / ref)

        got = stats[0] if stats else None  # (replicate, delta, error, bias, noise)
        for i in range(cfg.n_replicates if mode == "bayes" else 1):
            if mode == "bayes":
                xi = sample_white_noise(lat, np.random.default_rng((cfg.master_seed, 0, i)))
                u = apply(cfg.prior.sqrt_cov, xi)
            else:
                u = make_hat_truth(lat).u_dagger
            au = apply(cfg.fwd, u)
            e = sample_white_noise(lat, np.random.default_rng((cfg.master_seed, 1, i)))
            for j, delta in enumerate(cfg.deltas):
                model = cfg.model(delta)
                bias = SpectralField(lat, map_estimate(model, au).coeffs - u.coeffs)
                if mode == "appendix_b":  # noiseless data
                    for z in cfg.zetas:
                        check(result.raw_errors[z][j], sobolev_norm(bias, z))
                    continue
                if mode == "frequentist":  # E e e^H = I: the means of delta times unit data
                    noise = _map_means([model], lat, delta * np.eye(lat.size)[None])[0]
                    check(result.rows[j].mean_error,
                          sobolev_norm(bias, 0.0) ** 2 + np.sum(np.abs(noise) ** 2))
                    continue
                m = SpectralField(lat, au.coeffs + delta * e.coeffs)
                diff = SpectralField(lat, map_estimate(model, m).coeffs - u.coeffs)
                noise = map_estimate(model, SpectralField(lat, delta * e.coeffs))
                nz = len(cfg.zetas)
                for k, z in enumerate(cfg.zetas):
                    check(got[i, j, k], sobolev_norm(diff, z))
                    check(got[i, j, nz + k], sobolev_norm(bias, z))
                    check(got[i, j, 2 * nz + k], sobolev_norm(noise, z))
        assert rel and max(rel) <= 1e-12

    def test_mean_square_error_is_posterior_trace(self, monkeypatch):
        # E |mean - u|^2_{H^zeta} = sum_l w_zeta(l) c_post(l) for u drawn from the prior
        cfg = small_cfg(n_replicates=240)
        lat = cfg.lattice()
        stats = replicate_stats(monkeypatch)
        run_bayes_convergence(cfg)
        sq = stats[0][:, :, :len(cfg.zetas)] ** 2  # (replicate, delta, zeta)
        for j, delta in enumerate(cfg.deltas):
            cov = posterior_covariance(cfg.model(delta), lat)
            for k, zeta in enumerate(cfg.zetas):
                exact = posterior_trace(cov, zeta, lat)
                se = sq[:, j, k].std(ddof=1) / np.sqrt(cfg.n_replicates)
                assert abs(sq[:, j, k].mean() - exact) <= 4.0 * se, (delta, zeta)


REPLICATE_MODES = ("bayes",)  # the one mode that draws replicates
REPLICATE_EXTRAS = ("bias_mean", "noise_mean")
FORM_MODES = ("bayes",)  # diagonal models: error forms, no mean


def failing_at(monkeypatch, fails, kernel="_map_means"):
    """Make a (replicate, delta) pair of the bayes runner fail where ``fails(delta, k)``
    holds, k counting the pairs computed at that delta: the last entry of its replicate's
    row of the ``kernel``'s output, the error forms (:func:`experiments._error_forms`) of a
    diagonal model or the means (:func:`posterior._map_means`) of a dense one, is NaN, which
    must drop the whole row.  Returns the list of deltas in the order the pairs are
    computed."""
    calls = []

    def mark(out, models):  # out[j] holds the rows of models[j]
        for model, block in zip(models, out):
            for row in block:
                calls.append(model.delta)
                if fails(model.delta, calls.count(model.delta) - 1):
                    row.flat[-1] = np.nan
        return out

    if kernel == "_error_forms":
        real = experiments._error_forms
        monkeypatch.setattr(experiments, "_error_forms",
                            lambda model, *args: mark(real(model, *args)[None], [model])[0])
    else:
        real = experiments._map_means
        monkeypatch.setattr(experiments, "_map_means",
                            lambda models, *args: mark(real(models, *args), models))
    return calls


def recording(monkeypatch, name):
    """Patch ``experiments.<name>`` to record the arguments of each call."""
    real, calls = getattr(experiments, name), []

    def record(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, name, record)
    return calls


def recording_solves(monkeypatch):
    """Patch the runners' lockstep solver to record each call's models and data."""
    return recording(monkeypatch, "_map_means")


class TestReplicateLoop:
    """The bayes runner's replicate loop, and per-replicate solves as the oracle of the exact
    contraction rows."""

    def test_dense_run_solves_every_replicate_in_one_call(self, monkeypatch):
        calls = recording_solves(monkeypatch)
        cfg = small_cfg(fwd=dense_fwd(build_lattice(2, 8)), n_per_dim=8)
        assert run_bayes_convergence(cfg).dropped == 0
        ((models, lat, data),) = calls
        n = len(cfg.deltas)
        # replicate-major, one row per model: rows i n ... i n + n - 1 are A u_i + delta_j e_i
        assert lat == cfg.lattice() and data.shape == (cfg.n_replicates * n, 1, lat.size)
        assert [m.delta for m in models] == list(cfg.deltas) * cfg.n_replicates
        for i in range(cfg.n_replicates):
            e = sample_white_noise(lat, np.random.default_rng((cfg.master_seed, 1, i)))
            rows = data[i * n:(i + 1) * n, 0]
            for delta, row in zip(cfg.deltas, rows):
                diff = row - rows[0]
                assert np.allclose(diff, (delta - cfg.deltas[0]) * e.coeffs, rtol=0, atol=1e-15)

    def test_dense_prior_draws_forward_mapped_together(self, monkeypatch):
        # the stack of prior draws goes through A in one product: each row is A u_i to rounding
        calls = recording_solves(monkeypatch)
        lat = build_lattice(2, 8)
        cfg = small_cfg(fwd=dense_fwd(lat), n_per_dim=8)
        run_bayes_convergence(cfg)
        ((_, _, data),) = calls
        n, root = len(cfg.deltas), symbol_values(cfg.prior.sqrt_cov, lat)
        for i in range(cfg.n_replicates):
            xi, e = (sample_white_noise(lat, np.random.default_rng((cfg.master_seed, stream, i)))
                     for stream in (0, 1))
            au = cfg.fwd.matrix @ (root * xi.coeffs)
            row = data[i * n, 0] - cfg.deltas[0] * e.coeffs
            assert np.abs(row - au).max() < 1e-14 * np.abs(au).max()

    @pytest.mark.parametrize("mode", FORM_MODES)
    def test_diagonal_run_forms_each_delta_once(self, mode, monkeypatch):
        # no mean is solved: one kernel call per delta holds every replicate's rows
        solves, forms = recording_solves(monkeypatch), recording(monkeypatch, "_error_forms")
        cfg = small_cfg(mode)
        run_experiment(cfg)
        n = cfg.n_replicates
        assert solves == []
        assert [(model.delta, [len(rows) for rows in args[2:]]) for model, *args in forms] == \
            [(delta, [n, n, n]) for delta in cfg.deltas]

    def test_diagonal_contraction_calls_the_law_once_per_delta(self, monkeypatch):
        # no mean is solved: the bias of each delta is the one offset of its law's one call
        solves, calls = [], []
        monkeypatch.setattr(sys.modules["torusbayes.posterior"], "_map_means",
                            lambda *args: solves.append(args))
        real = MultiplierBall._escape_probs

        def law(ball, radius, offsets=None):
            calls.append(offsets.shape)
            return real(ball, radius, offsets)

        monkeypatch.setattr(MultiplierBall, "_escape_probs", law)
        cfg = small_cfg("contraction", c0=1.0)
        assert run_contraction(cfg).dropped == 0
        assert solves == [] and calls == [(1, cfg.lattice().size)] * len(cfg.deltas)

    def test_diagonal_contraction_rows_match_per_replicate_solves(self, replicate_rows):
        # the contraction default's exact rows, the expected escape over the data noise,
        # against the mean of 64 replicates' exact escape probabilities at their own
        # offsets mean - u
        cfg = default_config("contraction")
        table = run_contraction(cfg)
        ref = replicate_rows(cfg, 64, table.extras["c0"])
        assert_within_oracle(table, ref["escape"])
        assert sum(0.05 < r.mean_error < 0.95 for r in table.rows) >= 3

    def test_lockstep_rows_equal_per_replicate_solves(self, monkeypatch):
        # connected_fwd is one class of 256 coordinates: with K = 256 the stacked product
        # rounds each row as the 5-row one does, byte for byte
        self.check_lockstep_rows(connected_fwd, monkeypatch)

    def test_split_map_lockstep_rows_match_per_replicate_solves(self, monkeypatch):
        # for other sizes, as at 8^2 or for the 62- to 66-coordinate classes of dense_fwd at
        # 16^2, OpenBLAS (0.3.31) rounds each row by the height of the stack: the rows agree
        # to rounding
        self.check_lockstep_rows(dense_fwd, monkeypatch)

    @staticmethod
    def check_lockstep_rows(fwd, monkeypatch):
        """The bayes runner's lockstep rows against per-replicate solves, bytewise for
        connected_fwd and within 1e-14 of each row's largest entry otherwise, and each
        replicate's statistics from its own lockstep rows."""
        lat = build_lattice(2, 16)
        cfg = small_cfg(fwd=fwd(lat), n_per_dim=16)
        calls = recording_solves(monkeypatch)
        table = run_bayes_convergence(cfg)
        ((models, _, data),) = calls
        lockstep = _map_means(models, lat, data)
        n = len(cfg.deltas)
        means = np.empty((cfg.n_replicates, n, lat.size), np.complex128)
        for i in range(cfg.n_replicates):
            rows = _map_means(models[i * n:(i + 1) * n], lat, data[i * n:(i + 1) * n])
            own = lockstep[i * n:(i + 1) * n]
            if fwd is connected_fwd:
                assert own.tobytes() == rows.tobytes()
            scale = np.abs(rows).max(axis=-1, keepdims=True)
            assert np.all(np.abs(own - rows) <= 1e-14 * scale)
            means[i] = own[:, 0]
        # each replicate's statistics read its own rows of the one lockstep solve
        root = symbol_values(cfg.prior.sqrt_cov, lat)
        u = np.stack([root * sample_white_noise(lat, (cfg.master_seed, 0, i)).coeffs
                      for i in range(cfg.n_replicates)])
        zw = np.stack([sobolev_weight(lat, z) for z in cfg.zetas])
        errors = np.stack([np.sqrt(np.abs(means[:, j] - u) ** 2 @ zw.T) for j in range(n)], axis=1)
        pred = table.rows[0]
        assert table.rows[:n] == tuple(experiments._rate_rows(
            "bayes", cfg.deltas, cfg.zetas[0], errors[:, :, 0], pred.predicted_exponent,
            pred.regime))

    @pytest.mark.parametrize("mode", REPLICATE_MODES)
    def test_failed_solve_drops_one_pair(self, mode, monkeypatch):
        ref = run_experiment(small_cfg(mode))
        cfg = small_cfg(mode)
        bad = cfg.deltas[2]
        calls = failing_at(monkeypatch, lambda delta, k: delta == bad and k == 0, "_error_forms")
        table = run_experiment(cfg)
        assert table.dropped == 1 and len(calls) == cfg.n_replicates * len(cfg.deltas)
        for row, base in zip(table.rows, ref.rows):
            assert np.isfinite(row.mean_error) and np.isfinite(row.stderr)
            if row.delta == bad:
                assert row.n == base.n - 1
            else:
                assert row == base
        for key in REPLICATE_EXTRAS:
            if key in ref.extras:
                assert np.all(np.isfinite(table.extras[key])), key

    @pytest.mark.parametrize("mode", REPLICATE_MODES)
    def test_dense_failed_solve_drops_one_pair(self, mode, monkeypatch):
        # a row of the lockstep solve with one entry not finite is a failed solve: its
        # replicate's row never reaches the statistic, one drop, and every other delta's
        # rows as before
        dense = dict(fwd=dense_fwd(build_lattice(2, 8)), n_per_dim=8)
        ref = run_experiment(small_cfg(mode, **dense))
        cfg = small_cfg(mode, **dense)
        calls = failing_at(monkeypatch, lambda delta, k: delta == cfg.deltas[2] and k == 3)
        table = run_experiment(cfg)
        assert table.dropped == 1 and len(calls) == cfg.n_replicates * len(cfg.deltas)
        for row, base in zip(table.rows, ref.rows):
            if row.delta == cfg.deltas[2]:
                assert row.n == base.n - 1 and np.isfinite([row.mean_error, row.stderr]).all()
            else:
                assert row == base

    @pytest.mark.parametrize("mode", REPLICATE_MODES)
    def test_delta_where_every_solve_fails(self, mode, monkeypatch):
        # the row reports n = 0 and NaNs, the fit skips it, and numpy warns nothing
        cfg = small_cfg(mode)
        bad = cfg.deltas[1]
        failing_at(monkeypatch, lambda delta, k: delta == bad, "_error_forms")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = run_experiment(cfg)
        assert table.dropped == cfg.n_replicates
        for row in table.rows:
            failed = row.delta == bad
            assert row.n == (0 if failed else cfg.n_replicates)
            assert np.isnan(row.mean_error) == failed and np.isnan(row.stderr) == failed
        for fit in table.fits:
            assert bad not in fit.used_deltas and len(fit.used_deltas) >= 3
            assert np.isfinite(fit.slope)
        for key in REPLICATE_EXTRAS:
            if key in table.extras:
                values = np.asarray(table.extras[key], dtype=float)
                assert np.all(np.isnan(values[1])) and np.all(np.isfinite(np.delete(values, 1, 0)))

    def test_single_solve_has_nan_stderr(self, monkeypatch):
        cfg = small_cfg()
        bad = cfg.deltas[1]
        failing_at(monkeypatch, lambda delta, k: delta == bad and k > 0, "_error_forms")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = run_bayes_convergence(cfg)
        row = table.rows[1]
        assert table.dropped == cfg.n_replicates - 1 and row.n == 1
        assert np.isfinite(row.mean_error) and np.isnan(row.stderr)


class TestExactRows:
    """The frequentist and contraction runners read one exact Gaussian error law per delta:
    their rows hold against the replicate oracle ``replicate_rows`` and draw nothing."""

    @pytest.mark.filterwarnings("ignore::torusbayes.rates.HypothesisWarning")  # heat: t < t0
    @pytest.mark.parametrize("case", ["heat-frequentist", "phi-bessel-frequentist",
                                      "phi-bessel-contraction"])
    def test_rows_match_replicate_oracle(self, case, replicate_rows):
        mode = case.rsplit("-", 1)[1]
        fwd = heat_op(1) if case.startswith("heat") else dense_fwd(build_lattice(2, 16))
        cfg = small_cfg(mode, fwd=fwd)
        table = run_experiment(cfg)
        ref = replicate_rows(cfg, 64, table.extras.get("c0"))
        assert_within_oracle(table, ref["escape" if mode == "contraction" else "mise"])
        if mode == "contraction":
            assert sum(0.05 < r.mean_error < 0.95 for r in table.rows) >= 2

    @pytest.mark.parametrize("kind", ["multiplier", "dense"])
    @pytest.mark.parametrize("mode", ["frequentist", "contraction"])
    def test_rows_draw_nothing(self, mode, kind, monkeypatch):
        # rows, fits and extras identical across seed, replicates and threads, with the
        # replicate loop, the seeded noise draws and the thread pool out of reach
        dense = dict(fwd=dense_fwd(build_lattice(2, 8)), n_per_dim=8) if kind == "dense" else {}
        ref = run_experiment(small_cfg(mode, **dense))

        def refuse(*args, **kwargs):
            raise AssertionError("an exact runner reached the replicate machinery")

        for name in ("_replicate_solves", "sample_white_noise", "ThreadPoolExecutor"):
            monkeypatch.setattr(experiments, name, refuse)
        for overrides in (dict(master_seed=7), dict(n_replicates=32), dict(threads=3)):
            table = run_experiment(small_cfg(mode, **dense, **overrides))
            assert (table.rows, table.fits, table.extras) == (ref.rows, ref.fits, ref.extras)
        assert ref.dropped == 0 and all(r.n == 0 for r in ref.rows)
        if mode == "frequentist":
            assert all(r.stderr == 0.0 for r in ref.rows)
        else:
            assert [r.stderr for r in ref.rows] == ref.extras["ball_prob_error"]


class TestLawMemory:
    """What the exact ball laws keep: O(G + T + n) numbers beyond their K-sized term
    indices, and at most one dense K x K projection in any runner."""

    def test_contraction_laws_keep_no_group_tables(self):
        # the nine laws of the contraction default, each read once by a batched call on
        # the replicates' offsets at a radius where no row is settled by its Chernoff bound
        cfg = default_config("contraction")
        lat = cfg.lattice()
        u = make_hat_truth(lat).u_dagger
        au = apply(cfg.fwd, u).coeffs
        e = np.stack([sample_white_noise(lat, np.random.default_rng((cfg.master_seed, 1, i))).coeffs
                      for i in range(cfg.n_replicates)])
        tracemalloc.start()
        try:
            models = [cfg.model(delta) for delta in cfg.deltas]
            laws = [_trace_ball(model, lat, 0.0) for model in models]
            for model, (trace, ball) in zip(models, laws):
                offsets = _map_means([model], lat, (au + model.delta * e)[None])[0]
                offsets -= u.coeffs
                radius = np.sqrt(trace + np.mean(np.sum(np.abs(offsets) ** 2, axis=1)))
                p, _ = ball._escape_probs(radius, offsets)
                assert np.all((0.1 < p) & (p < 0.9))
                del offsets
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # laws and the models' kept symbols: about 3.2 MiB; the G x 470 Chernoff tables
        # alone were 16.2 MiB when each law kept them
        assert retained < 4 * 2**20
        for _, ball in laws:
            # every row was read through the integral (0.1 < p < 0.9), whose grids the
            # call built and dropped: the law holds no grid and no G x T table
            assert not any(isinstance(v, _Grid) for v in vars(ball).values())
            g, sizes = ball.lam.size, {ball._t_up.size, ball._t_lo.size}
            held = [a for a in vars(ball).values() if isinstance(a, np.ndarray)]
            assert not any(g in a.shape and sizes & set(a.shape) - {g} for a in held)
            assert all(a.ndim == 1 for a in held)

    def test_dense_credible_takes_eigenvalues_only(self, monkeypatch):
        lat = build_lattice(2, 8)
        cfg = small_cfg("credible", fwd=dense_fwd(lat), n_per_dim=8, n_mc=200)
        _pencil(cfg.model(cfg.deltas[0]), lat)  # kept before the count
        calls = counting_eigen(monkeypatch)
        table = run_credible(cfg)
        shapes = class_shapes(_pencil(cfg.model(cfg.deltas[0]), lat))
        assert calls == [("eigvalsh", shape) for shape in shapes] * len(cfg.deltas)
        # rows of the laws that keep a projection, to rounding
        radii = [table.extras["c1"] * delta ** table.extras["alpha"] for delta in cfg.deltas]
        full = [escape_row(_trace_ball(cfg.model(delta), lat, cfg.zeta1)[1], radius)
                for delta, radius in zip(cfg.deltas, radii)]
        for row, (p, bound) in zip(table.rows, full):
            assert abs(row.mean_error - p) <= 1e-14 and abs(row.stderr - bound) <= 1e-14

    @pytest.mark.parametrize("case", ["even-prior", "complex-map"])
    def test_dense_contraction_holds_one_projection(self, case, monkeypatch):
        lat, model = pencil_case(case, n=8)
        cfg = small_cfg("contraction", fwd=model.fwd, prior=model.prior, n_per_dim=8)
        if refused(case, lambda: run_contraction(cfg)):
            return
        ref = run_contraction(cfg)
        live, real = [], MultiplierBall.__init__

        def build(ball, *args):
            # every block of every earlier projection is gone
            assert all(proj() is None for blocks in live for proj in blocks)
            real(ball, *args)
            live.append([weakref.ref(proj) for _, _, proj in ball._proj])

        monkeypatch.setattr(MultiplierBall, "__init__", build)
        shapes = class_shapes(_pencil(model, lat))  # kept before the count
        calls = counting_eigen(monkeypatch)
        table = run_contraction(cfg)
        assert len(live) == len(cfg.deltas) and table.rows == ref.rows
        # one eigh per class and delta for its law, and none more for the calibration's trace
        assert calls == [("eigh", shape) for shape in shapes] * len(cfg.deltas)


class TestUnevenDiagonalModel:
    """A diagonal model whose prior symbol is not even in l does not keep real fields real:
    its posterior has no ball law, while the runners that read no law still run."""

    @staticmethod
    def uneven_cfg(mode):
        bessel = bessel_op(-1.0)
        prior = MultiplierOp(lambda lat: bessel.symbol(lat) ** 2
                             * (1.0 + 0.25 * np.sign(lat.freqs[:, 0])), 4.0, 4.0)
        return small_cfg(mode, prior=gaussian_prior(prior), n_per_dim=8)

    @pytest.mark.parametrize("mode, run", [
        ("contraction", run_contraction), ("credible", run_credible),
    ], ids=["contraction", "credible"])
    def test_ball_law_refused(self, mode, run):
        cfg = self.uneven_cfg(mode)
        model, lat = cfg.model(cfg.deltas[0]), cfg.lattice()
        for call in (lambda: run(cfg), lambda: _trace_ball(model, lat, 0.0)):
            with pytest.raises(ValueError, match="does not map real fields to real fields"):
                call()

    @pytest.mark.parametrize("mode, run", [
        ("bayes", run_bayes_convergence), ("frequentist", run_frequentist_convergence),
    ], ids=["bayes", "frequentist"])
    def test_runners_without_a_law_still_run(self, mode, run):
        table = run(self.uneven_cfg(mode))
        assert table.dropped == 0 and all(np.isfinite(r.mean_error) for r in table.rows)


class TestEscapeProb:
    """The runners' exact ball law against the sampling oracle ``mc_ball_hits``."""

    @pytest.mark.parametrize("scale, noncentral", [(0.8, False), (1.2, False), (1.2, True)],
                             ids=["inner", "outer", "outer-offset"])
    def test_sampled_branch_agrees_with_exact(self, scale, noncentral, mc_ball_hits):
        cfg = small_cfg("credible", n_per_dim=8)
        lat = cfg.lattice()
        model = cfg.model(cfg.deltas[2])
        trace, ball = _trace_ball(model, lat, cfg.zeta1, offsets=False)
        root = symbol_values(operator_sqrt(posterior_covariance(model)), lat)  # sqrt(c)
        offset = None
        if noncentral:
            field = apply(bessel_op(-1.0), sample_white_noise(lat, 3))
            offset = 0.5 * np.sqrt(trace) * field.coeffs
        radius = scale * np.sqrt(trace)
        p, bound = escape_row(ball, radius, offset)
        p_in, se = mc_ball_hits(root, lat, cfg.zeta1, radius, 4000, np.random.default_rng(11),
                                offset)
        assert bound < 1e-10 and 0.02 < 1.0 - p_in < 0.98
        assert abs(p - (1.0 - p_in)) <= 4.0 * se

    def test_sampled_branch_rejects_negative_radius(self, mc_ball_hits):
        lat = build_lattice(2, 8)
        cfg = small_cfg("credible", fwd=dense_fwd(lat), n_per_dim=8, n_mc=200)
        model = cfg.model(cfg.deltas[0])
        _, ball = _trace_ball(model, lat, cfg.zeta1, offsets=False)
        root = posterior(model, SpectralField(lat, np.zeros(lat.size))).sqrt_cov.matrix
        with pytest.raises(ValueError, match="radius must be nonnegative"):
            mc_ball_hits(root, lat, cfg.zeta1, -0.5, cfg.n_mc, np.random.default_rng(0))
        with pytest.raises(ValueError, match="radius must be nonnegative"):
            ball._escape_probs(-0.5)


class TestCredibleExperiment:
    def test_requires_zeta1(self):
        cfg = small_cfg("credible", zeta1=None)
        with pytest.raises(ValueError, match="zeta1"):
            run_credible(cfg)

    def test_markov_bound_holds_per_row(self):
        cfg = small_cfg("credible", n_mc=500)
        table = run_credible(cfg)
        for row, bound in zip(table.rows, table.extras["markov_bound"]):
            assert row.mean_error <= bound + 1e-12

    def test_exact_rows_carry_error_bound(self):
        cfg = small_cfg("credible")
        table = run_credible(cfg)
        assert table.extras["ball_prob_method"] == "exact"
        assert [r.stderr for r in table.rows] == table.extras["ball_prob_error"]
        assert all(r.stderr <= 1e-10 and r.n == 0 for r in table.rows)

    @pytest.mark.parametrize("case", PENCIL_CASES)
    def test_dense_rows_are_exact(self, case, credible_ball_prob):
        # exact rows with the law's bound in stderr and n = 0, each within 4 binomial SE
        # of draws of the Hermitian root
        lat, model = pencil_case(case, n=8)
        cfg = small_cfg("credible", fwd=model.fwd, prior=model.prior, n_per_dim=8, n_mc=200,
                        deltas=tuple(np.geomspace(1e-1, 1e-3, 13)))
        if refused(case, lambda: run_credible(cfg)):
            return
        table = run_credible(cfg)
        assert table.extras["ball_prob_method"] == "exact"
        assert [r.stderr for r in table.rows] == table.extras["ball_prob_error"]
        assert all(r.stderr <= 1e-10 and r.n == 0 for r in table.rows)
        zero = SpectralField(lat, np.zeros(lat.size, dtype=complex))
        n_mc, resolved = 4000, 0
        for j, (row, bound) in enumerate(zip(table.rows, table.extras["markov_bound"])):
            assert row.mean_error <= bound + 1e-12
            radius = table.extras["c1"] * row.delta ** table.extras["alpha"]
            p_in, _ = credible_ball_prob(posterior(cfg.model(row.delta), zero), cfg.zeta1,
                                         radius, n_mc, j)
            p = row.mean_error
            assert abs(1.0 - p_in - p) <= 4.0 * np.sqrt(p * (1.0 - p) / n_mc), (row.delta, p)
            resolved += 0.05 < p < 0.95
        assert resolved >= 2

    def test_huge_constant_gives_full_coverage(self):
        cfg = small_cfg("credible", n_mc=200, c1=1e9, alpha=0.0)
        table = run_credible(cfg)
        assert all(r.mean_error == 0.0 for r in table.rows)

    def test_alpha_defaults_to_quarter_gamma(self):
        cfg = small_cfg("credible", n_mc=200)
        table = run_credible(cfg)
        assert abs(table.extras["alpha"] - table.extras["gamma"] / 4.0) < 1e-12


class TestAppendixB:
    def test_normalization_and_shapes(self):
        cfg = default_config("appendix_b", n_per_dim=64)
        curves = run_appendix_b(cfg)
        for z in cfg.zetas:
            assert abs(curves.curves[z][-1] - 1.0) < 1e-12
        assert len(curves.curves) == 5 and len(curves.bounds) == 5

    def test_bounds_flat_when_no_convergence_predicted(self):
        cfg = default_config("appendix_b", n_per_dim=64)
        curves = run_appendix_b(cfg)
        assert curves.predictions[1.0].regime == "none"
        assert np.allclose(curves.bounds[1.0], 1.0)
        assert curves.predictions[-1.0].exponent > 0
        assert curves.bounds[-1.0][0] > 1.0

    def test_dispatch(self):
        cfg = default_config("appendix_b", n_per_dim=64)
        by_name = run_experiment(cfg)
        direct = run_appendix_b(cfg)
        assert by_name.curves == direct.curves


class TestCsvOutput:
    def test_schema_and_roundtrip(self, tmp_path):
        table = run_bayes_convergence(small_cfg())
        path = tmp_path / "results.csv"
        write_rate_csv(table, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["experiment", "delta", "zeta", "mean_error", "stderr",
                           "n", "predicted_exponent", "regime"]
        assert len(rows) - 1 == len(table.rows)
        # 17 significant digits round-trip exactly
        for parsed, row in zip(rows[1:], table.rows):
            assert float(parsed[1]) == row.delta
            assert float(parsed[3]) == row.mean_error
