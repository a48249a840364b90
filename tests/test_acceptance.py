"""Acceptance criteria, one test per criterion, one printed verdict line each.

Each test prints ``PASS criterion N: ...`` (or FAIL) with the measured
numbers next to the tolerance they are held to, then asserts.
"""

import warnings

import numpy as np
import pytest

from torusbayes.experiments import (
    default_config,
    fit_loglog_slope,
    run_appendix_b,
    run_bayes_convergence,
    run_credible,
    run_frequentist_convergence,
)
from torusbayes.fields import (
    gaussian_prior,
    prior_trace_check,
    sample_white_noise,
    sobolev_norm,
)
from torusbayes.lattice import build_lattice
from torusbayes.operators import (
    adjoint,
    bessel_op,
    compose,
    heat_op,
    hypoellipticity_refinement,
    norm_sandwich_check,
    variable_coeff_op,
)
from torusbayes.posterior import (
    GaussianModel,
    posterior,
    posterior_covariance,
    posterior_covariance_update,
    posterior_trace,
    sample_posterior,
)
from torusbayes.rates import SmoothnessParams, bayes_rate, frequentist_rate


def _report(capsys, num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def _quiet_model(fwd, prior, s, d, delta):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return GaussianModel(fwd, prior, s, d, delta)


def test_01_rate_calculator_worked_example(capsys):
    got = {}
    for zeta, want in ((-3.01, 1.0), (-3.5, 1.0), (0.0, 0.2475)):
        pred = bayes_rate(SmoothnessParams(r=2.0, s=1.01, t=2.0, t0=2.0, d=2, zeta=zeta))
        got[zeta] = pred.exponent
    ok = all(abs(got[z] - w) <= 1e-12 for z, w in ((-3.01, 1.0), (-3.5, 1.0), (0.0, 0.2475)))
    _report(capsys, 1, ok,
            f"exponents {got[-3.01]:.17g}, {got[-3.5]:.17g}, {got[0.0]:.17g} "
            "match 1, 1, 0.2475 to 1e-12")


def test_02_bayes_convergence_slopes(capsys):
    table = run_bayes_convergence(default_config("bayes"))
    parts, ok = [], True
    for fit in table.fits:
        err = abs(fit.slope - fit.prediction.exponent)
        ok = ok and err <= 0.15
        parts.append(f"zeta={fit.zeta:g}: {fit.slope:.4f} vs {fit.prediction.exponent:.4f} "
                     f"(regime {fit.prediction.regime})")
    _report(capsys, 2, ok, "H^zeta error slopes within 0.15; " + "; ".join(parts))


def test_03_frequentist_mise_slope(capsys):
    table = run_frequentist_convergence(default_config("frequentist"))
    fit = table.fits[0]
    pred = fit.prediction.exponent
    # elliptic closed form 2 tau / (s + tau + t) agrees with the generic one
    p = SmoothnessParams(r=2.0, s=1.01, t=2.0, t0=2.0, d=2)
    elliptic = 2.0 * p.tau / (p.s + p.tau + p.t)
    ok = abs(fit.slope - pred) <= 0.15 and abs(pred - elliptic) <= 1e-12
    _report(capsys, 3, ok,
            f"MISE slope {fit.slope:.4f} vs 2tau/(s+tau+t) = {elliptic:.4f}, within 0.15")


def test_04_posterior_covariance_two_forms(capsys):
    lat = build_lattice(1, 16)
    worst = 0.0
    for k in range(10):
        rng = np.random.default_rng(k)
        phi = 1.0 + 0.5 * rng.random(lat.size)
        fwd = variable_coeff_op(phi, bessel_op(-1.0), lat)
        prior = gaussian_prior(bessel_op(-1.0))
        delta = 10.0 ** rng.uniform(-2.0, 0.0)
        model = _quiet_model(fwd, prior, 1.01, 1, delta)
        c_prec = posterior_covariance(model, lat)
        c_upd = posterior_covariance_update(model, lat)
        worst = max(worst, float(np.max(np.abs(c_prec.matrix - c_upd.matrix))))
    ok = worst <= 1e-9
    _report(capsys, 4, ok,
            f"precision and update covariance forms agree, max abs diff {worst:.3g} <= 1e-9 "
            "over 10 random non-commuting models")


def test_05_trace_decay_slope(capsys):
    # r = 1 = d/2 sits at the trace-class boundary, where nearly any flat trace passes;
    # r = 2 has a clearly positive predicted exponent
    lat = build_lattice(2, 2048)
    deltas = np.geomspace(1e-1, 1e-3, 7)
    parts, ok = [], True
    for cov in (bessel_op(-1.0), compose(bessel_op(-1.0), bessel_op(-1.0))):
        prior = gaussian_prior(cov)
        traces = []
        for delta in deltas:
            model = _quiet_model(bessel_op(-1.0), prior, 1.01, 2, float(delta))
            traces.append(posterior_trace(posterior_covariance(model), 0.0, lat))
        fit = fit_loglog_slope(deltas, traces)
        params = SmoothnessParams(r=prior.r, s=1.01, t=2.0, t0=2.0, d=2)
        predicted = 2.0 * params.tau / (params.t0 + params.r)
        monotone = all(b <= a for a, b in zip(traces, traces[1:]))
        check = prior_trace_check(prior, 0.0, 2)
        ok = ok and abs(fit.slope - predicted) <= 0.1 and monotone
        parts.append(f"r={prior.r:g}: L2 trace slope {fit.slope:.4f} vs 2tau/(t0+r) = "
                     f"{predicted:.4f}, trace nonincreasing in delta: {monotone}, prior trace "
                     f"converged={check.converged} theory_convergent={check.theory_convergent}")
    _report(capsys, 5, ok, "within 0.1 at n=2048; " + "; ".join(parts))


def test_06_appendix_b_shape(capsys):
    curves = run_appendix_b(default_config("appendix_b"))
    normalized = all(abs(curves.curves[z][-1] - 1.0) <= 1e-12 for z in curves.zetas)
    decreasing = all(np.all(np.diff(curves.curves[z]) < 0) for z in (-1.0, -0.5))
    ratio = curves.curves[1.0][-1] / curves.curves[1.0][0]
    ok = normalized and decreasing and ratio > 0.5
    _report(capsys, 6, ok,
            "noiseless sweep to 5e-6: curves end at 1 by normalization, "
            f"strictly decreasing for zeta <= -0.5: {decreasing}, "
            f"stagnation ratio at zeta=1 is {ratio:.3f} > 0.5")


def test_07_credible_set_contraction(capsys):
    table = run_credible(default_config("credible"))
    gamma, alpha = table.extras["gamma"], table.extras["alpha"]
    required = (gamma - 2.0 * alpha) - 0.2
    slope = table.fits[0].slope
    markov_ok = all(row.mean_error <= bound + 1e-12
                    for row, bound in zip(table.rows, table.extras["markov_bound"]))
    ok = slope >= required and markov_ok
    _report(capsys, 7, ok,
            f"miss probability decays with slope {slope:.3f} >= {required:.3f} "
            f"(gamma={gamma:.4f}, alpha={alpha:.4f}); per-row Markov bound holds: {markov_ok}")


def test_08_hypoelliptic_vs_elliptic(capsys):
    heat = heat_op(1)
    honest = hypoellipticity_refinement(heat, 2, sizes=(32, 64, 128))
    dishonest = hypoellipticity_refinement(heat, 2, sizes=(32, 64, 128), t=2.0, t0=2.0)
    normal_bessel = compose(adjoint(bessel_op(-1.0)), bessel_op(-1.0))
    normal_heat = compose(adjoint(heat), heat)
    sw_bessel = norm_sandwich_check(normal_bessel, r=1.0, t=2.0, t0=2.0)
    sw_heat = norm_sandwich_check(normal_heat, r=1.0, t=1.0, t0=2.0, dim=2)
    sw_wrong = norm_sandwich_check(normal_heat, r=1.0, t=2.0, t0=2.0, dim=2)
    ok = (honest.passed and not dishonest.passed
          and sw_bessel.passed and max(sw_bessel.upper_growth, sw_bessel.lower_growth) < 2
          and sw_heat.passed and max(sw_heat.upper_growth, sw_heat.lower_growth) < 2
          and not sw_wrong.passed)
    _report(capsys, 8, ok,
            f"heat operator passes declared (1,2) (c2 slope {honest.c2_slope:+.3f}) and "
            f"fails declared (2,2) (c2 slope {dishonest.c2_slope:+.3f}); sandwich growth "
            f"bessel {sw_bessel.upper_growth:.3f}, heat {sw_heat.upper_growth:.3f} < 2, "
            f"wrong orders {sw_wrong.upper_growth:.3f}")


def test_09_statistical_sanity(capsys):
    # white-noise truncated H^{-s} second moment vs the analytic lattice sum
    lat = build_lattice(2, 32)
    s = 1.01
    analytic = float(np.sum((1.0 + lat.weights) ** -s))
    rng = np.random.default_rng(123)
    draws = np.array([sobolev_norm(sample_white_noise(lat, rng), -s) ** 2
                      for _ in range(1000)])
    z_noise = (draws.mean() - analytic) / (draws.std(ddof=1) / np.sqrt(len(draws)))

    # posterior sample variance per mode against the covariance symbol
    lat1 = build_lattice(1, 16)
    prior = gaussian_prior(bessel_op(-1.0))
    model = _quiet_model(bessel_op(0.0), prior, 1.01, 1, 0.5)
    from torusbayes.lattice import SpectralField

    post = posterior(model, SpectralField(lat1, np.zeros(lat1.size, dtype=complex)))
    rng = np.random.default_rng(7)
    n_draws = 2000
    sq = np.zeros(lat1.size)
    for _ in range(n_draws):
        sq += np.abs(sample_posterior(post, rng).coeffs) ** 2
    sq /= n_draws
    from torusbayes.operators import symbol_values

    c = symbol_values(posterior_covariance(model, lat1), lat1).real
    z_mode = float(np.max(np.abs(sq - c) / (np.sqrt(2.0) * c / np.sqrt(n_draws))))

    # identical output across runs and thread counts
    cfg1 = default_config("bayes", n_per_dim=16,
                          deltas=tuple(np.geomspace(1e-1, 1e-3, 5)), n_replicates=8)
    cfg4 = default_config("bayes", n_per_dim=16,
                          deltas=tuple(np.geomspace(1e-1, 1e-3, 5)), n_replicates=8,
                          threads=4)
    deterministic = (run_bayes_convergence(cfg1).rows == run_bayes_convergence(cfg1).rows
                     and run_bayes_convergence(cfg1).rows == run_bayes_convergence(cfg4).rows)

    ok = abs(z_noise) <= 5.0 and z_mode <= 5.0 and deterministic
    _report(capsys, 9, ok,
            f"white-noise H^-s moment z = {z_noise:+.2f} (|z| <= 5 at 1000 draws), "
            f"per-mode posterior variance max |z| = {z_mode:.2f} <= 5, "
            f"thread-count determinism: {deterministic}")
