"""Exponent calculator: exact values, case boundaries, hypothesis flags."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from torusbayes.rates import (
    HypothesisWarning,
    SmoothnessParams,
    bayes_rate,
    contraction_rate,
    credible_rate,
    frequentist_rate,
)


def params(r=2.0, s=1.01, t=2.0, t0=2.0, d=2, zeta=None):
    return SmoothnessParams(r=r, s=s, t=t, t0=t0, d=d, zeta=zeta)


def random_admissible(rng):
    """Parameter tuples satisfying every hypothesis of the mean-error bound."""
    while True:
        d = int(rng.integers(1, 4))
        s = d / 2 + rng.uniform(0.01, 1.0)
        r = s + rng.uniform(0.1, 3.0)  # tau > 0
        tau = r - s
        t = max(0.0, s - tau) + rng.uniform(0.05, 2.0)
        hi = 2 * t + r
        t0 = t + rng.uniform(0.0, 0.9) * (hi - t)
        if t0 >= t:
            return params(r=r, s=s, t=t, t0=t0, d=d)


def random_hypoelliptic(rng, gap=0.05):
    """Admissible tuples with t0 - t >= gap: a regime split that moves by a multiple of
    t0 - t then leaves a jump in the exponent."""
    while True:
        p = random_admissible(rng)
        if p.t0 - p.t >= gap:
            return p


def max_step(exponent, lo: float, hi: float, n: int = 1001) -> tuple[float, float]:
    """Largest change of ``exponent(zeta)`` between neighbours of an n-point grid on
    [lo, hi], and the grid step."""
    grid = np.linspace(lo, hi, n)
    values = np.array([exponent(float(z)) for z in grid])
    return float(np.abs(np.diff(values)).max()), float(grid[1] - grid[0])


class TestSmoothnessParams:
    def test_tau_is_r_minus_s(self):
        assert params(r=2.0, s=1.01).tau == pytest.approx(0.99, abs=1e-15)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            params(d=4)

    def test_rejects_t_above_t0(self):
        with pytest.raises(ValueError):
            params(t=3.0, t0=2.0)

    @pytest.mark.parametrize("name", ["r", "s", "t", "t0", "zeta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            params(**{name: value})


class TestBayesRate:
    def test_worked_example_exact(self):
        p = bayes_rate(params(zeta=-3.01))
        assert abs(p.exponent - 1.0) <= 1e-12
        assert p.regime == "i"
        p = bayes_rate(params(zeta=0.0))
        assert abs(p.exponent - 0.2475) <= 1e-12
        assert p.regime == "ii"

    def test_requires_zeta(self):
        with pytest.raises(ValueError):
            bayes_rate(params())

    def test_regime_tags_flip_at_thresholds(self):
        p = params()
        lo = p.t - p.s - 2 * p.t0  # -3.01
        hi = p.tau  # 0.99 (elliptic: t0 - t = 0)
        assert bayes_rate(params(zeta=lo - 1e-9)).regime == "i"
        assert bayes_rate(params(zeta=lo + 1e-9)).regime == "ii"
        assert bayes_rate(params(zeta=hi - 1e-9)).regime == "ii"
        assert bayes_rate(params(zeta=hi)).regime == "none"

    def test_no_convergence_exponent_nonpositive(self):
        p = bayes_rate(params(zeta=2.0))
        assert p.regime == "none" and p.exponent <= 0.0

    def test_case_boundary_continuity_100_random_tuples(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            base = random_admissible(rng)
            z = base.t - base.s - 2 * base.t0
            below = bayes_rate(params(r=base.r, s=base.s, t=base.t, t0=base.t0,
                                      d=base.d, zeta=z - 1e-13))
            above = bayes_rate(params(r=base.r, s=base.s, t=base.t, t0=base.t0,
                                      d=base.d, zeta=z + 1e-13))
            assert abs(below.exponent - above.exponent) < 1e-12

    def test_no_jump_on_fine_zeta_grid(self):
        # every branch is linear in zeta with slope 0 or -1/(t0 + r) and the branches meet
        # at the split t - s - 2 t0; a split moved by 3 (t0 - t) jumps by 3 (t0 - t) / (t0 + r)
        rng = np.random.default_rng(17)
        for _ in range(25):
            p = random_hypoelliptic(rng)
            split, edge = p.t - p.s - 2 * p.t0, p.tau - 3 * (p.t0 - p.t)
            jump, step = max_step(lambda z: bayes_rate(replace(p, zeta=z)).exponent,
                                  split - 1.0, edge + 1.0)
            assert jump <= step / (p.t0 + p.r) + 1e-12

    def test_exponent_positive_inside_regime(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            base = random_admissible(rng)
            edge = base.tau - 3 * (base.t0 - base.t)
            if edge <= 0:
                continue
            z = edge - rng.uniform(0.01, 1.0) * (edge + 5.0)
            p = bayes_rate(params(r=base.r, s=base.s, t=base.t, t0=base.t0,
                                  d=base.d, zeta=z))
            assert p.exponent > 0.0
            assert p.regime in ("i", "ii")


class TestFrequentistRate:
    def test_elliptic_reduction(self):
        p = params()
        pred = frequentist_rate(p)
        assert abs(pred.exponent - 2 * p.tau / (p.s + p.tau + p.t)) <= 1e-12
        assert abs(pred.exponent - 0.495) <= 1e-12

    def test_regime_edge_gives_zero(self):
        p = params(t=1.0, t0=1.0 + 0.99 / 3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tau = p.tau
            edge = params(r=p.r, s=p.s, t=1.0, t0=1.0 + tau / 3.0)
            pred = frequentist_rate(edge)
        assert abs(pred.exponent) < 1e-12

    def test_flags_nonpositive_tau(self):
        with pytest.warns(HypothesisWarning) as rec:
            frequentist_rate(params(r=1.0, s=1.01))
        assert any("tau > 0" in str(w.message) for w in rec)


class TestContractionRate:
    def test_kappa0_and_decay(self):
        pred = contraction_rate(params(), kappa=0.2)
        assert abs(pred.extra["kappa0"] - 0.495) <= 1e-12
        assert abs(pred.extra["decay"] - 0.59) <= 1e-12

    def test_kappa_equal_kappa0_gives_zero_decay(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pred = contraction_rate(params(), kappa=0.495)
        assert abs(pred.extra["decay"]) <= 1e-12

    def test_warns_when_kappa_too_large(self):
        with pytest.warns(HypothesisWarning, match="kappa < kappa0"):
            contraction_rate(params(), kappa=1.0)

    def test_kappa0_falls_as_t0_minus_t_grows(self):
        # at fixed tau and r, the hypoelliptic penalty 3 (t0 - t) lowers kappa0, whether t
        # falls below a fixed t0 or t0 rises above a fixed t
        rng = np.random.default_rng(19)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(50):
                p = random_admissible(rng)
                gaps = np.linspace(0.0, min(1.0, p.t0), 6)
                lower_t = [contraction_rate(replace(p, t=p.t0 - g)).extra["kappa0"] for g in gaps]
                raise_t0 = [contraction_rate(replace(p, t0=p.t + g)).extra["kappa0"] for g in gaps]
                for kappa0 in (lower_t, raise_t0):
                    assert all(a > b for a, b in zip(kappa0, kappa0[1:]))

    def test_elliptic_matches_frequentist_exponent(self):
        rng = np.random.default_rng(11)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # random draws may breach r > s
            for _ in range(50):
                base = random_admissible(rng)
                ell = params(r=base.r, s=base.s, t=base.t, t0=base.t)
                c = contraction_rate(ell)
                f = frequentist_rate(ell)
                assert abs(c.extra["kappa0"] - f.exponent) < 1e-12


class TestCredibleRate:
    def test_case_i_value(self):
        p = params(r=1.0, s=0.51, t=1.0, t0=1.0, d=1)
        pred = credible_rate(p, zeta1=-2.0)  # below -s - t0 = -1.51
        assert abs(pred.extra["gamma"] - 2.0) <= 1e-12
        assert pred.regime == "i"

    def test_case_boundary_continuity_100_random_tuples(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            base = random_admissible(rng)
            z1 = -base.s - base.t0
            lo = credible_rate(base, z1 - 1e-13)
            hi = credible_rate(base, z1 + 1e-13)
            assert abs(lo.extra["gamma"] - hi.extra["gamma"]) < 1e-12

    def test_no_jump_on_fine_zeta1_grid(self):
        # gamma is linear in zeta1 with slope 0 or -2/(t0 + r) up to the hypothesis limit
        # tau + t - t0, both branches meeting at -s - t0; a split moved by t0 - t jumps
        rng = np.random.default_rng(23)
        for _ in range(25):
            p = random_hypoelliptic(rng)
            split = -p.s - p.t0
            jump, step = max_step(lambda z: credible_rate(p, z).extra["gamma"],
                                  split - 1.0, p.tau + p.t - p.t0 - 1e-9)
            assert jump <= 2.0 * step / (p.t0 + p.r) + 1e-12

    def test_alpha_half_gamma_gives_zero_decay(self):
        p = params()
        gamma = credible_rate(p, zeta1=-3.0).extra["gamma"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pred = credible_rate(p, zeta1=-3.0, alpha=gamma / 2.0)
        assert abs(pred.extra["decay"]) <= 1e-12

    def test_warns_outside_zeta1_range(self):
        with pytest.warns(HypothesisWarning, match="zeta1"):
            credible_rate(params(), zeta1=5.0)


class TestHypothesisFlags:
    def test_violations_recorded_and_warned(self):
        bad = params(t0=5.0, t=1.0, r=1.0, s=1.01, zeta=-8.0)
        with pytest.warns(HypothesisWarning) as rec:
            pred = bayes_rate(bad)
        assert any("t0 < 2t" in str(w.message) for w in rec)
        assert not pred.hypotheses_ok
        assert any("t0 < 2t + r" in m for m in pred.messages)

    def test_small_s_flagged(self):
        with pytest.warns(HypothesisWarning, match="s > d/2"):
            bayes_rate(params(s=0.5, r=2.0, d=2, zeta=-4.0))

    def test_clean_params_have_no_messages(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pred = bayes_rate(params(zeta=0.0))
        assert pred.hypotheses_ok and pred.messages == ()
