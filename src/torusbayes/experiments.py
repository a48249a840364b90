"""Experiment runners over noise grids and the deterministic deblurring sweep.

Each runner measures a quantity over a decreasing noise grid, fits a log-log
slope on the pre-saturation rows, and attaches the predicted exponent so
tables are self-describing.  Only ``bayes`` draws: replicate i seeds its
generators by (master_seed, stream, i), stream 0 the truth and 1 the data
noise, and results are reduced in ascending replicate order, so thread count
never changes the output.  The frequentist, contraction and credible runners
draw nothing: each reads one exact Gaussian law per delta, multiplier or dense
(:func:`posterior._biases` and :func:`posterior._noise_trace`; the ball runners' rows
all come from one kernel, :func:`_escape_rows`), and its rows carry ``n`` 0 and their
stated error in ``stderr``.  The deblurring runner reads the deterministic part of
that law, the bias E mean - u of noiseless data (:func:`posterior._biases`).
The bayes runner forms no posterior mean: each error is the root of weighted
quadratic forms of the draws, mode by mode (:func:`_error_forms`) or through
the kept pencil (:func:`_pencil_errors`), one delta at a time.
"""

from __future__ import annotations

import csv
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .fields import GaussianPrior, gaussian_prior, sample_white_noise, sobolev_norm
from .lattice import FrequencyLattice, SpectralField, build_lattice, forward_transform
from .lattice import _cosine_sine_modes, sobolev_weight
from .operators import Operator, bessel_op, compose
from .posterior import (
    GaussianModel,
    _biases,
    _diag_weights,
    _is_diagonal,
    _noise_trace,
    _pencil,
    _pencil_coords,
    _trace_ball,
    _values,
)
from .rates import RatePrediction, bayes_rate, contraction_rate, credible_rate, frequentist_rate

__all__ = [
    "ExperimentConfig",
    "RateRow",
    "ZetaFit",
    "RateTable",
    "TruthField",
    "CurveSet",
    "LoglogFit",
    "fit_loglog_slope",
    "make_hat_truth",
    "run_bayes_convergence",
    "run_frequentist_convergence",
    "run_contraction",
    "run_credible",
    "run_appendix_b",
    "run_experiment",
    "default_config",
    "write_rate_csv",
    "write_curve_files",
]

MODES = ("bayes", "frequentist", "contraction", "credible", "appendix_b")

# Endpoint where deblurring error flattens at n=256; curves normalize here.
APPENDIX_B_DELTA_MIN = 5e-6


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run needs, validated at construction."""

    mode: str
    fwd: Operator
    prior: GaussianPrior
    s: float
    d: int
    n_per_dim: int
    deltas: tuple[float, ...]
    zetas: tuple[float, ...]
    n_replicates: int
    master_seed: int
    threads: int = 1
    kappa: float | None = None
    c0: float | None = None
    zeta1: float | None = None
    alpha: float | None = None
    c1: float | None = None
    n_mc: int = 2000

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        deltas = tuple(float(x) for x in self.deltas)
        object.__setattr__(self, "deltas", deltas)
        zetas = tuple(float(z) for z in self.zetas)
        object.__setattr__(self, "zetas", zetas)
        if not zetas or not np.all(np.isfinite(zetas)) or len(set(zetas)) < len(zetas):
            raise ValueError(f"zetas must be finite, distinct and not empty, got {zetas}")
        if len(deltas) < 4:
            raise ValueError("delta grid needs at least 4 points")
        if not np.all(np.isfinite(deltas)):  # NaN fails no comparison below
            raise ValueError(f"delta grid must be finite, got {deltas}")
        if any(b >= a for a, b in zip(deltas, deltas[1:])) or deltas[-1] <= 0:
            raise ValueError("delta grid must be positive and strictly decreasing")
        span = np.log10(deltas[0] / deltas[-1])
        if span < 1.5 - 1e-9:
            raise ValueError(f"delta grid must span >= 1.5 decades, got {span:.3f}")
        if self.n_replicates < 8:
            raise ValueError("n_replicates must be at least 8")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.n_mc < 100:
            raise ValueError("n_mc must be at least 100")
        for name in ("c0", "c1"):
            value = getattr(self, name)
            if value is not None and not value > 0:  # NaN too
                raise ValueError(f"{name} must be positive, got {value}")
        for mode, name in (("contraction", "kappa"), ("credible", "zeta1")):
            if self.mode == mode and getattr(self, name) is None:
                raise ValueError(f"{mode} experiment needs {name}")
        for name in ("kappa", "c0", "zeta1", "alpha", "c1"):  # the ball law needs finite ones
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    def model(self, delta: float) -> GaussianModel:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return GaussianModel(self.fwd, self.prior, self.s, self.d, delta)

    def lattice(self) -> FrequencyLattice:
        return build_lattice(self.d, self.n_per_dim)


@dataclass(frozen=True)
class RateRow:
    experiment: str
    delta: float
    zeta: float
    mean_error: float
    stderr: float
    n: int
    predicted_exponent: float
    regime: str


@dataclass(frozen=True)
class ZetaFit:
    zeta: float
    slope: float
    intercept: float
    r2: float
    used_deltas: tuple[float, ...]
    prediction: RatePrediction


@dataclass(frozen=True)
class RateTable:
    experiment: str
    rows: tuple[RateRow, ...]
    fits: tuple[ZetaFit, ...]
    dropped: int = 0
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TruthField:
    u_dagger: SpectralField
    description: str


@dataclass(frozen=True)
class LoglogFit:
    slope: float
    intercept: float
    r2: float
    used_rows: tuple[int, ...]


@dataclass(frozen=True)
class CurveSet:
    """Normalized deblurring-error curves plus predicted-bound references."""

    deltas: tuple[float, ...]
    zetas: tuple[float, ...]
    curves: dict
    bounds: dict
    raw_errors: dict
    normalizers: dict
    predictions: dict


def fit_loglog_slope(deltas, values) -> LoglogFit:
    """OLS slope of log(value) against log(delta) on pre-saturation rows.

    Rows at the small-delta end are dropped while the value changes by
    less than 2% between adjacent deltas (finite-lattice floor); at least
    three rows must survive.
    """
    deltas = np.asarray(deltas, dtype=float)
    values = np.asarray(values, dtype=float)
    if deltas.shape != values.shape or deltas.ndim != 1:
        raise ValueError("deltas and values must be 1-d arrays of equal length")
    if np.any(deltas <= 0) or np.any(values <= 0):
        raise ValueError("log-log fit needs positive deltas and values")
    order = np.argsort(deltas)[::-1]
    deltas, values = deltas[order], values[order]
    keep = len(deltas)
    while keep > 1:
        a, b = values[keep - 2], values[keep - 1]
        if abs(a - b) / max(a, b) < 0.02:
            keep -= 1
        else:
            break
    if keep < 3:
        raise ValueError(f"only {keep} usable rows after saturation filter, need 3")
    return LoglogFit(*_ols(np.log(deltas[:keep]), np.log(values[:keep])),
                     tuple(order[:keep].tolist()))


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y = slope x + intercept: (slope, intercept, R^2)."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), float(intercept), r2


def _zeta_fit(zeta: float, deltas, values, pred: RatePrediction,
              fit=fit_loglog_slope) -> ZetaFit:
    """ZetaFit of ``fit`` on the positive values; NaN slope, intercept and R^2 if it raises."""
    kept = np.flatnonzero(np.asarray(values) > 0)
    try:
        res = fit(np.asarray(deltas)[kept], np.asarray(values)[kept])
    except ValueError:
        return ZetaFit(zeta, float("nan"), float("nan"), float("nan"), (), pred)
    return ZetaFit(zeta, res.slope, res.intercept, res.r2,
                   tuple(deltas[kept[i]] for i in res.used_rows), pred)


def _rate_rows(experiment: str, deltas, zeta: float, samples: np.ndarray,
               exponent: float, regime: str) -> list[RateRow]:
    """Rows of a (replicate, delta) array: mean, stderr and count of each column's non-NaNs."""
    rows = []
    for j, delta in enumerate(deltas):
        vals = samples[~np.isnan(samples[:, j]), j]
        mean = float(vals.mean()) if vals.size else float("nan")
        stderr = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else float("nan")
        rows.append(RateRow(experiment, delta, zeta, mean, stderr, vals.size, exponent, regime))
    return rows


def _replicate_mean(samples: np.ndarray) -> list:
    """The mean over replicates of the non-NaNs; NaN, silently, where all failed."""
    failed = np.all(np.isnan(samples), axis=0)
    return np.where(failed, np.nan, np.nanmean(np.where(failed, 0.0, samples), axis=0)).tolist()


def make_hat_truth(lattice: FrequencyLattice) -> TruthField:
    """Tensor pyramid on T^2: h(x) h(y), h a triangle of half-width pi/2 at pi.

    Piecewise linear per axis, so it sits just below H^{3/2} smoothness in
    each variable: H^1 norms are refinement-stable while H^2 norms grow.
    """
    if lattice.dim != 2:
        raise ValueError("hat truth is a 2-d construction")
    x = lattice.grid_axes()[0]
    h = np.maximum(0.0, 1.0 - np.abs(x - np.pi) / (np.pi / 2.0))
    values = np.outer(h, h)
    return TruthField(
        forward_transform(lattice, values),
        "tensor pyramid, height 1, half-width pi/2, centered at (pi, pi)",
    )


def _checked_truth(truth: TruthField | None, lattice: FrequencyLattice) -> TruthField:
    """The given truth (hat function by default), which must live on ``lattice``."""
    if truth is None:
        truth = make_hat_truth(lattice)
    if truth.u_dagger.lattice != lattice:
        raise ValueError("truth lives on a different lattice than the config")
    return truth


def _error_forms(model: GaussianModel, lattice: FrequencyLattice, zw: np.ndarray,
                 sq_u: np.ndarray, sq_e: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Squared H^zeta norms of the bias and the noise of mean - u, and their cross term, at
    the noise level of a diagonal ``model``: a (replicate, zeta, 3) array.

    Mode by mode mean - u = beta u + nu e with beta = -p / D, nu = delta conj(a) / D,
    p = delta^2 / c_U and D = |a|^2 + p, so |mean - u|^2 weighs |u|^2 by beta^2, |e|^2 by
    |nu|^2 and Re(conj(A u) e) by -2 p delta / D^2.  ``zw`` holds the H^zeta weights, one row
    per zeta; ``sq_u``, ``sq_e`` and ``cross`` the rows |u|^2, |e|^2 and Re(conj(A u) e), one
    per replicate.
    """
    _, asq, prec = _diag_weights(model, lattice)
    denom = asq + prec
    beta = prec / denom  # -beta; only its square and the cross weight read it
    forms = np.empty((len(sq_u), len(zw), 3))
    forms[:, :, 0] = np.einsum("ik,zk,k->iz", sq_u, zw, beta**2)
    forms[:, :, 1] = np.einsum("ik,zk,k->iz", sq_e, zw, model.delta**2 * asq / denom**2)
    forms[:, :, 2] = np.einsum("ik,zk,k->iz", cross, zw, -2.0 * model.delta * beta / denom)
    return forms


def _pencil_errors(model: GaussianModel, lattice: FrequencyLattice, zw: np.ndarray,
                   g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Squared H^zeta norms of mean - u at the noise level of a dense ``model``, a (replicate,
    zeta) array: per class (idx, [lam; F]) of the kept pencil (:func:`posterior._pencil`),
    F^T G F = diag(lam) makes it delta F (g - delta h) / (lam + delta^2) in the cosine/sine
    basis, for the rows g = F^T Q A^H e and h = F^{-1} Q u, one per replicate.  ``zw`` holds
    the H^zeta weights in cosine/sine order, one row per zeta."""
    d, sq = model.delta, np.zeros((len(g), len(zw)))
    for idx, block in _pencil(model, lattice):
        y = (g[:, idx] - d * h[:, idx]) * (d / (block[0] + d**2))
        sq += np.abs(y @ block[1:].T) ** 2 @ zw[:, idx].T
    return sq


def _replicate_solves(cfg: ExperimentConfig, lattice: FrequencyLattice, models,
                      zw: np.ndarray) -> tuple[np.ndarray, int]:
    """The bayes runner's replicate loop: the (replicate, delta, column) H^zeta errors of
    mean - u, for the (zeta, K) H^zeta weights ``zw``, and the drop count.

    Replicate i draws u = C_U^{1/2} xi from stream 0 and e from stream 1 in its own pool
    task.  Diagonal models form no mean: each task keeps |u|^2, |e|^2 and Re(conj(A u) e),
    and :func:`_error_forms` contracts them into the squared norms of the bias, the noise
    and their cross term; the columns are the errors, then the bias and the noise norms,
    one per zeta each.  Otherwise each task keeps its u and e; after the pool the pencil's
    coordinate kernel (:func:`posterior._pencil_coords`) maps the e stack to the rows
    g = F^T Q A^H e, through one product with A, and the u stack to h = F^{-1} Q u, which
    :func:`_pencil_errors` contracts into the errors, the columns.  A replicate whose
    squared norms at a delta are not all finite (a failed solve) is NaN there and one drop.
    """
    n, n_rep, size = len(models), cfg.n_replicates, lattice.size
    diagonal = _is_diagonal(models[0])
    # prior root and forward map, K values kept on each operator, or a K x K matrix
    root, fwd = _values(cfg.prior.sqrt_cov, lattice), _values(cfg.fwd, lattice)

    def draws(i: int) -> tuple[np.ndarray, np.ndarray]:
        xi, e = (sample_white_noise(lattice, (cfg.master_seed, stream, i)).coeffs
                 for stream in (0, 1))
        return root * xi if root.ndim == 1 else root @ xi, e

    if diagonal:
        sq_u, sq_e, cross = np.empty((3, n_rep, size))

        def work(i: int) -> None:  # each task writes its own rows
            u, e = draws(i)
            au = fwd * u
            sq_u[i] = u.real**2 + u.imag**2
            sq_e[i] = e.real**2 + e.imag**2
            cross[i] = au.real * e.real + au.imag * e.imag
    else:
        u_rows, e_rows = np.empty((2, n_rep, size), np.complex128)

        def work(i: int) -> None:  # each task writes its own rows
            u_rows[i], e_rows[i] = draws(i)

    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:  # starts no thread unless used
        mapped = pool.map if cfg.threads > 1 else map  # 1: the caller's thread, no extra heap
        list(mapped(work, range(n_rep)))
    if not diagonal:  # the rows g and h, each class's columns in place in cosine/sine order
        g = _pencil_coords(models[0], lattice, e_rows, data=True)
        h = _pencil_coords(models[0], lattice, u_rows)
        zw = zw[:, _cosine_sine_modes(lattice)[0]]
    out = np.full((n_rep, n, 3 * len(zw) if diagonal else len(zw)), np.nan)
    for j, model in enumerate(models):  # one delta's forms at a time
        if diagonal:
            forms = np.moveaxis(_error_forms(model, lattice, zw, sq_u, sq_e, cross), 2, 0)
            sq = np.concatenate([np.maximum(forms.sum(axis=0), 0.0), forms[0], forms[1]], axis=1)
        else:
            sq = _pencil_errors(model, lattice, zw, g, h)
        ok = np.isfinite(sq).all(axis=1)
        out[ok, j] = np.sqrt(sq[ok])
    return out, int(np.isnan(out[:, :, 0]).sum())


def run_bayes_convergence(cfg: ExperimentConfig) -> RateTable:
    """Prior-draw experiment: U ~ prior, M = AU + delta E, error of the mean.

    One (U, E) pair per replicate is reused across the whole delta grid
    (common random numbers), which removes draw-to-draw jitter from the
    fitted slope.  For a diagonal model no mean is formed: the H^zeta error
    per delta is the root of three weighted quadratic forms of U and E (see
    :func:`_error_forms`), whose bias and noise parts are reported in
    ``extras``; other models read mean - u from the kept pencil
    (:func:`_pencil_errors`), have no such split and report neither.
    """
    lattice = cfg.lattice()
    deltas, zetas = cfg.deltas, cfg.zetas
    models = [cfg.model(d) for d in deltas]
    zw = np.stack([sobolev_weight(lattice, z) for z in zetas])
    stats, dropped = _replicate_solves(cfg, lattice, models, zw)
    nz = len(zetas)
    split = _is_diagonal(models[0])
    rows, fits = [], []
    for k, zeta in enumerate(zetas):
        pred = bayes_rate(models[0].params(zeta))
        zeta_rows = _rate_rows("bayes", deltas, zeta, stats[:, :, k], pred.exponent, pred.regime)
        rows.extend(zeta_rows)
        fits.append(_zeta_fit(zeta, deltas, [r.mean_error for r in zeta_rows], pred))
    extras = {"bias_mean": _replicate_mean(stats[:, :, nz:2 * nz]),
              "noise_mean": _replicate_mean(stats[:, :, 2 * nz:])} if split else {}
    extras.update(deltas=list(deltas), zetas=list(zetas))
    return RateTable("bayes", tuple(rows), tuple(fits), dropped, extras)


def run_frequentist_convergence(cfg: ExperimentConfig, truth: TruthField | None = None) -> RateTable:
    """Fixed-truth experiment: the exact mean integrated squared L2 error (MISE) of the
    posterior mean for data A u_true + delta E over the noise E.

    MISE = |bias|^2 + E |N E|^2 for the bias E mean - u (:func:`posterior._biases`) and the
    mean's data-noise part N E (:func:`posterior._noise_trace`), multiplier or dense.  Each
    row is exact: ``stderr`` 0.0 and ``n`` 0.
    """
    lattice = cfg.lattice()
    truth = _checked_truth(truth, lattice)
    models = [cfg.model(d) for d in cfg.deltas]
    params = models[0].params()
    pred = frequentist_rate(params)
    mise = [float(np.vdot(bias, bias).real) + _noise_trace(model, lattice)
            for model, bias in zip(models, _biases(models, lattice, truth.u_dagger.coeffs))]
    rows = tuple(RateRow("frequentist", delta, 0.0, value, 0.0, 0, pred.exponent, pred.regime)
                 for delta, value in zip(cfg.deltas, mise))
    extras = {
        "truth": truth.description,
        "truth_h_tau_norm": sobolev_norm(truth.u_dagger, params.tau),
        "deltas": list(cfg.deltas),
    }
    return RateTable("frequentist", rows, (_zeta_fit(0.0, cfg.deltas, mise, pred),), 0, extras)


def _escape_rows(experiment: str, models, lattice: FrequencyLattice, zeta: float,
                 exponent: float, scale: float | None, pred: RatePrediction, offsets=None):
    """Exact rows of the escape P(|X|_{H^zeta} >= scale delta^exponent), one per model, their
    Markov bounds min(1, E S / radius^2) for E S = trace + |offset|^2, traces and the scale.

    X has one Gaussian law per model (:func:`posterior._trace_ball`): with ``offsets``, one per
    model, that of a posterior draw minus the truth over the data noise, the offset its mean;
    without, the central posterior law.  An unset ``scale`` makes the radius at the middle
    model sqrt(E S); that law is built first and read for its own row.  Each law is read by
    one ``_escape_probs`` call and dropped before the next is built, so at most one dense
    K x K projection is held.  A radius squared to 0 or past the float range has bound 1 or 0.
    """
    n, mid, noise = len(models), len(models) // 2, offsets is not None
    sq = [float(np.vdot(o, o).real) for o in offsets] if noise else [0.0] * n
    rows, markov, traces = [None] * n, [None] * n, [None] * n
    for j in [mid] + [j for j in range(n) if j != mid]:
        traces[j], ball = _trace_ball(models[j], lattice, zeta, noise, noise)
        if scale is None:
            scale = float(np.sqrt(traces[j] + sq[j]) / models[j].delta**exponent)
        radius = scale * models[j].delta**exponent
        (p,), (bound,) = ball._escape_probs(radius, offsets[j][None] if noise else None)
        del ball  # before the next law is built
        r2, mean = radius * radius, traces[j] + sq[j]
        markov[j] = 1.0 if mean >= r2 else mean / r2
        rows[j] = RateRow(experiment, models[j].delta, zeta, float(p), float(bound), 0,
                          pred.extra["decay"], pred.regime)
    return rows, markov, traces, scale


def run_contraction(cfg: ExperimentConfig, truth: TruthField | None = None) -> RateTable:
    """Expected posterior mass escaping an L2 ball of radius c0 delta^kappa around the truth.

    Over the data noise a posterior draw minus the truth is one Gaussian, mean the bias
    E mean - u (:func:`posterior._biases`) and covariance C + N N^H, the posterior's plus
    that of the mean's data-noise part.  Each delta's row is the exact escape probability
    of that law, multiplier or dense, with the bias as its offset (:func:`_escape_rows`):
    the law's stated error bound in ``stderr`` and ``extras["ball_prob_error"]``, ``n`` 0;
    ``n_mc`` is not read.  ``extras["markov_mean"]`` holds the Markov bound
    min(1, E S / radius^2), E S = tr(C + N N^H) + |bias|^2, which must dominate the
    escape probability.  An unset ``c0`` makes the radius at the middle delta sqrt(E S).
    """
    if cfg.kappa is None:
        raise ValueError("contraction experiment needs kappa")
    lattice = cfg.lattice()
    u = _checked_truth(truth, lattice).u_dagger
    models = [cfg.model(d) for d in cfg.deltas]
    pred = contraction_rate(models[0].params(), cfg.kappa)
    rows, markov, _, c0 = _escape_rows("contraction", models, lattice, 0.0, cfg.kappa, cfg.c0,
                                       pred, list(_biases(models, lattice, u.coeffs)))
    fits = (_zeta_fit(0.0, cfg.deltas, [r.mean_error for r in rows], pred),)
    extras = {
        "c0": c0,
        "kappa": cfg.kappa,
        "kappa0": pred.extra["kappa0"],
        "markov_mean": markov,
        "ball_prob_method": "exact",
        "ball_prob_error": [r.stderr for r in rows],
        "deltas": list(cfg.deltas),
    }
    return RateTable("contraction", tuple(rows), fits, 0, extras)


def run_credible(cfg: ExperimentConfig) -> RateTable:
    """Escape probability of the credible ball B_{zeta1}(0, C1 delta^alpha).

    The ball is centred at the posterior mean, so the probability depends
    only on delta and no data is needed.  Every posterior, multiplier or
    dense, gets the exact probability of its central law (:func:`_escape_rows`), with the
    law's error bound in the ``stderr`` column and ``n`` = 0; a dense law keeps its
    eigenvalues alone.  An unset ``c1`` makes the radius at the middle delta the root of
    the trace there.  Per row the Markov bound min(1, trace / radius^2) is attached; the
    slope is fitted on rows with p in [10/n_mc, 0.9], the band a Monte Carlo sample of
    ``n_mc`` draws would resolve, which is all that ``n_mc`` sets here.
    """
    if cfg.zeta1 is None:
        raise ValueError("credible experiment needs zeta1")
    lattice = cfg.lattice()
    deltas = cfg.deltas
    models = [cfg.model(d) for d in deltas]
    params = models[0].params()
    gamma = credible_rate(params, cfg.zeta1).extra["gamma"]
    alpha = cfg.alpha if cfg.alpha is not None else gamma / 4.0
    pred = credible_rate(params, cfg.zeta1, alpha)
    rows, markov, traces, c1 = _escape_rows("credible", models, lattice, cfg.zeta1, alpha,
                                            cfg.c1, pred)

    def band_fit(xs, ps) -> LoglogFit:
        band = np.flatnonzero((ps >= 10.0 / cfg.n_mc) & (ps <= 0.9))
        if band.size < 3:
            raise ValueError(f"only {band.size} rows in the fit band, need 3")
        return LoglogFit(*_ols(np.log(np.asarray(xs)[band]), np.log(ps[band])),
                         tuple(band.tolist()))

    fits = (_zeta_fit(cfg.zeta1, deltas, [r.mean_error for r in rows], pred, band_fit),)
    extras = {
        "c1": c1,
        "alpha": alpha,
        "gamma": gamma,
        "markov_bound": markov,
        "trace_zeta1": traces,
        "ball_prob_method": "exact",
        "ball_prob_error": [r.stderr for r in rows],
        "deltas": list(deltas),
    }
    return RateTable("credible", tuple(rows), fits, 0, extras)


def run_appendix_b(cfg: ExperimentConfig, truth: TruthField | None = None) -> CurveSet:
    """Noiseless deblurring sweep with curves normalized to 1 at the last delta.

    For each zeta the curve is c(zeta) |u_true - u_delta|_{H^zeta} with
    c(zeta) = 1 / error at the smallest delta; the companion bound series
    is (delta / delta_min)^{max(predicted exponent, 0)}, flat when no
    convergence is predicted.
    """
    lattice = cfg.lattice()
    u = _checked_truth(truth, lattice).u_dagger
    deltas = np.asarray(cfg.deltas)
    zw = np.stack([sobolev_weight(lattice, z) for z in cfg.zetas])
    models = [cfg.model(delta) for delta in deltas]
    biases = _biases(models, lattice, u.coeffs)  # noiseless data: mean - u is its bias alone
    errors = np.stack([np.sqrt(zw @ np.abs(next(biases)) ** 2) for _ in models], axis=1)
    curves, bounds, normalizers, predictions = {}, {}, {}, {}
    for z, err in zip(cfg.zetas, errors):
        pred = bayes_rate(models[0].params(z))  # the same for every delta
        predictions[z] = pred
        normalizers[z] = 1.0 / err[-1]
        curves[z] = (err * normalizers[z]).tolist()
        bounds[z] = ((deltas / deltas[-1]) ** max(pred.exponent, 0.0)).tolist()
    errors = dict(zip(cfg.zetas, errors.tolist()))
    return CurveSet(tuple(deltas.tolist()), cfg.zetas, curves, bounds, errors,
                    normalizers, predictions)


def run_experiment(cfg: ExperimentConfig, truth: TruthField | None = None):
    """Dispatch on cfg.mode."""
    if cfg.mode == "bayes":
        return run_bayes_convergence(cfg)
    if cfg.mode == "frequentist":
        return run_frequentist_convergence(cfg, truth)
    if cfg.mode == "contraction":
        return run_contraction(cfg, truth)
    if cfg.mode == "credible":
        return run_credible(cfg)
    return run_appendix_b(cfg, truth)


def _appendix_b_model():
    op = bessel_op(-1.0)
    return op, gaussian_prior(bessel_op(-1.0))


def default_config(mode: str, **overrides) -> ExperimentConfig:
    """Tested defaults per mode; keyword overrides are applied afterwards.

    The grids were chosen so each acceptance check sits inside its
    resolvable window: the deblurring sweep spans exactly 1.5 decades down
    to 5e-6 (longer sweeps run into the truncation floor of the stagnating
    curves), and the credible grid uses a fine 10^(1/6) ratio because its
    probability transition is sharp.
    """
    fwd = bessel_op(-1.0)
    if mode in ("bayes", "frequentist"):
        base = ExperimentConfig(
            mode, fwd, gaussian_prior(compose(bessel_op(-1.0), bessel_op(-1.0))),
            s=1.01, d=2, n_per_dim=128,
            deltas=tuple(np.geomspace(1e-1, 1e-3, 7)),
            zetas=(-3.5, 0.0) if mode == "bayes" else (0.0,), n_replicates=16, master_seed=42,
        )
    elif mode == "contraction":
        base = ExperimentConfig(
            mode, fwd, gaussian_prior(compose(bessel_op(-1.0), bessel_op(-1.0))),
            s=1.01, d=2, n_per_dim=64,
            deltas=tuple(np.geomspace(1e-1, 1e-3, 9)),
            zetas=(0.0,), n_replicates=12, master_seed=42,
            kappa=0.2, n_mc=400,
        )
    elif mode == "credible":
        op, prior = _appendix_b_model()
        base = ExperimentConfig(
            mode, op, prior, s=1.01, d=2, n_per_dim=64,
            deltas=tuple(np.geomspace(1e-1, 1e-3, 13)),
            zetas=(0.0,), n_replicates=8, master_seed=42,
            zeta1=-3.0, n_mc=6000,
        )
    elif mode == "appendix_b":
        op, prior = _appendix_b_model()
        base = ExperimentConfig(
            mode, op, prior, s=1.01, d=2, n_per_dim=256,
            deltas=tuple(np.geomspace(APPENDIX_B_DELTA_MIN * 10**1.5,
                                      APPENDIX_B_DELTA_MIN, 6)),
            zetas=(-1.0, -0.5, 0.0, 0.5, 1.0), n_replicates=16, master_seed=42,
        )
    else:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    return replace(base, **overrides) if overrides else base


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_rate_csv(table: RateTable, path):
    """Eight-column result table with round-trip decimal formatting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "delta", "zeta", "mean_error", "stderr",
                         "n", "predicted_exponent", "regime"])
        for row in table.rows:
            writer.writerow([
                row.experiment, _fmt(row.delta), _fmt(row.zeta),
                _fmt(row.mean_error), _fmt(row.stderr), row.n,
                _fmt(row.predicted_exponent), row.regime,
            ])


def _write_series(path, deltas, values):
    """Two-column ``delta value`` lines at 17 significant digits."""
    with open(path, "w") as fh:
        for delta, value in zip(deltas, values):
            fh.write(f"{delta:.17g} {value:.17g}\n")


def write_curve_files(curves: CurveSet, out_dir):
    """One two-column (delta, value) file per curve and per bound series."""
    paths = []
    for z in curves.zetas:
        for kind, series in (("curve", curves.curves[z]), ("bound", curves.bounds[z])):
            path = os.path.join(out_dir, f"{kind}_zeta{z:+g}.dat")
            _write_series(path, curves.deltas, series)
            paths.append(path)
    return paths
