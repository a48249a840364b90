"""Closed-form convergence and contraction exponents.

Smoothness bookkeeping: the forward operator has decay-order pair
``(t, t0)``, the prior covariance has order ``-2r``, the noise lives in
``H^{-s}`` for ``s > d/2``, and prior draws have Sobolev regularity
``tau = r - s``.  All exponents below are powers of the noise level delta.

Violated hypotheses never raise; they are reported as messages on the
returned prediction and emitted as :class:`HypothesisWarning`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

__all__ = [
    "HypothesisWarning",
    "SmoothnessParams",
    "RatePrediction",
    "bayes_rate",
    "frequentist_rate",
    "contraction_rate",
    "credible_rate",
]


class HypothesisWarning(UserWarning):
    """A hypothesis behind a predicted rate is violated; the exponent is still reported."""


@dataclass(frozen=True)
class SmoothnessParams:
    """Smoothness parameters of one measurement model."""

    r: float
    s: float
    t: float
    t0: float
    d: int
    zeta: float | None = None

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"d must be 1, 2 or 3, got {self.d}")
        for name in ("r", "s", "t", "t0", "zeta"):  # NaN fails every comparison below
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.t > self.t0:
            raise ValueError(f"t ({self.t}) must not exceed t0 ({self.t0})")

    @property
    def tau(self) -> float:
        return self.r - self.s


@dataclass(frozen=True)
class RatePrediction:
    exponent: float
    regime: str
    hypotheses_ok: bool
    messages: tuple[str, ...] = ()
    extra: dict = field(default_factory=dict)


def _flag(cond: bool, msg: str, out: list[str]):
    if not cond:
        out.append(msg)


def _emit(messages: list[str]):
    for m in messages:
        warnings.warn(m, HypothesisWarning, stacklevel=3)


def _basic_flags(p: SmoothnessParams) -> list[str]:
    msgs: list[str] = []
    _flag(p.s > p.d / 2, f"s > d/2 violated (s={p.s}, d={p.d})", msgs)
    _flag(
        p.t > max(0.0, -p.tau + p.s),
        f"t > max(0, s - tau) violated (t={p.t}, s={p.s}, tau={p.tau})",
        msgs,
    )
    _flag(
        p.t0 < 2 * p.t + p.r,
        f"t0 < 2t + r violated (t0={p.t0}, t={p.t}, r={p.r})",
        msgs,
    )
    return msgs


def bayes_rate(params: SmoothnessParams) -> RatePrediction:
    """Expected H^zeta error decay of the posterior mean against a prior draw.

    Two regimes split at ``zeta = t - s - 2 t0``; above ``tau - 3 (t0 - t)``
    no convergence is predicted and the (nonpositive) boundary exponent is
    returned with regime tag "none".
    """
    if params.zeta is None:
        raise ValueError("bayes_rate needs params.zeta")
    z, tau, t, t0, r = params.zeta, params.tau, params.t, params.t0, params.r
    msgs = _basic_flags(params)
    edge = tau - 3.0 * (t0 - t)
    slope_ii = -(z - tau + 3.0 * (t0 - t)) / (t0 + r)
    if z >= edge:
        pred = RatePrediction(slope_ii, "none", not msgs, tuple(msgs))
    elif z <= t - params.s - 2.0 * t0:
        pred = RatePrediction((2.0 * t - t0 + r) / (t0 + r), "i", not msgs, tuple(msgs))
    else:
        pred = RatePrediction(slope_ii, "ii", not msgs, tuple(msgs))
    _emit(msgs)
    return pred


def _truth_exponent(params: SmoothnessParams) -> tuple[float, list[str]]:
    """2 (tau - 3 (t0 - t)) / (t0 + r), the squared L2 risk's exponent and kappa0 for a
    fixed truth in H^tau, and the flags of its hypotheses tau > 0 and t0 <= t + tau / 3."""
    tau, t, t0, r = params.tau, params.t, params.t0, params.r
    msgs: list[str] = []
    _flag(tau > 0, f"tau > 0 violated (tau={tau})", msgs)
    _flag(t0 <= t + tau / 3.0,
          f"t0 <= t + tau/3 violated (t0={t0}, t={t}, tau={tau})", msgs)
    return 2.0 * (tau - 3.0 * (t0 - t)) / (t0 + r), msgs


def frequentist_rate(params: SmoothnessParams) -> RatePrediction:
    """Exponent of the mean integrated squared L2 error for a fixed truth in H^tau."""
    exponent, msgs = _truth_exponent(params)
    _flag(params.r > params.s > params.d / 2,
          f"r > s > d/2 violated (r={params.r}, s={params.s}, d={params.d})", msgs)
    pred = RatePrediction(exponent, "mise", not msgs, tuple(msgs))
    _emit(msgs)
    return pred


def contraction_rate(params: SmoothnessParams, kappa: float | None = None) -> RatePrediction:
    """Contraction exponent kappa0 and, given kappa < kappa0, the probability decay.

    The posterior probability of the complement of an L2 ball of radius
    ``c0 delta^kappa`` decays like ``delta^{2 (kappa0 - kappa)}`` with
    ``kappa0 = 2 (tau - 3 (t0 - t)) / (t0 + r)``, the frequentist exponent.
    """
    kappa0, msgs = _truth_exponent(params)
    extra = {"kappa0": kappa0}
    if kappa is not None:
        _flag(kappa < kappa0, f"kappa < kappa0 violated (kappa={kappa}, kappa0={kappa0})", msgs)
        extra["decay"] = 2.0 * (kappa0 - kappa)
    pred = RatePrediction(kappa0, "contraction", not msgs, tuple(msgs), extra)
    _emit(msgs)
    return pred


def credible_rate(
    params: SmoothnessParams, zeta1: float, alpha: float | None = None
) -> RatePrediction:
    """Coverage exponent gamma for H^zeta1 credible balls of radius C1 delta^alpha.

    The probability that the truth leaves the ball is bounded by
    ``C delta^{gamma - 2 alpha}``.  The two gamma regimes split at
    ``zeta1 = -s - t0``.
    """
    tau, t, t0, r, s = params.tau, params.t, params.t0, params.r, params.s
    msgs = _basic_flags(params)
    _flag(zeta1 < tau + t - t0,
          f"zeta1 < tau + t - t0 violated (zeta1={zeta1})", msgs)
    if zeta1 <= -s - t0:
        gamma = 2.0 * (t + r) / (t0 + r)
        regime = "i"
    else:
        gamma = 2.0 * (tau + t - t0 - zeta1) / (t0 + r)
        regime = "ii"
    extra = {"gamma": gamma}
    if alpha is not None:
        _flag(alpha < gamma / 2.0,
              f"alpha < gamma/2 violated (alpha={alpha}, gamma={gamma})", msgs)
        extra["decay"] = gamma - 2.0 * alpha
    pred = RatePrediction(gamma, regime, not msgs, tuple(msgs), extra)
    _emit(msgs)
    return pred
