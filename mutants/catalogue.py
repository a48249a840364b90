"""The mutant catalogue: one-line textual changes that Tier-1 must detect.

Each entry replaces ``old``, which must occur exactly once in ``path`` and lie
within one line, by ``new``.  A mutant that Tier-1 does not fail survives; a
survivor passes the run only if ``equivalent`` says why it cannot change any
result.  Standard library only.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    equivalent: str = ""  # why the mutant cannot change behaviour, if it cannot


RATES = "src/torusbayes/rates.py"
POSTERIOR = "src/torusbayes/posterior.py"
LATTICE = "src/torusbayes/lattice.py"
EXPERIMENTS = "src/torusbayes/experiments.py"
FIELDS = "src/torusbayes/fields.py"

MUTANTS = (
    # the rate exponents: t and t0 swapped, or a regime split moved
    Mutant("bayes-regime-i-swap", RATES,
           "RatePrediction((2.0 * t - t0 + r) / (t0 + r)", "RatePrediction((2.0 * t0 - t + r) / (t0 + r)"),
    Mutant("bayes-split-swap", RATES,
           "elif z <= t - params.s - 2.0 * t0:", "elif z <= t0 - params.s - 2.0 * t:"),
    Mutant("frequentist-penalty-sign", RATES,
           "exponent = 2.0 * (tau - 3.0 * (t0 - t))", "exponent = 2.0 * (tau - 3.0 * (t - t0))"),
    Mutant("kappa0-penalty-sign", RATES,
           "kappa0 = 2.0 * (tau - 3.0 * (t0 - t))", "kappa0 = 2.0 * (tau - 3.0 * (t - t0))"),
    Mutant("credible-split-swap", RATES,
           "if zeta1 <= -s - t0:", "if zeta1 <= -s - t:"),
    # the diagonal posterior: delta for delta^2 in the precision
    Mutant("diagonal-precision-delta", POSTERIOR,
           "model.delta**2 / _prior_symbol(model.prior.cov, lattice)",
           "model.delta / _prior_symbol(model.prior.cov, lattice)"),
    # the dense posterior through the pencil
    Mutant("pencil-shift-delta", POSTERIOR,
           "y /= lam + delta2[:, None]", "y /= lam + np.sqrt(delta2[:, None])"),
    Mutant("cov-factor-delta", POSTERIOR,
           "block[1:] * (model.delta / np.sqrt(block[0].real + model.delta**2))",
           "block[1:] * (model.delta / np.sqrt(block[0].real + model.delta))"),
    Mutant("trace-root-weights", POSTERIOR,
           "w = sobolev_weight(lattice, zeta)[_cosine_sine_modes(lattice)[0]]",
           "w = sobolev_weight(lattice, zeta)"),
    # the cosine/sine basis and the Sobolev bracket
    Mutant("butterfly-sign", LATTICE, "b *= -2.0", "b *= 2.0"),
    Mutant("sobolev-half-order", LATTICE,
           "return (1.0 + lattice.weights) ** q", "return (1.0 + lattice.weights) ** (q / 2.0)"),
    Mutant("white-noise-scale", LATTICE,
           "coeffs.reshape(*lead, lattice.size) / np.sqrt(lattice.size)",
           "coeffs.reshape(*lead, lattice.size) / lattice.size"),
    # the runners: the 2% saturation filter of the slope fit, the Markov bound's trace term
    Mutant("saturation-filter", EXPERIMENTS,
           "if abs(a - b) / max(a, b) < 0.02:", "if abs(a - b) / max(a, b) < 0.2:"),
    Mutant("markov-trace-radius", EXPERIMENTS,
           "markov.append(min(1.0, traces[j] / radius**2))",
           "markov.append(min(1.0, traces[j] / radius))"),
    # the exact ball law: its tail against the complement, the pair noncentrality
    Mutant("ball-tail-complement", POSTERIOR,
           "p = 0.5 + total / math.pi", "p = 0.5 - total / math.pi"),
    Mutant("ball-pair-noncentrality", POSTERIOR,
           "b[self._pair] + np.conj(b[self._mate])", "b[self._pair] - np.conj(b[self._mate])"),
    # the dense replicate loop: each replicate's rows of the one lockstep solve
    Mutant("lockstep-replicate-offset", EXPERIMENTS,
           "return stats(i, draws[i], means[i * n:(i + 1) * n])",
           "return stats(i, draws[i], means[i:i + n])"),
    # the diagonal runners' error forms: the bias, noise and cross weights of mean - u
    Mutant("error-forms-bias-square", EXPERIMENTS,
           "sq_u, zw, beta**2)", "sq_u, zw, beta)"),
    Mutant("error-forms-noise-delta", EXPERIMENTS,
           "model.delta**2 * asq / denom**2", "model.delta * asq / denom**2"),
    Mutant("error-forms-cross-sign", EXPERIMENTS,
           "-2.0 * model.delta * beta / denom", "2.0 * model.delta * beta / denom"),
    # the tiled Hermitian symmetrise: the sign of the mirrored tile's imaginary part
    Mutant("hermitian-mirror-imag-sign", POSTERIOR,
           "tile.imag -= mirror.imag", "tile.imag += mirror.imag"),
    # a solve's finite-row check, which a diagonal mean with one NaN entry must fail
    Mutant("finite-row-check", POSTERIOR,
           "return [mean if np.isfinite(mean).all() else",
           "return [mean if np.isfinite(mean).any() else"),
    # the exact ball's log MGF, computed once when there is no convergence factor
    Mutant("ball-tau-shortcut", POSTERIOR,
           "if tau > 0:  # at tau = 0", "if tau >= 0:  # at tau = 0"),
    # the Hermitian root's power, read through the deferred PosteriorGaussian.sqrt_cov
    Mutant("hermitian-root-power", FIELDS,
           "evecs *= np.sqrt(evals**0.5)", "evecs *= np.sqrt(evals)"),
)
