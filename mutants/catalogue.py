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
)
