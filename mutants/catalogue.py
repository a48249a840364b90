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
BALL = "src/torusbayes/_ball.py"
LATTICE = "src/torusbayes/lattice.py"
EXPERIMENTS = "src/torusbayes/experiments.py"
FIELDS = "src/torusbayes/fields.py"
CLI = "src/torusbayes/cli.py"

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
    # the runners' dense trace and ball law: the weights in cosine/sine order, the
    # Hermitian root that a complex pencil factor X cannot stand in for, and the
    # conjugate in the offsets' projection onto the law's eigenbasis
    Mutant("trace-root-weights", POSTERIOR,
           "w = sobolev_weight(lattice, zeta)[_cosine_sine_modes(lattice)[0]]",
           "w = sobolev_weight(lattice, zeta)"),
    Mutant("dense-ball-factor-root", POSTERIOR,
           "root = _hermitian_sqrt(_hermitian_gram(root))", "root = root"),
    Mutant("dense-ball-projection-conj", BALL,
           "ball._proj = np.sqrt(w)[:, None] * (y @ v[:, terms]).conj()",
           "ball._proj = np.sqrt(w)[:, None] * (y @ v[:, terms])"),
    # the cosine/sine basis and the Sobolev bracket
    Mutant("butterfly-sign", LATTICE, "b *= -2.0", "b *= 2.0"),
    Mutant("sobolev-half-order", LATTICE,
           "return (1.0 + lattice.weights) ** q", "return (1.0 + lattice.weights) ** (q / 2.0)"),
    Mutant("white-noise-scale", LATTICE,
           "coeffs.view(np.float64)[...] *= 1.0 / np.sqrt(lattice.size)",
           "coeffs.view(np.float64)[...] *= 1.0 / lattice.size"),
    # exactly Hermitian white noise: a self-conjugate mode's rounding residue in im
    Mutant("white-self-conjugate-real", LATTICE,
           "coeffs.imag[..., real] = 0.0", "coeffs.imag[..., real] *= 1.0"),
    # the runners: the 2% saturation filter of the slope fit, the Markov bound's trace term
    Mutant("saturation-filter", EXPERIMENTS,
           "if abs(a - b) / max(a, b) < 0.02:", "if abs(a - b) / max(a, b) < 0.2:"),
    Mutant("markov-trace-radius", EXPERIMENTS,
           "markov.append(min(1.0, traces[j] / radius**2))",
           "markov.append(min(1.0, traces[j] / radius))"),
    # the exact ball law: its tail against the complement, the pair noncentrality, the
    # self-conjugate mode's 1/4 of |2 Re b|^2, and each row's own grid period in a batch
    Mutant("ball-tail-complement", BALL,
           "p_i = 0.5 + total[r] / math.pi", "p_i = 0.5 - total[r] / math.pi"),
    Mutant("ball-pair-noncentrality", BALL,
           "t += mate", "t -= mate"),
    Mutant("ball-self-conjugate-quarter", BALL,
           "np.where(dof == 1, 0.25, 2.0)", "np.where(dof == 1, 0.5, 2.0)"),
    Mutant("ball-batch-period", BALL,
           "grid = _Grid(self, 2.0**exponent)",
           "grid = _Grid(self, 2.0**int(exponents.min()))"),
    # the alias share of the stated bound: the upper tail read at c + span, the aliased mass
    # of the period the row was summed with, not past it
    Mutant("ball-alias-span", BALL,
           "alias_up = self._log_tails(k_up, k_lo, c + span)[0]",
           "alias_up = self._log_tails(k_up, k_lo, c + 2 * span)[0]"),
    # the noncentral node table, built per call: 1 - 2 i lambda u as its denominator
    Mutant("ball-node-table-sign", BALL,
           "np.multiply(-2.0, x.imag, out=den.imag)", "np.multiply(2.0, x.imag, out=den.imag)"),
    # the dense law for central tails: eigenvalues only, every one of them
    Mutant("central-dense-law-last-eigenvalue", BALL,
           "ball._group(np.linalg.eigvalsh(m), ones, ones)",
           "ball._group(np.linalg.eigvalsh(m)[:-1], ones[:-1], ones[:-1])"),
    # the dense replicate loop: each delta's rows of the one replicate-major lockstep solve
    Mutant("lockstep-replicate-offset", EXPERIMENTS,
           "block = lockstep[j::n, 0] - u_rows",
           "block = lockstep[j * n_rep:(j + 1) * n_rep, 0] - u_rows"),
    # the replicate loop's drop rule, for every kind of model: a row with any non-finite
    # entry (a failed solve, or a non-finite form) is dropped
    Mutant("diagonal-drop-any-entry", EXPERIMENTS,
           "ok = np.isfinite(block.reshape(n_rep, -1)).all(axis=1)",
           "ok = np.isfinite(block.reshape(n_rep, -1)).any(axis=1)"),
    # the diagonal runners' error forms: the bias, noise and cross weights of mean - u
    Mutant("error-forms-bias-square", EXPERIMENTS,
           "sq_u, zw, beta**2)", "sq_u, zw, beta)"),
    Mutant("error-forms-noise-delta", EXPERIMENTS,
           "model.delta**2 * asq / denom**2", "model.delta * asq / denom**2"),
    Mutant("error-forms-cross-sign", EXPERIMENTS,
           "-2.0 * model.delta * beta / denom", "2.0 * model.delta * beta / denom"),
    # the back-transform from the cosine/sine basis: the sign of the mate rows' imaginary part
    Mutant("hermitian-mate-imag-sign", LATTICE,
           "np.conjugate(z[:h, sin], out=z[h:, cos])  # the mate rows",
           "np.copyto(z[h:, cos], z[:h, sin])  # the mate rows"),
    # map_estimate's finite check, which a diagonal mean with one NaN entry must fail
    Mutant("finite-row-check", POSTERIOR,
           "if not np.isfinite(mean).all():", "if not np.isfinite(mean).any():"),
    # the stacked diagonal means: the conjugate of a complex forward symbol
    Mutant("diagonal-mean-conj", POSTERIOR,
           "np.divide(np.multiply(np.conj(a), m, out=mean), asq + prec, out=mean)",
           "np.divide(np.multiply(a, m, out=mean), asq + prec, out=mean)"),
    # the exact ball's log MGF, computed once when there is no convergence factor
    Mutant("ball-tau-shortcut", BALL,
           "if tau > 0:  # at tau = 0", "if tau >= 0:  # at tau = 0"),
    # the truncation share of the stated bound, which sets the cut-off: understated tenfold,
    # the sum stops early and only the exact tails of several groups see it
    Mutant("ball-truncation-bound-constant", BALL,
           "best = 2.0 / (math.pi * h_big) * math.exp(log_rest + log_big)",
           "best = 0.2 / (math.pi * h_big) * math.exp(log_rest + log_big)"),
    # the field-CSV writer: a reused mate's text with the sign of im flipped
    Mutant("csv-mate-sign-flip", CLI,
           'text = text.replace(b",-", b"|").replace(b",", b",-").replace(b"|", b",")',
           "text = text"),
    # the Hermitian root's power, read through the deferred PosteriorGaussian.sqrt_cov
    Mutant("hermitian-root-power", FIELDS,
           "evecs *= np.sqrt(evals**0.5)", "evecs *= np.sqrt(evals)"),
)
