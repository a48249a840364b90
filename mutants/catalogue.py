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
CONFIG = "src/torusbayes/config.py"

MUTANTS = (
    # the rate exponents: t and t0 swapped, or a regime split moved
    Mutant("bayes-regime-i-swap", RATES,
           "RatePrediction((2.0 * t - t0 + r) / (t0 + r)", "RatePrediction((2.0 * t0 - t + r) / (t0 + r)"),
    Mutant("bayes-split-swap", RATES,
           "elif z <= t - params.s - 2.0 * t0:", "elif z <= t0 - params.s - 2.0 * t:"),
    # (the frequentist exponent and kappa0 are one expression)
    Mutant("frequentist-penalty-sign", RATES,
           "return 2.0 * (tau - 3.0 * (t0 - t))", "return 2.0 * (tau - 3.0 * (t - t0))"),
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
           "if noise else model.delta / np.sqrt(block[0] + d2)))",
           "if noise else model.delta / np.sqrt(block[0] + model.delta)))"),
    # the pencil's classes: those of S alone, which a map with a null space leaves
    # uncoupled where only the prior form joins them
    Mutant("pencil-classes-prior-form", POSTERIOR,
           "for idx in _classes(s, c_form))", "for idx in _classes(s))"),
    # the runners' dense trace and ball law: the weights in cosine/sine order
    Mutant("trace-root-weights", POSTERIOR,
           "root, w = _cov_factor(model, lattice, noise), w[order]",
           "root, w = _cov_factor(model, lattice, noise), w"),
    # the diagonal ball law: a posterior symbol that is not even in l has no law
    Mutant("trace-root-even-refusal", POSTERIOR, "c = _hermitian(c, lattice)", "pass"),
    # the contraction runner's error law: the data-noise variance of the mean dropped, so
    # the law is the posterior's alone
    Mutant("contraction-law-noise-term", POSTERIOR,
           "c = model.delta**2 * (denom + asq) / denom**2",
           "c = model.delta**2 * denom / denom**2"),
    # the cosine/sine basis and the Sobolev bracket
    Mutant("butterfly-sign", LATTICE, "b *= -2.0", "b *= 2.0"),
    # the basis's entry rule: a matrix whose form is complex would be read as its real part
    Mutant("cosine-sine-real-check", LATTICE,
           'raise ValueError("operator does not map real fields to real fields")', "pass"),
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
    # the exact ball law: its tail against the complement, the diagonal root's projection
    # w root (not sqrt(w) root, which only H^zeta weights with zeta != 0 tell apart), and
    # each row's own grid period in a batch
    Mutant("ball-tail-complement", BALL,
           "p_i = 0.5 + total[r] / math.pi", "p_i = 0.5 - total[r] / math.pi"),
    Mutant("ball-diagonal-projection", BALL,
           "self._proj = (w * root)[self._terms]", "self._proj = (np.sqrt(w) * root)[self._terms]"),
    Mutant("ball-batch-period", BALL,
           "grid = _Grid(self, 2.0**exponent, cutoff)",
           "grid = _Grid(self, 2.0**int(exponents.min()), cutoff)"),
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
           "mu = np.linalg.eigvalsh(m)",
           "mu = np.linalg.eigvalsh(m)[:-1]"),
    # the dense bayes replicate loop: each delta's rows of the one replicate-major lockstep
    # solve
    Mutant("lockstep-replicate-offset", EXPERIMENTS,
           "sq = np.abs(lockstep[j::n, 0] - u_rows) ** 2 @ zw.T",
           "sq = np.abs(lockstep[j * n_rep:(j + 1) * n_rep, 0] - u_rows) ** 2 @ zw.T"),
    # the replicate loop's drop rule, for every kind of model: a row with any non-finite
    # entry (a failed solve, or a non-finite form) is dropped
    Mutant("diagonal-drop-any-entry", EXPERIMENTS,
           "ok = np.isfinite(sq).all(axis=1)", "ok = np.isfinite(sq).any(axis=1)"),
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
    # the lone-pair tail: X >= x iff N_{x/2} <= N_{nc/2}, the Poisson mean of the mixture
    # nc / 2, here nc
    Mutant("ball-pair-poisson-mean", BALL,
           "lo_nc, p_nc, out_nc = _poisson_window(0.5 * nc)",
           "lo_nc, p_nc, out_nc = _poisson_window(nc)"),
    # the truncation share of the stated bound, which sets the cut-off: understated tenfold,
    # the sum stops early and only the exact tails of several groups see it
    Mutant("ball-truncation-bound-constant", BALL,
           "return 2.0 / (math.pi * h_big) * math.exp(log_rest + log_big)",
           "return 0.2 / (math.pi * h_big) * math.exp(log_rest + log_big)"),
    # the field-CSV writer: a reused mate's text with the sign of im flipped
    Mutant("csv-mate-sign-flip", CLI,
           'text = text.replace(b",-", b"|").replace(b",", b",-").replace(b"|", b",")',
           "text = text"),
    # the Hermitian root's power, read through the deferred PosteriorGaussian.sqrt_cov
    Mutant("hermitian-root-power", FIELDS,
           "evecs *= np.sqrt(evals**0.5)", "evecs *= np.sqrt(evals)"),
    # the config reader's unknown-key check: a misspelled key would again run on its default
    Mutant("config-unknown-key", CONFIG,
           'unknown += [f"key {name}.{key}" for key in sec if key not in _TABLES[name]]',
           "unknown += []"),
)
