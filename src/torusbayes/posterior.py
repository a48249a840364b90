"""MAP/CM estimation and the posterior Gaussian.

For measurement m = A u + delta * noise with Gaussian prior N(0, C_U) the
posterior is Gaussian with mean

    U = (A^H A + delta^2 C_U^{-1})^{-1} A^H m

and covariance C = delta^2 (A^H A + delta^2 C_U^{-1})^{-1}.  When both A
and C_U are Fourier multipliers everything is a per-frequency scalar
formula.  Otherwise everything is written in the cosine/sine basis of real
fields, where the Gram matrix G = Q A^H A Q^H and C_U^{-1} are real whenever
A and C_U map real fields to real fields.  Neither depends on the noise
level: each operator keeps its G, or its C_U^{-1}, once.  The means of one
data set at every noise level of a grid come from preconditioned conjugate
gradients run in lockstep, one row per noise level: each iteration reads G
once, in one product P G for the search directions of every row not yet
converged, while each row keeps its own iterates and stops on its own
residual.  The covariance and its root come from one eigendecomposition of
the dense normal matrix G + delta^2 C_U^{-1}.  When A, C_U and the data are real
there, one real ``eigh`` and real products do the work; a model that is not
keeps the same steps in complex arithmetic.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .fields import GaussianPrior, _hermitian_power, _rng, operator_sqrt, sample_white_noise
from .lattice import (
    _CS_REAL_TOL,
    FrequencyLattice,
    SpectralField,
    _cosine_sine_modes,
    _real_if_rounding,
    _rows_from_cosine_sine,
    _rows_to_cosine_sine,
    _to_cosine_sine,
    _white_coeffs,
    sobolev_weight,
)
from .operators import (
    DenseOp,
    MultiplierOp,
    Operator,
    _evaluated,
    _Handover,
    apply,
    densify,
    symbol_values,
)
from .rates import SmoothnessParams, _basic_flags

__all__ = [
    "SolverError",
    "GaussianModel",
    "PosteriorGaussian",
    "map_estimate",
    "map_estimate_discrete",
    "posterior_covariance",
    "posterior_covariance_update",
    "posterior_trace",
    "posterior",
    "sample_posterior",
    "credible_ball_prob",
    "MultiplierBall",
]

CG_TOL = 1e-10
# guards GaussianModel._diag and the operators' _cs; re-entrant, as a prior
# may be another model's posterior
_DIAG_LOCK = threading.RLock()


class SolverError(RuntimeError):
    """Iterative solve failed; carries the relative residual history and, from
    :func:`_pcg`, the solutions of every row, final for the rows that converged."""

    def __init__(self, message: str, residuals, solution=None):
        super().__init__(message)
        self.residuals = list(residuals)
        self.solution = solution


@dataclass(frozen=True)
class GaussianModel:
    """Forward operator, prior, and noise level of one inverse problem.

    Rate-prediction hypotheses (s > d/2, t > max(0, s - tau), t0 < 2t + r) are
    checked at construction; violations are warnings stored in
    ``hypothesis_messages``, never errors, so off-regime experiments run.

    Each model keeps the arrays its solves read per lattice, read-only (see
    :func:`_diag_weights`), so each symbol is evaluated once per noise level.
    A model that is not diagonal holds references to the cosine/sine forms
    its operators keep, built once per operator and shared by every noise level.
    """

    fwd: Operator
    prior: GaussianPrior
    s: float
    d: int
    delta: float
    hypothesis_messages: tuple[str, ...] = field(init=False)
    _diag: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        msgs = _basic_flags(self.params())
        object.__setattr__(self, "hypothesis_messages", tuple(msgs))
        for m in msgs:
            warnings.warn(m, stacklevel=3)

    def params(self, zeta: float | None = None) -> SmoothnessParams:
        return SmoothnessParams(
            r=self.prior.r, s=self.s, t=self.fwd.order_t,
            t0=self.fwd.order_t0, d=self.d, zeta=zeta,
        )


@dataclass(frozen=True)
class PosteriorGaussian:
    mean: SpectralField
    cov: Operator
    sqrt_cov: Operator
    model: GaussianModel


def _is_diagonal(model: GaussianModel) -> bool:
    return isinstance(model.fwd, MultiplierOp) and isinstance(model.prior.cov, MultiplierOp)


def _kept(op: Operator, key, make) -> np.ndarray:
    """``op._cs[key]``: the array ``make()`` returns, made on first use, read-only."""
    with _DIAG_LOCK:
        value = op._cs.get(key)
        if value is None:
            value = make()
            value.setflags(write=False)
            op._cs[key] = value
    return value


def _symbol(op: MultiplierOp, lattice: FrequencyLattice) -> np.ndarray:
    """The symbol of ``op`` on ``lattice``, evaluated once per operator and lattice."""
    # a copy, so freezing it never touches an array the symbol function keeps
    return _kept(op, ("symbol", lattice), lambda: np.array(symbol_values(op, lattice)))


def _prior_symbol(cov: MultiplierOp, lattice: FrequencyLattice) -> np.ndarray:
    """The real prior covariance symbol c_U on ``lattice``, which must be strictly positive;
    evaluated once per operator and lattice."""
    def make() -> np.ndarray:
        c_u = np.array(symbol_values(cov, lattice).real)
        if np.any(c_u <= 0):
            raise ValueError("prior covariance symbol must be strictly positive")
        return c_u

    return _kept(cov, ("prior symbol", lattice), make)


def _cs_form(op: Operator, lattice: FrequencyLattice, inverse: bool = False) -> np.ndarray:
    """Gram matrix M_cs^H M_cs of M_cs = Q M Q^H, or with ``inverse`` M_cs^{-1}, on ``lattice``;
    built once per operator and lattice, read-only, in ``op._cs``.

    A dense M gives a K x K matrix of the dtype of M_cs; a multiplier |a|^2, or 1 / c_U of
    a strictly positive prior symbol, as K values in cosine/sine order when they are even
    in l (Q diag(w) Q^H is then diagonal), else that K x K matrix.
    """
    def make() -> np.ndarray:
        if isinstance(op, MultiplierOp):
            w = (1.0 / _prior_symbol(op, lattice) if inverse
                 else np.abs(_symbol(op, lattice)) ** 2)
            even = np.abs(w - w[lattice.conj_index]).max() <= _CS_REAL_TOL * w.max()
            return (w[_cosine_sine_modes(lattice)[0]] if even
                    else _to_cosine_sine(lattice, np.diag(w)))
        form = _to_cosine_sine(lattice, densify(op, lattice).matrix)
        form = np.linalg.inv(form) if inverse else form.conj().T @ form
        # copied once the K x K temporary M_cs is freed, the kept form can take its place
        # instead of pinning the heap above it: without this copy the dense-vc benchmark's
        # peak RSS rose from 126 to 142 MiB (glibc malloc)
        return form.copy()

    return _kept(op, ("inverse" if inverse else "gram", lattice), make)


def _diag_weights(model: GaussianModel, lattice: FrequencyLattice):
    """The arrays the solves of ``model`` read on ``lattice``, built once, read-only.

    A diagonal model keeps its forward symbol a, |a|^2 and delta^2 / c_U.  Any
    other model keeps what gives A^H m (the symbol a, or the dense matrix A),
    the Gram matrix Q A^H A Q^H and the precision Q C_U^{-1} Q^H, to be scaled
    by delta^2: the forms :func:`_cs_form` keeps on each operator, shared by
    every noise level.  A symbol a is the one :func:`_symbol` keeps on the operator.
    """
    with _DIAG_LOCK:
        weights = model._diag.get(lattice)
        if weights is None:
            a = (_symbol(model.fwd, lattice) if isinstance(model.fwd, MultiplierOp)
                 else densify(model.fwd, lattice).matrix)
            if _is_diagonal(model):
                weights = (a, np.abs(a) ** 2,
                           model.delta**2 / _prior_symbol(model.prior.cov, lattice))
            else:
                weights = (a, _cs_form(model.fwd, lattice),
                           _cs_form(model.prior.cov, lattice, inverse=True))
            for arr in weights:
                arr.setflags(write=False)
            model._diag[lattice] = weights
    return weights


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a_i, b_i> for each row i of two (n, K) stacks."""
    return np.einsum("ij,ij->i", a.conj(), b).real


def _pcg(matvec, b: np.ndarray, diag: np.ndarray, tol: float, maxiter: int):
    """Jacobi-preconditioned conjugate gradients on Hermitian PD systems, one per row.

    ``b`` and ``diag`` are (n, K) stacks of right-hand sides and Jacobi diagonals.
    ``matvec(p, rows)`` applies the systems of ``rows`` (indices into ``b``) to the
    stack ``p`` of their search directions, one row each.  The rows run in lockstep:
    one call per iteration for every row not yet converged.  Each row keeps its own
    iterates, step lengths and relative residual, and is frozen once that residual
    is at most ``tol``; a zero row converges at once.  Returns the (n, K) solutions
    and the residual history, one (n,) array before the first iteration and one
    after each.  Raises SolverError, with the history and the solutions, if a row
    has not converged after ``maxiter`` iterations.
    """
    x = np.zeros_like(b)
    bnorm = np.linalg.norm(b, axis=1)
    residuals = np.where(bnorm == 0, 0.0, 1.0)
    history = [residuals]
    live = np.flatnonzero(bnorm != 0)  # the rows still iterating; NaN ones never stop
    # the iterates of the live rows, compacted: solution, residual, search direction
    x_live, r = x[live], b[live]
    inv_diag = 1.0 / diag[live]
    p = inv_diag * r
    rz = _row_dot(r, p)
    for _ in range(maxiter):
        if live.size == 0:
            return x, history
        q = matvec(p, live)
        alpha = rz / _row_dot(p, q)
        x_live += alpha[:, None] * p
        r -= alpha[:, None] * q
        res = np.linalg.norm(r, axis=1) / bnorm[live]
        residuals = residuals.copy()
        residuals[live] = res
        history.append(residuals)
        z = inv_diag * r
        rz_new = _row_dot(r, z)
        p *= (rz_new / rz)[:, None]
        p += z
        rz = rz_new
        done = res <= tol
        if done.any():
            x[live[done]] = x_live[done]
            keep = ~done
            live, x_live, r, p, rz, inv_diag = (a[keep] for a in (live, x_live, r, p, rz, inv_diag))
    if live.size == 0:
        return x, history
    x[live] = x_live
    raise SolverError(
        f"conjugate gradients not converged after {maxiter} iterations "
        f"(relative residual {residuals.max():.3e})",
        history, x,
    )


def _normal_cs(model: GaussianModel, lattice: FrequencyLattice) -> np.ndarray:
    """N = G + delta^2 C_U^{-1} in the cosine/sine basis, real when it is to rounding.

    A sum of the arrays :func:`_diag_weights` keeps for a model that is not
    diagonal, so no K^3 product: the Gram G and the precision, each K values
    (a diagonal) or a K x K matrix.
    """
    _, gram, prec = _diag_weights(model, lattice)
    normal = model.delta**2 * prec  # a new array: only the kept G needs a copy to write
    if normal.ndim == 1:
        normal, gram = gram.copy(), normal
    if gram.ndim == 1:
        normal[np.diag_indices(lattice.size)] += gram
    else:
        normal = gram + normal
    return _real_if_rounding(normal)


def _map_means(models, data) -> list:
    """Posterior means of ``models[j]`` for data ``data[j]`` (SpectralFields on one
    lattice): noise-level models that share one forward map and prior.

    Diagonal models use the per-frequency formula conj(a) m_hat / (|a|^2 + delta^2 / c_U),
    row by row.  Otherwise Jacobi-preconditioned conjugate gradients solve the normal
    equations in the cosine/sine basis for every row in lockstep (:func:`_pcg`): the
    stack B = Q A^H M of all right-hand sides comes from one product with the symbol or
    the dense matrix, and each iteration applies the Gram matrix G to the stack of
    search directions (one product P G for a dense forward map) plus each row's
    delta^2 times the prior precision.  The solution rows x give the means Q^H x.  When
    G, the precision and B are real, every product is real; otherwise the same lines
    run in complex arithmetic, except that complex B (data that is not a real field)
    under a real system is solved as a stack of its real parts and its imaginary parts.
    The Jacobi diagonal of a row is diag(G) + delta^2 diag(C_U^{-1}); relative residual
    1e-10, iteration cap 10 K.  Returns one (K,) coefficient array per row, or the
    SolverError of a row that did not converge; the other rows keep their means.
    """
    model = models[0]
    if any(m.fwd != model.fwd or m.prior.cov != model.prior.cov for m in models):
        raise ValueError("lockstep solves need models that share one forward map and prior")
    lattice = data[0].lattice
    if _is_diagonal(model):
        means = []
        for mdl, m in zip(models, data):
            a, asq, prec = _diag_weights(mdl, lattice)
            means.append(np.conj(a) * m.coeffs / (asq + prec))
        return means
    a, gram, prec = _diag_weights(model, lattice)
    stack = np.stack([m.coeffs for m in data])
    # B = Q A^H M; a dense A^H M through one product with A, with no conjugate copy of A
    b = _rows_to_cosine_sine(lattice, np.conj(a) * stack if a.ndim == 1
                             else (stack.conj() @ a).conj())
    n = len(models)
    owner = np.arange(n)  # the model of each row of the solve
    if np.iscomplexobj(gram) or np.iscomplexobj(prec):
        b = b.astype(np.complex128, copy=False)
    elif np.iscomplexobj(b):
        b, owner = np.concatenate([b.real, b.imag]), np.tile(owner, 2)  # two real rows each
    delta2 = np.array([m.delta**2 for m in models])[owner]

    def product(w: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Rows w p: p w for a real symmetric w, conj(conj(p) w) for a Hermitian one."""
        if w.ndim == 1:
            return w * p
        return p @ w if np.isrealobj(w) else (p.conj() @ w).conj()

    def normal_matvec(p: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return product(gram, p) + delta2[rows, None] * product(prec, p)

    # Jacobi diagonals; the multiplier parts dominate them as delta -> 0
    g_diag, p_diag = (w if w.ndim == 1 else np.diagonal(w).real for w in (gram, prec))
    diag = np.maximum(np.abs(g_diag + delta2[:, None] * p_diag), 1e-300)
    try:
        x, history = _pcg(normal_matvec, b, diag, CG_TOL, 10 * lattice.size)
    except SolverError as exc:
        x, history = exc.solution, exc.residuals
    if owner.size > n:
        x = x[:n] + 1j * x[n:]
    means = list(_rows_from_cosine_sine(lattice, x))
    final = history[-1]
    for row in np.flatnonzero(~(final <= CG_TOL)):
        means[owner[row]] = SolverError(
            f"conjugate gradients not converged after {len(history) - 1} iterations "
            f"(relative residual {final[row]:.3e})",
            [h[row] for h in history],
        )
    return means


def map_estimate(model: GaussianModel, m: SpectralField) -> SpectralField:
    """Posterior mean (equals the MAP point for this Gaussian conjugate pair).

    The one-row case of the lockstep solves of :func:`_map_means`: the
    per-frequency formula for a diagonal model, else conjugate gradients on the
    normal equations in the cosine/sine basis, one product with the Gram matrix
    per iteration.  Raises SolverError if they do not converge.
    """
    (mean,) = _map_means([model], [m])
    if isinstance(mean, SolverError):
        raise mean
    return SpectralField(m.lattice, mean)


def map_estimate_discrete(a_mat, c_mat, delta: float, mvec) -> np.ndarray:
    """Direct dense solve of (A^H A + delta^2 C^{-1}) u = A^H m.

    An oracle for :func:`map_estimate` in ``TestMapEstimateDiscrete`` and the cosine/sine
    solve tests; ``a_mat`` may be rectangular (k measurements of an n-vector).
    """
    a_mat = np.asarray(a_mat, dtype=complex)
    c_mat = np.asarray(c_mat, dtype=complex)
    mvec = np.asarray(mvec, dtype=complex)
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if a_mat.shape[0] != mvec.shape[0] or a_mat.shape[1] != c_mat.shape[0]:
        raise ValueError(
            f"inconsistent shapes A{a_mat.shape}, C{c_mat.shape}, m{mvec.shape}"
        )
    try:
        c_inv = np.linalg.inv(c_mat)
        normal = a_mat.conj().T @ a_mat + delta**2 * c_inv
        return np.linalg.solve(normal, a_mat.conj().T @ mvec)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular system: {exc}") from exc


def posterior_covariance(model: GaussianModel, lattice: FrequencyLattice | None = None) -> Operator:
    """Posterior covariance delta^2 (A^H A + delta^2 C_U^{-1})^{-1}.

    A diagonal one reads the model's stored weights; a dense one comes from one
    eigendecomposition of the normal matrix, with the root :func:`posterior` takes.
    """
    return _cov_root(model, lattice)[0]


def posterior_covariance_update(
    model: GaussianModel, lattice: FrequencyLattice | None = None
) -> DenseOp:
    """Same covariance in update form C_U - C_U A^H (A C_U A^H + delta^2 I)^{-1} A C_U.

    Always dense; unlike the precision form it never inverts C_U or A, so
    it also covers singular forward operators.  An oracle for the precision
    form of :func:`posterior`, in acceptance criterion 4 and the ``dense-vc`` check.
    """
    lattice = _dense_lattice(model, lattice)
    a_mat = densify(model.fwd, lattice).matrix
    diag = np.diag_indices(lattice.size)
    if isinstance(model.prior.cov, MultiplierOp):
        c_u = symbol_values(model.prior.cov, lattice)
        ac = a_mat * c_u[None, :]  # A C_U: the columns of A scaled
    else:
        c_u = densify(model.prior.cov, lattice).matrix
        ac = a_mat @ c_u
    gram = ac @ a_mat.conj().T
    gram[diag] += model.delta**2
    c_post = -(ac.conj().T @ np.linalg.solve(gram, ac))
    if c_u.ndim == 1:
        c_post[diag] += c_u
    else:
        c_post += c_u
    c_post = 0.5 * (c_post + c_post.conj().T)
    return DenseOp(
        lattice, c_post, model.prior.cov.order_t, model.prior.cov.order_t0,
        label=f"postcov_update({model.fwd.label})",
    )


def _dense_lattice(model: GaussianModel, lattice: FrequencyLattice | None) -> FrequencyLattice:
    for op in (model.fwd, model.prior.cov):
        if isinstance(op, DenseOp):
            if lattice is not None and op.lattice != lattice:
                raise ValueError("lattice does not match dense operator lattice")
            lattice = op.lattice
    if lattice is None:
        raise ValueError("lattice required when both operators are multipliers")
    return lattice


def posterior_trace(cov: Operator, q: float = 0.0, lattice: FrequencyLattice | None = None) -> float:
    """Weighted trace sum_l (1+|l|^2)^q c(l), the expected squared H^q norm of a draw."""
    if isinstance(cov, DenseOp):
        lattice = cov.lattice
        diag = np.diag(cov.matrix).real
    else:
        if lattice is None:
            raise ValueError("lattice required for a multiplier covariance")
        diag = symbol_values(cov, lattice).real
    return float(np.sum(sobolev_weight(lattice, q) * diag))


def _cov_root(model: GaussianModel,
              lattice: FrequencyLattice | None) -> tuple[Operator, Operator]:
    """Posterior covariance C and its Hermitian root, as operators.

    Diagonal: the multiplier delta^2 / (|a|^2 + delta^2 / c_U) of the stored
    weights and its pointwise root.  Otherwise one ``eigh`` N = V diag(lam) V^H
    of the normal matrix in the cosine/sine basis (V real when the model
    keeps real fields real) gives C^{1/2} = V diag(delta / sqrt(lam)) V^H and
    C = V diag(delta^2 / lam) V^H (symmetrised), mapped back to the exponential basis.
    """
    t, t0 = model.prior.cov.order_t, model.prior.cov.order_t0
    label = f"postcov({model.fwd.label})"
    if _is_diagonal(model):
        def symbol(lat: FrequencyLattice) -> np.ndarray:
            _, asq, prec = _diag_weights(model, lat)
            return (model.delta**2 / (asq + prec)).astype(complex)

        cov = MultiplierOp(symbol, t, t0, label=label)
        return cov, operator_sqrt(cov)
    lattice = _dense_lattice(model, lattice)
    root_mat, c_mat = _hermitian_power(lattice, _normal_cs(model, lattice), -0.5,
                                       model.delta, square=True)
    return (DenseOp(lattice, _Handover(c_mat), t, t0, label),
            DenseOp(lattice, _Handover(root_mat), t / 2.0, t0 / 2.0, f"sqrt({label})"))


def posterior(model: GaussianModel, m: SpectralField) -> PosteriorGaussian:
    """Assemble mean, covariance, and covariance root for one measurement.

    The mean is exactly ``map_estimate(model, m)``; a dense covariance and
    its root come from one eigendecomposition of the normal matrix.
    """
    return PosteriorGaussian(map_estimate(model, m), *_cov_root(model, m.lattice), model)


def sample_posterior(post: PosteriorGaussian, seed=None) -> SpectralField:
    """One draw mean + C^{1/2} xi with xi spectral white noise: an oracle for the
    root of :func:`posterior`, in acceptance criterion 9 and ``TestSampling``."""
    noise = sample_white_noise(post.mean.lattice, seed)
    return post.mean + apply(post.sqrt_cov, noise)


def _mc_ball_hits(root: np.ndarray, lattice: FrequencyLattice, zeta1: float, radius: float,
                  n_mc: int, rng: np.random.Generator, offset=None) -> tuple[float, float]:
    """Share of n_mc draws W = C^{1/2} xi (+ offset) in the H^zeta1 ball, and its binomial SE.

    ``root`` is C^{1/2} on ``lattice``: K symbol values or a K x K matrix.
    """
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    weights = sobolev_weight(lattice, zeta1)
    hits = 0
    batch = max(1, (1 << 22) // lattice.size)
    for done in range(0, n_mc, batch):
        noise = _white_coeffs(lattice, rng, min(batch, n_mc - done))
        w = noise * root[None, :] if root.ndim == 1 else noise @ root.T
        if offset is not None:
            w = w + offset[None, :]
        norms_sq = np.sum(weights[None, :] * np.abs(w) ** 2, axis=1)
        hits += int(np.count_nonzero(norms_sq <= radius**2))
    p = hits / n_mc
    return p, float(np.sqrt(p * (1.0 - p) / n_mc))


def credible_ball_prob(
    post: PosteriorGaussian,
    zeta1: float,
    radius: float,
    n_mc: int,
    seed=None,
    offset=None,
) -> tuple[float, float]:
    """Monte-Carlo posterior probability of the H^zeta1 ball of given radius.

    The ball is centred at the posterior mean minus ``offset`` (coefficients,
    default zero), so the draws are W = C^{1/2} xi + offset.  Centred at the
    mean, the result is independent of the measurement.  Returns
    (probability, binomial standard error).  The root is evaluated once on the
    mean's lattice.  An oracle for ``_DeltaSetup.escape_prob``: the tests hold
    sampled dense ``credible`` rows and :class:`MultiplierBall` against it.
    """
    if n_mc < 100:
        raise ValueError(f"n_mc must be at least 100, got {n_mc}")
    if offset is not None:
        offset = np.asarray(offset, dtype=np.complex128)
    lattice = post.mean.lattice
    return _mc_ball_hits(_evaluated(post.sqrt_cov, lattice), lattice, zeta1, radius, n_mc,
                         _rng(seed), offset)


# Shares of the error bound stated by MultiplierBall.escape_prob, each an
# absolute probability: aliasing on either side of the integration period,
# truncation of the integral, the Gaussian convergence factor, and the
# Chernoff bound below which a far tail is settled as exactly 0 or 1.
_ALIAS_TOL = 1e-11
_TRUNC_TOL = 1e-11
_SMOOTH_TOL = 1e-11
_TAIL_TOL = 1e-11
# A grid holds at most this many (group, node) terms; where the cut-off
# needs more, the larger truncation bound is stated as it is.
_MAX_TERMS = 1 << 22
# Chernoff parameters in units of 1 / (2 max lambda): the upper tail needs
# 0 < t < 1 / (2 max lambda), the lower tail any t > 0.
_S_UPPER = np.concatenate([np.geomspace(1e-9, 0.5, 120), 1.0 - np.geomspace(0.5, 1e-12, 101)[1:]])
_S_LOWER = np.geomspace(1e-9, 1e15, 250)


class _Grid:
    """Midpoint nodes u_k = (k + 1/2) 2 pi / span and the central part of log phi."""

    def __init__(self, ball: "MultiplierBall", span: float):
        step = 2.0 * math.pi / span
        n = min(math.ceil(ball.cutoff / step - 0.5) + 1, _MAX_TERMS // ball.lam.size)
        self.k_half = np.arange(n) + 0.5
        self.u = self.k_half * step
        terms = np.outer(ball.lam, -2j * self.u)
        terms += 1.0
        self.log_phi = -0.5 * (ball.dof @ np.log(terms, out=terms))
        self.log_phi -= 0.5 * (ball.tau * self.u) ** 2
        self.truncation = ball._truncation_bound(self.u[-1], ball.tau)
        # i lambda u / (1 - 2 i lambda u) per group and node, built on the
        # first call with an offset: log phi gains nc @ this
        self.noncentral = None


class MultiplierBall:
    """Exact tail of the weighted squared norm of a multiplier Gaussian draw.

    For a root symbol rho, weights w_l = (1 + |l|^2)^zeta and spectral white
    noise xi with the law of ``fftn(z) / sqrt(K)`` that ``lattice._white_coeffs``
    draws for every sampler, the statistic
    S = sum_l w_l |rho_l xi_l + o_l|^2 equals R + Q, where
    Q = sum_g lambda_g chi^2(h_g, nc_g) is a sum of independent noncentral
    chi-squares.  A self-conjugate mode has a real N(0, 1) entry: lambda =
    w |rho|^2, one degree of freedom, noncentrality (Re(conj(rho) o) / |rho|^2)^2,
    and the rest of w |o|^2 goes into the shift R.  A pair l, -l shares one
    complex entry xi_l = conj(xi_-l); with A = w_1 |rho_1|^2 + w_2 |rho_2|^2
    and B = w_1 conj(rho_1) o_1 + w_2 rho_2 conj(o_2) it contributes
    A |xi_l + B / A|^2 + w_1 |o_1|^2 + w_2 |o_2|^2 - |B|^2 / A: lambda = A / 2,
    two degrees of freedom, noncentrality 2 |B / A|^2.  This holds for any
    rho and o, even or Hermitian or not.  Equal lambdas are merged, adding
    degrees of freedom and noncentralities.

    The groups, the Chernoff tables and the truncation point depend only on
    the root and zeta, and integration grids are cached per period (a
    power of two); only nc_g and R depend on the offset, so one instance
    serves every replicate.
    """

    def __init__(self, root, lattice: FrequencyLattice, zeta: float = 0.0):
        root = np.asarray(root, dtype=np.complex128)
        if root.shape != (lattice.size,):
            raise ValueError(f"root has shape {root.shape}, lattice needs ({lattice.size},)")
        idx = np.arange(lattice.size)
        conj = lattice.conj_index
        self._real = idx[conj == idx]
        self._pair = idx[idx < conj]
        self._mate = conj[self._pair]
        self._w = sobolev_weight(lattice, zeta)
        self._wroot = self._w * np.conj(root)
        wr2 = self._w * np.abs(root) ** 2
        quad = np.concatenate([wr2[self._real], wr2[self._pair] + wr2[self._mate]])
        dof = np.concatenate([np.ones(self._real.size), np.full(self._pair.size, 2.0)])
        self._live = quad > 0
        self._quad, self._term_dof = quad[self._live], dof[self._live]
        self.lam, self._group = np.unique(self._quad / self._term_dof, return_inverse=True)
        self.dof = np.bincount(self._group, weights=self._term_dof, minlength=self.lam.size)
        self._grids: dict[int, _Grid] = {}
        self._lock = threading.Lock()
        self.tau = 0.0
        self._kink = 0.0
        if self.lam.size:
            self._chernoff_tables()
            self._choose_cutoff()

    def _chernoff_tables(self):
        """Log moment generating function of Q on fixed grids of t and -t."""
        scale = 2.0 * self.lam[-1]
        self._t_up = _S_UPPER / scale
        self._t_lo = _S_LOWER / scale
        x_up = np.outer(2.0 * self.lam, self._t_up)
        x_lo = np.outer(2.0 * self.lam, self._t_lo)
        self._k_up = -0.5 * (self.dof @ np.log1p(-x_up))
        self._kn_up = 0.5 * x_up / (1.0 - x_up)
        self._k_lo = -0.5 * (self.dof @ np.log1p(x_lo))
        self._kn_lo = -0.5 * x_lo / (1.0 + x_lo)

    def _log_mgf(self, nc: np.ndarray, tau: float):
        """log E exp(t (Q + tau Z)) on the upper grid and at -t on the lower one."""
        k_up = self._k_up + nc @ self._kn_up + 0.5 * (tau * self._t_up) ** 2
        k_lo = self._k_lo + nc @ self._kn_lo + 0.5 * (tau * self._t_lo) ** 2
        return k_up, k_lo

    def _log_tails(self, k_up, k_lo, y: float):
        """Chernoff log bounds on P(X >= y) and P(X <= y) for the given log MGF."""
        return (min(0.0, float(np.min(k_up - self._t_up * y))),
                min(0.0, float(np.min(k_lo + self._t_lo * y))))

    def _truncation_bound(self, u: float, tau: float) -> float:
        """Bound on (1/pi) int_u^inf |phi(v)| exp(-tau^2 v^2 / 2) / v dv.

        |phi(v)| <= prod_g (1 + 4 lambda_g^2 v^2)^(-h_g / 4).  For v >= u
        each factor is at most its value at u, and for the groups with
        x_g = 2 lambda_g u > 1 also at most (2 lambda_g v)^(-h_g / 2); the
        power law integrates to the plain bound, the convergence factor to
        the Gaussian one (int_u^inf exp(-a v^2) / v dv <= exp(-a u^2) / (2 a u^2)).
        """
        x = 2.0 * self.lam * u
        big = x > 1.0
        log_rest = -0.25 * float(self.dof[~big] @ np.log1p(x[~big] ** 2))
        h_big = float(self.dof[big].sum())
        best = math.inf
        if h_big > 0:
            log_big = -0.5 * float(self.dof[big] @ np.log(x[big]))
            best = 2.0 / (math.pi * h_big) * math.exp(log_rest + log_big)
        if tau > 0:
            log_phi = log_rest - 0.25 * float(self.dof[big] @ np.log1p(x[big] ** 2))
            v = (tau * u) ** 2
            best = min(best, math.exp(log_phi - 0.5 * v) / (math.pi * v))
        return best

    def _cutoff_for(self, tau: float) -> float:
        """Smallest node u (to 1%) whose truncation bound is below _TRUNC_TOL."""
        hi = 1.0 / (2.0 * self.lam[-1])
        while self._truncation_bound(hi, tau) > _TRUNC_TOL:
            hi *= 2.0
            if hi * self.lam[-1] > 1e30:
                return math.inf
        lo = hi / 2.0
        while hi > 1.01 * lo:
            mid = math.sqrt(lo * hi)
            if self._truncation_bound(mid, tau) > _TRUNC_TOL:
                lo = mid
            else:
                hi = mid
        return hi

    def _choose_cutoff(self):
        """Plain truncation, or a Gaussian convergence factor when that is shorter.

        With Z ~ N(0, 1) independent, P(Q + tau Z < c) differs from
        P(Q < c) by at most tau^2 sup|f_Q'| / 2 when f_Q is Lipschitz.  A
        group A = lambda chi^2(h, nc) gives sup|f_A'| <= 1 / (4 lambda^2) for
        h = 2 or h >= 4 (f_h' = (f_{h-2} - f_h) / 2 with 0 <= f_k <= 1/2),
        and f_Q' = f_A' * law(Q - A).  For h = 2 the density of A jumps by
        kink <= 1 / (2 lambda) at 0, which adds kink tau^2 sup f_B when the
        rest B has a bounded density (another group with h >= 2), or
        kink tau phi(c / tau) when A is all of Q.
        """
        self.cutoff = self._cutoff_for(0.0)
        eligible = np.flatnonzero((self.dof == 2) | (self.dof >= 4))
        if eligible.size == 0:
            return
        a = eligible[-1]
        curvature = 1.0 / (4.0 * self.lam[a] ** 2)
        kink = 0.0
        coef = 0.5 * curvature
        if self.dof[a] == 2:
            kink = 1.0 / (2.0 * self.lam[a])
            others = np.flatnonzero(self.dof >= 2)
            others = others[others != a]
            if others.size:
                coef += kink / (2.0 * self.lam[others[-1]])
            elif self.lam.size > 1:
                return
        tau = math.sqrt(_SMOOTH_TOL / coef)
        cutoff = self._cutoff_for(tau)
        if cutoff < self.cutoff:
            self.cutoff, self.tau = cutoff, tau
            self._kink = kink if self.lam.size == 1 else 0.0

    def noncentrality(self, offset) -> tuple[np.ndarray, float]:
        """Per-group noncentralities nc_g and the constant shift R for offset o."""
        o = np.asarray(offset, dtype=np.complex128)
        if o.shape != self._w.shape:
            raise ValueError(f"offset has shape {o.shape}, expected {self._w.shape}")
        b = self._wroot * o
        b_terms = np.concatenate([b[self._real].real, b[self._pair] + np.conj(b[self._mate])])
        bsq = np.abs(b_terms[self._live]) ** 2
        nc = np.bincount(self._group, weights=self._term_dof * bsq / self._quad**2,
                         minlength=self.lam.size)
        shift = float(np.sum(self._w * np.abs(o) ** 2) - np.sum(bsq / self._quad))
        return nc, shift

    def _grid(self, exponent: int, noncentral: bool) -> _Grid:
        with self._lock:
            grid = self._grids.get(exponent)
            if grid is None:
                grid = self._grids[exponent] = _Grid(self, 2.0**exponent)
            if noncentral and grid.noncentral is None:
                x = 1j * np.outer(self.lam, grid.u)
                grid.noncentral = x / (1.0 - 2.0 * x)
            return grid

    def escape_prob(self, radius: float, offset=None) -> tuple[float, float]:
        """P(S >= radius^2) and a bound on its absolute error.

        The tail of Q is the Gil-Pelaez integral of its characteristic
        function phi, summed by the midpoint rule with step 2 pi / span
        (Imhof 1961; Davies 1973, 1980).  The sum is exact up to the aliased
        mass P(X >= c + span) + P(X < c - span), bounded by Chernoff; the
        cut-off of the sum comes from the truncation bound.  The result is
        clamped to [0, 1] and to the Chernoff bounds of Q, which settle far
        tails as exactly 0 or 1.  The stated bound adds aliasing,
        truncation, the convergence factor and a floating-point allowance.
        """
        if radius < 0:
            raise ValueError(f"radius must be nonnegative, got {radius}")
        if offset is None:
            nc, shift = np.zeros(self.lam.size), 0.0
        else:
            nc, shift = self.noncentrality(offset)
        c = radius**2 - shift
        if c <= 0:
            return 1.0, 0.0
        if self.lam.size == 0:
            return 0.0, 0.0
        if self.dof.sum() == 1:
            # a lone real mode: lambda (Z + mu)^2 with Z ~ N(0, 1)
            a, mu = math.sqrt(c / self.lam[0]), math.sqrt(nc[0])
            p = 0.5 * (math.erfc((a - mu) / math.sqrt(2.0)) + math.erfc((a + mu) / math.sqrt(2.0)))
            return p, 8.0 * np.finfo(float).eps
        log_up, log_lo = self._log_tails(*self._log_mgf(nc, 0.0), c)
        if log_up <= math.log(_TAIL_TOL):
            return 0.0, math.exp(log_up)
        if log_lo <= math.log(_TAIL_TOL):
            return 1.0, math.exp(log_lo)

        tau = self.tau
        k_up, k_lo = self._log_mgf(nc, tau)
        log_eps = math.log(_ALIAS_TOL)
        y_up = float(np.min((k_up - log_eps) / self._t_up))
        y_lo = float(np.max((log_eps - k_lo) / self._t_lo))
        floor = y_lo if tau > 0 else max(y_lo, 0.0)
        exponent = math.ceil(math.log2(max(y_up - c, c - floor)))
        span = 2.0**exponent
        alias = math.exp(self._log_tails(k_up, k_lo, c + span)[0])
        if tau > 0 or c > span:
            alias += math.exp(self._log_tails(k_up, k_lo, c - span)[1])

        grid = self._grid(exponent, noncentral=offset is not None)
        log_phi = grid.log_phi - 1j * grid.u * c
        if offset is not None:
            log_phi += nc @ grid.noncentral
        z = np.exp(log_phi)
        total = float(np.sum(z.imag / grid.k_half))
        # floating-point allowance: phase errors of about eps (H + sum nc + u c)
        # per term, and the pairwise sum of the terms
        scale = 4.0 * (float(self.dof.sum()) + float(nc.sum()) + grid.u * c) + math.log2(grid.u.size)
        rounding = float(np.sum(np.abs(z) * scale / grid.k_half))
        p = 0.5 + total / math.pi
        p = min(max(p, 0.0), 1.0, math.exp(log_up))
        p = max(p, 1.0 - math.exp(log_lo))
        smoothing = _SMOOTH_TOL if tau > 0 else 0.0
        if self._kink:
            smoothing += self._kink * tau * math.exp(-0.5 * (c / tau) ** 2) / math.sqrt(2 * math.pi)
        eps = np.finfo(float).eps
        return p, alias + grid.truncation + smoothing + eps * rounding / math.pi
