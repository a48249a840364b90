"""MAP/CM estimation and the posterior Gaussian.

For measurement m = A u + delta * noise with Gaussian prior N(0, C_U) the
posterior is Gaussian with mean

    U = (A^H A + delta^2 C_U^{-1})^{-1} A^H m

and covariance C = delta^2 (A^H A + delta^2 C_U^{-1})^{-1}.  When both A
and C_U are Fourier multipliers everything is a per-frequency scalar
formula.  Otherwise everything is written in the cosine/sine basis of real
fields, where the Gram matrix G = A_cs^H A_cs, A_cs = Q A Q^H, and C_U are
real whenever A and C_U map real fields to real fields.  Neither depends on
the noise level, so one decomposition F^H C_U^{-1} F = I, F^H G F = diag(lam)
of the pencil (G, C_U^{-1}) gives (G + delta^2 C_U^{-1})^{-1} =
F diag(1 / (lam + delta^2)) F^H at every delta (Golub & Van Loan, Matrix
Computations, 8.7).  F = R V comes from a factor R R^H = C_U and one ``eigh``
of S = (A_cs R)^H (A_cs R) = V diag(lam) V^H, the prior-preconditioned Hessian
of Spantini et al. (2015); the forward operator keeps it.  Each mean then
costs two K^2 products, the covariance one more, all real when A and C_U
map real fields to real fields and complex otherwise.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .fields import (
    GaussianPrior,
    _hermitian_gram,
    _hermitian_sqrt,
    _rng,
    operator_sqrt,
    sample_white_noise,
)
from .lattice import (
    _CS_REAL_TOL,
    FrequencyLattice,
    SpectralField,
    _cosine_sine_modes,
    _from_cosine_sine,
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
    """A solve failed; carries the relative residual history and, from
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

    A diagonal model keeps the arrays its solves read per lattice, read-only
    (see :func:`_diag_weights`), so each symbol is evaluated once per noise
    level.  Any other model reads the pencil its forward operator keeps,
    shared by every noise level (see :func:`_pencil`).
    """

    fwd: Operator
    prior: GaussianPrior
    s: float
    d: int
    delta: float
    hypothesis_messages: tuple[str, ...] = field(init=False)
    _diag: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not (np.isfinite(self.delta) and self.delta > 0):  # NaN fails every comparison
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
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
    """Posterior mean, covariance C and the Hermitian root of C for one measurement.

    ``sqrt_cov`` is the Hermitian root C^{1/2}, the one that sampling and the
    Monte Carlo ball probabilities read.  A root given to the constructor is kept
    as it is; otherwise it is built on the first read and kept:
    :func:`fields.operator_sqrt` of C, the pointwise root of a multiplier C or one
    ``eigh`` of a dense C in the cosine/sine basis.  So for a dense model a
    covariance that is not positive definite raises ValueError at that read, not
    in :func:`posterior`.
    """

    mean: SpectralField
    cov: Operator
    root: InitVar[Operator | None]
    model: GaussianModel

    def __post_init__(self, root: Operator | None):
        if root is not None:
            self.__dict__["sqrt_cov"] = root  # what the cached property returns

    @cached_property
    def sqrt_cov(self) -> Operator:
        return operator_sqrt(self.cov)


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


def _prior_form(cov: Operator, lattice: FrequencyLattice) -> np.ndarray:
    """Q C_U Q^H on ``lattice``, built once per operator and lattice, read-only.

    A strictly positive multiplier symbol c_U gives K values in cosine/sine order
    when it is even in l (Q diag(c_U) Q^H is then diagonal), else that K x K matrix;
    a dense C_U the K x K matrix, real when it is to rounding.
    """
    def make() -> np.ndarray:
        if isinstance(cov, MultiplierOp):
            c_u = _prior_symbol(cov, lattice)
            if np.abs(c_u - c_u[lattice.conj_index]).max() <= _CS_REAL_TOL * c_u.max():
                return c_u[_cosine_sine_modes(lattice)[0]]
            return _to_cosine_sine(lattice, np.diag(c_u))
        return _to_cosine_sine(lattice, densify(cov, lattice).matrix)

    return _kept(cov, ("prior form", lattice), make)


def _diag_weights(model: GaussianModel, lattice: FrequencyLattice):
    """The forward symbol a, |a|^2 and delta^2 / c_U of a diagonal ``model`` on ``lattice``:
    built once, read-only; a is the symbol :func:`_symbol` keeps on the operator."""
    with _DIAG_LOCK:
        weights = model._diag.get(lattice)
        if weights is None:
            a = _symbol(model.fwd, lattice)
            weights = (a, np.abs(a) ** 2, model.delta**2 / _prior_symbol(model.prior.cov, lattice))
            for arr in weights:
                arr.setflags(write=False)
            model._diag[lattice] = weights
    return weights


def _fwd_values(fwd: Operator, lattice: FrequencyLattice) -> np.ndarray:
    """The kept symbol of a multiplier forward map, or the matrix of a dense one."""
    return _symbol(fwd, lattice) if isinstance(fwd, MultiplierOp) else densify(fwd, lattice).matrix


def _pencil(model: GaussianModel, lattice: FrequencyLattice) -> np.ndarray:
    """The (K + 1) x K block [lam; F] of the pencil (G, C_U^{-1}) of a model that is not
    diagonal: F^H C_U^{-1} F = I and F^H G F = diag(lam), lam >= 0, in the cosine/sine basis.

    F = R V for R R^H = C_U (the root of the K values of :func:`_prior_form`, else its
    Cholesky factor) and one ``eigh`` S = (A_cs R)^H (A_cs R) = V diag(lam) V^H; real when
    A_cs and R are.  The forward operator keeps one block per lattice, read-only, with the
    prior form it was built for: a prior of equal form reads it, any other replaces it.
    Raises ValueError unless C_U is positive definite.
    """
    fwd, c_form = model.fwd, _prior_form(model.prior.cov, lattice)
    with _DIAG_LOCK:
        kept = fwd._cs.get(("pencil", lattice))
        if kept is not None and (kept[0] is c_form or np.array_equal(kept[0], c_form)):
            return kept[1]
        fwd._cs.pop(("pencil", lattice), None)  # the old block is freed before a new one
        try:
            root = np.sqrt(c_form) if c_form.ndim == 1 else np.linalg.cholesky(c_form)
        except np.linalg.LinAlgError as exc:
            raise ValueError("prior covariance not positive definite") from exc
        shape = (lattice.size + 1, lattice.size)
        # the kept block comes before A_cs and the products' temporaries: made after any of
        # them, it pinned the heap above their holes (dense-vc benchmark peak RSS 126 -> 142
        # MiB, glibc).  Its dtype is that of R unless A_cs, known only once made, is complex.
        block = np.empty(shape, root.dtype)
        a = _fwd_values(fwd, lattice)
        a_cs = _to_cosine_sine(lattice, np.diag(a) if a.ndim == 1 else a)
        if np.iscomplexobj(a_cs) and np.isrealobj(block):
            del block  # never written: a map that does not keep real fields real
            block = np.empty(shape, np.complex128)
        a_cs = np.multiply(a_cs, root, out=a_cs) if root.ndim == 1 else a_cs @ root  # B = A_cs R
        s = a_cs.conj().T @ a_cs if np.iscomplexobj(a_cs) else a_cs.T @ a_cs
        del a_cs  # each K x K temporary is dropped as soon as it is used
        lam, vecs = np.linalg.eigh(s)
        del s
        block[0] = np.maximum(lam, 0.0)  # S is semidefinite: rounding clipped
        if root.ndim == 1:
            np.multiply(root[:, None], vecs, out=block[1:])
        else:
            np.matmul(root, vecs, out=block[1:])
        block.setflags(write=False)
        fwd._cs["pencil", lattice] = (c_form, block)
    return block


def _pencil_solve(block: np.ndarray, b: np.ndarray, delta2: np.ndarray) -> np.ndarray:
    """Rows x_i = F (F^H b_i) / (lam + delta2_i) = (G + delta2_i C_U^{-1})^{-1} b_i of an
    (n, K) stack ``b`` for the pencil ``block`` [lam; F]: two K^2 products per row."""
    lam, f = block[0].real, block[1:]
    y = (b.conj() @ f).conj() if np.iscomplexobj(f) else b @ f
    y /= lam + delta2[:, None]
    return y @ f.T


@np.errstate(invalid="ignore", over="ignore")  # an inf datum: 0 * inf, a row not finite
def _map_means(models, lattice: FrequencyLattice, data) -> np.ndarray:
    """Posterior means of the stacks ``data[j]``, (rows, K) coefficients on ``lattice`` each,
    under ``models[j]``: noise-level models that share one forward map and prior.  Returns
    the means as one array of the shape of ``data``; a row that is not finite in every
    entry (data that is not finite) is a failed solve.

    Diagonal models use the per-frequency formula conj(a) m_hat / (|a|^2 + delta^2 / c_U),
    in place in the result.  Otherwise one product with the symbol or the dense matrix gives
    the stack B = Q A^H M of every row, the kept pencil solves each row at its model's noise
    level, and the rows x give the means Q^H x; complex B (data that is not a real field)
    under a real pencil is solved as its real parts and its imaginary parts.
    """
    model = models[0]
    if any(m.fwd != model.fwd or m.prior.cov != model.prior.cov for m in models):
        raise ValueError("lockstep solves need models that share one forward map and prior")
    if _is_diagonal(model):
        means = np.empty(np.shape(data), np.complex128)
        for mdl, m, mean in zip(models, data, means):
            a, asq, prec = _diag_weights(mdl, lattice)
            np.divide(np.multiply(np.conj(a), m, out=mean), asq + prec, out=mean)
        return means
    block = _pencil(model, lattice)
    a = _fwd_values(model.fwd, lattice)
    stack = np.reshape(data, (-1, lattice.size))
    # B = Q A^H M; a dense A^H M through one product with A, with no conjugate copy of A
    b = _rows_to_cosine_sine(lattice, np.conj(a) * stack if a.ndim == 1
                             else (stack.conj() @ a).conj())
    n = len(stack)
    delta2 = np.repeat([m.delta**2 for m in models], n // len(models))
    if np.iscomplexobj(block):
        b = b.astype(np.complex128, copy=False)
    elif np.iscomplexobj(b):
        b, delta2 = np.concatenate([b.real, b.imag]), np.tile(delta2, 2)  # two real rows each
    x = _pencil_solve(block, b, delta2)
    if len(x) > n:
        x = x[:n] + 1j * x[n:]
    return _rows_from_cosine_sine(lattice, x).reshape(np.shape(data))


def map_estimate(model: GaussianModel, m: SpectralField) -> SpectralField:
    """Posterior mean (equals the MAP point for this Gaussian conjugate pair).

    The one-row case of :func:`_map_means`: the per-frequency formula for a
    diagonal model, else F (F^H b) / (lam + delta^2) for b = Q A^H m and the
    pencil :func:`_pencil` of the forward map and prior, built on first use and
    shared by every noise level.  The mean it returns is finite in every entry;
    raises SolverError if it is not, as for data with a NaN coefficient.
    """
    mean = _map_means([model], m.lattice, m.coeffs[None, None])[0, 0]
    if not np.isfinite(mean).all():
        raise SolverError("posterior mean not finite", [])
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


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a_i, b_i> for each row i of two (n, K) stacks."""
    return np.einsum("ij,ij->i", a.conj(), b).real


def _pcg(matvec, b: np.ndarray, diag: np.ndarray, tol: float, maxiter: int):
    """Jacobi-preconditioned conjugate gradients on Hermitian PD systems, one per row:
    the iterative oracle for the pencil means in the tests.

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


def posterior_covariance(model: GaussianModel, lattice: FrequencyLattice | None = None) -> Operator:
    """Posterior covariance delta^2 (A^H A + delta^2 C_U^{-1})^{-1}.

    Diagonal: the multiplier delta^2 / (|a|^2 + delta^2 / c_U) of the stored weights.
    Dense: F diag(delta^2 / (lam + delta^2)) F^H of the kept pencil, from one product.
    """
    if not _is_diagonal(model):
        lattice = _dense_lattice(model, lattice)
        return _dense_cov(model, lattice, _cov_cs(model, lattice))

    def symbol(lat: FrequencyLattice) -> np.ndarray:
        _, asq, prec = _diag_weights(model, lat)
        return (model.delta**2 / (asq + prec)).astype(complex)

    return MultiplierOp(symbol, model.prior.cov.order_t, model.prior.cov.order_t0,
                        label=f"postcov({model.fwd.label})")


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
        if lattice is not None and lattice != cov.lattice:
            raise ValueError("lattice does not match dense operator lattice")
        lattice = cov.lattice
        diag = np.diag(cov.matrix).real
    else:
        if lattice is None:
            raise ValueError("lattice required for a multiplier covariance")
        diag = symbol_values(cov, lattice).real
    return float(np.sum(sobolev_weight(lattice, q) * diag))


def _cov_factor(model: GaussianModel, lattice: FrequencyLattice) -> np.ndarray:
    """X = F diag(delta / sqrt(lam + delta^2)) of the pencil: X X^H is the posterior
    covariance C_cs of a model that is not diagonal, in the cosine/sine basis."""
    block = _pencil(model, lattice)
    return block[1:] * (model.delta / np.sqrt(block[0].real + model.delta**2))


def _cov_cs(model: GaussianModel, lattice: FrequencyLattice) -> np.ndarray:
    """C_cs = X X^H of :func:`_cov_factor`, exactly Hermitian (:func:`_hermitian_gram`)."""
    return _hermitian_gram(_cov_factor(model, lattice))


def _dense_cov(model: GaussianModel, lattice: FrequencyLattice, c_cs: np.ndarray) -> DenseOp:
    """Q^H C_cs Q as an operator, exactly Hermitian by construction
    (:func:`_from_cosine_sine`)."""
    return DenseOp(lattice, _Handover(_from_cosine_sine(lattice, c_cs)),
                   model.prior.cov.order_t, model.prior.cov.order_t0,
                   f"postcov({model.fwd.label})")


def _trace_root(model: GaussianModel, lattice: FrequencyLattice,
                zeta: float) -> tuple[float, np.ndarray, np.ndarray]:
    """The H^zeta trace of the posterior covariance C on ``lattice``, a root of C and the
    H^zeta weights that the ball statistic |C^{1/2} xi + o|^2 reads it with.

    A diagonal model reads its weights: c = delta^2 / (|a|^2 + delta^2 / c_U), the trace
    sum_l w_l c_l, the pointwise root sqrt(c) and w in exponential order.  A dense one
    takes a root R of C_cs whose Q^H R z, z = Q xi real, has the law of C^{1/2} xi: X of
    :func:`_cov_factor` when it is real; a complex X z does not, so then the Hermitian
    root of C_cs (one more ``eigh``).  The trace is sum_j w_j |R_j|^2, with w in
    cosine/sine order, where the weights are diagonal.
    """
    if _is_diagonal(model):
        _, asq, prec = _diag_weights(model, lattice)
        c = model.delta**2 / (asq + prec)
        w = sobolev_weight(lattice, zeta)
        return float(np.sum(w * c)), np.sqrt(c), w
    root = _cov_factor(model, lattice)
    if np.iscomplexobj(root):
        root = _hermitian_sqrt(_hermitian_gram(root))
    w = sobolev_weight(lattice, zeta)[_cosine_sine_modes(lattice)[0]]
    return float(w @ np.einsum("ij,ij->i", root.conj(), root).real), root, w


def _trace_ball(model: GaussianModel, lattice: FrequencyLattice, zeta: float,
                offsets: bool = True) -> tuple[float, MultiplierBall]:
    """The trace of :func:`_trace_root` and the exact law of the H^zeta ball statistic
    |C^{1/2} xi + o|^2 for spectral white noise xi.

    The law keeps O(G + T + n) numbers beyond its K-sized term indices (see
    :class:`MultiplierBall`).  A dense law that reads offsets also keeps a K x K
    projection; with ``offsets`` False it is eigenvalues only and reads central tails.
    """
    trace, root, w = _trace_root(model, lattice, zeta)
    if root.ndim == 1:
        return trace, MultiplierBall(root, lattice, zeta)
    return trace, MultiplierBall._from_cosine_sine_root(root, w, lattice, offsets)


def posterior(model: GaussianModel, m: SpectralField) -> PosteriorGaussian:
    """Assemble mean and covariance for one measurement; the root comes on first read.

    The mean is exactly ``map_estimate(model, m)`` and the covariance
    ``posterior_covariance(model, m.lattice)``: for a dense model one product
    with the kept pencil, and no ``eigh`` once the pencil is kept.  The Hermitian
    root ``sqrt_cov`` is built when it is first read (see :class:`PosteriorGaussian`).
    """
    return PosteriorGaussian(map_estimate(model, m), posterior_covariance(model, m.lattice),
                             None, model)


def sample_posterior(post: PosteriorGaussian, seed=None) -> SpectralField:
    """One draw mean + C^{1/2} xi with xi spectral white noise: an oracle for the
    root of :func:`posterior`, in acceptance criterion 9 and ``TestSampling``."""
    noise = sample_white_noise(post.mean.lattice, seed)
    return post.mean + apply(post.sqrt_cov, noise)


def _mc_ball_hits(root: np.ndarray, lattice: FrequencyLattice, zeta1: float, radius: float,
                  n_mc: int, rng: np.random.Generator, offset=None) -> tuple[float, float]:
    """Share of n_mc draws W = C^{1/2} xi (+ offset) in the H^zeta1 ball, and its binomial SE:
    the sampling oracle for :class:`MultiplierBall`, with no production caller.

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
    mean's lattice.  An oracle for the exact law of :class:`MultiplierBall`, which
    the tests hold against it on multiplier and dense posteriors.
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
    """Midpoint nodes u_k = (k + 1/2) 2 pi / span and the central part of log phi: O(n)
    numbers.  The noncentral node table, G x n, is formed by each call that reads it
    (:meth:`MultiplierBall._escape_probs`)."""

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


class MultiplierBall:
    """Exact tail of the weighted squared norm of a posterior Gaussian draw, for a
    multiplier root or, through :meth:`_from_cosine_sine_root`, a dense one.

    For a root symbol rho, weights w_l = (1 + |l|^2)^zeta and spectral white
    noise xi as ``lattice._white_coeffs`` draws it for every sampler (the law of
    ``fftn(z) / sqrt(K)``, with xi_-l = conj(xi_l) bit for bit), the statistic
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
    degrees of freedom and noncentralities.  A dense posterior has the same
    law with one degree of freedom per eigenvalue (:meth:`_from_cosine_sine_root`);
    only the step from offsets to noncentralities differs.

    The groups, the central Chernoff tables and the truncation point depend
    only on the root and zeta, and integration grids are cached per period (a
    power of two); only nc_g and R depend on the offset, so one instance
    serves every replicate, and :meth:`_escape_probs` takes a whole
    (replicate, K) stack of offsets in one call, of which
    :meth:`escape_prob` is the one-row case.  A law keeps O(G + T + n)
    numbers beyond its K-sized term indices, for G groups, T Chernoff points
    and n nodes per cached grid: the G x T and G x n noncentral tables are
    built by each call that reads offsets, in one scratch buffer, and dropped
    when it returns.  A dense law that reads offsets also keeps its K x K
    projection.
    """

    def __init__(self, root, lattice: FrequencyLattice, zeta: float = 0.0):
        root = np.asarray(root, dtype=np.complex128)
        if root.shape != (lattice.size,):
            raise ValueError(f"root has shape {root.shape}, lattice needs ({lattice.size},)")
        idx = np.arange(lattice.size)
        conj = lattice.conj_index
        real, pair = idx[conj == idx], idx[idx < conj]
        self._w = sobolev_weight(lattice, zeta)
        wroot = self._w * np.conj(root)
        wr2 = self._w * np.abs(root) ** 2
        quad = np.concatenate([wr2[real], wr2[pair] + wr2[conj[pair]]])
        dof = np.concatenate([np.ones(real.size), np.full(pair.size, 2.0)])
        # each live term in group order reads b = w conj(rho) o as t = b_l + conj(b_m): m = -l
        # for a pair, whose noncentrality term is 2 |t|^2 / quad^2, and m = l for a
        # self-conjugate mode, whose t = 2 Re b_l gives (Re b_l)^2 / quad^2 = |t|^2 / 4 / quad^2
        terms = self._group(quad, dof, np.where(dof == 1, 0.25, 2.0))
        self._first = np.concatenate([real, pair])[terms]
        self._second = np.concatenate([real, conj[pair]])[terms]
        self._w_first, self._w_second = wroot[self._first], np.conj(wroot[self._second])
        self._proj = None

    @classmethod
    def _from_cosine_sine_root(cls, root: np.ndarray, w: np.ndarray, lattice: FrequencyLattice,
                               offsets: bool = True) -> "MultiplierBall":
        """The law of S = sum_l w_l |(Q^H R z + o)_l|^2 for a root R R^H = C_cs in the
        cosine/sine basis, ``w`` the H^zeta weights in cosine/sine order and z = Q xi, real
        standard normal.  The even weights are diagonal there, so with Y = sqrt(w) R and
        b = sqrt(w) Q o, S = |Y z + b|^2.  One ``eigh`` Re(Y^H Y) = V diag(mu) V^T gives
        S = sum_k mu_k (Z_k + t_k / mu_k)^2 + |b|^2 - sum_k t_k^2 / mu_k for Z = V^T z and
        t = Re(b^H Y V): one degree of freedom per eigenvalue (Imhof 1961), t read from the
        kept K x K projection sqrt(w) conj(Y V).  With ``offsets`` False the law reads
        central tails only: one ``eigvalsh`` gives mu, and no projection is kept.
        """
        k = lattice.size
        if root.shape != (k, k) or w.shape != (k,):
            raise ValueError(f"root {root.shape} and weights {w.shape} do not fit K = {k}")
        ball = cls.__new__(cls)
        ball._w = w[np.argsort(_cosine_sine_modes(lattice)[0])]  # in exponential order
        ball._proj = ball._first = None
        y = np.sqrt(w)[:, None] * root
        m = y.T @ y if np.isrealobj(y) else (y.conj().T @ y).real
        ones = np.ones(k)
        if not offsets:
            del y
            ball._group(np.linalg.eigvalsh(m), ones, ones)
            return ball
        mu, v = np.linalg.eigh(m)
        del m
        terms = ball._group(mu, ones, ones)
        ball._proj = np.sqrt(w)[:, None] * (y @ v[:, terms]).conj()
        ball._lattice = lattice
        return ball

    def _group(self, quad: np.ndarray, dof: np.ndarray, coef: np.ndarray) -> np.ndarray:
        """Merge the terms lambda = quad / dof with quad > 0 into groups of equal lambda and
        build the law's tables.  ``coef`` scales |t|^2 / quad^2 into each term's
        noncentrality.  Returns the indices of the live terms in group order."""
        live = np.flatnonzero(quad > 0)
        quad, dof = quad[live], dof[live]
        self.lam, group = np.unique(quad / dof, return_inverse=True)
        self.dof = np.bincount(group, weights=dof, minlength=self.lam.size)
        order = np.argsort(group, kind="stable")
        self._nc_coef = (coef[live] / quad**2)[order]
        self._starts = np.flatnonzero(np.diff(group[order], prepend=-1))
        self._grids: dict[int, _Grid] = {}
        self._lock = threading.Lock()
        self.tau = 0.0
        self._kink = 0.0
        if self.lam.size:
            self._chernoff_tables()
            self._choose_cutoff()
        return live[order]

    def _chernoff_tables(self):
        """Log moment generating function of the central Q on fixed grids of t and -t."""
        scale = 2.0 * self.lam[-1]
        self._t_up = _S_UPPER / scale
        self._t_lo = _S_LOWER / scale
        self._k_up = -0.5 * (self.dof @ np.log1p(-np.outer(2.0 * self.lam, self._t_up)))
        self._k_lo = -0.5 * (self.dof @ np.log1p(np.outer(2.0 * self.lam, self._t_lo)))

    def _noncentral_tables(self, buf: np.ndarray):
        """The (G, T) tables x / (2 (1 - x)) at t and -x / (2 (1 + x)) at -t, x = 2 lambda t,
        whose products with the noncentralities add to the log MGF: built in place in the
        flat scratch ``buf``, which holds G (T_up + 2 T_lo) numbers."""
        g, n_up, n_lo = self.lam.size, self._t_up.size, self._t_lo.size
        kn_up = buf[:g * n_up].reshape(g, n_up)
        kn_lo = buf[g * n_up:g * (n_up + n_lo)].reshape(g, n_lo)
        den = buf[g * (n_up + n_lo):g * (n_up + 2 * n_lo)].reshape(g, n_lo)
        np.multiply.outer(2.0 * self.lam, self._t_up, out=kn_up)
        np.subtract(1.0, kn_up, out=den[:, :n_up])
        kn_up *= 0.5
        kn_up /= den[:, :n_up]
        np.multiply.outer(2.0 * self.lam, self._t_lo, out=kn_lo)
        np.add(1.0, kn_lo, out=den)
        kn_lo *= -0.5
        kn_lo /= den
        return kn_up, kn_lo

    def _log_mgf(self, nc: np.ndarray, tau: float, kn=None):
        """log E exp(t (Q + tau Z)) on the upper grid and at -t on the lower one, one row per
        row of the (n, G) noncentralities ``nc`` with the tables ``kn`` of
        :meth:`_noncentral_tables`, one product per table; without ``kn`` the central
        law's one row."""
        k_up, k_lo = self._k_up[None], self._k_lo[None]
        if kn is not None:
            k_up, k_lo = self._k_up + nc @ kn[0], self._k_lo + nc @ kn[1]
        return k_up + 0.5 * (tau * self._t_up) ** 2, k_lo + 0.5 * (tau * self._t_lo) ** 2

    def _log_tails(self, k_up, k_lo, y: np.ndarray):
        """Chernoff log bounds on P(X_i >= y_i) and P(X_i <= y_i) for the log MGF rows.

        A product t y past the float range is inf, which gives each bound its limit.
        """
        with np.errstate(over="ignore"):
            return (np.minimum(0.0, np.min(k_up - self._t_up * y[:, None], axis=1)),
                    np.minimum(0.0, np.min(k_lo + self._t_lo * y[:, None], axis=1)))

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

    def _row(self, offset) -> np.ndarray:
        """A single offset o as a (1, K) stack."""
        o = np.asarray(offset, dtype=np.complex128)
        if o.shape != self._w.shape:
            raise ValueError(f"offset has shape {o.shape}, expected {self._w.shape}")
        return o[None]

    def _noncentralities(self, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Noncentralities nc (n, G) and shifts R (n,) of an (n, K) stack of offsets."""
        if offsets.ndim != 2 or offsets.shape[1] != self._w.size:
            raise ValueError(f"offsets have shape {offsets.shape}, expected (n, {self._w.size})")
        re, im = offsets.real, offsets.imag  # sum_l w_l |o_l|^2, with no BLAS dot per row
        norms = np.einsum("ik,ik,k->i", re, re, self._w) + np.einsum("ik,ik,k->i", im, im, self._w)
        if not np.isfinite(norms).all():
            raise ValueError("offset must be finite")
        if not self.lam.size:
            return np.zeros((len(offsets), 0)), norms
        if self._proj is None:
            if self._first is None:
                raise ValueError("this dense law was built for central tails only")
            t = np.take(offsets, self._first, axis=1)
            t *= self._w_first
            mate = np.take(offsets, self._second, axis=1)
            np.conjugate(mate, out=mate)
            mate *= self._w_second  # conj(b_m)
            t += mate
            sq = t.real**2
            sq += t.imag**2
        else:  # t = Re((Q o) @ proj), with no complex copy of a real factor
            qo = _rows_to_cosine_sine(self._lattice, offsets)
            t = qo.real @ self._proj.real
            if np.iscomplexobj(qo) and np.iscomplexobj(self._proj):
                t -= qo.imag @ self._proj.imag
            sq = t * t
        sq *= self._nc_coef
        nc = np.add.reduceat(sq, self._starts, axis=1)
        # a group's terms have |B|^2 / A summing to lambda_g nc_g
        return nc, norms - np.einsum("ig,g->i", nc, self.lam)

    def noncentrality(self, offset) -> tuple[np.ndarray, float]:
        """Per-group noncentralities nc_g and the constant shift R for offset o."""
        nc, shift = self._noncentralities(self._row(offset))
        return nc[0], float(shift[0])

    def _grid(self, exponent: int) -> _Grid:
        with self._lock:
            grid = self._grids.get(exponent)
            if grid is None:
                grid = self._grids[exponent] = _Grid(self, 2.0**exponent)
            return grid

    def _noncentral_nodes(self, grid: _Grid, buf: np.ndarray) -> np.ndarray:
        """The (G, n) table x / (1 - 2 x), x = i lambda u, of ``grid``'s nodes, whose product
        with the noncentralities adds to log phi: built in place in the flat scratch
        ``buf``, which holds 4 G n numbers."""
        g, n = self.lam.size, grid.u.size
        x = buf[:2 * g * n].view(np.complex128).reshape(g, n)
        den = buf[2 * g * n:4 * g * n].view(np.complex128).reshape(g, n)
        x.real = 0.0
        np.multiply.outer(self.lam, grid.u, out=x.imag)
        den.real = 1.0
        np.multiply(-2.0, x.imag, out=den.imag)
        return np.divide(x, den, out=x)

    def escape_prob(self, radius: float, offset=None) -> tuple[float, float]:
        """P(S >= radius^2) and a bound on its absolute error: the one-row case of
        :meth:`_escape_probs`, central if ``offset`` is None."""
        p, bound = self._escape_probs(radius, None if offset is None else self._row(offset))
        return float(p[0]), float(bound[0])

    def _escape_probs(self, radius: float, offsets=None) -> tuple[np.ndarray, np.ndarray]:
        """P(S_i >= radius^2) and bounds on their absolute errors, one for each row o_i of an
        (n, K) stack of finite offsets, or one for the central law if ``offsets`` is None.

        The tail of Q is the Gil-Pelaez integral of its characteristic
        function phi, summed by the midpoint rule with step 2 pi / span
        (Imhof 1961; Davies 1973, 1980).  The sum is exact up to the aliased
        mass P(X >= c + span) + P(X < c - span), bounded by Chernoff; the
        cut-off of the sum comes from the truncation bound.  The result is
        clamped to [0, 1] and to the Chernoff bounds of Q, which settle far
        tails as exactly 0 or 1.  The stated bound adds aliasing,
        truncation, the convergence factor and a floating-point allowance.
        A radius whose square is past the float range, inf too, gives P = 0 with
        bound 0.

        Rows share each step that does not depend on the row's numbers: one product per
        Chernoff table for every row, then, for the rows the tails do not settle, one
        product with the noncentral table and one ``exp`` per period.  Each row's bound
        keeps its own terms.  The noncentral tables, G x T and G x n, are built in one
        scratch buffer for this call (grown only for a grid that needs more) and dropped
        when it returns.
        """
        if not radius >= 0:  # NaN too
            raise ValueError(f"radius must be nonnegative, got {radius}")
        if offsets is None:
            nc, shift = np.zeros((1, self.lam.size)), np.zeros(1)
        else:
            nc, shift = self._noncentralities(offsets)
        c = float(radius) * float(radius) - shift  # inf past the float range, with no error
        p, bound = np.ones(c.size), np.zeros(c.size)  # c <= 0: S >= R >= radius^2
        p[np.isinf(c)] = 0.0  # S is finite
        rows = np.flatnonzero((c > 0) & np.isfinite(c))
        if self.lam.size == 0:
            p[rows] = 0.0
            return p, bound
        if self.dof.sum() == 1:
            # a lone real mode: lambda (Z + mu)^2 with Z ~ N(0, 1)
            for i in rows:
                a, mu = math.sqrt(c[i] / self.lam[0]), math.sqrt(nc[i, 0])
                p[i] = 0.5 * (math.erfc((a - mu) / math.sqrt(2.0))
                              + math.erfc((a + mu) / math.sqrt(2.0)))
                bound[i] = 8.0 * np.finfo(float).eps
            return p, bound
        nc, c = nc[rows], c[rows]
        buf = kn = None  # with offsets: the call's one scratch buffer and the tables in it
        if offsets is not None:
            buf = np.empty(self.lam.size * (self._t_up.size + 2 * self._t_lo.size))
            kn = self._noncentral_tables(buf)
        k_up, k_lo = self._log_mgf(nc, 0.0, kn)
        log_up, log_lo = self._log_tails(k_up, k_lo, c)
        log_tol = math.log(_TAIL_TOL)
        for i, up, lo in zip(rows.tolist(), log_up.tolist(), log_lo.tolist()):
            if up <= log_tol:
                p[i], bound[i] = 0.0, math.exp(up)
            elif lo <= log_tol:
                p[i], bound[i] = 1.0, math.exp(lo)
        keep = (log_up > log_tol) & (log_lo > log_tol)
        if not keep.any():
            return p, bound
        rows, nc, c, log_up, log_lo = rows[keep], nc[keep], c[keep], log_up[keep], log_lo[keep]

        tau = self.tau
        if tau > 0:  # at tau = 0 the log MGF of Q + tau Z is the one above
            k_up, k_lo = self._log_mgf(nc, tau, kn)
        else:
            k_up, k_lo = k_up[keep], k_lo[keep]
        del kn  # read no more: the node tables reuse its buffer
        log_eps = math.log(_ALIAS_TOL)
        y_up = np.min((k_up - log_eps) / self._t_up, axis=1)
        y_lo = np.max((log_eps - k_lo) / self._t_lo, axis=1)
        floor = y_lo if tau > 0 else np.maximum(y_lo, 0.0)
        exponents = np.array([math.ceil(math.log2(x))
                              for x in np.maximum(y_up - c, c - floor).tolist()])
        span = 2.0**exponents
        alias_up = self._log_tails(k_up, k_lo, c + span)[0]
        alias_lo = self._log_tails(k_up, k_lo, c - span)[1]

        total, rounding, truncation = np.empty((3, rows.size))
        for exponent in np.unique(exponents).tolist():
            sel = exponents == exponent
            grid = self._grid(exponent)
            log_phi = grid.log_phi - 1j * grid.u * c[sel, None]
            if buf is not None:
                if buf.size < 4 * self.lam.size * grid.u.size:
                    buf = np.empty(4 * self.lam.size * grid.u.size)
                log_phi += nc[sel] @ self._noncentral_nodes(grid, buf)
            z = np.exp(log_phi)
            total[sel] = np.sum(z.imag / grid.k_half, axis=1)
            # floating-point allowance: phase errors of about eps (H + sum nc + u c)
            # per term, and the pairwise sum of the terms
            scale = (4.0 * ((float(self.dof.sum()) + nc[sel].sum(axis=1))[:, None]
                            + grid.u * c[sel, None]) + math.log2(grid.u.size))
            rounding[sel] = np.sum(np.abs(z) * scale / grid.k_half, axis=1)
            truncation[sel] = grid.truncation
        eps = np.finfo(float).eps
        for r, i in enumerate(rows.tolist()):
            alias = math.exp(alias_up[r])
            if tau > 0 or c[r] > span[r]:
                alias += math.exp(alias_lo[r])
            p_i = 0.5 + total[r] / math.pi
            p_i = min(max(p_i, 0.0), 1.0, math.exp(log_up[r]))
            p[i] = max(p_i, 1.0 - math.exp(log_lo[r]))
            smoothing = _SMOOTH_TOL if tau > 0 else 0.0
            if self._kink:
                smoothing += (self._kink * tau * math.exp(-0.5 * (c[r] / tau) ** 2)
                              / math.sqrt(2 * math.pi))
            bound[i] = alias + truncation[r] + smoothing + eps * rounding[r] / math.pi
        return p, bound
