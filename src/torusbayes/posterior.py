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

from .fields import GaussianPrior, _hermitian_sqrt, _rng, operator_sqrt, sample_white_noise
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
# rows of one tile of the in-place Hermitian symmetrise (_hermitian_part), 64 KiB
# complex: at K = 1024 faster than tiles of 32 or 128 rows (11 against 20 and 15 ms)
_SYM_TILE = 64
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
    as it is; otherwise it is built on the first read and kept: the pointwise
    root of a multiplier C, or for a dense model one ``eigh`` of C_cs from the
    kept pencil (see :func:`_dense_root`).  So for a dense model a covariance
    that is not positive definite raises ValueError at that read, not in
    :func:`posterior`.
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
        if isinstance(self.cov, MultiplierOp):
            return operator_sqrt(self.cov)
        lattice = self.cov.lattice
        return _dense_root(self.model, lattice, _cov_cs(self.model, lattice))


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
def _map_means(models, data) -> list:
    """Posterior means of ``models[j]`` for data ``data[j]`` (SpectralFields on one
    lattice): noise-level models that share one forward map and prior.

    Diagonal models use the per-frequency formula conj(a) m_hat / (|a|^2 + delta^2 / c_U).
    Otherwise one product with the symbol or the dense matrix gives the stack
    B = Q A^H M, the kept pencil solves every row at its own noise level, and the rows x
    give the means Q^H x; complex B (data that is not a real field) under a real pencil
    is solved as its real parts and its imaginary parts.  Returns one (K,) coefficient
    array per row, finite in every entry, or a SolverError for a row whose mean is not
    (data that is not finite), on either path.
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
    else:
        block = _pencil(model, lattice)
        a = _fwd_values(model.fwd, lattice)
        stack = np.stack([m.coeffs for m in data])
        # B = Q A^H M; a dense A^H M through one product with A, with no conjugate copy of A
        b = _rows_to_cosine_sine(lattice, np.conj(a) * stack if a.ndim == 1
                                 else (stack.conj() @ a).conj())
        n = len(models)
        delta2 = np.array([m.delta**2 for m in models])
        if np.iscomplexobj(block):
            b = b.astype(np.complex128, copy=False)
        elif np.iscomplexobj(b):
            b, delta2 = np.concatenate([b.real, b.imag]), np.tile(delta2, 2)  # two real rows each
        x = _pencil_solve(block, b, delta2)
        if len(x) > n:
            x = x[:n] + 1j * x[n:]
        means = _rows_from_cosine_sine(lattice, x)
    return [mean if np.isfinite(mean).all() else SolverError("posterior mean not finite", [])
            for mean in means]


def map_estimate(model: GaussianModel, m: SpectralField) -> SpectralField:
    """Posterior mean (equals the MAP point for this Gaussian conjugate pair).

    The one-row case of :func:`_map_means`: the per-frequency formula for a
    diagonal model, else F (F^H b) / (lam + delta^2) for b = Q A^H m and the
    pencil :func:`_pencil` of the forward map and prior, built on first use and
    shared by every noise level.  The mean it returns is finite in every entry;
    raises SolverError if it is not, as for data with a NaN coefficient.
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
    """C_cs = X X^H of :func:`_cov_factor`: one product, exactly symmetric for a real X."""
    x = _cov_factor(model, lattice)
    return x @ x.conj().T if np.iscomplexobj(x) else x @ x.T


def _hermitian_part(c: np.ndarray) -> None:
    """c = (c + c^H) / 2 in place, one pair of mirrored tiles at a time.

    Entry (i, j) becomes (Re c_ij + Re c_ji) + i (Im c_ij - Im c_ji), times 0.5, the
    arithmetic of the whole-matrix form, so the result is exactly Hermitian; no
    temporary is larger than a tile, where the whole-matrix ``re += re.T`` copies re.
    """
    k = len(c)
    for i in range(0, k, _SYM_TILE):
        rows = slice(i, i + _SYM_TILE)
        for j in range(i, k, _SYM_TILE):
            cols = slice(j, j + _SYM_TILE)
            a, b = c[rows, cols], c[cols, rows]  # one tile on the diagonal
            # each tile with a transposed copy of its mirror, taken before either is written
            pairs = ((a, b.T.copy()), (b, a.T.copy())) if j > i else ((a, b.T.copy()),)
            for tile, mirror in pairs:
                tile.real += mirror.real
                tile.imag -= mirror.imag
                tile *= 0.5


def _dense_cov(model: GaussianModel, lattice: FrequencyLattice, c_cs: np.ndarray) -> DenseOp:
    """Q^H C_cs Q as an operator, Hermitian-symmetrised exactly and in place."""
    cov = _from_cosine_sine(lattice, c_cs)
    _hermitian_part(cov)
    return DenseOp(lattice, _Handover(cov), model.prior.cov.order_t, model.prior.cov.order_t0,
                   f"postcov({model.fwd.label})")


def _dense_root(model: GaussianModel, lattice: FrequencyLattice, c_cs: np.ndarray) -> DenseOp:
    """The Hermitian root of the covariance Q^H C_cs Q of :func:`_dense_cov`, as an operator:
    one ``eigh`` of C_cs, real symmetric when the pencil is real."""
    cov = model.prior.cov
    return DenseOp(lattice, _Handover(_hermitian_sqrt(lattice, c_cs)), cov.order_t / 2.0,
                   cov.order_t0 / 2.0, f"sqrt(postcov({model.fwd.label}))")


def _cov_root(model: GaussianModel,
              lattice: FrequencyLattice | None) -> tuple[Operator, Operator]:
    """Posterior covariance C and its Hermitian root, as operators: a multiplier and its
    pointwise root, or C from the pencil and the root of :func:`_dense_root`, made before
    the K x K complex form of C."""
    if _is_diagonal(model):
        cov = posterior_covariance(model)
        return cov, operator_sqrt(cov)
    lattice = _dense_lattice(model, lattice)
    c_cs = _cov_cs(model, lattice)
    root = _dense_root(model, lattice, c_cs)
    return _dense_cov(model, lattice, c_cs), root


def _trace_root(model: GaussianModel, lattice: FrequencyLattice,
                zeta: float) -> tuple[float, np.ndarray]:
    """The H^zeta trace of the posterior covariance C and a root R R^H = C on ``lattice``,
    evaluated (K symbol values or a K x K matrix): the runners' Monte Carlo pieces.

    A real pencil gives R = Q^H X Q for X of :func:`_cov_factor`, with no ``eigh``: Q xi
    is real standard normal for spectral white noise xi, so R xi = Q^H X (Q xi) has the
    law of C^{1/2} xi; the even weights are diagonal in the cosine/sine basis, so the
    trace is sum_j w_j |X_j|^2.  Other models take :func:`_cov_root`.
    """
    x = None if _is_diagonal(model) else _cov_factor(model, lattice)
    if x is None or np.iscomplexobj(x):
        cov, root = _cov_root(model, lattice)
        return posterior_trace(cov, zeta, lattice), _evaluated(root, lattice)
    w = sobolev_weight(lattice, zeta)[_cosine_sine_modes(lattice)[0]]
    return float(w @ np.einsum("ij,ij->i", x, x)), _from_cosine_sine(lattice, x)


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
        k_up, k_lo = self._log_mgf(nc, 0.0)
        log_up, log_lo = self._log_tails(k_up, k_lo, c)
        if log_up <= math.log(_TAIL_TOL):
            return 0.0, math.exp(log_up)
        if log_lo <= math.log(_TAIL_TOL):
            return 1.0, math.exp(log_lo)

        tau = self.tau
        if tau > 0:  # at tau = 0 the log MGF of Q + tau Z is the one above
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
