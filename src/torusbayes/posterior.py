"""MAP/CM estimation and the posterior Gaussian.

For measurement m = A u + delta * noise with Gaussian prior N(0, C_U) the
posterior is Gaussian with mean

    U = (A^H A + delta^2 C_U^{-1})^{-1} A^H m

and covariance C = delta^2 (A^H A + delta^2 C_U^{-1})^{-1}.  When both A
and C_U are Fourier multipliers everything is a per-frequency scalar
formula.  Otherwise A and C_U must map real fields to real fields, as the
unknown, the noise and the data of the model are real fields; every operator
the config grammar builds does.  Then everything is written in the cosine/sine
basis of real fields, where A_cs = Q A Q^H, the Gram matrix G = A_cs^T A_cs and
C_U are real; an operator that does not keep real fields real raises ValueError
where it enters that basis.  Neither G nor C_U depends on the noise level, so
one decomposition F^T C_U^{-1} F = I, F^T G F = diag(lam) of the pencil
(G, C_U^{-1}) gives (G + delta^2 C_U^{-1})^{-1} = F diag(1 / (lam + delta^2)) F^T
at every delta (Golub & Van Loan, Matrix Computations, 8.7).  F = R V comes
from a factor R R^T = C_U and one ``eigh`` of S = (A_cs R)^T (A_cs R) =
V diag(lam) V^T, the prior-preconditioned Hessian of Spantini et al. (2015);
the forward operator keeps it, split into the classes of coordinates that S and
C_U couple (:func:`_pencil`).  In its coordinates g = F^T Q A^H m of data and
h = F^{-1} Q u of a field (:func:`_pencil_coords`) the mean is F g / (lam + delta^2) and
the bias of noiseless data -delta^2 F h / (lam + delta^2), with no cancellation.

For the ball statistic |C^{1/2} xi + o|^2_{H^zeta} one function gives the H^zeta
trace of C and the statistic's exact law, both from one root of C
(:func:`_trace_ball`; the law itself is :mod:`torusbayes._ball`), and
:func:`sample_posterior` draws from the posterior.  Two oracles stay here:
the update form :func:`posterior_covariance_update`, public, and the lockstep
conjugate gradients :func:`_pcg`, which the benchmark's tracer wraps.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fields import (
    GaussianPrior,
    _positive_real,
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
    sobolev_weight,
)
from .operators import (
    DenseOp,
    MultiplierOp,
    Operator,
    _Handover,
    apply,
    densify,
    symbol_values,
)
from ._ball import MultiplierBall
from .rates import SmoothnessParams, _basic_flags

__all__ = [
    "SolverError",
    "GaussianModel",
    "PosteriorGaussian",
    "map_estimate",
    "posterior_covariance",
    "posterior_covariance_update",
    "posterior_trace",
    "posterior",
    "sample_posterior",
]

CG_TOL = 1e-10
_COUPLING_TOL = 1e-14  # the share of its largest entry past which an entry couples (_classes)
# the package's one lock: guards every array kept between calls, in the operators' _cs
# (see _kept and _pencil); re-entrant, as a prior may be another model's posterior
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

    A model keeps no arrays: a diagonal model reads the symbols its operators keep
    (see :func:`_diag_weights`), any other the pencil its forward operator keeps, both
    shared by every noise level (see :func:`_pencil`).
    """

    fwd: Operator
    prior: GaussianPrior
    s: float
    d: int
    delta: float
    hypothesis_messages: tuple[str, ...] = field(init=False)

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

    ``sqrt_cov`` is the Hermitian root C^{1/2}, the one that sampling reads.  It is
    built on the first read and kept: :func:`fields.operator_sqrt` of C, the
    pointwise root of a multiplier C or one ``eigh`` of a dense C in the cosine/sine
    basis.  So for a dense model a covariance that is not positive definite raises
    ValueError at that read, not in :func:`posterior`.
    """

    mean: SpectralField
    cov: Operator

    @cached_property
    def sqrt_cov(self) -> Operator:
        return operator_sqrt(self.cov)


def _is_diagonal(model: GaussianModel) -> bool:
    return isinstance(model.fwd, MultiplierOp) and isinstance(model.prior.cov, MultiplierOp)


def _kept(store: dict, key, make):
    """``store[key]``: the array or tuple of arrays ``make()`` returns, made on first use,
    each array read-only.  The package's one memo."""
    with _DIAG_LOCK:
        value = store.get(key)
        if value is None:
            value = make()
            for arr in value if isinstance(value, tuple) else (value,):
                arr.setflags(write=False)
            store[key] = value
    return value


def _symbol(op: MultiplierOp, lattice: FrequencyLattice) -> np.ndarray:
    """The symbol of ``op`` on ``lattice``, evaluated once per operator and lattice."""
    # a copy, so freezing it never touches an array the symbol function keeps
    return _kept(op._cs, ("symbol", lattice), lambda: np.array(symbol_values(op, lattice)))


def _prior_symbol(cov: MultiplierOp, lattice: FrequencyLattice) -> np.ndarray:
    """The prior covariance symbol c_U on ``lattice``, which must be strictly positive real
    (:func:`fields._positive_real`); evaluated once per operator and lattice."""
    return _kept(cov._cs, ("prior symbol", lattice),
                 lambda: np.array(_positive_real(symbol_values(cov, lattice))))


def _hermitian(c: np.ndarray, lattice: FrequencyLattice) -> np.ndarray:
    """The multiplier symbol ``c`` on ``lattice``; raises ValueError unless c(-l) = conj(c(l)),
    as for a multiplier that maps real fields to real fields: a real c must be even in l."""
    if np.abs(c - np.conj(c[lattice.conj_index])).max() > _CS_REAL_TOL * np.abs(c).max():
        raise ValueError("operator does not map real fields to real fields")
    return c


def _prior_form(cov: Operator, lattice: FrequencyLattice) -> np.ndarray:
    """Q C_U Q^H on ``lattice``, built once per operator and lattice, read-only.

    A strictly positive multiplier symbol c_U gives K values in cosine/sine order (Q
    diag(c_U) Q^H is diagonal); a dense C_U the real K x K matrix.  Raises ValueError
    unless C_U maps real fields to real fields: a multiplier symbol must be even in l.
    """
    def make() -> np.ndarray:
        if isinstance(cov, MultiplierOp):
            return _hermitian(_prior_symbol(cov, lattice), lattice)[_cosine_sine_modes(lattice)[0]]
        return _to_cosine_sine(lattice, densify(cov, lattice).matrix)

    return _kept(cov._cs, ("prior form", lattice), make)


def _diag_weights(model: GaussianModel, lattice: FrequencyLattice):
    """The forward symbol a, |a|^2 and delta^2 / c_U of a diagonal ``model`` on ``lattice``,
    from the symbols :func:`_symbol` and :func:`_prior_symbol` keep on the operators."""
    a = _symbol(model.fwd, lattice)
    return a, np.abs(a) ** 2, model.delta**2 / _prior_symbol(model.prior.cov, lattice)


def _values(op: Operator, lattice: FrequencyLattice) -> np.ndarray:
    """The symbol of a multiplier on ``lattice``, kept on it (:func:`_symbol`), or the
    matrix of a dense operator."""
    return _symbol(op, lattice) if isinstance(op, MultiplierOp) else densify(op, lattice).matrix


def _classes(*forms: np.ndarray) -> list[np.ndarray]:
    """The connected components of the graph joining i and j where |m_ij| exceeds
    _COUPLING_TOL times the largest |m| of a symmetric K x K matrix m of ``forms`` (K values
    couple none): each its coordinates in increasing order, in the order of their first.
    A breadth-first search reads its frontier's rows 64 at a time and ends a step once all
    are reached: a graph that couples every coordinate costs a pass for the largest |m| and
    a few rows, a split one each row once.  S is exactly symmetric; a dense prior form's
    rounding moves an entry across the threshold only within the threshold's perturbation."""
    mats = [(m, _COUPLING_TOL * max(m.max(), -m.min())) for m in forms if m.ndim == 2]
    label, classes = np.full(len(forms[0]), -1), []
    while (rest := np.flatnonzero(label < 0)).size:
        label[rest[0]], front = len(classes), rest[:1]
        while front.size:
            near = label >= 0
            for lo in range(0, front.size, 64):
                if near.all():
                    break
                for m, tol in mats:
                    near |= np.any(np.abs(m[front[lo:lo + 64]]) > tol, axis=0)
            front = np.flatnonzero(near & (label < 0))
            label[front] = len(classes)
        classes.append(np.flatnonzero(label == len(classes)))
    return classes


def _pencil(model: GaussianModel, lattice: FrequencyLattice) -> tuple:
    """The pencil (G, C_U^{-1}) of a model that is not diagonal, in the cosine/sine basis:
    per class of coordinates idx that S and C_U couple (:func:`_classes`), a real block
    [lam; F] of idx.size + 1 rows, F^T C_U^{-1} F = I and F^T G F = diag(lam), lam >= 0.

    F = R V for R R^T = C_U (the root of the K values of :func:`_prior_form`, else its
    Cholesky factor) and one ``eigh`` per class S = (A_cs R)^T (A_cs R) = V diag(lam) V^T.
    A map phi A, A a multiplier, couples l only with l + supp phi_hat, so S splits; its
    entries below _COUPLING_TOL of its largest are dropped.  The forward operator keeps the
    classes per lattice, read-only, with the prior form they were built for: a prior of
    equal form reads them, any other replaces them.  Raises ValueError unless C_U is
    positive definite and A and C_U map real fields to real fields.
    """
    fwd, c_form = model.fwd, _prior_form(model.prior.cov, lattice)
    with _DIAG_LOCK:
        kept = fwd._cs.get(("pencil", lattice))
        if kept is not None and (kept[0] is c_form or np.array_equal(kept[0], c_form)):
            return kept[1]
        fwd._cs.pop(("pencil", lattice), None)  # the old blocks are freed before new ones
        try:
            root = np.sqrt(c_form) if c_form.ndim == 1 else np.linalg.cholesky(c_form)
        except np.linalg.LinAlgError as exc:
            raise ValueError("prior covariance not positive definite") from exc
        a = _values(fwd, lattice)
        a_cs = _to_cosine_sine(lattice, np.diag(a) if a.ndim == 1 else a)
        a_cs = np.multiply(a_cs, root, out=a_cs) if root.ndim == 1 else a_cs @ root  # B = A_cs R
        s = a_cs.T @ a_cs
        del a_cs  # each K x K temporary is dropped as soon as it is used
        # the kept blocks come before the eigh temporaries: a kept K x K block made after
        # A_cs pinned the heap above its hole (dense-vc benchmark peak RSS 126 -> 142 MiB, glibc)
        pencil = tuple((idx, np.empty((idx.size + 1, idx.size))) for idx in _classes(s, c_form))
        for idx, block in pencil:
            whole = idx.size == lattice.size  # one class: the arithmetic of the whole pencil
            lam, vecs = np.linalg.eigh(s if whole else s[np.ix_(idx, idx)])
            block[0] = np.maximum(lam, 0.0)  # S is semidefinite: rounding clipped
            if root.ndim == 1:
                np.multiply(root[idx, None], vecs, out=block[1:])
            else:
                np.matmul(root if whole else root[np.ix_(idx, idx)], vecs, out=block[1:])
            idx.setflags(write=False)
            block.setflags(write=False)
        del s
        fwd._cs["pencil", lattice] = (c_form, pencil)
    return pencil


def _pencil_coords(model: GaussianModel, lattice: FrequencyLattice, rows, data=False) -> np.ndarray:
    """An (n, K) stack ``rows`` in the coordinates of the pencil (:func:`_pencil`) of a model
    that is not diagonal, each class's columns in place in cosine/sine order: g = F^T Q A^H m
    for data rows m (``data``), through one product with A, else h = F^{-1} Q u for fields u,
    (u_cs / c_U) F or a solve with F per class for a dense prior.  Real: rows that are complex
    in the cosine/sine basis give n rows of their real parts, then n of their imaginary parts."""
    pencil = _pencil(model, lattice)
    if data:  # A^H M through one product with A, with no conjugate copy of A
        a = _values(model.fwd, lattice)
        rows = np.conj(a) * rows if a.ndim == 1 else (rows.conj() @ a).conj()
    x = _rows_to_cosine_sine(lattice, rows)
    if np.iscomplexobj(x):
        x = np.concatenate([x.real, x.imag])
    c_form = _prior_form(model.prior.cov, lattice)
    if not data and c_form.ndim == 1:
        x /= c_form
    for idx, block in pencil:  # in place per class; solve: a 2-d b, as numpy 1 and 2 agree
        x[:, idx] = (x[:, idx] @ block[1:] if data or c_form.ndim == 1
                     else np.linalg.solve(block[1:], x[:, idx].T).T)
    return x


def _pencil_field(model: GaussianModel, lattice: FrequencyLattice, y, factor) -> np.ndarray:
    """The K coefficients Q^H F (factor y / (lam + delta^2)) at the noise level of ``model`` of
    one row y of pencil coordinates (:func:`_pencil_coords`), or of two, its real and imaginary
    parts; ``take`` gathers them in C order, the layout that sets how the products round."""
    d2, x = model.delta**2, np.empty(y.shape)
    for idx, block in _pencil(model, lattice):
        x[:, idx] = factor * y.take(idx, axis=1) / (block[0] + d2) @ block[1:].T
    return _rows_from_cosine_sine(lattice, x[:1] + 1j * x[1:] if len(x) == 2 else x)[0]


@np.errstate(invalid="ignore", over="ignore")  # an inf datum: 0 * inf, a mean not finite
def map_estimate(model: GaussianModel, m: SpectralField) -> SpectralField:
    """Posterior mean (equals the MAP point for this Gaussian conjugate pair).

    The per-frequency formula conj(a) m_hat / (|a|^2 + delta^2 / c_U) for a diagonal model,
    else Q^H F (g / (lam + delta^2)) for the coordinates g = F^T Q A^H m of the data
    (:func:`_pencil_coords`) in the pencil of the forward map and prior, built on first use
    and shared by every noise level.  The mean it returns is finite in every entry; raises
    SolverError if it is not, as for data with a NaN coefficient.
    """
    lattice = m.lattice
    if _is_diagonal(model):
        a, asq, prec = _diag_weights(model, lattice)
        mean = np.conj(a) * m.coeffs / (asq + prec)
    else:
        g = _pencil_coords(model, lattice, m.coeffs[None], data=True)
        mean = _pencil_field(model, lattice, g, 1.0)
    if not np.isfinite(mean).all():
        raise SolverError("posterior mean not finite", [])
    return SpectralField(lattice, mean)


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
    Dense: F diag(delta^2 / (lam + delta^2)) F^T of the kept pencil, from one product.
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

    Always dense; unlike the precision form it never inverts C_U or A and never
    enters the cosine/sine basis, so it also covers singular forward operators and
    maps that do not keep real fields real.  An oracle for the precision
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
        diag = _positive_real(symbol_values(cov, lattice))
    return float(np.sum(sobolev_weight(lattice, q) * diag))


def _cov_factor(model: GaussianModel, lattice: FrequencyLattice, noise: bool = False) -> list:
    """Per class (idx, X) of the pencil, X = F diag(delta / sqrt(lam + delta^2)): the blocks
    X X^T of the posterior covariance C_cs, 0 elsewhere, of a model that is not diagonal.
    ``noise`` adds F diag(delta^2 lam / (lam + delta^2)^2) F^T, that of the mean's data noise."""
    d2 = model.delta**2
    return [(idx, block[1:] * (model.delta * np.sqrt(2.0 * block[0] + d2) / (block[0] + d2)
                               if noise else model.delta / np.sqrt(block[0] + d2)))
            for idx, block in _pencil(model, lattice)]


def _cov_cs(model: GaussianModel, lattice: FrequencyLattice) -> np.ndarray:
    """C_cs from the blocks X X^T of :func:`_cov_factor`, which numpy forms exactly symmetric."""
    parts = _cov_factor(model, lattice)
    if len(parts) == 1:
        return parts[0][1] @ parts[0][1].T
    c_cs = np.zeros((lattice.size,) * 2)
    for idx, x in parts:
        c_cs[np.ix_(idx, idx)] = x @ x.T
    return c_cs


def _dense_cov(model: GaussianModel, lattice: FrequencyLattice, c_cs: np.ndarray) -> DenseOp:
    """Q^H C_cs Q as an operator, exactly Hermitian by construction
    (:func:`_from_cosine_sine`)."""
    return DenseOp(lattice, _Handover(_from_cosine_sine(lattice, c_cs)),
                   model.prior.cov.order_t, model.prior.cov.order_t0,
                   f"postcov({model.fwd.label})")


def _trace_ball(model: GaussianModel, lattice: FrequencyLattice, zeta: float,
                offsets: bool = True, noise: bool = False) -> tuple[float, MultiplierBall]:
    """The H^zeta trace of the posterior covariance C on ``lattice`` and the exact law of the
    H^zeta ball statistic |C^{1/2} xi + o|^2 for spectral white noise xi, both read from one
    real root of C in the cosine/sine basis and the H^zeta weights in cosine/sine order.

    A diagonal model reads its weights: c = delta^2 / (|a|^2 + delta^2 / c_U), the trace
    sum_l w_l c_l and the root sqrt(c) as K values, the variance of a mode's cosine and of
    its sine.  That needs c even in l: a c that is not raises ValueError, as a prior that is
    not does for a dense model.  A dense model takes the class blocks (idx, X) of
    :func:`_cov_factor`, a real root of C_cs: Q^H X z for z = Q xi real standard normal has
    the law of C^{1/2} xi, the trace is sum_j w_j |X_j|^2 over the rows X_j.  With ``noise``
    the covariance is C + N N^H, that of C^{1/2} xi + N e over the data noise e too, N e the
    mean's data-noise part: per mode c = delta^2 (D + |a|^2) / D^2, D = |a|^2 + delta^2 / c_U,
    which needs a forward symbol that keeps real fields real.

    The law keeps O(G + T + n) numbers beyond its K-sized term indices (see
    :class:`MultiplierBall`).  A dense law that reads offsets also keeps a projection, a
    block per class; with ``offsets`` False a dense law is eigenvalues only and reads central
    tails, while a diagonal one, whose projection is K values, reads offsets either way.
    """
    w = sobolev_weight(lattice, zeta)
    order = _cosine_sine_modes(lattice)[0]
    if _is_diagonal(model):
        a, asq, prec = _diag_weights(model, lattice)
        denom = asq + prec
        if noise:
            _hermitian(a, lattice)
            c = model.delta**2 * (denom + asq) / denom**2
        else:
            c = model.delta**2 / denom
        c = _hermitian(c, lattice)
        trace, root, w = float(np.sum(w * c)), np.sqrt(c)[order], w[order]
    else:
        root, w = _cov_factor(model, lattice, noise), w[order]
        trace = float(sum(w[idx] @ np.einsum("ij,ij->i", x, x) for idx, x in root))
    return trace, MultiplierBall(root, w, lattice, offsets)


def _biases(models, lattice: FrequencyLattice, u: np.ndarray):
    """E mean - u over the data noise for the truth coefficients ``u``, a row at a time, one
    per model of a set that shares one forward map and prior: -(p / D) u mode by mode for
    diagonal models, p = delta^2 / c_U and D = |a|^2 + p, else Q^H F (-delta^2 h / (lam +
    delta^2)) for the pencil coordinates h = F^{-1} Q u (:func:`_pencil_coords`), formed
    once at the call: no mean, no product with A."""
    model = models[0]
    if any(m.fwd != model.fwd or m.prior.cov != model.prior.cov for m in models):
        raise ValueError("biases need models that share one forward map and prior")
    if _is_diagonal(model):  # a map, unlike a generator, keeps no row's weights past its row
        weights = (_diag_weights(mdl, lattice) for mdl in models)
        return map(lambda w: -(w[2] / (w[1] + w[2])) * u, weights)
    h = _pencil_coords(model, lattice, u[None])
    return (_pencil_field(mdl, lattice, h, -mdl.delta**2) for mdl in models)


def _noise_trace(model: GaussianModel, lattice: FrequencyLattice) -> float:
    """E |N e|^2 for the data-noise part N e of the posterior mean: sum_l delta^2 |a|^2 / D^2
    for a diagonal model, else delta^2 sum_k lam_k |F_k|^2 / (lam_k + delta^2)^2 over the
    columns F_k of the pencil's classes."""
    d2 = model.delta**2
    if _is_diagonal(model):
        _, asq, prec = _diag_weights(model, lattice)
        return float(np.sum(d2 * asq / (asq + prec) ** 2))
    return float(sum(d2 * (b[0] / (b[0] + d2) ** 2) @ np.einsum("jk,jk->k", b[1:], b[1:])
                     for _, b in _pencil(model, lattice)))


def posterior(model: GaussianModel, m: SpectralField) -> PosteriorGaussian:
    """Assemble mean and covariance for one measurement; the root comes on first read.

    The mean is exactly ``map_estimate(model, m)`` and the covariance
    ``posterior_covariance(model, m.lattice)``: for a dense model one product
    with the kept pencil, and no ``eigh`` once the pencil is kept.  The Hermitian
    root ``sqrt_cov`` is built when it is first read (see :class:`PosteriorGaussian`).
    """
    return PosteriorGaussian(map_estimate(model, m), posterior_covariance(model, m.lattice))


def sample_posterior(post: PosteriorGaussian, seed=None) -> SpectralField:
    """One draw mean + C^{1/2} xi with xi spectral white noise, from the Hermitian root
    of :func:`posterior`; acceptance criterion 9 and ``TestSampling`` check its law."""
    noise = sample_white_noise(post.mean.lattice, seed)
    return post.mean + apply(post.sqrt_cov, noise)
