"""Random fields on the discrete torus: white noise, Gaussian priors, norms.

White noise is sampled so that the basis coefficients are i.i.d. standard
complex-normal subject to the Hermitian pairing: real modes get variance 1,
conjugate pairs get independent N(0, 1/2) real and imaginary parts.  This is
exactly the law of ``fftn(z) / sqrt(K)`` for ``z`` an i.i.d. standard normal
grid array, drawn for every sampler by the one kernel ``lattice._white_coeffs``:
:func:`sample_white_noise`, Monte Carlo ball counts and norm-check probes.  The
pairing holds bit for bit: coeff(-l) is the exact conjugate of coeff(l), and a
self-conjugate mode is exactly real, so :func:`sample_prior` under a real even
covariance symbol draws exactly Hermitian coefficients too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import (
    FrequencyLattice,
    SpectralField,
    _from_cosine_sine,
    _to_cosine_sine,
    _white_coeffs,
    build_lattice,
    sobolev_norm,
    sobolev_weight,
)
from .operators import DenseOp, MultiplierOp, Operator, _Handover, apply, symbol_values

__all__ = [
    "sample_white_noise",
    "operator_sqrt",
    "GaussianPrior",
    "gaussian_prior",
    "sample_prior",
    "sobolev_norm",
    "prior_trace_check",
    "TraceCheck",
]


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_white_noise(lattice: FrequencyLattice, seed=None) -> SpectralField:
    """Draw spectral white noise with unit-variance coefficients."""
    return SpectralField(lattice, _white_coeffs(lattice, _rng(seed)))


@dataclass(frozen=True)
class GaussianPrior:
    """Mean-zero Gaussian measure with covariance operator ``cov``.

    ``r`` is the decay order: the covariance symbol behaves like
    ``(1 + |l|)^(-2r)``, i.e. order pair ``(2r, 2r)``.  ``sqrt_cov``
    satisfies sqrt_cov @ sqrt_cov^H = cov and is what sampling uses.
    """

    cov: Operator
    r: float
    sqrt_cov: Operator


# rows of Xi per product when _hermitian_gram forms T = Xi Xr^T
_GRAM_BLOCK = 64


def _hermitian_gram(x: np.ndarray) -> np.ndarray:
    """X X^H, exactly Hermitian.  A real X takes the one product X X^T, which numpy forms
    exactly symmetric; a complex one the real products Re = Y Y^T, for Y the (K, 2K) real
    view of X (Xr Xr^T + Xi Xi^T), and Im = T - T^T for T = Xi Xr^T.  T is formed from one
    contiguous copy of Xr, in blocks of ``_GRAM_BLOCK`` rows of Xi, so that beside X and
    the result only Xr and T are held in full."""
    if np.isrealobj(x):
        return x @ x.T
    x = np.ascontiguousarray(x)
    k = len(x)
    out = np.empty((k, k), dtype=np.complex128)
    y = x.view(np.float64)
    out.real = y @ y.T
    xr, t = np.ascontiguousarray(x.real), np.empty((k, k))
    for i in range(0, k, _GRAM_BLOCK):
        np.matmul(np.ascontiguousarray(x.imag[i:i + _GRAM_BLOCK]), xr.T, out=t[i:i + _GRAM_BLOCK])
    del xr
    np.subtract(t, t.T, out=out.imag)
    return out


def _hermitian_sqrt(mat: np.ndarray) -> np.ndarray:
    """M^{1/2} for M Hermitian positive definite, in the basis M is given in (the
    cosine/sine one for every caller); exactly Hermitian.  Map it back with
    ``lattice._from_cosine_sine`` for the root in the exponential basis.

    One ``eigh`` M = V diag(lam) V^H: real symmetric for a real ``mat``, and then
    every product is real too.  The root is F F^H (:func:`_hermitian_gram`) for
    F = V diag(lam^{1/4}), scaled in place in V.  Raises ValueError unless M is
    positive definite.
    """
    evals, evecs = np.linalg.eigh(mat)
    del mat  # each K x K temporary is dropped as soon as it is used
    if evals.min() <= 0:
        raise ValueError(f"covariance not positive definite (min eig {evals.min():g})")
    evecs *= np.sqrt(evals**0.5)  # F = V diag(lam^{1/4}): the root is F F^H
    return _hermitian_gram(evecs)


def _positive_real(vals) -> np.ndarray:
    """The real part of covariance symbol values, which must be strictly positive real: an
    imaginary part past 1e-12 of the largest modulus, or a real part <= 0, raises ValueError."""
    vals = np.asarray(vals, dtype=complex)
    if np.any(np.abs(vals.imag) > 1e-12 * np.abs(vals).max()) or np.any(vals.real <= 0):
        raise ValueError("covariance symbol must be strictly positive real")
    return vals.real


def operator_sqrt(cov: Operator) -> Operator:
    """Hermitian square root of a positive operator.

    Multiplier symbols must be strictly positive real and are rooted
    pointwise; dense matrices must be Hermitian positive definite and are
    factored by one eigendecomposition in the cosine/sine basis, a real
    symmetric one when the matrix maps real fields to real fields.
    """
    if isinstance(cov, MultiplierOp):
        base = cov.symbol

        def sqrt_symbol(lat: FrequencyLattice) -> np.ndarray:
            return np.sqrt(_positive_real(base(lat))).astype(complex)

        return MultiplierOp(
            sqrt_symbol, cov.order_t / 2.0, cov.order_t0 / 2.0,
            label=f"sqrt({cov.label})",
        )
    if isinstance(cov, DenseOp):
        m = cov.matrix
        herm_defect = np.abs(m - m.conj().T).max()
        if herm_defect > 1e-10 * max(1.0, np.abs(m).max()):
            raise ValueError("dense covariance must be Hermitian")
        root_mat = _from_cosine_sine(cov.lattice,
                                     _hermitian_sqrt(_to_cosine_sine(cov.lattice, m)))
        return DenseOp(
            cov.lattice, _Handover(root_mat), cov.order_t / 2.0, cov.order_t0 / 2.0,
            label=f"sqrt({cov.label})",
        )
    raise TypeError(f"unsupported covariance type {type(cov).__name__}")


def gaussian_prior(cov: Operator, r: float | None = None) -> GaussianPrior:
    """Build a prior from a positive covariance operator.

    The decay order ``r`` defaults to ``order_t / 2`` of the covariance,
    matching ``bessel_op(-r)`` whose order pair is ``(2r, 2r)``.
    """
    if not isinstance(cov, (MultiplierOp, DenseOp)):
        raise TypeError(f"unsupported covariance type {type(cov).__name__}")
    if r is None:
        r = cov.order_t / 2.0
    return GaussianPrior(cov, r, operator_sqrt(cov))


def sample_prior(prior: GaussianPrior, lattice: FrequencyLattice, seed=None) -> SpectralField:
    """Draw from the prior as sqrt_cov applied to white noise."""
    return apply(prior.sqrt_cov, sample_white_noise(lattice, seed))


@dataclass(frozen=True)
class TraceCheck:
    sizes: tuple[int, ...]
    partial_traces: tuple[float, ...]
    increment_slope: float
    converged: bool
    theory_convergent: bool
    eig_decay_slope: float
    eig_decay_predicted: float


def prior_trace_check(
    prior: GaussianPrior,
    tau: float,
    dim: int,
    sizes: tuple[int, ...] = (8, 16, 32, 64),
) -> TraceCheck:
    """Check whether the weighted trace sum_l (1+|l|^2)^tau c_U(l) converges.

    Lattice refinements give partial traces; convergence is detected from
    the slope of the log increments against log n (clearly negative means
    the tail is summable).  The largest lattice also yields an eigenvalue
    decay fit compared with the Weyl prediction -2 (r - tau) / d for the
    k-th largest weighted symbol value.
    """
    if not isinstance(prior.cov, MultiplierOp):
        raise TypeError("prior_trace_check needs a multiplier covariance")
    traces = []
    for n in sizes:
        lat = build_lattice(dim, n)
        weighted = sobolev_weight(lat, tau) * _positive_real(symbol_values(prior.cov, lat))
        traces.append(float(np.sum(weighted)))
        if n == max(sizes):
            largest = weighted
    incs = np.diff(traces)
    if np.any(incs <= 0):
        # nonincreasing partial traces: trivially summable tail
        increment_slope = -np.inf
        converged = True
    else:
        increment_slope = float(
            np.polyfit(np.log(np.asarray(sizes[1:], dtype=float)), np.log(incs), 1)[0]
        )
        converged = increment_slope < -0.25
    theory = tau < prior.r - dim / 2.0

    weighted = np.sort(largest)[::-1]
    k = np.arange(1, weighted.size + 1)
    # middle window dodges the flat head and the aliased corner tail
    lo, hi = weighted.size // 16 + 1, weighted.size // 4
    slope = float(np.polyfit(np.log(k[lo:hi]), np.log(weighted[lo:hi]), 1)[0])
    predicted = -2.0 * (prior.r - tau) / dim
    return TraceCheck(
        tuple(sizes), tuple(traces), increment_slope, converged, theory,
        slope, predicted,
    )
