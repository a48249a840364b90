"""Fourier multiplier operators and small dense operators on lattice fields.

A :class:`MultiplierOp` acts diagonally in frequency, ``(Au)^(l) = a(l) u^(l)``.
Its symbol takes the whole :class:`FrequencyLattice`, so it reads |l|^2 and the
Sobolev weights from ``lattice.py`` instead of squaring frequencies again.  It
carries a declared decay-order pair ``(t, t0)`` with ``t <= t0``: the symbol is
supposed to satisfy the two-sided bound

    c1 (1 + |l|)^{-t0}  <=  |a(l)|  <=  c2 (1 + |l|)^{-t).

An operator with ``t = t0`` is elliptic; ``t < t0`` means the decay is
direction dependent (hypoelliptic), as for the inverse heat operator whose
symbol is ``(1 + i l_t + |l_x|^2)^{-1}`` with orders (1, 2), real on the
time-Nyquist plane so that it maps real fields to real fields.

A :class:`DenseOp` is an explicit matrix acting on the flat coefficient
vector; it is the backend for variable-coefficient perturbations and is
capped at MAX_DENSE unknowns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .lattice import FrequencyLattice, SpectralField, _white_coeffs, build_lattice, sobolev_weight

__all__ = [
    "MultiplierOp",
    "DenseOp",
    "Operator",
    "bessel_op",
    "heat_op",
    "apply",
    "compose",
    "adjoint",
    "invert",
    "densify",
    "symbol_values",
    "variable_coeff_op",
    "hypoellipticity_check",
    "hypoellipticity_refinement",
    "norm_sandwich_check",
]

MAX_DENSE = 4096


@dataclass(frozen=True)
class MultiplierOp:
    """Fourier multiplier with declared decay orders.

    ``symbol`` maps a :class:`FrequencyLattice` to its K symbol values, one
    per mode in lattice order.  ``order_t`` is the upper decay order (the
    weakest decay the symbol is allowed), ``order_t0 >= order_t`` the lower one.
    ``_cs`` holds what the posterior solves and runners read, per lattice, each
    evaluated once: the K symbol values of a forward map or a prior root
    ("symbol") or the real ones of a prior covariance ("prior symbol"); and, as
    :class:`DenseOp` does, what a model with a dense partner reads: the
    cosine/sine form of a prior covariance symbol c ("prior form"; K values
    when even in l, else a K x K matrix) and the pencil of a forward map
    ("pencil").  Not part of repr, equality or hash.
    """

    symbol: Callable[[FrequencyLattice], np.ndarray]
    order_t: float
    order_t0: float
    label: str = ""
    _cs: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.order_t > self.order_t0:
            raise ValueError(
                f"order_t ({self.order_t}) must not exceed order_t0 ({self.order_t0})"
            )


class _Handover:
    """A matrix just made by this package, which no caller keeps: :class:`DenseOp`
    freezes it instead of copying it."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix


@dataclass(frozen=True, eq=False)
class DenseOp:
    """Explicit matrix on the flat coefficient vector of one lattice.

    The matrix is a read-only copy, except for one that a producer in this
    package hands over in a :class:`_Handover`, which is taken as is.
    ``_cs`` holds what the posterior solves read in the cosine/sine basis of
    ``lattice.py``: ("pencil", lattice), the pencil decomposition of a forward
    map with the prior form it was built for, and ("prior form", lattice),
    Q M Q^H for a prior covariance.  Each is built on first use, read-only,
    and kept once per operator (one pencil, replaced when the prior changes);
    the field is not part of repr or equality.
    """

    lattice: FrequencyLattice
    matrix: np.ndarray
    order_t: float = 0.0
    order_t0: float = 0.0
    label: str = ""
    _cs: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.lattice.size > MAX_DENSE:
            raise ValueError(
                f"dense operators are capped at {MAX_DENSE} unknowns, "
                f"lattice has {self.lattice.size}"
            )
        mat = self.matrix
        m = (np.asarray(mat.matrix, dtype=np.complex128) if isinstance(mat, _Handover)
             else np.array(mat, dtype=np.complex128))
        if m.shape != (self.lattice.size, self.lattice.size):
            raise ValueError(f"matrix shape {m.shape} does not match lattice")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if self.order_t > self.order_t0:
            raise ValueError("order_t must not exceed order_t0")


Operator = Union[MultiplierOp, DenseOp]


def symbol_values(op: MultiplierOp, lattice: FrequencyLattice) -> np.ndarray:
    """Evaluate the symbol on all lattice frequencies."""
    vals = np.asarray(op.symbol(lattice))
    if vals.shape != (lattice.size,):
        raise ValueError(
            f"symbol returned shape {vals.shape}, expected ({lattice.size},)"
        )
    return vals.astype(np.complex128, copy=False)


def bessel_op(a: float) -> MultiplierOp:
    """Bessel-type multiplier ``(1 + |l|^2)^a``.

    Smoothing of order ``-2a``: for ``a <= 0`` this is the standard order
    pair ``(-2a, -2a)`` elliptic example; ``bessel_op(0)`` is the identity.
    """
    return MultiplierOp(lambda lat: sobolev_weight(lat, a), order_t=-2.0 * a, order_t0=-2.0 * a,
                        label=f"bessel({a:g})")


def heat_op(spatial_dim: int) -> MultiplierOp:
    """Inverse heat-type multiplier ``(1 + i l_t + |l_x|^2)^{-1}``.

    Acts on a lattice of dimension ``spatial_dim + 1`` whose last axis is
    time, with |l_x|^2 = |l|^2 - l_t^2.  Decay is anisotropic, order pair
    (1, 2): like ``(1+|l|)^{-1}`` along the time axis but ``(1+|l|)^{-2}`` in
    space.  On the time-Nyquist plane l_t = -n/2, where l and -l share l_t, the
    grid mode samples the real cos(n t / 2), on which the continuum operator
    acts as Re a; taking Re a there maps real fields to real fields.
    """
    if spatial_dim not in (1, 2):
        raise ValueError("spatial_dim must be 1 or 2 (lattice dim is spatial_dim + 1)")

    def sym(lat: FrequencyLattice) -> np.ndarray:
        if lat.dim != spatial_dim + 1:
            raise ValueError(f"heat_op({spatial_dim}) needs a dim-{spatial_dim + 1} lattice")
        lt = lat.freqs[:, -1].astype(np.float64)
        vals = 1.0 / (1.0 + 1j * lt + (lat.weights - lt**2))
        return np.where(lt == -lat.n_per_dim / 2, vals.real, vals)

    return MultiplierOp(sym, order_t=1.0, order_t0=2.0, label=f"heat({spatial_dim})")


def apply(op: Operator, u: SpectralField) -> SpectralField:
    """Apply an operator to a spectral field."""
    if isinstance(op, MultiplierOp):
        return SpectralField(u.lattice, symbol_values(op, u.lattice) * u.coeffs)
    if op.lattice != u.lattice:
        raise ValueError("operator and field live on different lattices")
    return SpectralField(u.lattice, op.matrix @ u.coeffs)


def compose(op1: Operator, op2: Operator) -> Operator:
    """Composition ``op1 o op2`` (op2 applied first).

    Smoothing orders add.  Composing with a dense operator yields a dense
    operator on its lattice.
    """
    t = op1.order_t + op2.order_t
    t0 = op1.order_t0 + op2.order_t0
    label = f"{op1.label}*{op2.label}"
    if isinstance(op1, MultiplierOp) and isinstance(op2, MultiplierOp):
        s1, s2 = op1.symbol, op2.symbol
        return MultiplierOp(lambda lat: np.asarray(s1(lat)) * np.asarray(s2(lat)), t, t0, label)
    if isinstance(op1, DenseOp) and isinstance(op2, DenseOp):
        if op1.lattice != op2.lattice:
            raise ValueError("cannot compose dense operators on different lattices")
        return DenseOp(op1.lattice, op1.matrix @ op2.matrix, t, t0, label)
    if isinstance(op1, MultiplierOp):
        vals = symbol_values(op1, op2.lattice)
        return DenseOp(op2.lattice, vals[:, None] * op2.matrix, t, t0, label)
    vals = symbol_values(op2, op1.lattice)
    return DenseOp(op1.lattice, op1.matrix * vals[None, :], t, t0, label)


def adjoint(op: Operator) -> Operator:
    """L2 adjoint: conjugate symbol, or conjugate transpose matrix."""
    if isinstance(op, MultiplierOp):
        s = op.symbol
        return MultiplierOp(lambda lat: np.conj(np.asarray(s(lat))), op.order_t, op.order_t0,
                            f"adj({op.label})")
    return DenseOp(
        op.lattice, op.matrix.conj().T, op.order_t, op.order_t0, f"adj({op.label})"
    )


def invert(op: Operator) -> Operator:
    """Inverse operator; order pair swaps sign and position: (t, t0) -> (-t0, -t)."""
    if isinstance(op, MultiplierOp):
        s = op.symbol

        def sym(lat: FrequencyLattice) -> np.ndarray:
            vals = np.asarray(s(lat))
            if np.any(vals == 0):
                raise ValueError("symbol vanishes on the lattice, not invertible")
            return 1.0 / vals

        return MultiplierOp(sym, -op.order_t0, -op.order_t, f"inv({op.label})")
    try:
        minv = np.linalg.inv(op.matrix)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"dense operator {op.label!r} is singular") from exc
    resid = np.max(np.abs(op.matrix @ minv - np.eye(op.lattice.size)))
    if resid > 1e-8 * op.lattice.size:
        raise ValueError(
            f"dense operator {op.label!r} is numerically singular "
            f"(inverse residual {resid:.2e})"
        )
    return DenseOp(op.lattice, minv, -op.order_t0, -op.order_t, f"inv({op.label})")


def densify(op: Operator, lattice: FrequencyLattice) -> DenseOp:
    """Materialise an operator as a dense matrix on the given lattice."""
    if isinstance(op, DenseOp):
        if op.lattice != lattice:
            raise ValueError("dense operator already bound to a different lattice")
        return op
    mat = _Handover(np.diag(symbol_values(op, lattice)))
    return DenseOp(lattice, mat, op.order_t, op.order_t0, op.label)


def variable_coeff_op(
    phi_values, m: MultiplierOp, lattice: FrequencyLattice
) -> DenseOp:
    """Variable-coefficient operator ``u -> phi . (m u)`` as a dense matrix.

    ``phi_values`` is a finite, strictly positive real field on the grid; the result
    is ``F diag(phi) F^{-1} diag(symbol)`` acting on coefficient vectors.
    Its entry (k, l) is gathered as phi_hat(k - l), phi_hat = fftn(phi) / K,
    frequency differences taken mod n per axis.  Multiplication by a smooth
    positive function preserves the decay-order pair of ``m``.
    """
    phi = np.asarray(phi_values, dtype=np.float64)
    if phi.size != lattice.size:
        raise ValueError(f"phi has {phi.size} samples, lattice needs {lattice.size}")
    if not np.all(np.isfinite(phi) & (phi > 0)):  # NaN fails every comparison
        raise ValueError("phi must be finite and strictly positive")
    n, d = lattice.n_per_dim, lattice.dim
    phi_hat = np.fft.fftn(phi.reshape(lattice.shape)) / lattice.size
    # (k_j - l_j) mod n, broadcast to axes j (of k) and d + j (of l) of an (n,)^(2d) array
    diff = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    index = tuple(diff.reshape((1,) * j + (n,) + (1,) * (d - 1) + (n,) + (1,) * (d - 1 - j))
                  for j in range(d))
    mat = phi_hat[index].reshape(lattice.size, lattice.size)
    mat *= symbol_values(m, lattice)[None, :]
    return DenseOp(lattice, _Handover(mat), m.order_t, m.order_t0, f"phi*{m.label}")


# ---------------------------------------------------------------------------
# order-declaration diagnostics


@dataclass(frozen=True)
class HypoCheck:
    n_per_dim: int
    t: float
    t0: float
    c1: float
    c2: float
    passed: bool


@dataclass(frozen=True)
class HypoRefinement:
    checks: tuple[HypoCheck, ...]
    c1_slope: float
    c2_slope: float
    passed: bool


def hypoellipticity_check(
    op: MultiplierOp,
    lattice: FrequencyLattice,
    t: float | None = None,
    t0: float | None = None,
) -> HypoCheck:
    """Empirical sandwich constants for the declared (or given) decay orders.

    Returns ``c1 = min |a| (1+|l|)^{t0}`` and ``c2 = max |a| (1+|l|)^{t}``
    over the lattice, with the (1 + |l|) bracket convention.  On a single
    lattice the check passes when both constants are finite and positive;
    whether the declaration is honest shows up in how the constants move
    under refinement, see :func:`hypoellipticity_refinement`.
    """
    if not isinstance(op, MultiplierOp):
        raise TypeError("hypoellipticity_check applies to multiplier operators")
    t = op.order_t if t is None else t
    t0 = op.order_t0 if t0 is None else t0
    absa = np.abs(symbol_values(op, lattice))
    bracket = 1.0 + np.sqrt(lattice.weights)
    c1 = float(np.min(absa * bracket**t0))
    c2 = float(np.max(absa * bracket**t))
    passed = c1 > 0 and np.isfinite(c2)
    return HypoCheck(lattice.n_per_dim, t, t0, c1, c2, passed)


def hypoellipticity_refinement(
    op: MultiplierOp,
    dim: int,
    sizes: tuple[int, ...] = (32, 64, 128),
    t: float | None = None,
    t0: float | None = None,
    max_slope: float = 0.2,
) -> HypoRefinement:
    """Test declared orders by tracking the sandwich constants under refinement.

    Fits the log-log growth of c2 and decay of c1 against the lattice size.
    An honest declaration keeps both roughly constant; an overstated upper
    decay order makes c2 grow like a power of n and the fit slope exceeds
    ``max_slope``.
    """
    if len(sizes) < 2:
        raise ValueError("need at least two lattice sizes")
    checks = tuple(
        hypoellipticity_check(op, build_lattice(dim, n), t=t, t0=t0) for n in sizes
    )
    logn = np.log([c.n_per_dim for c in checks])
    c2_slope = float(np.polyfit(logn, np.log([c.c2 for c in checks]), 1)[0])
    c1_slope = float(np.polyfit(logn, np.log([c.c1 for c in checks]), 1)[0])
    passed = (
        all(c.passed for c in checks)
        and c2_slope <= max_slope
        and c1_slope >= -max_slope
    )
    return HypoRefinement(checks, c1_slope, c2_slope, passed)


@dataclass(frozen=True)
class SandwichReport:
    sizes: tuple[int, ...]
    upper_max: tuple[float, ...]
    lower_max: tuple[float, ...]
    upper_growth: float
    lower_growth: float
    passed: bool


def norm_sandwich_check(
    op: Operator,
    r: float,
    t: float,
    t0: float,
    n_samples: int = 8,
    dim: int = 1,
    sizes: tuple[int, ...] = (16, 32, 64),
    seed: int = 0,
) -> SandwichReport:
    """Check the two-sided norm bound linking ``u`` and ``A*A u``.

    ``op`` is the normal operator ``A*A`` of a forward map with decay orders
    ``(t, t0)``.  For each lattice size the two ratios

        ``|A*A u|_{H^{r+2t}} / |u|_{H^r}``   and   ``|u|_{H^r} / |A*A u|_{H^{r+2t0}}``

    are maximised over ``n_samples`` white-noise fields plus every single
    frequency mode; the single-mode probes realise the supremum for
    multipliers, which random fields alone would smear out over directions.
    Passes when both maxima stay within a factor 2 across the size sweep.
    """
    rng = np.random.default_rng(seed)
    if isinstance(op, DenseOp):
        sizes = (op.lattice.n_per_dim,)
        dim = op.lattice.dim

    def ratio_maxima(lat, u_norms, images):
        """Largest |A*A u|_{r+2t} / |u|_r and |u|_r / |A*A u|_{r+2t0}."""
        sq = np.abs(images)
        sq *= sq
        nu, nl = (np.sqrt(sobolev_weight(lat, r + 2 * s) @ sq) for s in (t, t0))
        return (float(np.max(nu[nu > 0] / u_norms[nu > 0], initial=0.0)),
                float(np.max(u_norms[nl > 0] / nl[nl > 0], initial=0.0)))

    up_max, lo_max = [], []
    for n in sizes:
        lat = op.lattice if isinstance(op, DenseOp) else build_lattice(dim, n)
        probes = _white_coeffs(lat, rng, n_samples).T
        if isinstance(op, MultiplierOp):
            vals = symbol_values(op, lat)
            absa = np.abs(vals)
            if np.any(absa == 0):
                raise ValueError("normal operator symbol vanishes on the lattice")
            # single-mode ratios in closed form; the H^r weight cancels
            up = float(np.max(absa * sobolev_weight(lat, t)))
            lo = float(np.max(sobolev_weight(lat, -t0) / absa))
            images = vals[:, None] * probes
        else:
            # the image of single mode i is column i of the matrix
            up, lo = ratio_maxima(lat, sobolev_weight(lat, r / 2), op.matrix)
            images = op.matrix @ probes
        u_norms = np.sqrt(sobolev_weight(lat, r) @ np.abs(probes) ** 2)
        up_p, lo_p = ratio_maxima(lat, u_norms, images)
        up_max.append(max(up, up_p))
        lo_max.append(max(lo, lo_p))
    up_growth = up_max[-1] / up_max[0]
    lo_growth = lo_max[-1] / lo_max[0]
    passed = up_growth < 2.0 and lo_growth < 2.0
    return SandwichReport(
        tuple(sizes), tuple(up_max), tuple(lo_max), up_growth, lo_growth, passed
    )
