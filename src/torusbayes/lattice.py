"""Frequency lattices and spectral fields on flat tori.

The torus is ``T^d = (R / 2 pi Z)^d`` with ``d`` in {1, 2, 3}, discretised by a
uniform grid of ``n`` points per axis.  Fields are represented by their
coefficients against the complex exponentials ``exp(i l . x)``, orthonormal
with respect to the normalised Haar measure ``(2 pi)^{-d} dx``.  With this
convention the constant field 1 has a single coefficient 1 at ``l = 0`` and
Parseval's identity reads ``sum |coeff|^2 = mean(|values|^2)`` exactly on the
grid.

Coefficients of a real field satisfy the Hermitian symmetry
``coeff(-l) = conj(coeff(l))``; the inverse transform verifies this before
discarding the imaginary residue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FrequencyLattice",
    "SpectralField",
    "build_lattice",
    "forward_transform",
    "inverse_transform",
    "sobolev_norm",
    "sobolev_weight",
]

# Tolerance for the Hermitian-symmetry check in inverse_transform, relative
# to max(1, max |coeff|).
HERMITIAN_TOL = 1e-10


@dataclass(frozen=True)
class FrequencyLattice:
    """Integer frequency lattice for a torus of dimension ``dim``.

    Frequencies are listed in FFT index order per axis
    (``0, 1, ..., n/2 - 1, -n/2, ..., -1``), flattened in C order, so the
    flat coefficient vector of a field reshapes directly to the numpy FFT
    layout.  Each frequency component lies in ``[-n/2, n/2)``.

    Attributes
    ----------
    dim : int
        Torus dimension, one of 1, 2, 3.
    n_per_dim : int
        Even number of grid points per axis, at least 4.
    freqs : (size, dim) int array
        Integer frequency vectors, derived, read-only.
    weights : (size,) float array
        Squared Euclidean norms ``|l|^2``, derived, read-only.
    """

    dim: int
    n_per_dim: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.n_per_dim < 4 or self.n_per_dim % 2 != 0:
            raise ValueError(
                f"n_per_dim must be even and >= 4, got {self.n_per_dim}"
            )
        n = self.n_per_dim
        axis = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
        grids = np.meshgrid(*([axis] * self.dim), indexing="ij")
        freqs = np.stack([g.ravel() for g in grids], axis=-1)
        freqs.setflags(write=False)
        weights = np.sum(freqs.astype(np.float64) ** 2, axis=1)
        weights.setflags(write=False)
        # index of -l for every l, used by the Hermitian-symmetry check
        idx = np.arange(freqs.shape[0])
        axes_idx = np.unravel_index(idx, self.shape)
        conj_index = np.ravel_multi_index(
            tuple((-ix) % n for ix in axes_idx), self.shape
        )
        conj_index.setflags(write=False)
        # the self-conjugate modes, the earlier member of each pair l, -l in flat order and
        # its mate -l (see _mode_groups)
        pair = idx[idx < conj_index]
        mode_order = np.concatenate([idx[conj_index == idx], pair, conj_index[pair]])
        mode_order.setflags(write=False)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "conj_index", conj_index)
        object.__setattr__(self, "_mode_order", mode_order)

    @property
    def size(self) -> int:
        return self.n_per_dim**self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_per_dim,) * self.dim

    def grid_axes(self) -> tuple[np.ndarray, ...]:
        """Physical grid coordinates, ``x_j = 2 pi j / n`` per axis."""
        x = 2.0 * np.pi * np.arange(self.n_per_dim) / self.n_per_dim
        return (x,) * self.dim


@dataclass(frozen=True, eq=False)
class SpectralField:
    """A field on the torus stored as a flat complex coefficient vector."""

    lattice: FrequencyLattice
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.lattice.size,):
            raise ValueError(
                f"coeffs must have shape ({self.lattice.size},), got {c.shape}"
            )
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        if self.lattice != other.lattice:
            raise ValueError("lattice mismatch")
        return SpectralField(self.lattice, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        if self.lattice != other.lattice:
            raise ValueError("lattice mismatch")
        return SpectralField(self.lattice, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.lattice, self.coeffs * scalar)

    __rmul__ = __mul__


def build_lattice(dim: int, n_per_dim: int) -> FrequencyLattice:
    """Construct the frequency lattice for ``T^dim`` with ``n_per_dim`` points per axis."""
    return FrequencyLattice(dim, n_per_dim)


def forward_transform(lattice: FrequencyLattice, values) -> SpectralField:
    """Transform real grid samples to spectral coefficients.

    ``values`` must be a real array with ``lattice.size`` samples, either flat
    or shaped ``lattice.shape``.  The round trip with
    :func:`inverse_transform` is exact to machine precision.
    """
    if np.iscomplexobj(values):
        raise TypeError("grid samples must be real")
    v = np.asarray(values, dtype=np.float64)
    if v.size != lattice.size:
        raise ValueError(
            f"expected {lattice.size} samples, got {v.size}"
        )
    v = v.reshape(lattice.shape)
    coeffs = np.fft.fftn(v) / lattice.size
    return SpectralField(lattice, coeffs.ravel())


def _mode_groups(lattice: FrequencyLattice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The self-conjugate modes, the earlier member of each pair l, -l in flat order and its
    mate -l: read-only views of the mode order the lattice keeps.  Each axis has two
    self-conjugate components, 0 and -n/2, so there are 2^dim self-conjugate modes."""
    order, ns = lattice._mode_order, 2**lattice.dim
    npair = (lattice.size - ns) // 2
    return order[:ns], order[ns:ns + npair], order[ns + npair:]


def _white_coeffs(lattice: FrequencyLattice, rng: np.random.Generator,
                  batch: int | None = None) -> np.ndarray:
    """Spectral white noise ``fftn(z) / sqrt(K)``, z i.i.d. N(0, 1) on the grid, made exactly
    Hermitian: the later member of each pair l, -l in flat order is set to the exact
    conjugate of the earlier one, and each self-conjugate mode to its real part.

    The earlier members keep the bits of ``fftn(z) / sqrt(K)``; the rest move by rounding
    only.  Shape (K,), or (batch, K) whose row i equals bit for bit the i-th of ``batch``
    single draws from the same generator.
    """
    real, early, late = _mode_groups(lattice)
    lead = () if batch is None else (batch,)
    z = rng.standard_normal((*lead, *lattice.shape))
    coeffs = np.fft.fftn(z, axes=tuple(range(len(lead), z.ndim))).reshape(*lead, lattice.size)
    del z
    # re and im times 1 / sqrt(K) in place: the bits numpy's complex / real scalar gives
    coeffs.view(np.float64)[...] *= 1.0 / np.sqrt(lattice.size)
    mirror = coeffs[..., early]
    np.conjugate(mirror, out=mirror)
    coeffs[..., late] = mirror
    coeffs.imag[..., real] = 0.0
    return coeffs


def sobolev_weight(lattice: FrequencyLattice, q: float) -> np.ndarray:
    """Bessel weights (1 + |l|^2)^q on every mode, the one H^q bracket of the package."""
    return (1.0 + lattice.weights) ** q


def sobolev_norm(u: SpectralField, q: float) -> float:
    """H^q norm: sqrt of sum over modes of (1 + |l|^2)^q |u_l|^2."""
    return float(np.sqrt(np.sum(sobolev_weight(u.lattice, q) * np.abs(u.coeffs) ** 2)))


def hermitian_defect(field: SpectralField) -> float:
    """Max absolute deviation from coeff(-l) = conj(coeff(l))."""
    c = field.coeffs
    return float(np.max(np.abs(c - np.conj(c[field.lattice.conj_index]))))


def inverse_transform(field: SpectralField) -> np.ndarray:
    """Transform spectral coefficients back to real grid samples.

    Requires Hermitian symmetry of the coefficients; the residual imaginary
    part is verified against ``HERMITIAN_TOL`` and then discarded.
    """
    lat = field.lattice
    scale = max(1.0, float(np.max(np.abs(field.coeffs))))
    defect = hermitian_defect(field)
    if defect > HERMITIAN_TOL * scale:
        raise ValueError(
            f"coefficients are not Hermitian-symmetric: defect {defect:.3e} "
            f"exceeds {HERMITIAN_TOL:.1e} * {scale:.3e}"
        )
    w = np.fft.ifftn(field.coeffs.reshape(lat.shape)) * lat.size
    return np.real(w)


# ---------------------------------------------------------------------------
# cosine/sine basis
#
# The unitary Q maps exponential coefficients u to real coordinates for real
# fields: a self-conjugate mode keeps u_l, and each pair l, -l gives
# (u_l + u_-l) / sqrt(2) and -i (u_l - u_-l) / sqrt(2), listed as
# [self-conjugate modes, cosines of the pairs, sines of the pairs].  An
# operator X that maps real fields to real fields, X_{-k,-l} = conj(X_{k,l}),
# is the real matrix Q X Q^H in this basis, and the dense posterior takes no other.  Both directions below cost one
# permuting copy and a few in-place passes over K^2 entries; on a stack of
# row vectors, Q x and Q^H y per row, they cost the same over its entries.

# A matrix in the cosine/sine basis counts as real when its imaginary part is
# at most this much of its largest entry.
_CS_REAL_TOL = 1e-12


def _cosine_sine_modes(lattice: FrequencyLattice) -> tuple[np.ndarray, int, int]:
    """Flat indices of the self-conjugate modes, the l < -l member of each pair
    and its mate -l, concatenated (the order the lattice keeps); and the counts of the
    first two groups."""
    real, pair, _ = _mode_groups(lattice)
    return lattice._mode_order, real.size, pair.size


def _butterfly(a: np.ndarray, b: np.ndarray):
    """(a, b) <- ((a + b) / sqrt(2), (a - b) / sqrt(2)) in place."""
    a *= np.sqrt(0.5)
    b *= np.sqrt(0.5)
    a += b
    b *= -2.0
    b += a


# rows per block of the matrix forms; even, so each cosine row comes with its sine row
_CS_BLOCK = 64


def _cs_row_blocks(ns: int, npair: int) -> list[tuple[np.ndarray, int]]:
    """Blocks of at most ``_CS_BLOCK`` rows in cosine/sine order: self-conjugate rows, then
    cosine rows followed by their sine rows; each with its count of cosine rows (0 for
    self-conjugate ones)."""
    blocks = [(np.arange(i, min(i + _CS_BLOCK, ns)), 0) for i in range(0, ns, _CS_BLOCK)]
    for i in range(0, npair, _CS_BLOCK // 2):
        c = np.arange(ns + i, ns + min(i + _CS_BLOCK // 2, npair))
        blocks.append((np.concatenate([c, c + npair]), c.size))
    return blocks


def _to_cosine_sine(lattice: FrequencyLattice, x: np.ndarray) -> np.ndarray:
    """Q X Q^H for a K x K matrix X that maps real fields to real fields: a real matrix.

    Transformed in blocks of at most ``_CS_BLOCK`` rows, whose real parts are written
    straight to the result, so no other K x K array is made.  Raises ValueError when the
    imaginary parts are not at rounding level (``_CS_REAL_TOL``): X does not keep real
    fields real.
    """
    x = np.asarray(x)
    order, ns, npair = _cosine_sine_modes(lattice)
    cos, sin = slice(ns, ns + npair), slice(ns + npair, None)
    out = np.empty(x.shape)
    size = residue = 0.0
    for rows, h in _cs_row_blocks(ns, npair):
        z = x[np.ix_(order[rows], order)].astype(np.complex128, copy=False)
        if h:
            _butterfly(z[:h], z[h:])
            z[h:] *= -1j
        _butterfly(z[:, cos], z[:, sin])
        z[:, sin] *= 1j
        re, im = z.real, z.imag
        size = max(size, re.max(initial=0.0), -re.min(initial=0.0))
        residue = max(residue, im.max(initial=0.0), -im.min(initial=0.0))
        out[rows] = re
    if residue > _CS_REAL_TOL * max(size, residue):
        raise ValueError("operator does not map real fields to real fields")
    return out


def _from_cosine_sine(lattice: FrequencyLattice, y: np.ndarray) -> np.ndarray:
    """Q^H Y Q for a real K x K matrix Y, the inverse of :func:`_to_cosine_sine`, complex;
    exactly Hermitian when Y is symmetric.

    Each entry is written once from its closed form, in blocks of at most ``_CS_BLOCK``
    rows.  For a real Y, pairs l, k with cosine and sine rows c, s and columns c', s':
    X_{l,k} = [(Y_cc' + Y_ss') + i (Y_sc' - Y_cs')] / 2 and
    X_{l,-k} = [(Y_cc' - Y_ss') + i (Y_cs' + Y_sc')] / 2; for self-conjugate r and r',
    X_{l,r} = (Y_cr + i Y_sr) / sqrt(2), X_{r,k} = (Y_rc' - i Y_rs') / sqrt(2) and
    X_{r,r'} = Y_rr'; the mate rows are X_{-l,k} = conj X_{l,-k}.  For an exactly symmetric
    Y the mirror of an entry takes the same operations on the mirrored entries of Y, and
    these sums and differences commute or change sign exactly, so X is exactly Hermitian.
    No other K x K array is made.
    """
    order, ns, npair = _cosine_sine_modes(lattice)
    cos, sin = slice(ns, ns + npair), slice(ns + npair, None)
    back = np.argsort(order)
    out = np.empty(y.shape, dtype=np.complex128)
    for rows, h in _cs_row_blocks(ns, npair):
        # rows ``rows`` of Q^H Y Q, in cosine/sine column order
        w = y[rows]
        z = np.empty(w.shape, dtype=np.complex128)
        re, im = z.real, z.imag
        if h:
            wc, ws = w[:h], w[h:]
            np.add(wc[:, cos], ws[:, sin], out=re[:h, cos])
            np.subtract(ws[:, cos], wc[:, sin], out=im[:h, cos])
            np.subtract(wc[:, cos], ws[:, sin], out=re[:h, sin])
            np.add(wc[:, sin], ws[:, cos], out=im[:h, sin])
            z[:h, ns:] *= 0.5
            np.multiply(wc[:, :ns], np.sqrt(0.5), out=re[:h, :ns])
            np.multiply(ws[:, :ns], np.sqrt(0.5), out=im[:h, :ns])
            np.conjugate(z[:h, sin], out=z[h:, cos])  # the mate rows
            np.conjugate(z[:h, cos], out=z[h:, sin])
            np.conjugate(z[:h, :ns], out=z[h:, :ns])
        else:
            z[:, :ns] = w[:, :ns]
            np.multiply(w[:, cos], np.sqrt(0.5), out=re[:, cos])
            np.multiply(w[:, sin], -np.sqrt(0.5), out=im[:, cos])
            np.conjugate(z[:, cos], out=z[:, sin])
        out[order[rows]] = np.take(z, back, axis=1, mode="clip")  # faster than z[:, back]
    return out


def _rows_to_cosine_sine(lattice: FrequencyLattice, x: np.ndarray) -> np.ndarray:
    """Q x for each row x of an (n, K) stack (or one vector); real when the imaginary
    part of the whole stack is at rounding level."""
    order, ns, npair = _cosine_sine_modes(lattice)
    cos, sin = slice(ns, ns + npair), slice(ns + npair, None)
    y = np.asarray(x, dtype=np.complex128)[..., order]
    _butterfly(y[..., cos], y[..., sin])
    y[..., sin] *= -1j
    return _real_if_rounding(y)


def _rows_from_cosine_sine(lattice: FrequencyLattice, y: np.ndarray) -> np.ndarray:
    """Q^H y for each row y of an (n, K) stack (or one vector), the inverse of
    :func:`_rows_to_cosine_sine`, complex."""
    order, ns, npair = _cosine_sine_modes(lattice)
    cos, sin = slice(ns, ns + npair), slice(ns + npair, None)
    z = y.astype(np.complex128)
    z[..., sin] *= 1j
    _butterfly(z[..., cos], z[..., sin])
    out = np.empty_like(z)
    out[..., order] = z
    return out


def _real_if_rounding(y: np.ndarray) -> np.ndarray:
    """The real part of ``y`` when its imaginary part is at rounding level, else ``y``."""
    if not np.iscomplexobj(y):
        return y
    re, im = y.real, y.imag
    size = max(re.max(initial=0.0), -re.min(initial=0.0))
    residue = max(im.max(initial=0.0), -im.min(initial=0.0))
    if residue > _CS_REAL_TOL * max(size, residue):
        return y
    return np.ascontiguousarray(re)
