"""References shared by several test modules, given as fixtures, and one law builder.

Besides the unblocked cosine/sine transcription they are the oracles that no
production path calls: the direct dense MAP solve, the Monte Carlo ball
probabilities, the exact tail of a central law of conjugate pairs, the
quadrature tail of one noncentral pair and the replicate means of the
frequentist and contraction statistics.  :func:`diagonal_ball`, which test
modules import, builds the ball law of a multiplier root; :func:`full_pencil` and
:func:`class_shapes` read the classes of a kept pencil.
"""

import decimal
import math

import numpy as np
import pytest

from torusbayes._ball import MultiplierBall
from torusbayes.experiments import make_hat_truth
from torusbayes.fields import _rng, sample_white_noise
from torusbayes.lattice import SpectralField, _cosine_sine_modes, _white_coeffs, sobolev_weight
from torusbayes.operators import apply
from torusbayes.posterior import _trace_ball, _values, map_estimate


def _unblocked_from_cosine_sine(lat, m):
    """Q^H M Q for a real M from the closed forms on the whole matrix at once: rows and
    columns of M in cosine/sine order, of the result in exponential order."""
    order, ns, npair = _cosine_sine_modes(lat)
    r, cos, sin = slice(0, ns), slice(ns, ns + npair), slice(ns + npair, None)
    z = np.empty(m.shape, dtype=np.complex128)
    z.real[cos, cos] = 0.5 * (m[cos, cos] + m[sin, sin])
    z.imag[cos, cos] = 0.5 * (m[sin, cos] - m[cos, sin])
    z.real[cos, sin] = 0.5 * (m[cos, cos] - m[sin, sin])
    z.imag[cos, sin] = 0.5 * (m[cos, sin] + m[sin, cos])
    z.real[cos, r] = np.sqrt(0.5) * m[cos, r]
    z.imag[cos, r] = np.sqrt(0.5) * m[sin, r]
    z[sin, cos], z[sin, sin], z[sin, r] = z[cos, sin].conj(), z[cos, cos].conj(), z[cos, r].conj()
    z[r, r] = m[r, r]
    z.real[r, cos] = np.sqrt(0.5) * m[r, cos]
    z.imag[r, cos] = -np.sqrt(0.5) * m[r, sin]
    z[r, sin] = z[r, cos].conj()
    back = np.argsort(order)
    return z[np.ix_(back, back)]


@pytest.fixture
def unblocked_from_cosine_sine():
    """The unblocked transcription of ``lattice._from_cosine_sine``, for byte pins."""
    return _unblocked_from_cosine_sine


def diagonal_ball(root, lattice, zeta: float = 0.0) -> MultiplierBall:
    """The ball law of the multiplier root ``root``, K real values in exponential order and
    even in l, under H^zeta weights: the diagonal root root[order] and the weights w[order]
    in cosine/sine order, as ``posterior._trace_ball`` builds its law from them."""
    root = np.asarray(root)
    assert np.isrealobj(root) and np.array_equal(root, root[lattice.conj_index])
    order = lattice._mode_order
    return MultiplierBall(root[order], sobolev_weight(lattice, zeta)[order], lattice)


def full_pencil(pencil, k: int):
    """lam and F of the whole K x K pencil from the classes (idx, [lam; F]) that
    ``posterior._pencil`` keeps: F block-diagonal on the classes, its columns class by
    class.  Checks that the classes are real blocks on a partition of the K coordinates."""
    lam, f, first = np.empty(k), np.zeros((k, k)), 0
    for idx, block in pencil:
        assert block.dtype == np.float64 and block.shape == (idx.size + 1, idx.size)
        cols = slice(first, first + idx.size)
        lam[cols], f[idx, cols] = block[0], block[1:]
        first += idx.size
    assert np.array_equal(np.sort(np.concatenate([idx for idx, _ in pencil])), np.arange(k))
    return lam, f


def class_shapes(pencil) -> list[tuple[int, int]]:
    """The shape of each class's ``eigh`` matrix, in the pencil's class order."""
    return [(idx.size, idx.size) for idx, _ in pencil]


def _map_estimate_discrete(a_mat, c_mat, delta: float, mvec) -> np.ndarray:
    """Direct dense solve of (A^H A + delta^2 C^{-1}) u = A^H m; ``a_mat`` may be
    rectangular (k measurements of an n-vector)."""
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


@pytest.fixture
def map_estimate_discrete():
    """The direct dense solve, an oracle for ``posterior.map_estimate`` and its pencil."""
    return _map_estimate_discrete


def _mc_ball_hits(root: np.ndarray, lattice, zeta1: float, radius: float,
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


@pytest.fixture
def mc_ball_hits():
    """The sampling oracle for the exact ball law, on a root given as values or a matrix."""
    return _mc_ball_hits


def _credible_ball_prob(post, zeta1: float, radius: float, n_mc: int, seed=None,
                        offset=None) -> tuple[float, float]:
    """Monte Carlo posterior probability of the H^zeta1 ball of given radius.

    The ball is centred at the posterior mean minus ``offset`` (coefficients,
    default zero), so the draws are W = C^{1/2} xi + offset, C^{1/2} the
    ``sqrt_cov`` of ``post``.  Centred at the mean, the result is independent of
    the measurement.  Returns (probability, binomial standard error).  The root
    is evaluated once on the mean's lattice.
    """
    if n_mc < 100:
        raise ValueError(f"n_mc must be at least 100, got {n_mc}")
    if offset is not None:
        offset = np.asarray(offset, dtype=np.complex128)
    lattice = post.mean.lattice
    return _mc_ball_hits(_values(post.sqrt_cov, lattice), lattice, zeta1, radius, n_mc,
                         _rng(seed), offset)


@pytest.fixture
def credible_ball_prob():
    """Monte Carlo ball probabilities of a posterior, an oracle for the exact ball law."""
    return _credible_ball_prob


def _hypoexponential_tail(lam, c: float) -> float:
    """P(S > c) for S = sum_g lam_g chi^2_2 with distinct lam_g (the hypoexponential law):
    sum_g prod_{h != g} lam_g / (lam_g - lam_h) exp(-c / (2 lam_g)).  The products cancel
    badly in float64, so the sum is taken in decimal at 60 digits from the exact values
    of the floats ``lam`` and ``c``."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        lam = [decimal.Decimal(float(x)) for x in lam]
        c = decimal.Decimal(float(c))
        total = decimal.Decimal(0)
        for g, lam_g in enumerate(lam):
            term = (-c / (2 * lam_g)).exp()
            for h, lam_h in enumerate(lam):
                if h != g:
                    term *= lam_g / (lam_g - lam_h)
            total += term
        return float(total)


@pytest.fixture
def hypoexponential_tail():
    """The exact tail of a central law whose groups are all conjugate pairs."""
    return _hypoexponential_tail


def _noncentral_pair_tail(x: float, nc: float) -> float:
    """P(X >= x) for X ~ chi^2(2, nc): one minus the integral over [0, x] of the density
    exp(-(t + nc) / 2) I_0(sqrt(nc t)) / 2, by 32-point Gauss-Legendre on panels of width at
    most 1/2.  The density is written exp(-(sqrt(t) - sqrt(nc))^2 / 2) e^-z I_0(z) / 2,
    z = sqrt(nc t), so nothing underflows; ``np.i0`` overflows past z = 700."""
    if nc * x > 700.0**2:
        raise ValueError(f"sqrt(nc x) = {math.sqrt(nc * x):g} is past the range of np.i0")
    nodes, weights = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(0.0, x, math.ceil(2.0 * x) + 1)
    half = 0.5 * np.diff(edges)[:, None]
    t = edges[:-1, None] + half * (1.0 + nodes)
    z = np.sqrt(nc * t)
    density = 0.5 * np.exp(-0.5 * (np.sqrt(t) - math.sqrt(nc)) ** 2 - z) * np.i0(z)
    return 1.0 - float(np.sum(half * weights * density))


@pytest.fixture
def noncentral_pair_tail():
    """The tail of a noncentral chi-square with two degrees of freedom, by quadrature of its
    density: an oracle for the ball law of one group of two degrees of freedom."""
    return _noncentral_pair_tail


def _replicate_rows(cfg, n_rep: int, c0: float | None = None) -> dict:
    """The replicate oracle of the exact ``frequentist`` and ``contraction`` rows of ``cfg``
    under the hat truth u: per noise level, the mean and standard error over ``n_rep``
    replicates of |mean - u|^2 ("mise") and, given ``c0``, of the posterior's exact
    probability of escaping the L2 ball of radius c0 delta^kappa around u ("escape").
    Replicate i draws its data noise e_i from default_rng((cfg.master_seed, 1, i)) and solves
    for the mean of A u + delta e_i by ``map_estimate``, one replicate at a time.  Returns
    (delta, 2) arrays of (mean, standard error)."""
    lat = cfg.lattice()
    u = make_hat_truth(lat).u_dagger.coeffs
    au = apply(cfg.fwd, SpectralField(lat, u)).coeffs
    noise = [sample_white_noise(lat, np.random.default_rng((cfg.master_seed, 1, i))).coeffs
             for i in range(n_rep)]
    out = {"mise": [], "escape": []}
    for delta in cfg.deltas:
        model = cfg.model(delta)
        diffs = np.stack([map_estimate(model, SpectralField(lat, au + delta * e)).coeffs - u
                          for e in noise])
        samples = {"mise": np.sum(np.abs(diffs) ** 2, axis=1)}
        if c0 is not None:
            ball = _trace_ball(model, lat, 0.0)[1]
            samples["escape"] = ball._escape_probs(c0 * delta**cfg.kappa, diffs)[0]
        for key, x in samples.items():
            out[key].append((x.mean(), x.std(ddof=1) / math.sqrt(n_rep)))
    return {key: np.array(rows) for key, rows in out.items()}


@pytest.fixture
def replicate_rows():
    """Replicate means of the frequentist and contraction statistics, the oracle of their
    exact rows."""
    return _replicate_rows
