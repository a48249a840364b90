"""The exact law of the weighted squared norm of a posterior Gaussian draw.

:class:`MultiplierBall` is the law of S = sum_l w_l |(C^{1/2} xi + o)_l|^2 for spectral white
noise xi, H^zeta weights w and an offset o: a shift plus a weighted sum of independent
noncentral chi-squares (Imhof 1961; Davies 1980).  It is built from a real root of C in the
cosine/sine basis, K values for a multiplier posterior (the diagonal case) or square blocks
on classes of coordinates, and :meth:`MultiplierBall._escape_probs` evaluates its tail for a
stack of offsets with a stated absolute error.  :func:`posterior._trace_ball` builds the law.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import FrequencyLattice, _rows_to_cosine_sine


# Shares of the error bound stated by MultiplierBall._escape_probs, each an
# absolute probability: aliasing on either side of the integration period,
# truncation of the integral, and the Chernoff bound below which a far tail
# is settled as exactly 0 or 1.
_ALIAS_TOL = 1e-11
_TRUNC_TOL = 1e-11
_TAIL_TOL = 1e-11
# A grid holds at most this many (group, node) terms, and a Poisson window of
# _pair_tail this many counts; where the cut-off or the window needs more, the
# larger truncation or left-out bound is stated as it is.
_MAX_TERMS = 1 << 22
# Chernoff parameters in units of 1 / (2 max lambda): the upper tail needs
# 0 < t < 1 / (2 max lambda), the lower tail any t > 0.
_S_UPPER = np.concatenate([np.geomspace(1e-9, 0.5, 120), 1.0 - np.geomspace(0.5, 1e-12, 101)[1:]])
_S_LOWER = np.geomspace(1e-9, 1e15, 250)


def _poisson_window(m: float) -> tuple[int, np.ndarray, float]:
    """For N ~ Poisson(m), m > 0: the first count lo of the counts within about
    sqrt(60 m) + 60 of m (at most _MAX_TERMS), their probabilities, from log ratios summed
    outward from the mode (no ``lgamma`` of a large count cancels) and normalised over the
    window, and the Chernoff bound e^-m (e m / j)^j on the mass left out on each side."""
    mode = math.floor(m)
    half = min(math.ceil(math.sqrt(60.0 * m) + 60.0), (_MAX_TERMS - 1) // 2)
    lo, k = max(0, mode - half), min(mode, half)
    step = np.log(m / np.arange(lo + 1, mode + half + 1))  # log P(N = j) / P(N = j - 1)
    prob = np.exp(np.concatenate([np.cumsum(-step[:k][::-1])[::-1], [0.0], np.cumsum(step[k:])]))
    out = [math.exp(j - m + j * math.log(m / j)) if j else math.exp(-m)
           for j in (lo - 1, mode + half + 1) if j >= 0]
    return lo, prob / prob.sum(), sum(out)


def _pair_tail(x: float, nc: float) -> tuple[float, float]:
    """P(X >= x) for X ~ chi^2(2, nc), x > 0, and a bound on its absolute error.

    X >= x iff N_{x/2} <= N_{nc/2} for independent Poisson counts (the Poisson mixture of
    the noncentral chi-square): e^{-x/2} for nc = 0, else the sum of P(N_{nc/2} = j)
    P(N_{x/2} <= j) over the windows of :func:`_poisson_window`.  The bound is twice the
    mass they leave out plus rounding: a probability d counts from the mode sums d log
    ratios, so it is off by about d eps relative."""
    eps = np.finfo(float).eps
    if nc == 0:
        return math.exp(-0.5 * x), 8.0 * eps
    lo_x, p_x, out_x = _poisson_window(0.5 * x)
    lo_nc, p_nc, out_nc = _poisson_window(0.5 * nc)
    cdf_x = np.concatenate([[0.0], np.cumsum(p_x)])  # P(N_{x/2} <= lo_x + i - 1)
    at = np.clip(np.arange(lo_nc, lo_nc + p_nc.size) - lo_x + 1, 0, p_x.size)
    p = min(max(float(p_nc @ cdf_x[at]), 0.0), 1.0)
    return p, 2.0 * (out_x + out_nc) + 8.0 * eps * (p_x.size + p_nc.size)


class _Grid:
    """Midpoint nodes u_k = (k + 1/2) 2 pi / span up to the node ``cutoff`` and the central
    part of log phi: O(n) numbers, built by the :meth:`MultiplierBall._escape_probs` call
    that reads them, as is the noncentral node table, G x n."""

    def __init__(self, ball: "MultiplierBall", span: float, cutoff: float):
        step = 2.0 * math.pi / span
        n = min(math.ceil(cutoff / step - 0.5) + 1, _MAX_TERMS // ball.lam.size)
        self.k_half = np.arange(n) + 0.5
        self.u = self.k_half * step
        terms = np.outer(ball.lam, -2j * self.u)
        terms += 1.0
        self.log_phi = -0.5 * (ball.dof @ np.log(terms, out=terms))
        self.truncation = ball._truncation_bound(self.u[-1])


class MultiplierBall:
    """Exact tail of the weighted squared norm of a posterior Gaussian draw, built from a
    real root of the posterior covariance in the cosine/sine basis.

    For spectral white noise xi as ``lattice._white_coeffs`` draws it for every sampler
    (the law of ``fftn(z) / sqrt(K)``, exactly Hermitian), z = Q xi is real standard
    normal, and a real root R, R R^T = C_cs, gives the draw Q^H R z of C^{1/2} xi.  The
    H^zeta weights w are diagonal in the cosine/sine basis, so with Y = sqrt(w) R and
    b = sqrt(w) Q o the statistic S = sum_l w_l |(C^{1/2} xi + o)_l|^2 is |Y z + b|^2.
    One ``eigh`` Y^T Y = V diag(mu) V^T gives S = R + Q, the shift
    R = |b|^2 - sum_k t_k^2 / mu_k plus Q = sum_k mu_k (Z_k + t_k / mu_k)^2 for Z = V^T z
    and t = Re(Q o)^T sqrt(w) Y V: a sum of independent noncentral chi-squares of one
    degree of freedom each (Imhof 1961; Davies 1980).  The imaginary part of Q o, an
    offset that is not a real field, goes into R.  A multiplier posterior is the
    diagonal case: each cosine and each sine coordinate of mode l has variance c_l, so
    its root is the K values sqrt(c) in cosine/sine order, mu = w c, V = I and
    t = Re(Q o) w sqrt(c), with no ``eigh``.  Equal mu are merged into groups
    lambda_g chi^2(h_g, nc_g), adding degrees of freedom and noncentralities.  Blocks
    (idx, R_c) of a root on classes idx, each increasing (:func:`posterior._pencil`; a K x K
    root is the one class arange(K)), take one ``eigh`` per class, whose mu concatenate.

    The groups and the central Chernoff tables depend only on the root and the weights;
    only nc_g and R depend on the offset, so one instance serves every replicate, and
    :meth:`_escape_probs` takes a whole (replicate, K) stack of offsets in one call, or
    none for the central law: the law's one tail entry point.  A law keeps O(G + T)
    numbers beyond its K-sized term indices and projection, for G groups and T Chernoff
    points: each call builds the integration grid of each period it reads (a power of
    two) and, when it reads offsets, the G x T and G x n noncentral tables in one scratch
    buffer, and drops them when it returns.  A dense law that reads offsets keeps its
    projection sqrt(w) Y V, block-diagonal: per class its coordinates, its live terms'
    places in group order and their columns; with ``offsets`` False ``eigvalsh`` gives mu,
    it keeps no projection and reads central tails only.
    """

    def __init__(self, root, w: np.ndarray, lattice: FrequencyLattice, offsets: bool = True):
        k, diagonal = lattice.size, isinstance(root, np.ndarray)  # else blocks (idx, R_c)
        real = (np.isrealobj(root) and root.shape == (k,) if diagonal else
                np.array_equal(np.sort(np.concatenate([idx for idx, _ in root])), np.arange(k))
                and all(np.isrealobj(x) and x.shape == (idx.size,) * 2
                        and np.all(np.diff(idx) > 0) for idx, x in root))
        if not real or w.shape != (k,):
            raise ValueError(f"real root of shape ({k},), or a list of its real square blocks "
                             f"on a partition of the coordinates, and weights ({k},) needed")
        self._w = w[np.argsort(lattice._mode_order)]  # in exponential order
        self._lattice, self._proj = lattice, None
        if diagonal:  # Y^T Y = diag(w root^2): V = I and the projection w root
            self._terms = self._group(w * root**2)
            self._proj = (w * root)[self._terms]
            return
        mus, factors = [], []
        for idx, x in root:
            sw = np.sqrt(w[idx])
            y = sw[:, None] * x
            m = y.T @ y
            if offsets:
                mu, v = np.linalg.eigh(m)
                factors.append((idx, sw, y, v))
            else:
                del y
                mu = np.linalg.eigvalsh(m)
            mus.append(mu)
        del m
        terms = self._group(np.concatenate(mus))
        if offsets:  # each class's block: the columns of its live terms, in group order
            self._proj, first = [], 0
            for idx, sw, y, v in factors:
                places = np.flatnonzero((terms >= first) & (terms < first + idx.size))
                self._proj.append((idx, places, sw[:, None] * (y @ v[:, terms[places] - first])))
                first += idx.size

    def _group(self, quad: np.ndarray) -> np.ndarray:
        """Merge the terms lambda = quad > 0, one degree of freedom each, into groups of
        equal lambda and build the law's tables.  Returns the indices of the live terms in
        group order."""
        live = np.flatnonzero(quad > 0)
        terms = live[np.argsort(quad[live], kind="stable")]
        quad = quad[terms]
        self.lam, self._starts, dof = np.unique(quad, return_index=True, return_counts=True)
        self.dof = dof.astype(float)
        self._nc_coef = 1.0 / quad**2  # scales t^2 into each term's noncentrality
        if self.lam.size:
            self._chernoff_tables()
        return terms

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

    def _log_mgf(self, nc: np.ndarray, kn=None):
        """log E exp(t Q) on the upper grid and at -t on the lower one, one row per row of
        the (n, G) noncentralities ``nc`` with the tables ``kn`` of
        :meth:`_noncentral_tables`, one product per table; without ``kn`` the central
        law's one row."""
        if kn is None:
            return self._k_up[None], self._k_lo[None]
        return self._k_up + nc @ kn[0], self._k_lo + nc @ kn[1]

    def _log_tails(self, k_up, k_lo, y: np.ndarray):
        """Chernoff log bounds on P(X_i >= y_i) and P(X_i <= y_i) for the log MGF rows; a
        product t y past the float range is inf, which gives each bound its limit."""
        with np.errstate(over="ignore"):
            return (np.minimum(0.0, np.min(k_up - self._t_up * y[:, None], axis=1)),
                    np.minimum(0.0, np.min(k_lo + self._t_lo * y[:, None], axis=1)))

    def _truncation_bound(self, u: float) -> float:
        """Bound on (1/pi) int_u^inf |phi(v)| / v dv: |phi(v)| <= prod_g (1 + 4 lambda_g^2
        v^2)^(-h_g / 4), and for v >= u each factor is at most its value at u and, for the
        groups with x_g = 2 lambda_g u > 1, at most (2 lambda_g v)^(-h_g / 2), a power law
        that integrates to the bound."""
        x = 2.0 * self.lam * u
        big = x > 1.0
        h_big = float(self.dof[big].sum())
        if h_big == 0:
            return math.inf
        log_rest = -0.25 * float(self.dof[~big] @ np.log1p(x[~big] ** 2))
        log_big = -0.5 * float(self.dof[big] @ np.log(x[big]))
        return 2.0 / (math.pi * h_big) * math.exp(log_rest + log_big)

    def _cutoff_for(self) -> float:
        """Smallest node u (to 1%) whose truncation bound is below _TRUNC_TOL."""
        hi = 1.0 / (2.0 * self.lam[-1])
        while self._truncation_bound(hi) > _TRUNC_TOL:
            hi *= 2.0
            if hi * self.lam[-1] > 1e30:
                return math.inf
        lo = hi / 2.0
        while hi > 1.01 * lo:
            mid = math.sqrt(lo * hi)
            if self._truncation_bound(mid) > _TRUNC_TOL:
                lo = mid
            else:
                hi = mid
        return hi

    def _noncentralities(self, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Noncentralities nc (n, G) and shifts R (n,) of an (n, K) stack of offsets, real
        or complex: t = Re(Q o) times the projection, a product per class for a dense root
        and a scaling of the live terms for a diagonal one."""
        if offsets.ndim != 2 or offsets.shape[1] != self._w.size:
            raise ValueError(f"offsets have shape {offsets.shape}, expected (n, {self._w.size})")
        re, im = offsets.real, offsets.imag  # sum_l w_l |o_l|^2, with no BLAS dot per row
        norms = np.einsum("ik,ik,k->i", re, re, self._w) + np.einsum("ik,ik,k->i", im, im, self._w)
        if not np.isfinite(norms).all():
            raise ValueError("offset must be finite")
        if not self.lam.size:
            return np.zeros((len(offsets), 0)), norms
        if self._proj is None:
            raise ValueError("this dense law was built for central tails only")
        qo = _rows_to_cosine_sine(self._lattice, offsets).real
        if isinstance(self._proj, np.ndarray):
            t = np.take(qo, self._terms, axis=1) * self._proj
        else:  # per class; one class holds the K coordinates in order: no gather
            t = np.empty((len(qo), self._nc_coef.size))
            for idx, places, proj in self._proj:
                t[:, places] = (qo if len(self._proj) == 1 else qo[:, idx]) @ proj
        t *= t
        t *= self._nc_coef
        nc = np.add.reduceat(t, self._starts, axis=1)
        # a group's terms have t^2 / mu summing to lambda_g nc_g
        return nc, norms - np.einsum("ig,g->i", nc, self.lam)

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

    def _escape_probs(self, radius: float, offsets=None) -> tuple[np.ndarray, np.ndarray]:
        """P(S_i >= radius^2) and bounds on their absolute errors, one for each row o_i of an
        (n, K) stack of finite offsets, or one for the central law if ``offsets`` is None.

        The tail of Q is the Gil-Pelaez integral of its characteristic
        function phi, summed by the midpoint rule with step 2 pi / span
        (Imhof 1961; Davies 1973, 1980).  The sum is exact up to the aliased
        mass P(X >= c + span) + P(X < c - span), bounded by Chernoff; the
        cut-off of the sum comes from the truncation bound, found once per call
        and only when a row needs the sum.  The result is
        clamped to [0, 1] and to the Chernoff bounds of Q, which settle far
        tails as exactly 0 or 1.  The stated bound adds aliasing, truncation
        and a floating-point allowance.  A lone real mode, and a lone group of
        two degrees of freedom (:func:`_pair_tail`), take their closed forms.
        A radius whose square is past the float range, inf too, gives P = 0 with
        bound 0.

        Rows share each step that does not depend on the row's numbers: one product per
        Chernoff table for every row, then, for the rows the tails do not settle, one
        product with the noncentral table and one ``exp`` per period.  Each row's bound
        keeps its own terms.  Each period's integration grid is built where it is read, and
        the noncentral tables, G x T and G x n, in one scratch buffer for this call (grown
        only for a grid that needs more); all are dropped when it returns.
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
        k_up, k_lo = self._log_mgf(nc, kn)
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
        if self.dof.tolist() == [2.0]:  # a lone pair: lambda chi^2(2, nc)
            for r, i in enumerate(rows.tolist()):
                p[i], bound[i] = _pair_tail(c[r] / self.lam[0], nc[r, 0])
            return p, bound

        k_up, k_lo = k_up[keep], k_lo[keep]
        del kn  # read no more: the node tables reuse its buffer
        cutoff = self._cutoff_for()
        log_eps = math.log(_ALIAS_TOL)
        y_up = np.min((k_up - log_eps) / self._t_up, axis=1)
        y_lo = np.max((log_eps - k_lo) / self._t_lo, axis=1)
        exponents = np.array([math.ceil(math.log2(x))
                              for x in np.maximum(y_up - c, c - np.maximum(y_lo, 0.0)).tolist()])
        span = 2.0**exponents
        alias_up = self._log_tails(k_up, k_lo, c + span)[0]
        alias_lo = self._log_tails(k_up, k_lo, c - span)[1]

        total, rounding, truncation = np.empty((3, rows.size))
        for exponent in np.unique(exponents).tolist():
            sel = exponents == exponent
            grid = _Grid(self, 2.0**exponent, cutoff)
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
            if c[r] > span[r]:
                alias += math.exp(alias_lo[r])
            p_i = 0.5 + total[r] / math.pi
            p_i = min(max(p_i, 0.0), 1.0, math.exp(log_up[r]))
            p[i] = max(p_i, 1.0 - math.exp(log_lo[r]))
            bound[i] = alias + truncation[r] + eps * rounding[r] / math.pi
        return p, bound
